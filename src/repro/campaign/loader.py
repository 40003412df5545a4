"""Campaign file loading: YAML/JSON parsing with line-level diagnostics.

Two front-ends feed :func:`repro.campaign.spec.compile_campaign`:

* **JSON** — always available (stdlib).  Parse errors carry the line
  and column from :class:`json.JSONDecodeError`; schema/semantic issues
  carry field paths only (stdlib ``json`` has no node positions).
* **YAML** — used when PyYAML is importable; the import is *gated* so
  the package (and JSON campaigns) work on minimal installs, and a
  ``.yaml`` file on such an install fails with an actionable message
  rather than an ImportError traceback.  YAML documents are composed
  into a node tree first (``yaml.compose`` with the safe loader — rule
  RPR010 bans ``yaml.load`` and the Full/Unsafe loaders here) and then
  converted manually, recording the source line of every field into a
  path→line map, so schema issues render as
  ``campaign.yaml:14: scenarios[3].rate_per_site: must be > 0``.

Loading never executes document content: a scalar with a core tag
(null/bool/int/float/str) is typed by PyYAML's safe constructor, exactly
as ``yaml.safe_load`` would type it; every other scalar (a timestamp,
say) keeps its source text.  Collections are built here, so no tag can
construct a Python object and nothing is ``eval``-ed on this path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec, CampaignValidationError, ValidationIssue, compile_campaign

try:  # optional dependency: JSON campaigns work without it
    import yaml as _yaml
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _yaml = None

__all__ = ["yaml_available", "parse_document", "load_campaign", "loads_campaign"]


def yaml_available() -> bool:
    """True when PyYAML is importable (YAML campaigns supported)."""
    return _yaml is not None


#: Tags that PyYAML's safe constructor types; other tags keep their text.
_CORE_TAGS = tuple(f"tag:yaml.org,2002:{t}" for t in ("null", "bool", "int", "float", "str"))


def _scalar_value(node: Any, constructor: Any, path: str,
                  issues: list[ValidationIssue]) -> Any:
    if node.tag not in _CORE_TAGS:
        return node.value
    try:
        return constructor.construct_object(node)
    except (ValueError, KeyError):  # an explicit tag on text it cannot read
        issues.append(ValidationIssue(
            path, f"{node.value!r} is not a valid {node.tag.rsplit(':', 1)[1]}",
            node.start_mark.line + 1))
        return node.value


def _convert_node(node: Any, path: str, lines: dict[str, int],
                  issues: list[ValidationIssue], constructor: Any) -> Any:
    """Convert one composed YAML node, recording line numbers by path."""
    lines.setdefault(path, node.start_mark.line + 1)
    if _yaml is not None and isinstance(node, _yaml.ScalarNode):
        return _scalar_value(node, constructor, path, issues)
    if _yaml is not None and isinstance(node, _yaml.SequenceNode):
        return [
            _convert_node(child, f"{path}[{i}]" if path else f"[{i}]", lines, issues,
                          constructor)
            for i, child in enumerate(node.value)
        ]
    if _yaml is not None and isinstance(node, _yaml.MappingNode):
        out: dict[Any, Any] = {}
        for key_node, value_node in node.value:
            if not isinstance(key_node, _yaml.ScalarNode):
                issues.append(ValidationIssue(
                    path, "mapping keys must be plain scalars",
                    key_node.start_mark.line + 1))
                continue
            key = _scalar_value(key_node, constructor, path, issues)
            key_path = f"{path}.{key}" if path else str(key)
            if key in out:
                issues.append(ValidationIssue(
                    key_path, f"duplicate mapping key {key!r}",
                    key_node.start_mark.line + 1))
            lines.setdefault(key_path, key_node.start_mark.line + 1)
            out[key] = _convert_node(value_node, key_path, lines, issues, constructor)
        return out
    issues.append(ValidationIssue(  # pragma: no cover - exotic node kinds
        path, f"unsupported YAML node {type(node).__name__}",
        node.start_mark.line + 1))
    return None


def _parse_yaml(text: str, source: str) -> tuple[Any, dict[str, int]]:
    if _yaml is None:
        raise CampaignValidationError(
            "parse",
            [ValidationIssue(
                "", "PyYAML is not installed — install pyyaml or convert "
                    "the campaign file to JSON (.json)")],
            source,
        )
    try:
        # Compose (not load): we get the raw node tree with source marks
        # and do the python-object conversion ourselves, line-tracked.
        node = _yaml.compose(text, Loader=_yaml.SafeLoader)
    except _yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise CampaignValidationError(
            "parse", [ValidationIssue("", f"invalid YAML: {exc}", line)], source
        ) from exc
    if node is None:
        raise CampaignValidationError(
            "parse", [ValidationIssue("", "empty document")], source)
    lines: dict[str, int] = {}
    issues: list[ValidationIssue] = []
    data = _convert_node(node, "", lines, issues, _yaml.SafeLoader(""))
    if issues:
        raise CampaignValidationError("parse", issues, source)
    return data, lines


def _parse_json(text: str, source: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignValidationError(
            "parse",
            [ValidationIssue("", f"invalid JSON: {exc.msg} (column {exc.colno})", exc.lineno)],
            source,
        ) from exc


def parse_document(text: str, *, fmt: str,
                   source: str = "<campaign>") -> tuple[Any, dict[str, int]]:
    """Parse campaign text into (data, path→line map).

    ``fmt`` is ``"yaml"`` or ``"json"``.  The line map is empty for
    JSON.  Raises :class:`CampaignValidationError` (kind ``parse``).
    """
    if fmt == "yaml":
        return _parse_yaml(text, source)
    if fmt == "json":
        return _parse_json(text, source), {}
    raise ValueError(f"unknown campaign format {fmt!r} (expected 'yaml' or 'json')")


def _format_for(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "yaml"


def loads_campaign(text: str, *, fmt: str = "yaml",
                   source: str = "<campaign>") -> CampaignSpec:
    """Parse + compile campaign text (see :func:`load_campaign`)."""
    data, lines = parse_document(text, fmt=fmt, source=source)
    return compile_campaign(data, lines=lines, source=source)


def load_campaign(path: str | Path) -> CampaignSpec:
    """Load, validate and expand a campaign file.

    The format is chosen by suffix (``.json`` → JSON, anything else →
    YAML).  Raises :class:`CampaignValidationError` with kind
    ``parse``/``schema``/``semantic``; per-scenario semantic issues are
    *collected* on the returned spec instead (see
    :meth:`CampaignSpec.require_valid`).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignValidationError(
            "parse", [ValidationIssue("", f"cannot read campaign file: {exc}")], str(path)
        ) from exc
    return loads_campaign(text, fmt=_format_for(path), source=str(path))
