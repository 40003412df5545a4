"""Rule engine for the project-specific static-analysis pass.

The engine is deliberately small: a :class:`Rule` is a class with a
``code`` (``RPR001``…), a one-line ``summary``, and a ``check`` method
that walks a parsed file and yields :class:`Finding` objects.  Rules
register themselves with the :func:`rule` decorator; the engine runs
every registered rule over every file, applies ``# repro: noqa[RPRnnn]``
suppressions, and reports suppression comments that suppressed nothing
(code ``RPR000`` — a stale noqa hides future regressions).

The engine knows nothing about the individual rules — the rule pack in
:mod:`repro.analysis.rules` is the extension surface.  Adding a rule is:
subclass :class:`Rule`, decorate with :func:`rule`, document it in
``docs/static_analysis.md``.

Design constraints:

* stdlib only (``ast`` + ``tokenize``) — the pass must run in CI and in
  the bare dev container without installing anything;
* one parse per file (:func:`parse_file`), shared by all rules and
  the call-graph extractor through a :class:`FileContext`;
* deterministic output ordering (path, line, column, code) so diffs of
  the JSON report are stable.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "rule",
    "registered_rules",
    "parse_file",
    "collect_raw_findings",
    "suppressions_for",
    "apply_suppressions",
    "analyze_file",
    "render_text",
    "render_json",
]

#: Code reported for a ``# repro: noqa[...]`` comment that suppressed nothing.
UNUSED_SUPPRESSION = "RPR000"

#: A hash, then ``repro: noqa[RPR001]`` (codes comma-separated); anything
#: after the closing bracket (``-- reason``) is free-form rationale.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")

_CODE_RE = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class FileContext:
    """One parsed file, shared by every rule.

    Attributes
    ----------
    path:
        Path as given on the command line (relative paths stay relative,
        so reports are stable regardless of the checkout location).
    module:
        Best-effort dotted module name (``repro.sim.engine``), derived
        from the path: everything from the last ``repro``/``tests``
        path component on.  Rules use it for package scoping.
    tree:
        The parsed :mod:`ast` module.
    source:
        Raw file text.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.module = _module_name(path)

    def in_package(self, *packages: str) -> bool:
        """True when this file's module lives under any of ``packages``."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".") for pkg in packages
        )


def _module_name(path: Path) -> str:
    parts = list(path.parts)
    parts[-1] = path.stem
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set :attr:`code` and :attr:`summary` and implement
    :meth:`check` as a generator of findings.  Use :meth:`finding` to
    build findings so the path/code plumbing stays in one place.
    """

    code: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a :class:`Rule` by its code."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code must match RPRnnn, got {cls.code!r}")
    if cls.code == UNUSED_SUPPRESSION:
        raise ValueError(f"{UNUSED_SUPPRESSION} is reserved for unused suppressions")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def registered_rules() -> list[type[Rule]]:
    """All registered rule classes, ordered by code."""
    # Importing the pack registers it; the pack imports this module, so
    # the import cannot sit at the top.
    import repro.analysis.rules  # noqa: F401

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def suppressions_for(source: str) -> dict[int, set[str]]:
    """Map line number -> set of codes suppressed on that line.

    Comments are located with :mod:`tokenize` rather than a regex over
    raw lines, so the pattern inside a string literal (e.g. in this very
    module's tests) never registers as a suppression.
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
            out.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenizeError:  # pragma: no cover - parse already succeeded
        pass
    return out


def parse_file(path: Path) -> FileContext | Finding:
    """Read and parse one file, or return its RPR999 finding.

    The bytes are decoded as UTF-8 with replacement, so a stray byte
    never aborts a whole run.
    """
    source = path.read_bytes().decode("utf-8", errors="replace")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code="RPR999",
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(path, source, tree)


def collect_raw_findings(ctx: FileContext) -> list[Finding]:
    """Run the leaf rule pack over one parsed file, pre-suppression."""
    raw: list[Finding] = []
    for rule_cls in registered_rules():
        raw.extend(rule_cls().check(ctx))
    return raw


def apply_suppressions(
    path: str,
    raw: Iterable[Finding],
    suppressions: Mapping[int, Iterable[str]],
) -> list[Finding]:
    """Drop suppressed findings; report stale suppressions (RPR000).

    One :data:`UNUSED_SUPPRESSION` finding is emitted *per line*, naming
    every unused code on it — a line carrying ``noqa[RPR001, RPR007]``
    with neither firing reports once, not twice, so the baseline and the
    human report stay deduplicated.
    """
    used: dict[int, set[str]] = {}
    kept: list[Finding] = []
    for f in raw:
        codes = set(suppressions.get(f.line, ()))
        if f.code in codes:
            used.setdefault(f.line, set()).add(f.code)
        else:
            kept.append(f)
    for line in sorted(suppressions):
        unused = sorted(set(suppressions[line]) - used.get(line, set()))
        if not unused:
            continue
        noun = ", ".join(unused)
        kept.append(
            Finding(
                path=path,
                line=line,
                col=0,
                code=UNUSED_SUPPRESSION,
                message=f"unused suppression: no {noun} finding on this line",
            )
        )
    return sorted(kept)


def analyze_file(path: Path) -> list[Finding]:
    """Run the leaf rule pack over one file, honouring suppressions.

    Returns the surviving findings plus :data:`UNUSED_SUPPRESSION`
    findings for noqa codes that matched nothing (a stale suppression
    would silently swallow the next real violation on that line).
    """
    ctx = parse_file(path)
    if isinstance(ctx, Finding):
        return [ctx]
    raw = collect_raw_findings(ctx)
    return apply_suppressions(str(path), raw, suppressions_for(ctx.source))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py":
            yield p
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-readable report (one finding per line + a summary tail)."""
    lines = [f.render() for f in findings]
    noun = "file" if files_checked == 1 else "files"
    if findings:
        lines.append(f"{len(findings)} finding(s) in {files_checked} {noun}")
    else:
        lines.append(f"clean: 0 findings in {files_checked} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Machine-readable report: stable schema consumed by CI."""
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    doc = {
        "version": 1,
        "files_checked": files_checked,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "rules": {
            cls.code: cls.summary for cls in registered_rules()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=False)
