"""The unified wire schema: one versioned envelope for every result.

Before this module the repo serialized results in four ad-hoc JSON
shapes — ``ExperimentResult.as_dict()``, the campaign salvage report,
the telemetry exporter records and the golden ``expected.json`` — each
with its own field names and its own (or no) versioning story.  The
moment results cross a process boundary (``repro.service`` serves them
over HTTP, CI diffs them, dashboards consume the telemetry) those
shapes become public API, so they are pinned here, once:

* **Envelope.**  Every document carries ``schema_version`` (an integer,
  currently :data:`SCHEMA_VERSION`) and ``kind`` (one of
  :data:`KINDS`).  The rest of the top level is the kind's payload with
  stable field names.
* **Forward compatibility.**  Readers *ignore unknown keys* — a newer
  writer may add fields freely within a schema version.  Removing or
  renaming a field requires a ``schema_version`` bump, which this
  reader refuses loudly (:class:`SchemaVersionError` naming both
  versions) instead of mis-parsing.
* **No pre-envelope shapes.**  A document without ``schema_version``
  (old golden files marked only by ``magic``/``version``, bare
  ``ExperimentResult.as_dict()`` dumps, unstamped telemetry records) is
  refused with :class:`WireFormatError`; re-export it with this build
  (golden files: ``repro campaign FILE --update-golden EXPECTED``).
  The one kind still inferred is telemetry's: records carry
  ``schema_version`` but keep ``type`` (``window``/``summary``) as
  their discriminator.

Everything that turns a result object into JSON text goes through
:func:`dumps` / :func:`dump` (rule RPR011 flags raw ``json.dumps`` of
result objects elsewhere), and every consumer — CLI persistence, the
golden differ, telemetry export, each ``repro.service`` endpoint —
parses through :func:`parse_envelope` / :func:`load_document`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "SchemaVersionError",
    "WireFormatError",
    "envelope",
    "parse_envelope",
    "stamp_telemetry",
    "dump_experiment_result",
    "load_experiment_result",
    "dump_campaign_result",
    "load_campaign_result",
    "dump_golden_summary",
    "load_golden_summary",
    "dump_salvage_report",
    "to_document",
    "load_document",
    "dumps",
    "dump",
    "load",
]

#: Current wire-schema version.  Bump ONLY on an incompatible change
#: (field removed/renamed/retyped); additions ride on the same version.
SCHEMA_VERSION = 1

#: Document kinds the envelope can carry.
KINDS = (
    "experiment-result",
    "campaign-result",
    "golden-summary",
    "salvage-report",
    "telemetry-window",
    "telemetry-summary",
    "campaign-job",
)

class WireFormatError(ValueError):
    """A document is structurally not a repro result envelope."""


class SchemaVersionError(WireFormatError):
    """The document's ``schema_version`` is newer than this reader.

    Raised instead of guessing: a bumped version means a field was
    removed, renamed or retyped, so silently reading the document could
    mis-attribute values.  The message names both versions.
    """


def envelope(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    """Wrap ``body`` in the versioned envelope for ``kind``."""
    if kind not in KINDS:
        raise WireFormatError(f"unknown document kind {kind!r}; known: {KINDS}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **body}


def parse_envelope(
    doc: Any, *, expect: str | None = None
) -> tuple[str, dict[str, Any]]:
    """Validate the envelope; return ``(kind, payload)``.

    Unknown top-level keys are preserved in the returned payload and
    ignored by the typed loaders (forward compatibility).  ``expect``
    pins the kind, turning a mismatch into a loud error instead of a
    downstream ``KeyError``.
    """
    if not isinstance(doc, dict):
        raise WireFormatError(
            f"expected a result document (JSON object), got {type(doc).__name__}"
        )
    version = doc.get("schema_version")
    if version is None:
        raise WireFormatError(
            "document carries no schema_version; pre-envelope shapes are not "
            "read — re-export it with this build (golden files: repro "
            "campaign FILE --update-golden EXPECTED)"
        )
    if isinstance(version, bool) or not isinstance(version, int):
        raise WireFormatError(f"schema_version must be an integer, got {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaVersionError(
            f"document has schema_version {version}, this build reads "
            f"{SCHEMA_VERSION}; upgrade repro (or re-export the document "
            "with the older writer)"
        )
    if version < 1:
        raise WireFormatError(f"schema_version must be >= 1, got {version}")
    kind = doc.get("kind")
    if kind is None and doc.get("type") in ("window", "summary"):
        # Telemetry records keep ``type`` as their discriminator.
        kind = f"telemetry-{doc['type']}"
    if kind is None:
        raise WireFormatError("enveloped document is missing its 'kind'")
    if kind not in KINDS:
        raise WireFormatError(f"unknown document kind {kind!r}; known: {KINDS}")
    if expect is not None and kind != expect:
        raise WireFormatError(f"expected a {expect!r} document, got {kind!r}")
    return kind, doc


def _require(doc: dict, field: str, kind: str) -> Any:
    try:
        return doc[field]
    except KeyError:
        raise WireFormatError(f"{kind} document is missing {field!r}") from None


# ---------------------------------------------------------------------------
# Telemetry records
# ---------------------------------------------------------------------------

def stamp_telemetry(record: dict[str, Any]) -> dict[str, Any]:
    """Stamp ``schema_version`` onto a telemetry window/summary record.

    Telemetry keeps its historical ``type`` discriminator (the JSON-lines
    consumers key on it); the stamp ties each record to the same version
    stream as every other wire document.  Structural validation stays in
    :mod:`repro.obs.schema`.
    """
    record.setdefault("schema_version", SCHEMA_VERSION)
    return record


# ---------------------------------------------------------------------------
# ExperimentResult
# ---------------------------------------------------------------------------

def dump_experiment_result(result: Any) -> dict[str, Any]:
    """``ExperimentResult`` → enveloped document (everything but ``raw``)."""
    return envelope(
        "experiment-result",
        {
            "name": result.name,
            "metadata": result.metadata,
            "tables": result.tables,
            "series": result.series,
            "data": result.data,
            "text": result.text,
        },
    )


def load_experiment_result(doc: Any) -> Any:
    """Enveloped document → ``ExperimentResult``.

    ``raw`` is not on the wire, so the loaded result carries
    ``raw=None``; ``data`` is the runner's result in JSON form (``None``
    for documents written before ``data`` was added).
    """
    from repro.experiments.result import ExperimentResult

    _, doc = parse_envelope(doc, expect="experiment-result")
    return ExperimentResult(
        name=str(_require(doc, "name", "experiment-result")),
        text=str(doc.get("text", "")),
        tables=dict(doc.get("tables", {})),
        series=dict(doc.get("series", {})),
        metadata=dict(doc.get("metadata", {})),
        data=doc.get("data"),
    )


# ---------------------------------------------------------------------------
# CampaignResult
# ---------------------------------------------------------------------------

def _runs_payload(result: Any) -> dict[str, dict[str, Any]]:
    return {
        name: {"seed": run.seed, "metrics": run.metrics}
        for name, run in result.runs.items()
    }


def _quarantine_payload(result: Any) -> list[dict[str, Any]]:
    return [q.as_dict() for q in result.quarantined]


def dump_campaign_result(result: Any) -> dict[str, Any]:
    """``CampaignResult`` → enveloped document.

    ``outcomes`` (the raw supervised envelopes) stay in-process — they
    carry tracebacks and wall-clock attempt counts that legitimately
    differ across resumes; the wire document is exactly the
    deterministic content :meth:`CampaignResult.fingerprint` covers,
    plus the quarantine details.
    """
    return envelope(
        "campaign-result",
        {
            "campaign": result.campaign,
            "seed": result.seed,
            "digest": result.digest,
            "runs": _runs_payload(result),
            "quarantined": _quarantine_payload(result),
            "fingerprint": result.fingerprint(),
        },
    )


def load_campaign_result(doc: Any) -> Any:
    """Enveloped document → ``CampaignResult`` (without ``outcomes``).

    The stored fingerprint is recomputed from the loaded content and
    verified — a mismatch means the document was edited or truncated in
    transit, and silently trusting it would defeat the golden differ.
    """
    from repro.campaign.executor import ScenarioRun
    from repro.campaign.runner import CampaignResult, QuarantineRecord

    _, doc = parse_envelope(doc, expect="campaign-result")
    runs = {
        str(name): ScenarioRun(
            name=str(name),
            seed=int(_require(entry, "seed", "campaign-result")),
            metrics=dict(_require(entry, "metrics", "campaign-result")),
        )
        for name, entry in _require(doc, "runs", "campaign-result").items()
    }
    quarantined = [
        QuarantineRecord(
            name=str(_require(q, "name", "campaign-result")),
            reason=str(_require(q, "reason", "campaign-result")),
            detail=str(q.get("detail", "")),
            attempts=int(q.get("attempts", 0)),
        )
        for q in doc.get("quarantined", [])
    ]
    result = CampaignResult(
        campaign=str(_require(doc, "campaign", "campaign-result")),
        seed=int(_require(doc, "seed", "campaign-result")),
        digest=str(_require(doc, "digest", "campaign-result")),
        runs=runs,
        outcomes=[],
        quarantined=quarantined,
    )
    stored = doc.get("fingerprint")
    if stored is not None and stored != result.fingerprint():
        raise WireFormatError(
            f"campaign-result fingerprint mismatch: document says {stored}, "
            f"content hashes to {result.fingerprint()} — refusing a "
            "tampered/truncated result"
        )
    return result


# ---------------------------------------------------------------------------
# Golden summaries
# ---------------------------------------------------------------------------

def dump_golden_summary(result: Any) -> dict[str, Any]:
    """``CampaignResult`` → enveloped, pinnable golden summary."""
    return envelope(
        "golden-summary",
        {
            "campaign": result.campaign,
            "seed": result.seed,
            "scenarios": _runs_payload(result),
            "quarantined": sorted([q.name, q.reason] for q in result.quarantined),
        },
    )


def load_golden_summary(doc: Any) -> dict[str, Any]:
    """Golden document → the differ's canonical dict."""
    _, doc = parse_envelope(doc, expect="golden-summary")
    return {
        "campaign": doc.get("campaign"),
        "seed": doc.get("seed"),
        "scenarios": dict(_require(doc, "scenarios", "golden-summary")),
        "quarantined": [list(q) for q in doc.get("quarantined", [])],
    }


# ---------------------------------------------------------------------------
# Salvage reports
# ---------------------------------------------------------------------------

def dump_salvage_report(result: Any) -> dict[str, Any]:
    """``CampaignResult`` → enveloped quarantine/salvage report."""
    return envelope(
        "salvage-report",
        {
            "campaign": result.campaign,
            "seed": result.seed,
            "digest": result.digest,
            "scenarios": len(result.runs) + len(result.quarantined),
            "succeeded": len(result.runs),
            "quarantined": _quarantine_payload(result),
            "fingerprint": result.fingerprint(),
        },
    )


# ---------------------------------------------------------------------------
# Generic entry points
# ---------------------------------------------------------------------------

def to_document(obj: Any) -> dict[str, Any]:
    """Dispatch an in-process result object to its enveloped document."""
    from repro.campaign.runner import CampaignResult
    from repro.experiments.result import ExperimentResult

    if isinstance(obj, ExperimentResult):
        return dump_experiment_result(obj)
    if isinstance(obj, CampaignResult):
        return dump_campaign_result(obj)
    if isinstance(obj, dict):
        # Already a document: validate the envelope, pass through.
        parse_envelope(obj)
        return obj
    raise WireFormatError(
        f"no wire schema for {type(obj).__name__}; serializable results are "
        "ExperimentResult, CampaignResult and enveloped documents"
    )


def load_document(doc: Any) -> Any:
    """Parse any enveloped document into its typed object.

    Kinds without an in-process type (telemetry records, golden
    summaries, salvage reports) return the validated payload dict.
    """
    kind, doc = parse_envelope(doc)
    if kind == "experiment-result":
        return load_experiment_result(doc)
    if kind == "campaign-result":
        return load_campaign_result(doc)
    if kind == "golden-summary":
        return load_golden_summary(doc)
    return doc


def dumps(obj: Any, *, indent: int | None = None) -> str:
    """Serialize a result object/document to canonical JSON text."""
    return json.dumps(
        to_document(obj), indent=indent, sort_keys=True, allow_nan=False
    )


def dump(obj: Any, path: str | Path, *, indent: int | None = 2) -> Path:
    """Serialize to a file; returns the path written."""
    path = Path(path)
    path.write_text(dumps(obj, indent=indent) + "\n", encoding="utf-8")
    return path


def load(path: str | Path) -> Any:
    """Read and parse one enveloped document from a file."""
    return load_document(json.loads(Path(path).read_text(encoding="utf-8")))
