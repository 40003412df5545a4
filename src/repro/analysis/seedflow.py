"""Seed-flow checking (RPR103): derived seeds must stay derived.

:mod:`repro.parallel.seeding` exists so that every child stream is
derived by hashing a spawn key — ``derive_seed(base, *path)`` — instead
of offsetting entropy.  The leaf rule RPR002 catches arithmetic *on a
seed-named value*; this pass instead traces what happens to the **result**
of a derivation, using the per-function records the call-graph extractor
collects:

* **combined** — a value produced by ``derive_seed``/``derive_seedseq``/
  ``derive_rng`` flows into integer arithmetic (``derive_seed(b, i) + k``
  or ``s = derive_seed(b, i); s * 2``): the derived stream's independence
  guarantee is destroyed the moment it is offset;
* **reused** — two textually identical derivations (same deriver, same
  argument expressions) at *different* call sites of one function hand
  the same stream to siblings that believe they are independent;
* **dropped** — a derivation in statement position whose result is
  discarded: the caller paid for a child stream and then used nothing,
  which almost always means the intended consumer reads some other
  (shared) stream.

All three are local to a function body but operate on the extracted
summaries, so this pass needs no second parse of any file.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Finding
from repro.analysis.purity import AnalysisInfo

__all__ = ["SEEDFLOW_CODE", "SEEDFLOW_INFO", "check_seedflow"]

SEEDFLOW_CODE = "RPR103"

SEEDFLOW_INFO = AnalysisInfo(
    code=SEEDFLOW_CODE,
    summary="derived seed misused: arithmetically combined, reused across "
            "siblings, or dropped",
    explain=(
        "Traces the results of derive_seed/derive_seedseq/derive_rng call "
        "sites through each function: a derived seed that is arithmetically "
        "combined loses its independence guarantee (derive a deeper path "
        "instead: derive_seed(base, i, j)); two identical derivations in "
        "one function hand the same stream to sibling tasks; a derivation "
        "whose result is discarded means the intended consumer is reading "
        "some other stream."
    ),
)


def check_seedflow(graph: CallGraph) -> list[Finding]:
    """Run the three seed-flow checks over every function in the graph."""
    findings: list[Finding] = []
    for qualname in sorted(graph.functions):
        summary, fn = graph.functions[qualname]
        where = _short(qualname)

        # -- combined: derivation directly inside arithmetic --------------
        for sc in fn.seed_calls:
            if sc.in_arith:
                findings.append(Finding(
                    path=summary.path, line=sc.line, col=sc.col,
                    code=SEEDFLOW_CODE,
                    message=(
                        f"{sc.fn}(...) result is arithmetically combined in "
                        f"{where}; offsetting a derived seed destroys its "
                        "independence — derive a deeper path instead "
                        f"({sc.fn}(base, *path, extra))"
                    ),
                ))

        # -- combined: derived variable later used in arithmetic -----------
        for var, line in zip(fn.seed_arith_vars, fn.seed_arith_lines):
            findings.append(Finding(
                path=summary.path, line=line, col=0,
                code=SEEDFLOW_CODE,
                message=(
                    f"derived seed {var!r} is arithmetically combined in "
                    f"{where}; derive a deeper path instead of offsetting "
                    "the derived value"
                ),
            ))

        # -- reused: identical derivations at distinct call sites ----------
        seen: dict[tuple[str, str], int] = {}
        for sc in fn.seed_calls:
            if not sc.args:
                continue
            key = (sc.fn, sc.args)
            if key in seen and seen[key] != sc.line:
                findings.append(Finding(
                    path=summary.path, line=sc.line, col=sc.col,
                    code=SEEDFLOW_CODE,
                    message=(
                        f"{sc.fn}(...) repeats the derivation from line "
                        f"{seen[key]} with identical arguments in {where}; "
                        "sibling tasks would share one stream — add a "
                        "distinguishing path component"
                    ),
                ))
            else:
                seen.setdefault(key, sc.line)

        # -- dropped: derivation in statement position ----------------------
        for sc in fn.seed_calls:
            if sc.discarded:
                findings.append(Finding(
                    path=summary.path, line=sc.line, col=sc.col,
                    code=SEEDFLOW_CODE,
                    message=(
                        f"{sc.fn}(...) result is discarded in {where}; the "
                        "derived stream is never handed to a consumer, so "
                        "whatever runs next reads a different (shared) stream"
                    ),
                ))
    return findings


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname
