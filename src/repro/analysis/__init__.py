"""repro.analysis — project-specific static analysis + runtime invariants.

The reproduction's headline claims (bit-identical parallel≡sequential
determinism, the seconds-only ``n + w + s`` decomposition, the
``observables()`` and refusal-taxonomy protocols) rest on conventions no
generic linter knows about.  This subsystem enforces them twice over:

* **statically** — ``python -m repro.analysis src tests`` runs both
  analysis tiers in one pass (:mod:`repro.analysis.project`): the
  per-file rule pack (:mod:`repro.analysis.rules`, codes ``RPR001``…)
  and the whole-program call-graph analyses built on
  :mod:`repro.analysis.callgraph` — hot-path purity/taint (``RPR101``),
  task-callable picklability (``RPR102``) and seed-flow checking
  (``RPR103``).  Results are gated against the checked-in
  ``analysis-baseline.json`` (:mod:`repro.analysis.baseline` — CI fails
  only on *new* findings) and exportable as SARIF 2.1.0
  (:mod:`repro.analysis.sarif`).  Suppress a deliberate exception with
  ``# repro: noqa[RPRnnn]  -- reason`` (stale suppressions are
  themselves findings, code ``RPR000``).
* **dynamically** — :mod:`repro.analysis.invariants` checks virtual-time
  monotonicity, per-station request conservation and non-negative
  occupancy while a simulation runs.  Opt in with ``REPRO_CHECK=1`` (or
  ``--check-invariants`` on any CLI experiment); off, the simulator's
  hot paths are untouched.

Import from the submodules.  This package module re-exports nothing, so
a simulation that imports :mod:`repro.analysis.invariants` loads none
of the static analyzer.

Rule catalog, rationale and how to add a rule: ``docs/static_analysis.md``.
"""
