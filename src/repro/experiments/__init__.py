"""Experiment runners regenerating every figure/table of the paper.

Each ``figN()`` function reproduces the corresponding figure of the
evaluation (Section 4) and returns a structured result whose fields are
the series the paper plots; :mod:`repro.experiments.report` renders them
as text tables.  ``benchmarks/`` wires each runner to a pytest-benchmark
target (see DESIGN.md §4 for the experiment index).

Import from the submodules, e.g. ``from repro.experiments.result import
run_experiment``.  This package module re-exports nothing, so code that
reads the wire schema (:mod:`repro.experiments.schema`) loads no figure
runner.
"""
