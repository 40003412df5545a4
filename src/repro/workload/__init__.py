"""Workload generation substrate.

Replaces the paper's workload inputs with synthetic equivalents that
preserve the statistical properties the evaluation depends on:

* :mod:`repro.workload.arrivals` — Markov-modulated and non-homogeneous
  Poisson arrival processes; renewal streams are gap distributions from
  :mod:`repro.queueing.distributions`.
* :mod:`repro.workload.service` — the DNN-inference application model
  calibrated to the paper's measured 13 req/s saturation on a
  c5a.xlarge.
* :mod:`repro.workload.trace` — :class:`RequestTrace` containers with
  merge/slice/window operations.
* :mod:`repro.workload.azure` — synthetic Azure-serverless-like traces
  (diurnal, bursty, Zipf-skewed function popularity) and the paper's
  function-to-edge-site grouping.
* :mod:`repro.workload.spatial` — spatial skew models: Zipf site
  weights and the Gaussian-hotspot hex-cell model standing in for the
  San Francisco taxi trace of Figure 2.

Import from the submodules, e.g. ``from repro.workload.trace import
RequestTrace``.  This package module re-exports nothing, so a
simulation that samples arrivals loads none of the Azure or spatial
generators.
"""
