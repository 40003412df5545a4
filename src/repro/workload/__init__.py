"""Workload generation substrate.

Replaces the paper's workload inputs with synthetic equivalents that
preserve the statistical properties the evaluation depends on:

* :mod:`repro.workload.arrivals` — renewal and Markov-modulated arrival
  processes (the Gatling stand-in).
* :mod:`repro.workload.service` — service-time models, including the
  DNN-inference application model calibrated to the paper's measured
  13 req/s saturation on a c5a.xlarge.
* :mod:`repro.workload.trace` — :class:`RequestTrace` containers with
  merge/split/window operations.
* :mod:`repro.workload.azure` — synthetic Azure-serverless-like traces
  (diurnal, bursty, Zipf-skewed function popularity) and the paper's
  function-to-edge-site grouping.
* :mod:`repro.workload.spatial` — spatial skew models: Zipf site
  weights, time-varying skew rotation, and the Gaussian-hotspot hex-cell
  model standing in for the San Francisco taxi trace of Figure 2.

Import from the submodules, e.g. ``from repro.workload.trace import
RequestTrace``.  This package module re-exports nothing, so a
simulation that samples arrivals loads none of the Azure or spatial
generators.
"""
