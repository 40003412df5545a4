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
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    GammaRenewalArrivals,
    HyperExpArrivals,
    MMPPArrivals,
    NonHomogeneousPoisson,
    PoissonArrivals,
)
from repro.workload.characterize import (
    WorkloadProfile,
    characterize,
    index_of_dispersion,
    spatial_skew_profile,
)
from repro.workload.io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from repro.workload.azure import (
    AzureTraceConfig,
    FunctionTrace,
    generate_azure_workload,
    group_functions_into_sites,
)
from repro.workload.service import (
    DNNInferenceModel,
    ImageClassifierService,
)
from repro.workload.spatial import (
    HotspotGrid,
    time_varying_weights,
    zipf_weights,
)
from repro.workload.trace import RequestTrace

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "GammaRenewalArrivals",
    "HyperExpArrivals",
    "MMPPArrivals",
    "NonHomogeneousPoisson",
    "save_trace_csv",
    "load_trace_csv",
    "save_trace_npz",
    "load_trace_npz",
    "WorkloadProfile",
    "characterize",
    "index_of_dispersion",
    "spatial_skew_profile",
    "RequestTrace",
    "DNNInferenceModel",
    "ImageClassifierService",
    "AzureTraceConfig",
    "FunctionTrace",
    "generate_azure_workload",
    "group_functions_into_sites",
    "HotspotGrid",
    "zipf_weights",
    "time_varying_weights",
]
