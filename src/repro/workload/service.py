"""Service-time model of the paper's application.

The paper's application is a Keras/TensorFlow image-classification web
service on a 4-vCPU ``c5a.xlarge``: compute-bound, saturating one
machine at 13 req/s (Section 4.2).  :class:`DNNInferenceModel` captures
exactly the properties the latency results depend on:

* a machine is ``cores`` parallel workers, each taking
  ``cores / saturation_rate`` seconds per request on average;
* inference times are low-variability (configurable CoV, default
  Erlang-4, :math:`c^2 = 0.25` — DNN forward passes on same-sized inputs
  are near-deterministic, with OS/framework noise on top).

The paper replays the Azure trace by choosing, per request, "an image of
an appropriate size ... to generate a request with the appropriate
service time" (Section 4.1).  The simulator needs no image: the Azure
replay takes the execution times that :mod:`repro.workload.azure`
samples and rescales them (see ``repro.experiments.figures``).
"""

from __future__ import annotations

from repro.queueing.distributions import Distribution, fit_two_moments

__all__ = ["DNNInferenceModel"]


class DNNInferenceModel:
    """Service model of the paper's DNN-inference application.

    Parameters
    ----------
    saturation_rate:
        Request rate (req/s) at which one machine reaches 100%
        utilization; the paper measures 13 req/s on a ``c5a.xlarge``.
    cores:
        Effective concurrency lanes per machine: requests served in
        parallel by one machine.  A ``c5a.xlarge`` has 4 vCPUs, but a
        TF-Serving-style stack overlaps decode/infer/respond stages, so
        effective concurrency exceeds the vCPU count; the default of 8
        is calibrated so the simulated typical-cloud crossover lands on
        the paper's measured 8 req/s (§4.2; DESIGN.md §6).
    cv2:
        Squared CoV of a single inference's duration (near-deterministic
        forward passes + OS/framework noise).

    Notes
    -----
    A machine is modeled as ``cores`` servers each at rate
    ``saturation_rate / cores`` — this makes a machine saturate at
    exactly ``saturation_rate`` while letting requests overlap, which is
    what positions the inversion crossovers where the paper reports
    them.
    """

    def __init__(self, saturation_rate: float = 13.0, cores: int = 8, cv2: float = 0.25):
        if saturation_rate <= 0:
            raise ValueError(f"saturation_rate must be > 0, got {saturation_rate}")
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if cv2 < 0:
            raise ValueError(f"cv2 must be >= 0, got {cv2}")
        self.saturation_rate = float(saturation_rate)
        self.cores = int(cores)
        self.cv2 = float(cv2)

    @property
    def mean_service_time(self) -> float:
        """Mean wall-clock duration of one inference (seconds)."""
        return self.cores / self.saturation_rate

    @property
    def core_service_rate(self) -> float:
        """Per-core service rate :math:`\\mu` (req/s)."""
        return self.saturation_rate / self.cores

    def service_dist(self) -> Distribution:
        """Per-request service-time distribution."""
        return fit_two_moments(self.mean_service_time, self.cv2)

    def servers_for_machines(self, machines: int) -> int:
        """Total queueing servers presented by ``machines`` machines."""
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        return machines * self.cores

    def utilization(self, rate: float, machines: int = 1) -> float:
        """Utilization of ``machines`` machines at ``rate`` req/s total."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        return rate / (machines * self.saturation_rate)

    def max_stable_rate(self, machines: int = 1, headroom: float = 0.0) -> float:
        """Highest sustainable rate, optionally with utilization headroom.

        The paper uses 12 req/s — about 92% of the 13 req/s saturation —
        as the maximum practical workload.
        """
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        return machines * self.saturation_rate * (1.0 - headroom)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DNNInferenceModel(saturation_rate={self.saturation_rate}, "
            f"cores={self.cores}, cv2={self.cv2})"
        )

