"""Edge performance-inversion bounds (Section 3 of the paper).

This module implements every analytic result of the paper:

* **Lemma 3.1** (:func:`delta_n_threshold_mm`) — the M/M/· bound: the
  edge loses whenever the RTT advantage :math:`\\Delta n` is below
  :math:`\\sqrt2\\big(\\frac{1}{\\sqrt{k_e}(1-\\rho_e)} -
  \\frac{1}{\\sqrt{k}(1-\\rho_c)}\\big)` (Whitt conditional waits).
* **Corollary 3.1.1/3.1.2** (:func:`cutoff_utilization_paper`) — the
  cutoff utilization above which inversion occurs, and its
  :math:`k\\to\\infty` limit.
* **Corollary 3.1.3** (:func:`min_cloud_rtt_for_edge_win`) — the hard
  lower bound on cloud RTT below which the edge always loses.
* **Lemma 3.2 / Corollary 3.2.1** (:func:`delta_n_threshold_gg`) — the
  G/G/· generalization via Allen–Cunneen.
* **Lemma 3.3** (:func:`delta_n_threshold_skewed`) — spatially skewed
  workloads.

**A note on units.**  The paper's Equation 6 (Whitt's conditional wait,
:math:`\\sqrt2/((1-\\rho)\\sqrt k)`) is dimensionless — time measured in
an implicit unit — while :math:`\\Delta n` is quoted in milliseconds.
The printed formulas therefore need a time-unit calibration before they
can be compared with wall-clock RTTs.  All functions here take an
explicit ``time_unit`` (seconds per formula unit, default 1.0 =
"formula units in, formula units out").  :func:`calibrate_time_unit`
recovers the unit from one (Δn, k, cutoff) anchor; remarkably, the
paper's two §4.2 anchors (ρ*=0.64 at k=5 and ρ*=0.75 at k=10 with
2 servers/site) imply the *same* unit to within 2%, which the test
suite checks.  For unit-free engineering use, prefer
:func:`cutoff_utilization_exact`, which uses exact Erlang-C (or
Allen–Cunneen) mean waits in seconds throughout.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.queueing.ggk import allen_cunneen_wait
from repro.queueing.mmk import MMk, whitt_conditional_wait
from repro.queueing.roots import brentq

__all__ = [
    "delta_n_threshold_mm",
    "cutoff_utilization_paper",
    "cutoff_utilization_limit",
    "min_cloud_rtt_for_edge_win",
    "delta_n_threshold_gg",
    "delta_n_threshold_gg_limit",
    "delta_n_threshold_skewed",
    "calibrate_time_unit",
    "mean_wait_difference",
    "cutoff_utilization_exact",
    "is_inverted_mm",
    "response_difference_heterogeneous",
    "inversion_rate_heterogeneous",
]


def _check_rho(rho: float, name: str = "rho") -> float:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {rho}")
    return float(rho)


def _check_k(k: int, name: str = "k") -> int:
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")
    return int(k)


# ---------------------------------------------------------------------------
# Lemma 3.1 and corollaries (M/M/·, Whitt conditional waits)
# ---------------------------------------------------------------------------

def delta_n_threshold_mm(
    rho_edge: float,
    rho_cloud: float,
    k: int,
    *,
    edge_servers: int = 1,
    time_unit: float = 1.0,
) -> float:
    """Lemma 3.1: the Δn below which the edge yields worse latency.

    .. math::
       \\Delta n < \\sqrt2\\left(\\frac{1}{\\sqrt{k_e}(1-\\rho_{edge})}
           - \\frac{1}{\\sqrt{k}(1-\\rho_{cloud})}\\right)

    Parameters
    ----------
    rho_edge / rho_cloud:
        Utilizations of each edge site and of the cloud.
    k:
        Total cloud servers (= number of edge sites × servers per site).
    edge_servers:
        Servers per edge site :math:`k_e` (the paper's Lemma 3.1 has
        :math:`k_e = 1`; Equation 22 generalizes).
    time_unit:
        Seconds per formula time unit (see module docstring).

    Returns
    -------
    float
        The threshold, in seconds when ``time_unit`` is in seconds.
    """
    _check_rho(rho_edge, "rho_edge")
    _check_rho(rho_cloud, "rho_cloud")
    _check_k(k)
    _check_k(edge_servers, "edge_servers")
    if time_unit <= 0:
        raise ValueError(f"time_unit must be > 0, got {time_unit}")
    edge = whitt_conditional_wait(edge_servers, rho_edge)
    cloud = whitt_conditional_wait(k, rho_cloud)
    return time_unit * (edge - cloud)


def cutoff_utilization_paper(
    delta_n: float,
    k: int,
    *,
    edge_servers: int = 1,
    time_unit: float = 1.0,
) -> float:
    """Corollary 3.1.1: edge utilization above which inversion occurs.

    With balanced load (:math:`\\rho_{edge} = \\rho_{cloud} = \\rho`),
    inverting Lemma 3.1 gives

    .. math::
       \\rho^* = 1 - \\frac{\\sqrt2}{\\Delta n}
                 \\left(\\frac{1}{\\sqrt{k_e}} - \\frac{1}{\\sqrt k}\\right)

    (the paper prints the constant as 2 after rearranging; we keep the
    :math:`\\sqrt2` consistent with its own Equation 10).  Values are
    clamped to 0 — a cutoff of 0 means the edge *always* loses; the
    function returns 1.0 when inversion can never occur (``k_e >= k``,
    e.g. the single-site case discussed after Corollary 3.1.2).

    ``delta_n`` must be in the same units as ``time_unit`` converts to
    (seconds when ``time_unit`` is seconds per formula unit).
    """
    _check_k(k)
    _check_k(edge_servers, "edge_servers")
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")
    gap = 1.0 / math.sqrt(edge_servers) - 1.0 / math.sqrt(k)
    if gap <= 0:
        return 1.0
    cutoff = 1.0 - (math.sqrt(2.0) * time_unit / delta_n) * gap
    return max(0.0, cutoff)


def cutoff_utilization_limit(delta_n: float, *, time_unit: float = 1.0) -> float:
    """Corollary 3.1.2: the :math:`k \\to \\infty` cutoff.

    .. math:: \\rho^* = 1 - \\frac{\\sqrt2}{\\Delta n}
    """
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")
    return max(0.0, 1.0 - math.sqrt(2.0) * time_unit / delta_n)


def min_cloud_rtt_for_edge_win(
    rho_edge: float,
    rho_cloud: float,
    k: int,
    *,
    edge_servers: int = 1,
    time_unit: float = 1.0,
) -> float:
    """Corollary 3.1.3: cloud RTT below which the edge *always* loses.

    Setting :math:`n_{edge} = 0` (the best possible edge) in Lemma 3.1:
    any cloud closer than this threshold beats even a zero-latency edge.
    """
    return delta_n_threshold_mm(
        rho_edge, rho_cloud, k, edge_servers=edge_servers, time_unit=time_unit
    )


def calibrate_time_unit(
    delta_n: float, k: int, cutoff: float, *, edge_servers: int = 1
) -> float:
    """Solve Corollary 3.1.1 for the time unit given one anchor point.

    Given that the paper reports cutoff utilization ``cutoff`` for RTT
    difference ``delta_n`` (seconds) at ``k`` cloud servers, return the
    seconds-per-formula-unit that makes the corollary reproduce it.
    """
    _check_rho(cutoff, "cutoff")
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")
    gap = 1.0 / math.sqrt(edge_servers) - 1.0 / math.sqrt(_check_k(k))
    if gap <= 0:
        raise ValueError("edge pool at least as large as cloud pool: no inversion anchor")
    return (1.0 - cutoff) * delta_n / (math.sqrt(2.0) * gap)


# ---------------------------------------------------------------------------
# Lemma 3.2 (G/G/·, Allen–Cunneen)
# ---------------------------------------------------------------------------

def delta_n_threshold_gg(
    rho_edge: float,
    rho_cloud: float,
    k: int,
    mu: float,
    ca2_edge: float,
    ca2_cloud: float,
    cs2: float,
) -> float:
    """Lemma 3.2: the G/G generalization of the inversion threshold.

    .. math::
       \\Delta n < \\rho_e \\frac{1}{\\mu(1-\\rho_e)}
                   \\frac{c_{A,e}^2 + c_B^2}{2}
                 - \\frac{\\rho_c^k + \\rho_c}{2}
                   \\frac{1}{\\mu(1-\\rho_c)}
                   \\frac{c_{A,c}^2 + c_B^2}{2k}

    Uses the Allen–Cunneen waits with Bolch's high-utilization
    :math:`P_s` (the paper restricts to :math:`\\rho > 0.7`, where the
    approximation is accurate; we compute it for any :math:`\\rho` but
    the regime caveat carries over).  Units are seconds, with ``mu`` the
    per-server service rate shared by edge and cloud (the paper's
    same-hardware assumption).

    Returns the threshold in seconds: inversion occurs iff
    :math:`\\Delta n` is below it.
    """
    _check_rho(rho_edge, "rho_edge")
    _check_rho(rho_cloud, "rho_cloud")
    _check_k(k)
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    edge = allen_cunneen_wait(rho_edge * mu, mu, 1, ca2_edge, cs2, prob_wait="bolch")
    cloud = allen_cunneen_wait(
        rho_cloud * k * mu, mu, k, ca2_cloud, cs2, prob_wait="bolch"
    )
    return edge - cloud


def delta_n_threshold_gg_limit(
    rho_edge: float, mu: float, ca2_edge: float, cs2: float
) -> float:
    """Corollary 3.2.1: the :math:`k\\to\\infty` limit of Lemma 3.2.

    Only the edge term survives: the threshold becomes a function of the
    edge workload's burstiness alone.
    """
    _check_rho(rho_edge, "rho_edge")
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    return allen_cunneen_wait(rho_edge * mu, mu, 1, ca2_edge, cs2, prob_wait="bolch")


# ---------------------------------------------------------------------------
# Lemma 3.3 (spatial skew)
# ---------------------------------------------------------------------------

def delta_n_threshold_skewed(
    weights: Sequence[float],
    lam: float,
    mu: float,
    k: int,
    *,
    time_unit: float = 1.0,
) -> float:
    """Lemma 3.3: inversion threshold under spatially skewed load.

    Site ``i`` receives fraction ``weights[i]`` of the total ``lam``
    req/s; the edge-side wait is the load-weighted average of per-site
    Whitt conditional waits:

    .. math::
       \\Delta n < \\sqrt2\\left(\\sum_i \\frac{w_i}{1-\\rho_i}
           - \\frac{1}{\\sqrt k (1-\\rho_{cloud})}\\right)

    Raises
    ------
    ValueError
        If any single site is overloaded (:math:`\\rho_i \\ge 1`) — the
        threshold is then infinite (that site's queue diverges, so the
        edge always loses).
    """
    w = [float(x) for x in weights]
    if not w or any(x < 0 for x in w):
        raise ValueError(f"weights must be non-empty and non-negative, got {w}")
    total = sum(w)
    if not math.isclose(total, 1.0, rel_tol=1e-6):
        raise ValueError(f"weights must sum to 1, got {total}")
    _check_k(k)
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be > 0")
    rho_cloud = _check_rho(lam / (k * mu), "rho_cloud")
    edge_sum = 0.0
    for i, wi in enumerate(w):
        rho_i = wi * lam / mu
        if rho_i >= 1.0:
            raise ValueError(
                f"site {i} is overloaded (rho={rho_i:.3f}); threshold diverges"
            )
        edge_sum += wi / (1.0 - rho_i)
    return time_unit * math.sqrt(2.0) * (edge_sum - 1.0 / (math.sqrt(k) * (1.0 - rho_cloud)))


# ---------------------------------------------------------------------------
# Exact (unit-consistent) engine
# ---------------------------------------------------------------------------

def mean_wait_difference(
    rho: float,
    mu: float,
    edge_servers: int,
    cloud_servers: int,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Exact/AC mean-wait gap ``Wq_edge(ρ) − Wq_cloud(ρ)`` in seconds.

    Both deployments run at the same utilization ``rho`` (the balanced
    case of Corollary 3.1.1) with per-server rate ``mu``; the edge site
    has ``edge_servers`` servers and the cloud pools ``cloud_servers``.
    For ``ca2 = cs2 = 1`` exact Erlang-C values are used; otherwise the
    Allen–Cunneen approximation with exact Erlang-C :math:`P_s`.
    """
    _check_rho(rho)
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    _check_k(edge_servers, "edge_servers")
    _check_k(cloud_servers, "cloud_servers")
    if rho == 0.0:
        return 0.0
    if ca2 == 1.0 and cs2 == 1.0:
        edge = MMk(rho * edge_servers * mu, mu, edge_servers).mean_wait()
        cloud = MMk(rho * cloud_servers * mu, mu, cloud_servers).mean_wait()
    else:
        edge = allen_cunneen_wait(
            rho * edge_servers * mu, mu, edge_servers, ca2, cs2, prob_wait="erlang"
        )
        cloud = allen_cunneen_wait(
            rho * cloud_servers * mu, mu, cloud_servers, ca2, cs2, prob_wait="erlang"
        )
    return edge - cloud


def cutoff_utilization_exact(
    delta_n: float,
    mu: float,
    edge_servers: int,
    cloud_servers: int,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Unit-consistent cutoff utilization for mean-latency inversion.

    Solves ``Wq_edge(ρ) − Wq_cloud(ρ) = Δn`` for ρ using exact queueing
    formulas (no Whitt/units ambiguity).  Returns 1.0 if the edge never
    loses below saturation (e.g. ``edge_servers == cloud_servers``).

    Parameters
    ----------
    delta_n:
        RTT difference :math:`n_{cloud} - n_{edge}` in **seconds**.
    mu:
        Per-server service rate (req/s), identical at edge and cloud.
    edge_servers / cloud_servers:
        Pool sizes of one edge site and of the cloud.
    """
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")

    def gap(rho: float) -> float:
        return mean_wait_difference(
            rho, mu, edge_servers, cloud_servers, ca2=ca2, cs2=cs2
        ) - delta_n

    lo, hi = 1e-6, 1.0 - 1e-9
    if gap(hi) <= 0.0:
        return 1.0  # even near saturation the edge's extra wait < delta_n
    if gap(lo) >= 0.0:
        return 0.0  # the edge loses at any utilization
    return float(brentq(gap, lo, hi, xtol=1e-10))


def response_difference_heterogeneous(
    rate_per_site: float,
    mu_edge: float,
    mu_cloud: float,
    edge_servers: int,
    cloud_servers: int,
    sites: int,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Edge minus cloud mean *server response* with unequal hardware.

    The paper's §3.1.1 discussion: when the edge runs slower servers
    (:math:`s_{edge} > s_{cloud}`) the same-execution-time cancellation
    in Lemma 3.1 no longer applies — the inversion condition becomes
    :math:`\\Delta n < (w_e - w_c) + (s_e - s_c)`, and inversion is
    possible even at k = 1.  This computes the full right-hand side
    (waits plus service gap) in seconds.

    Parameters
    ----------
    rate_per_site:
        Per-site arrival rate λ/k (the cloud sees ``sites ×`` this).
    mu_edge / mu_cloud:
        Per-server service rates at each tier (edge ≤ cloud for
        resource-constrained edges).
    edge_servers / cloud_servers:
        Pool sizes of one edge site and of the cloud.
    """
    if rate_per_site <= 0:
        raise ValueError(f"rate_per_site must be > 0, got {rate_per_site}")
    if mu_edge <= 0 or mu_cloud <= 0:
        raise ValueError("service rates must be > 0")
    _check_k(edge_servers, "edge_servers")
    _check_k(cloud_servers, "cloud_servers")
    _check_k(sites, "sites")
    if ca2 == 1.0 and cs2 == 1.0:
        edge = MMk(rate_per_site, mu_edge, edge_servers).mean_response()
        cloud = MMk(sites * rate_per_site, mu_cloud, cloud_servers).mean_response()
    else:
        edge = (
            allen_cunneen_wait(
                rate_per_site, mu_edge, edge_servers, ca2, cs2, prob_wait="erlang"
            )
            + 1.0 / mu_edge
        )
        cloud = (
            allen_cunneen_wait(
                sites * rate_per_site, mu_cloud, cloud_servers, ca2, cs2,
                prob_wait="erlang",
            )
            + 1.0 / mu_cloud
        )
    return edge - cloud


def inversion_rate_heterogeneous(
    delta_n: float,
    mu_edge: float,
    mu_cloud: float,
    edge_servers: int,
    cloud_servers: int,
    sites: int,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float | None:
    """Per-site rate above which a slower edge loses to the cloud.

    Solves ``(w_e + s_e) − (w_c + s_c) = Δn`` for the per-site rate.
    Returns ``None`` when the edge never loses below saturation, and
    0.0 when it *always* loses (e.g. the service-time gap alone exceeds
    Δn — the regime where slow edge hardware forfeits the network
    advantage before any queueing happens).
    """
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")
    cap = min(edge_servers * mu_edge, cloud_servers * mu_cloud / sites)

    def gap(rate: float) -> float:
        return (
            response_difference_heterogeneous(
                rate, mu_edge, mu_cloud, edge_servers, cloud_servers, sites,
                ca2=ca2, cs2=cs2,
            )
            - delta_n
        )

    lo, hi = cap * 1e-6, cap * (1.0 - 1e-9)
    if gap(lo) >= 0.0:
        return 0.0
    if gap(hi) <= 0.0:
        return None
    return float(brentq(gap, lo, hi, xtol=1e-10))


def is_inverted_mm(
    delta_n: float,
    rho: float,
    mu: float,
    edge_servers: int,
    cloud_servers: int,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> bool:
    """True if the edge's mean end-to-end latency exceeds the cloud's.

    The unit-consistent predicate behind Lemma 3.1: inversion iff the
    mean-wait gap exceeds the RTT advantage (all in seconds).
    """
    if delta_n < 0:
        raise ValueError(f"delta_n must be >= 0, got {delta_n}")
    return mean_wait_difference(
        rho, mu, edge_servers, cloud_servers, ca2=ca2, cs2=cs2
    ) > delta_n
