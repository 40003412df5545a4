"""Analytic *tail*-latency inversion bounds (extension beyond the paper).

Section 4.3 of the paper notes that "our analytical results only permit
a comparison of mean latencies", and measures tail inversion empirically
(Figure 5).  But for the M/M family the full response-time distribution
is closed-form (:meth:`repro.queueing.mmk.MMk.response_time_cdf`), so
the tail analogue of Lemma 3.1 is computable exactly:

    the q-quantile of edge end-to-end latency exceeds the cloud's iff

    .. math::
       \\Delta n < t_q^{edge}(\\rho) - t_q^{cloud}(\\rho)

    where :math:`t_q` are the response-time q-quantiles of the M/M/k_e
    site and the M/M/k cloud.

Because the edge quantile inflates with utilization much faster than the
pooled cloud's, the tail cutoff sits *below* the mean cutoff — the
empirically observed Figure 5 effect, now predicted analytically.
"""

from __future__ import annotations

from repro.queueing.mmk import MMk
from repro.queueing.roots import brentq
from repro.queueing.tails import gg_response_percentile

__all__ = [
    "tail_response_difference",
    "cutoff_utilization_tail",
]


def _check_inputs(rho: float, mu: float, edge_servers: int, cloud_servers: int, q: float):
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if edge_servers < 1 or cloud_servers < 1:
        raise ValueError("server counts must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")


def tail_response_difference(
    rho: float,
    mu: float,
    edge_servers: int,
    cloud_servers: int,
    q: float = 0.95,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Edge minus cloud response-time q-quantile at utilization ``rho``.

    Both systems run at the same utilization with per-server rate ``mu``
    (the balanced case).  For ``ca2 = cs2 = 1`` the exact M/M/c response
    quantiles are used; otherwise the heavy-traffic GI/G/k tail
    approximation (:func:`repro.queueing.tails.gg_response_percentile`),
    in seconds either way.  This is the tail analogue of Lemma 3.1's
    threshold: the edge's q-quantile is worse iff :math:`\\Delta n` is
    below it.
    """
    _check_inputs(rho, mu, edge_servers, cloud_servers, q)
    if ca2 < 0 or cs2 < 0:
        raise ValueError(f"squared CoVs must be >= 0, got ca2={ca2}, cs2={cs2}")
    if rho == 0.0:
        return 0.0  # identical service-time response in both systems
    if ca2 == 1.0 and cs2 == 1.0:
        edge = MMk(rho * edge_servers * mu, mu, edge_servers).response_time_percentile(q)
        cloud = MMk(rho * cloud_servers * mu, mu, cloud_servers).response_time_percentile(q)
    else:
        edge = gg_response_percentile(
            q, rho * edge_servers * mu, mu, edge_servers, ca2, cs2
        )
        cloud = gg_response_percentile(
            q, rho * cloud_servers * mu, mu, cloud_servers, ca2, cs2
        )
    return edge - cloud


def cutoff_utilization_tail(
    delta_n: float,
    mu: float,
    edge_servers: int,
    cloud_servers: int,
    q: float = 0.95,
    *,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Utilization above which the edge's q-tail inverts.

    Solves ``t_q_edge(ρ) − t_q_cloud(ρ) = Δn`` for ρ.  Returns 1.0 when
    the tail never inverts below saturation and 0.0 when it is always
    inverted.  The companion of
    :func:`repro.core.inversion.cutoff_utilization_exact`, which solves
    the same equation for the mean.
    """
    if delta_n <= 0:
        raise ValueError(f"delta_n must be > 0, got {delta_n}")
    _check_inputs(0.0, mu, edge_servers, cloud_servers, q)

    def gap(rho: float) -> float:
        return (
            tail_response_difference(
                rho, mu, edge_servers, cloud_servers, q, ca2=ca2, cs2=cs2
            )
            - delta_n
        )

    lo, hi = 1e-4, 1.0 - 1e-9
    if gap(hi) <= 0.0:
        return 1.0
    if gap(lo) >= 0.0:
        return 0.0
    return float(brentq(gap, lo, hi, xtol=1e-9))
