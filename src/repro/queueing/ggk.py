"""Approximate waiting times for G/G/1 and G/G/k queues.

The paper's generalized bounds (Lemma 3.2) rest on the Allen–Cunneen
approximation with the Bolch et al. closed form for the probability of
waiting (its Equations 14–16).  This module implements:

* :func:`kingman_wait` — Kingman's classic G/G/1 heavy-traffic formula
  (an upper bound for GI/G/1).
* :func:`bolch_prob_wait` — Bolch's two-branch approximation of
  :math:`P_s`, the steady-state probability that an arrival waits.
* :func:`allen_cunneen_wait` — Allen–Cunneen expected wait for G/G/k.

All functions take the squared coefficients of variation of the
inter-arrival times (``ca2``) and service times (``cs2``); with
``ca2 = cs2 = 1`` they collapse to the M/M/k family, which the test
suite verifies against the exact results of :mod:`repro.queueing.mmk`.
"""

from __future__ import annotations

from repro.queueing.base import ensure_stable
from repro.queueing.mmk import erlang_c

__all__ = ["kingman_wait", "bolch_prob_wait", "allen_cunneen_wait"]


def kingman_wait(arrival_rate: float, service_rate: float, ca2: float, cs2: float) -> float:
    """Kingman's G/G/1 mean-wait approximation, in seconds.

    .. math::
       E[W_q] \\approx \\frac{\\rho}{1-\\rho}\\,\\frac{c_A^2 + c_B^2}{2}\\,\\frac{1}{\\mu}

    Exact for M/M/1; an asymptotic upper bound in heavy traffic otherwise.
    """
    rho = ensure_stable(arrival_rate, service_rate, 1)
    _validate_cv2(ca2, cs2)
    return (rho / (1.0 - rho)) * ((ca2 + cs2) / 2.0) / service_rate


def bolch_prob_wait(servers: int, rho: float) -> float:
    """Bolch et al. approximation of :math:`P_s`, the probability of waiting.

    The paper's Equation 16:

    .. math::
       P_s \\approx \\begin{cases}
          \\dfrac{\\rho^k + \\rho}{2} & \\rho > 0.7\\\\[4pt]
          \\rho^{(k+1)/2}            & \\rho \\le 0.7
       \\end{cases}

    (the paper prints the exponent as :math:`(s+1)/2` where ``s`` is the
    server count, denoted ``k`` here).
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if rho > 0.7:
        return (rho**servers + rho) / 2.0
    return rho ** ((servers + 1) / 2.0)


def allen_cunneen_wait(
    arrival_rate: float,
    service_rate: float,
    servers: int,
    ca2: float,
    cs2: float,
    *,
    prob_wait: str = "bolch",
) -> float:
    """Allen–Cunneen expected wait for a G/G/k queue, in seconds.

    The paper's Equation 15:

    .. math::
       E[W_q] \\approx \\frac{P_s}{\\mu(1-\\rho)}\\,\\frac{c_A^2+c_B^2}{2k}

    Parameters
    ----------
    prob_wait:
        ``"bolch"`` uses the paper's closed form (Equation 16);
        ``"erlang"`` uses the exact Erlang-C probability, which makes the
        approximation exact for M/M/k (``ca2 = cs2 = 1``).
    """
    rho = ensure_stable(arrival_rate, service_rate, servers)
    _validate_cv2(ca2, cs2)
    if prob_wait == "bolch":
        ps = bolch_prob_wait(servers, rho)
    elif prob_wait == "erlang":
        ps = erlang_c(servers, arrival_rate / service_rate)
    else:
        raise ValueError(f"prob_wait must be 'bolch' or 'erlang', got {prob_wait!r}")
    return ps / (service_rate * servers * (1.0 - rho)) * ((ca2 + cs2) / 2.0)


def _validate_cv2(ca2: float, cs2: float) -> None:
    if ca2 < 0 or cs2 < 0:
        raise ValueError(f"squared CoVs must be >= 0, got ca2={ca2}, cs2={cs2}")

