"""Parity of the in-repo Brent root finder with SciPy's ``brentq``.

:func:`repro.queueing.roots.brentq` ports SciPy's algorithm step for
step, so every root must *equal* SciPy's, not merely agree within the
tolerance.  SciPy stays a dependency and serves as the oracle.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from repro.core import inversion, tail
from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import PAPER_SCENARIOS
from repro.queueing import mmk
from repro.queueing.roots import brentq

XTOLS = (1e-9, 1e-10, 2e-12)
PER_FAMILY = 500


def _powers(rng):
    c, p, s = rng.uniform(0.01, 0.99), rng.uniform(0.2, 6.0), rng.uniform(-5.0, 5.0)
    return lambda x: s * (x**p - c**p)


def _shifted_powers(rng):
    """Flat at the root, so steps shrink below the tolerance and the solver
    must fall back to bisection; many run out of the 100 iterations in both
    solvers."""
    c, p, s = rng.uniform(0.01, 0.99), rng.uniform(0.5, 3.0), rng.uniform(-5.0, 5.0)
    return lambda x: s * math.copysign(abs(x - c) ** p, x - c)


def _tiny_powers(rng):
    """Values near 1e-150, so the inverse-quadratic denominator underflows
    to zero and the solver must bisect where SciPy's C step is inf or NaN."""
    c, p = rng.uniform(0.01, 0.99), rng.uniform(0.2, 6.0)
    s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-200.0, -100.0)
    return lambda x: s * (x**p - c**p)


def _tangents(rng):
    c, w = rng.uniform(0.01, 0.99), rng.uniform(0.1, 1.5)
    return lambda x: math.tan(w * x) - math.tan(w * c)


def _exponentials(rng):
    c, k, s = rng.uniform(0.01, 0.99), rng.uniform(-8.0, 8.0), rng.uniform(0.1, 100.0)
    return lambda x: s * (math.exp(k * x) - math.exp(k * c))


def _wiggles(rng):
    """Not monotone: the sine can leave ``|f|`` larger after a step than
    before it, where the solver must bisect rather than interpolate."""
    c, a, w = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.2), rng.uniform(5.0, 60.0)
    return lambda x: (x - c) + a * math.sin(w * x)


def _outcome(solver, f, xtol):
    """The root, or the type and message of the error the solver raised."""
    try:
        return solver(f, 0.0, 1.0, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("xtol", XTOLS)
@pytest.mark.parametrize(
    "family", [_powers, _shifted_powers, _tiny_powers, _tangents, _exponentials, _wiggles]
)
def test_seeded_functions_match_scipy(family, xtol):
    rng = np.random.default_rng(2021)
    roots = 0
    for _ in range(PER_FAMILY):
        f = family(rng)
        ours = _outcome(brentq, f, xtol)
        assert ours == _outcome(optimize.brentq, f, xtol)
        roots += isinstance(ours, float)
    assert roots > PER_FAMILY // 2


@pytest.fixture
def with_scipy(monkeypatch):
    """Patch SciPy's ``brentq``, the reference, into every call site."""

    def patch():
        for module in (inversion, tail, mmk):
            monkeypatch.setattr(module, "brentq", optimize.brentq)

    return patch


def _shipped_and_scipy(with_scipy, compute):
    shipped = compute()
    with_scipy()
    return shipped, compute()


def test_cutoff_utilization_exact_matches_scipy(with_scipy):
    grid = list(itertools.product(
        (0.002, 0.014, 0.023, 0.053, 0.079, 0.2),  # delta_n, seconds
        (1.625, 5.0, 20.0),                         # mu
        (1, 2, 8),                                  # edge servers
        (5, 10, 40),                                # cloud servers
        (0.25, 1.0, 2.0),                           # ca2
        (0.25, 1.0, 2.0),                           # cs2
    ))

    def compute():
        return [inversion.cutoff_utilization_exact(dn, mu, ke, kc, ca2=ca2, cs2=cs2)
                for dn, mu, ke, kc, ca2, cs2 in grid]

    shipped, reference = _shipped_and_scipy(with_scipy, compute)
    assert shipped == reference
    assert sum(0.0 < u < 1.0 for u in shipped) > len(grid) // 4  # brentq really ran


def test_inversion_rate_heterogeneous_matches_scipy(with_scipy):
    grid = list(itertools.product(
        (0.002, 0.023, 0.079),       # delta_n
        (4.0, 10.0, 13.0),           # mu_edge
        (1, 2),                      # edge servers
        (5, 10),                     # cloud servers
        (1, 5),                      # sites
        ((1.0, 1.0), (0.5, 2.0)),    # (ca2, cs2)
    ))

    def compute():
        return [inversion.inversion_rate_heterogeneous(
                    dn, mu_e, 13.0, ke, kc, sites, ca2=ca2, cs2=cs2)
                for dn, mu_e, ke, kc, sites, (ca2, cs2) in grid]

    shipped, reference = _shipped_and_scipy(with_scipy, compute)
    assert shipped == reference
    assert any(r not in (None, 0.0) for r in shipped)


def test_cutoff_utilization_tail_matches_scipy(with_scipy):
    grid = list(itertools.product(
        (0.014, 0.023, 0.079),           # delta_n
        (1.625, 13.0),                   # mu
        (1, 2),                          # edge servers
        (10, 40),                        # cloud servers
        (0.9, 0.95, 0.99),               # q
        ((1.0, 1.0), (0.5, 2.0)),        # (ca2, cs2)
    ))

    def compute():
        return [tail.cutoff_utilization_tail(dn, mu, ke, kc, q, ca2=ca2, cs2=cs2)
                for dn, mu, ke, kc, q, (ca2, cs2) in grid]

    shipped, reference = _shipped_and_scipy(with_scipy, compute)
    assert shipped == reference
    assert any(0.0 < u < 1.0 for u in shipped)


def test_mmk_response_time_percentile_matches_scipy(with_scipy):
    grid = [
        (rho * k * mu, mu, k, q)
        for mu in (1.625, 5.0, 13.0)
        for k in (1, 2, 8, 40)
        for rho in (0.1, 0.5, 0.8, 0.95, 0.99)
        for q in (0.5, 0.9, 0.95, 0.99)
    ]

    def compute():
        return [mmk.MMk(lam, mu, k).response_time_percentile(q) for lam, mu, k, q in grid]

    shipped, reference = _shipped_and_scipy(with_scipy, compute)
    assert shipped == reference


def test_paper_predictions_match_scipy(with_scipy):
    def compute():
        return [EdgeCloudComparator(s).predict_cutoff_utilization() for s in PAPER_SCENARIOS]

    shipped, reference = _shipped_and_scipy(with_scipy, compute)
    assert shipped == reference


def _nan_above_half(x):
    return math.nan if x > 0.5 else x - 0.75


@pytest.mark.parametrize(
    ("f", "kwargs", "error"),
    [
        (lambda x: x + 1.0, {}, ValueError),               # same-sign bracket
        (_nan_above_half, {}, ValueError),                 # f returns NaN
        (lambda x: x - 0.3, {"xtol": 0.0}, ValueError),
        (lambda x: x - 0.3, {"xtol": -1e-9}, ValueError),
        (lambda x: (x - 0.3) ** 5, {}, RuntimeError),     # flat root: 100 steps run out
    ],
)
def test_error_paths_raise_scipys_exception(f, kwargs, error):
    with pytest.raises(error) as ours:
        brentq(f, 0.0, 1.0, **kwargs)
    with pytest.raises(error) as theirs:
        optimize.brentq(f, 0.0, 1.0, **kwargs)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(("a", "b"), [(0.3, 1.0), (0.0, 0.3)])
def test_endpoint_root_returned_as_is(a, b):
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    assert brentq(f, a, b) == optimize.brentq(f, a, b) == 0.3
    assert len(calls) == 4  # both ends, once per solver, and nothing more
