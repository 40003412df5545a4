"""Brent's bracketing root finder, ported from SciPy.

Every analytic cutoff in :mod:`repro.core.inversion` and
:mod:`repro.core.tail`, and :meth:`repro.queueing.mmk.MMk.response_time_percentile`,
solves one scalar equation on a bracket.  :func:`brentq` is Brent's
method (R. P. Brent, *Algorithms for Minimization Without Derivatives*,
Prentice-Hall, 1973, ch. 4, procedure *zeroin*) as SciPy implements it
in C (``brentq.c``), with the input checks of SciPy's Python wrapper
``scipy.optimize.brentq``.  It takes the same steps in the same
floating-point order, so each root is bit-identical to SciPy's
(``tests/queueing/test_roots.py`` checks this against SciPy).  Keeping it
here keeps ``scipy.optimize``, and the linear algebra it imports, off the
import path of every analytic prediction.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["brentq"]

# SciPy's defaults for the relative tolerance (four machine epsilons) and
# the iteration limit; no caller needs others.
_RTOL = 4 * 2.220446049250313e-16
_MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12) -> float:
    """Return a root of ``f`` in ``[a, b]``; ``f(a)`` and ``f(b)`` must differ in sign.

    Stops when the bracket is narrower than ``xtol + 4 * eps * |x|`` or
    ``f(x) == 0``; an endpoint where ``f`` is zero is returned as is.
    ``xtol`` defaults to SciPy's, and ``rtol`` and ``maxiter`` are fixed
    at SciPy's defaults.

    Raises
    ------
    ValueError
        If ``xtol <= 0``, ``f(a)`` and ``f(b)`` have the same sign, or
        ``f`` returns NaN.
    RuntimeError
        If 100 iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        # SciPy also requires both values nonzero here; a zero fcur returns
        # below whether or not the contrapoint is reset.
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # Where den underflows to 0, C's step is inf or NaN and fails
                # the test below, so it bisects; Python would raise instead.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:  # always move by at least delta
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
