"""Queueing-theory substrate: exact and approximate queueing models.

This subpackage provides the analytical machinery used throughout the
reproduction of *The Hidden Cost of the Edge* (SC 2021):

* :mod:`repro.queueing.distributions` — random-variable objects with
  first/second moments (mean, squared coefficient of variation) and
  reproducible sampling, plus two-moment fitting.
* :mod:`repro.queueing.mm1` — exact M/M/1 results.
* :mod:`repro.queueing.mmk` — exact M/M/k results (Erlang B/C, waiting and
  response-time distributions) and Whitt's conditional-wait approximation
  used in the paper's Lemma 3.1.
* :mod:`repro.queueing.ggk` — G/G/1 and G/G/k approximations: Kingman's
  bound and the Allen–Cunneen approximation with the Bolch et al.
  :math:`P_s` form used in the paper's Lemma 3.2.

All models use SI units: rates in requests/second, times in seconds.

Import from the submodules, e.g. ``from repro.queueing.mmk import MMk``.
This package module re-exports nothing.
"""
