"""Executable versions of the paper's Section 5 design implications.

* :mod:`repro.mitigation.geo_lb` — geographic load balancing ("queue
  jockeying"): redirect requests from an overloaded edge site to a
  nearby site with spare capacity.
* :mod:`repro.mitigation.provisioning` — skew-proportional capacity
  allocation with over-provisioning headroom (Lemma 3.3's prescription
  plus Equation 22's per-site floor).
* :mod:`repro.mitigation.autoscale` — reactive per-site scaling on an
  observed-utilization signal (the paper's "adjusted dynamically"
  remark for time-varying skew).

Import from the submodules, e.g. ``from repro.mitigation.admission
import AdaptiveAdmission``.  This package module re-exports nothing.
"""
