"""Discrete-event simulation substrate.

This subpackage replaces the paper's EC2 testbed (Section 4.1): edge
sites and the cloud data center become FCFS multi-server queue stations
connected to clients through network-latency models, driven by open-loop
workload sources — the same topology the paper measures, minus the WAN.

Two execution paths are provided:

* :mod:`repro.sim.engine` + friends — a full event-calendar simulator
  with per-request tracing, load-balancer policies, redirection hooks
  (for geographic load balancing) and dynamic capacity changes.
* :mod:`repro.sim.fastsim` — the Kiefer–Wolfowitz recursion for FCFS
  G/G/c queues, which settles blocks of requests in NumPy, waits
  included, about 41× faster per simulated request on the same work
  (perfbench ``sim_req_per_s``: ≈5.60M req/s over all 13 points of
  every Figure 7 placement against ≈137k on ``fig7-des``, three of
  those points through the event engine; medians of ten and five 20 s
  runs on a 2-vCPU Xeon); the test suite cross-validates the two paths
  against each other and against exact M/M/k theory.

Import from the submodules, e.g. ``from repro.sim.engine import
Simulation``.  This package module re-exports nothing, so importing
:mod:`repro.sim.fastsim` loads none of the event engine's resilience,
batching or geographic models.
"""
