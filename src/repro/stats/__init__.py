"""Measurement utilities: summaries, time series, replication CIs.

Import from the submodules, e.g. ``from repro.stats.summary import
summarize``.  This package module re-exports nothing.
"""
