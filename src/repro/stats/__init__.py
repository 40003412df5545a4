"""Measurement utilities: summaries, time series, CIs, warm-up trimming.

Import from the submodules, e.g. ``from repro.stats.summary import
summarize``.  This package module re-exports nothing.
"""
