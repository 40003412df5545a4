"""The paper's contribution: inversion analysis, capacity planning, comparator.

Import from the submodules, e.g. ``from repro.core.comparator import
EdgeCloudComparator``.  This package module re-exports nothing, so the
comparator loads none of the cost, placement or transient models.
"""
