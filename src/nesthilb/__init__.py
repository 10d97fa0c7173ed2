"""Exact equivariant localization for nested Hilbert schemes of points
on toric surfaces."""

# perfbench/setup_probe.py reads these; they go once its api mode imports nesthilb.toric
from .toric import line_bundle, surface_p1xp1
