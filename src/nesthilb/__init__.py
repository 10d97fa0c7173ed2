"""Exact equivariant localization for nested Hilbert schemes of points
on toric surfaces."""

from .charalg import (
    Character,
    Rational,
    USeries,
    Weight,
    chern_useries,
    euler_value,
    substitute_chart,
)
from .fixedchar import (
    FixedConfig,
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    nested_tangent_char,
)
from .integrate import IntegrandSpec, InvariantResult, integrate, integrate_hilb
from .partitions import NestedPair, Partition, box_char, nested_pairs, partitions_of
from .toric import (
    EquivariantLineBundle,
    FixedPointChart,
    ToricSurfaceDescriptor,
    canonical_bundle,
    intersect,
    line_bundle,
    surface_from_file,
    surface_from_json,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)
from .verify import (
    CheckReport,
    case2_check,
    case3_check,
    theorem5_check,
    theorem7_check,
    theorem7_lhs,
    theorem7_rhs,
    zprod_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
