"""Value semantics of the package's records and validated value classes:
equality and hash over the fields, the refusals their constructors make,
and their reprs."""

from fractions import Fraction

import pytest

from nesthilb.charalg import Weight
from nesthilb.errors import DependentChartWeights
from nesthilb.fixedchar import FixedConfig
from nesthilb.integrate import Factor, IntegrandSpec, InvariantResult, total_chern_em
from nesthilb.partitions import Partition
from nesthilb.toric import (
    EquivariantLineBundle,
    FixedPointChart,
    ToricSurfaceDescriptor,
    canonical_bundle,
    surface_p1xp1,
    surface_p2,
)
from nesthilb.verify import CheckReport


def zero_weights():
    return tuple(Weight(0, 0) for _ in range(3))


# (class, fields, one field changed); each instance is built from fresh field values
CASES = [
    (Partition, lambda: {"parts": (2, 1)}, {"parts": (3,)}),
    (FixedPointChart, lambda: {"w1": Weight(1, 0), "w2": Weight(0, 1)}, {"w2": Weight(1, 1)}),
    (EquivariantLineBundle, lambda: {"label": "O", "weights": zero_weights(), "surface": surface_p2()},
     {"label": "L"}),
    (ToricSurfaceDescriptor, lambda: {"name": "p2", "charts": surface_p2().charts, "rays": None},
     {"name": "q"}),
    (Factor, lambda: {"kind": "total", "klass": "em", "bundle": canonical_bundle(surface_p2())},
     {"bundle": None}),
    (IntegrandSpec, lambda: {"mode": "nested", "factors": (total_chern_em(),)}, {"mode": "product"}),
    (FixedConfig, lambda: {"assignment": ((Partition((1,)), Partition(())),), "n1": 1, "n2": 0},
     {"n2": 1}),
    (CheckReport, lambda: {"name": "theorem7", "entries": ((1, 0, Fraction(3), Fraction(3)),)},
     {"millis": 5}),
]


@pytest.mark.parametrize("cls,fields,change", CASES, ids=[c[0].__name__ for c in CASES])
def test_equal_fields_give_equal_values(cls, fields, change):
    a, b = cls(**fields()), cls(**fields())
    assert a is not b and a == b and hash(a) == hash(b)
    other = cls(**{**fields(), **change})
    assert a != other and not a == other


def test_invariant_results_compare_by_fields():
    def make():
        return InvariantResult({(1, 0): Fraction(1, 2)}, {(1, 0): 3}, ((2, 5),), 1, 0)

    assert make() == make()
    assert make() != make()._replace(values={(1, 0): Fraction(1)})


def test_canonical_bundle_is_built_once_across_equal_surfaces():
    # the @cache keys on the surface's value, not its identity
    assert surface_p1xp1() is not surface_p1xp1()
    assert canonical_bundle(surface_p1xp1()) is canonical_bundle(surface_p1xp1())


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: ToricSurfaceDescriptor("two", surface_p2().charts[:2]), ValueError,
         "a projective toric surface has at least 3 fixed points"),
        (lambda: IntegrandSpec("bogus"), ValueError, "unknown mode 'bogus'"),
        (lambda: FixedPointChart(Weight(1, 2), Weight(-2, -4)), DependentChartWeights,
         "chart weights Weight(a=1, b=2), Weight(a=-2, b=-4)"),
    ],
    ids=["two-charts", "bogus-mode", "parallel-weights"],
)
def test_refusals(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_reprs_show_the_fields_in_order():
    S = surface_p2()
    assert repr(S.charts[0]) == "FixedPointChart(w1=Weight(a=1, b=0), w2=Weight(a=0, b=1))"
    # a bundle leaves out its surface
    assert repr(canonical_bundle(S)) == (
        "EquivariantLineBundle(label='K', weights=(Weight(a=-1, b=-1), Weight(a=2, b=-1), "
        "Weight(a=-1, b=2)))"
    )
    assert repr(IntegrandSpec("nested", (total_chern_em(),))) == (
        "IntegrandSpec(mode='nested', factors=(Factor(kind='total', klass='em', bundle=None),))"
    )
