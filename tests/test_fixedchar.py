from collections import Counter

import pytest

from nesthilb import fixedchar, partitions
from nesthilb.charalg import Character
from nesthilb.errors import InvalidNesting
from nesthilb.fixedchar import (
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    nested_tangent_char,
)
from nesthilb.integrate import _tangent_character
from nesthilb.partitions import EMPTY, Partition, box_char, nested_pairs, partitions_of
from nesthilb.toric import surface_p1xp1, surface_p2
from nesthilb.verify import case3_check
from test_slow_path import bar

ZERO = box_char(EMPTY)
ONE = box_char(Partition((1,)))


def lc(terms):
    return Character(terms)


class TestNestedTangentChar:
    def test_empty(self):
        assert nested_tangent_char(ZERO, ZERO) == ZERO

    def test_one_box_outer_only(self):
        # hand evaluation: t1^-1 + t2^-1 - (t1 t2)^-1
        v = nested_tangent_char(ONE, ZERO)
        assert v == lc({(-1, 0): 1, (0, -1): 1, (-1, -1): -1})
        assert v.signed_rank() == 1

    def test_one_box_both(self):
        v = nested_tangent_char(ONE, ONE)
        assert v == lc({(-1, 0): 1, (0, -1): 1})
        assert v.signed_rank() == 2
        assert v == hilb_tangent_char(ONE)

    def test_two_one(self):
        # hand evaluation for outer [2], inner [1]
        v = nested_tangent_char(box_char(Partition((2,))), box_char(Partition((1,))))
        assert v == lc({(-1, -1): -1, (0, -1): 1, (-1, 0): 2, (1, -1): 1})
        assert v.signed_rank() == 3

    def test_signed_rank_is_n1_plus_n2(self):
        for n1 in range(5):
            for n2 in range(n1 + 1):
                for outer, inner in nested_pairs(n1, n2):
                    v = nested_tangent_char(box_char(outer), box_char(inner))
                    assert v.signed_rank() == n1 + n2

    def test_diagonal_reduces_to_hilbert_tangent(self):
        for n in range(7):
            for mu in partitions_of(n):
                Z = box_char(mu)
                assert nested_tangent_char(Z, Z) == hilb_tangent_char(Z)


class TestHilbTangentChar:
    def test_empty(self):
        assert hilb_tangent_char(ZERO) == ZERO

    def test_one_box(self):
        assert hilb_tangent_char(ONE) == lc({(-1, 0): 1, (0, -1): 1})

    def test_rank_is_twice_size(self):
        for n in range(7):
            for mu in partitions_of(n):
                assert hilb_tangent_char(box_char(mu)).signed_rank() == 2 * n

    def test_no_constant_term(self):
        # isolated fixed points: the local tangent has no invariant part
        for n in range(6):
            for mu in partitions_of(n):
                assert (0, 0) not in hilb_tangent_char(box_char(mu)).terms


class TestEmChar:
    def test_empty(self):
        assert em_char(ZERO, ZERO) == ZERO

    def test_diagonal_is_tangent(self):
        for n in range(6):
            for mu in partitions_of(n):
                Z = box_char(mu)
                assert em_char(Z, Z) == hilb_tangent_char(Z)

    def test_virtual_rank(self):
        for n1 in range(6):
            for n2 in range(6):
                for mu1 in partitions_of(n1):
                    for mu2 in partitions_of(n2):
                        v = em_char(box_char(mu1), box_char(mu2))
                        assert v.signed_rank() == n1 + n2

    def test_role_swap_is_serre_dual(self):
        # exchanging the two ideals conjugates the class and twists by
        # the chart canonical monomial
        inv = Character.monomial(-1, -1)
        for mu1 in partitions_of(3):
            for mu2 in partitions_of(2):
                Z1, Z2 = box_char(mu1), box_char(mu2)
                assert em_char(Z2, Z1) == bar(em_char(Z1, Z2)) * inv


class TestBuiltOncePerPartition:
    def test_case3_builds_each_box_character_and_tangent_at_most_once(self, monkeypatch):
        # case3 at nmax 7 takes 840 local pairs from the 67 partitions of 0..8
        built = Counter()

        class Counted(partitions.BoxCharacter):
            __slots__ = ()

            def __init__(self, mu):
                built["box"] += 1
                super().__init__(mu)

        em = fixedchar.em_char

        def counted_em(Z1, Z2):
            built["tangent"] += Z1 is Z2
            return em(Z1, Z2)

        monkeypatch.setattr(partitions, "BoxCharacter", Counted)
        monkeypatch.setattr(fixedchar, "em_char", counted_em)
        box_char.cache_clear()
        try:
            case3_check(surface_p1xp1(), 7)
        finally:
            box_char.cache_clear()
        distinct = sum(len(partitions_of(n)) for n in range(9))
        assert distinct == 67
        assert 0 < built["box"] <= distinct
        assert 0 < built["tangent"] <= distinct

    def test_nested_tangent_changes_no_cached_character(self):
        def cached(Z1, Z2):
            return [dict(c.terms) for c in (Z1, Z2, hilb_tangent_char(Z1), hilb_tangent_char(Z2))]

        for n1 in range(5):
            for n2 in range(n1 + 1):
                for outer, inner in nested_pairs(n1, n2):
                    Z1, Z2 = box_char(outer), box_char(inner)
                    before = cached(Z1, Z2)
                    nested_tangent_char(Z1, Z2)
                    assert cached(Z1, Z2) == before


def brute_force_config_count(npoints, n1, n2):
    """Count assignments of partition pairs with boxwise containment,
    implemented from scratch against explicit box sets."""
    from itertools import product

    def boxsets(n):
        return [frozenset(mu.boxes()) for mu in partitions_of(n)]

    count = 0
    sizes = range(n1 + 1)
    for dist1 in product(sizes, repeat=npoints):
        if sum(dist1) != n1:
            continue
        for dist2 in product(range(n2 + 1), repeat=npoints):
            if sum(dist2) != n2:
                continue
            ways = 1
            for a, b in zip(dist1, dist2):
                local = 0
                for s1 in boxsets(a):
                    for s2 in boxsets(b):
                        if s2 <= s1:
                            local += 1
                ways *= local
            count += ways
    return count


class TestEnumerateConfigs:
    def test_plane_one_zero(self):
        assert len(list(enumerate_configs(surface_p2(), 1, 0))) == 3

    def test_plane_one_one(self):
        configs = list(enumerate_configs(surface_p2(), 1, 1))
        assert len(configs) == 3
        for cfg in configs:
            assert sum(p1.size for p1, _ in cfg.assignment) == 1
            assert sum(p2.size for _, p2 in cfg.assignment) == 1

    def test_plane_two_one_matches_brute_force(self):
        expected = brute_force_config_count(3, 2, 1)
        assert expected == 12
        assert len(list(enumerate_configs(surface_p2(), 2, 1))) == expected

    def test_counts_match_brute_force(self):
        for S in (surface_p2(), surface_p1xp1()):
            for n1 in range(4):
                for n2 in range(n1 + 1):
                    got = len(list(enumerate_configs(S, n1, n2)))
                    assert got == brute_force_config_count(S.euler_number, n1, n2)

    def test_product_mode_count_is_product_of_euler_numbers(self):
        # configs of the product space are independent pairs
        S = surface_p2()
        got = len(list(enumerate_configs(S, 2, 1, "product")))
        singles2 = len(list(enumerate_configs(S, 2, 0, "product")))
        singles1 = len(list(enumerate_configs(S, 1, 0, "product")))
        assert got == singles2 * singles1

    def test_each_config_exactly_once(self):
        configs = list(enumerate_configs(surface_p1xp1(), 2, 2))
        assert len(set(configs)) == len(configs)

    def test_invalid_nesting(self):
        with pytest.raises(InvalidNesting):
            list(enumerate_configs(surface_p2(), 1, 2))
        # allowed in product mode
        assert list(enumerate_configs(surface_p2(), 1, 2, "product"))


class TestGlobalTangent:
    def test_isolatedness_and_virtual_dimension(self):
        for S in (surface_p2(), surface_p1xp1()):
            for n1 in range(4):
                for n2 in range(n1 + 1):
                    for cfg in enumerate_configs(S, n1, n2):
                        tangent = _tangent_character(S, cfg, "nested")
                        assert tangent.zero_multiplicity() == 0
                        assert tangent.signed_rank() == n1 + n2
