from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nesthilb.errors import InvalidNesting
from nesthilb.partitions import (
    EMPTY,
    Partition,
    box_char,
    nested_pairs,
    partitions_of,
)


def partition_counts_oracle(limit):
    """p(0..limit) by the pentagonal number recurrence (independent of
    the enumerator)."""
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def monomial_ideal(mu, bound):
    """Monomials of the ideal attached to mu inside a bound x bound box."""
    boxes = set(mu.boxes())
    return {(i, j) for i in range(bound) for j in range(bound) if (i, j) not in boxes}


class TestPartition:
    def test_empty_partition(self):
        assert partitions_of(0) == (EMPTY,)
        assert EMPTY.size == 0

    def test_p4(self):
        assert len(partitions_of(4)) == 5

    def test_p10_against_recurrence(self):
        assert len(partitions_of(10)) == 42
        oracle = partition_counts_oracle(12)
        for n in range(13):
            assert len(partitions_of(n)) == oracle[n]

    def test_each_partition_exactly_once(self):
        for n in range(9):
            ps = partitions_of(n)
            assert len(set(ps)) == len(ps)
            assert all(p.size == n for p in ps)

    def test_lexicographic_descending_order(self):
        parts = [p.parts for p in partitions_of(5)]
        assert parts == sorted(parts, reverse=True)

    def test_each_partition_is_built_once(self):
        assert partitions_of(6) is partitions_of(6)
        assert partitions_of(0)[0] is EMPTY

    def test_invalid_parts_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            partitions_of(-1)

    @pytest.mark.parametrize("parts", [(2.0, 1), (True,), (2, False), ("2",), (None,)],
                             ids=["float", "true", "false", "str", "none"])
    def test_non_integer_parts_rejected(self, parts):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts)

    def test_parts_are_stored_as_a_tuple(self):
        mu = Partition([2, 1])
        assert mu.parts == (2, 1)
        assert mu == Partition((2, 1))
        assert hash(mu) == hash(Partition((2, 1)))
        assert mu in partitions_of(3)
        assert box_char(mu) is box_char(partitions_of(3)[1])


class TestNestedPairs:
    def test_single_box(self):
        assert nested_pairs(1, 0) == [(Partition((1,)), EMPTY)]

    def test_two_one(self):
        pairs = nested_pairs(2, 1)
        assert [(outer.parts, inner.parts) for outer, inner in pairs] == [
            ((2,), (1,)),
            ((1, 1), (1,)),
        ]

    def test_three_two_brute_force(self):
        # independent containment test over the full product
        expected = sum(
            1
            for mu1 in partitions_of(3)
            for mu2 in partitions_of(2)
            if monomial_ideal(mu1, 5) <= monomial_ideal(mu2, 5)
        )
        assert expected == 4
        assert len(nested_pairs(3, 2)) == 4

    def test_equal_sizes_force_equality(self):
        for n in range(7):
            pairs = nested_pairs(n, n)
            assert len(pairs) == len(partitions_of(n))
            assert all(outer == inner for outer, inner in pairs)

    def test_empty_inner(self):
        for n in range(7):
            assert len(nested_pairs(n, 0)) == len(partitions_of(n))

    def test_order_is_the_filtered_product(self):
        # case3 names a failing local pair by its index in this order
        for n1 in range(9):
            for n2 in range(n1 + 1):
                expected = [
                    (mu1, mu2)
                    for mu1 in partitions_of(n1)
                    for mu2 in partitions_of(n2)
                    if mu1.contains(mu2)
                ]
                assert nested_pairs(n1, n2) == expected

    def test_pairs_are_the_cached_partitions_with_one_containment_test_each(self, monkeypatch):
        calls = []
        contains = Partition.contains

        def counted(self, other):
            calls.append(1)
            return contains(self, other)

        monkeypatch.setattr(Partition, "contains", counted)
        for n1 in range(7):
            for n2 in range(n1 + 1):
                calls.clear()
                pairs = nested_pairs(n1, n2)
                assert len(calls) == len(partitions_of(n1)) * len(partitions_of(n2))
                outers, inners = map(set, zip(*pairs))
                # objects from partitions_of, not rebuilt copies
                assert {id(p) for p in outers} <= {id(p) for p in partitions_of(n1)}
                assert {id(p) for p in inners} <= {id(p) for p in partitions_of(n2)}

    def test_invalid_nesting_raises(self):
        with pytest.raises(InvalidNesting):
            nested_pairs(1, 2)

    def test_containment_matches_monomial_ideal_inclusion(self):
        # boxwise containment of mu2 in mu1 is inclusion of the
        # monomial ideal of mu1 in that of mu2
        for n1 in range(5):
            for n2 in range(n1 + 1):
                for mu1 in partitions_of(n1):
                    for mu2 in partitions_of(n2):
                        boxwise = mu1.contains(mu2)
                        ideals = monomial_ideal(mu1, 6) <= monomial_ideal(mu2, 6)
                        assert boxwise == ideals


class TestBoxChar:
    def test_empty(self):
        assert box_char(EMPTY).terms == {}

    def test_single_box(self):
        assert box_char(Partition((1,))).terms == {(0, 0): 1}

    def test_hook(self):
        assert box_char(Partition((2, 1))).terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_rank_is_size(self):
        for n in range(9):
            for mu in partitions_of(n):
                assert box_char(mu).signed_rank() == n

    def test_one_term_per_box(self):
        for n in range(9):
            for mu in partitions_of(n):
                assert box_char(mu).terms == {box: 1 for box in mu.boxes()}

    @given(st.integers(0, 8))
    def test_box_multiplicities_are_one(self, n):
        for mu in partitions_of(n):
            assert all(v == 1 for v in box_char(mu).terms.values())

    def test_built_once_per_partition(self):
        for n in range(9):
            for mu in partitions_of(n):
                assert box_char(mu) is box_char(mu)
                assert box_char(mu) is box_char(Partition(mu.parts))

    def test_carried_lengths_are_those_of_the_boxes(self):
        for n in range(9):
            for mu in partitions_of(n):
                Z = box_char(mu)
                assert Z.rows == dict(Counter(j for _, j in Z.terms))
                assert Z.cols == dict(Counter(i for i, _ in Z.terms))
