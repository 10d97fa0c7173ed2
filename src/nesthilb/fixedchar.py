"""Fixed-point character formulas and configuration enumeration.

Characters are Laurent polynomials in the local chart variables, built
from box characters: box (i, j) is t1^i t2^j, column i along t1 and row
j along t2.  Every local character is one arm/leg sum (Carlsson-Okounkov,
"Exts and vertex operators"), ``em_char(Z1, Z2)``: with row_k(j), col_k(i)
the row and column lengths of Z_k, a box (i, j) of Z1 gives
t1^(i - row1(j)) t2^(col2(i) - j - 1) and one of Z2 gives
t1^(row2(j) - i - 1) t2^(j - col1(i)).  So the extension class is
effective of rank n1 + n2 by construction.  Z1 is the outer partition
(size n1), Z2 the inner (size n2), and the Hilbert tangent is
em_char(Z, Z): the nested tangent T1 + T2 - Ext(Z1, Z2) reduces to it at
Z1 = Z2 and has signed rank n1 + n2.

Each character is built in one dict: the row and column lengths of each
argument are counted once, and the nested tangent is one signed
accumulation em(Z1, Z1) + em(Z2, Z2) - em(Z1, Z2).  The order of the
arguments matters: em(Z2, Z1) in place of em(Z1, Z2) is wrong on most
nested pairs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .charalg import Character
from .errors import InvalidNesting
from .partitions import Partition, box_char, nested_pairs, partitions_of
from .toric import ToricSurfaceDescriptor


def nested_tangent_char(Z1: Character, Z2: Character) -> Character:
    """Virtual tangent character of the nested scheme at one chart."""
    one, two = _with_lengths(Z1), _with_lengths(Z2)
    return _signed_em((1, one, one), (1, two, two), (-1, one, two))


def hilb_tangent_char(Z: Character) -> Character:
    """Tangent character of the (smooth) Hilbert scheme of points at one chart."""
    return em_char(Z, Z)


def em_char(Z1: Character, Z2: Character) -> Character:
    """Local character of the virtual extension class of rank n1 + n2:
    one term per box of Z1 and of Z2 (see the module docstring)."""
    return _signed_em((1, _with_lengths(Z1), _with_lengths(Z2)))


def _with_lengths(Z: Character) -> tuple[dict, dict[int, int], dict[int, int]]:
    """The boxes of Z with its row lengths by j and column lengths by i."""
    rows, cols = {}, {}
    for i, j in Z.terms:
        rows[j] = rows.get(j, 0) + 1
        cols[i] = cols.get(i, 0) + 1
    return Z.terms, rows, cols


def _signed_em(*terms) -> Character:
    """The sum of sign * em(Z1, Z2) over the (sign, Z1, Z2) in ``terms``,
    each Z given by ``_with_lengths``, added up in one dict."""
    out: dict[tuple[int, int], int] = {}
    for sign, (boxes1, row1, col1), (boxes2, row2, col2) in terms:
        for i, j in boxes1:
            k = (i - row1[j], col2.get(i, 0) - j - 1)
            out[k] = out.get(k, 0) + sign
        for i, j in boxes2:
            k = (row2[j] - i - 1, j - col1.get(i, 0))
            out[k] = out.get(k, 0) + sign
    return Character(out)


class FixedConfig(NamedTuple):
    """An assignment of one partition pair to each fixed point.

    In nested mode every pair satisfies boxwise containment; in product
    mode the two partitions are independent.
    """

    assignment: tuple[tuple[Partition, Partition], ...]
    n1: int
    n2: int

    def outer_chars(self) -> list[Character]:
        return [box_char(p1) for p1, _ in self.assignment]

    def inner_chars(self) -> list[Character]:
        return [box_char(p2) for _, p2 in self.assignment]


def local_pairs(a: int, b: int, mode: str) -> list[tuple[Partition, Partition]]:
    """Every partition pair of sizes (a, b) one fixed point can carry:
    boxwise nested in nested mode, independent in product mode."""
    if mode == "nested":
        return nested_pairs(a, b)
    return list(product(partitions_of(a), partitions_of(b)))


def local_pair_chars(
    a: int, b: int, mode: str
) -> Iterator[tuple[tuple[Partition, Partition], Character, Character]]:
    """Every local pair (``local_pairs``) with its box characters Z1, Z2,
    one pair at a time."""
    for pair in local_pairs(a, b, mode):
        yield pair, box_char(pair[0]), box_char(pair[1])


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_configs(
    S: ToricSurfaceDescriptor, n1: int, n2: int, mode: str = "nested"
) -> Iterator[FixedConfig]:
    """All fixed-point configurations with totals (n1, n2), in a
    deterministic order."""
    if mode not in ("nested", "product"):
        raise ValueError(f"unknown mode {mode!r}")
    if n1 < 0 or n2 < 0 or (mode == "nested" and n1 < n2):
        raise InvalidNesting(f"invalid sizes ({n1}, {n2}) for mode {mode!r}")
    npts = S.euler_number

    for sizes1 in _compositions(n1, npts):
        for sizes2 in _compositions(n2, npts):
            if mode == "nested" and any(b > a for a, b in zip(sizes1, sizes2)):
                continue
            per_point = [local_pairs(a, b, mode) for a, b in zip(sizes1, sizes2)]
            for combo in product(*per_point):
                yield FixedConfig(combo, n1, n2)
