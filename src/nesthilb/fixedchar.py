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

Every argument is a ``partitions.box_char``, built once per partition,
and the lengths are the ones it carries.  A partition's Hilbert tangent
is built once as well and kept on its box character, so the nested
tangent copies T(Z1), adds T(Z2) and subtracts em(Z1, Z2) in one fresh
dict, and changes no cached character.  The order of the arguments
matters: em(Z2, Z1) in place of em(Z1, Z2) is wrong on most nested
pairs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .charalg import Character
from .errors import InvalidNesting
from .partitions import BoxCharacter, Partition, box_char, nested_pairs, partitions_of
from .toric import ToricSurfaceDescriptor


def nested_tangent_char(Z1: BoxCharacter, Z2: BoxCharacter) -> Character:
    """Virtual tangent character of the nested scheme at one chart."""
    out = dict(hilb_tangent_char(Z1).terms)
    for k, v in hilb_tangent_char(Z2).terms.items():
        out[k] = out.get(k, 0) + v
    return _add_em(out, -1, Z1, Z2)


def hilb_tangent_char(Z: BoxCharacter) -> Character:
    """Tangent character of the (smooth) Hilbert scheme of points at one
    chart, built once per box character and kept on it."""
    if Z.tangent is None:
        Z.tangent = em_char(Z, Z)
    return Z.tangent


def em_char(Z1: BoxCharacter, Z2: BoxCharacter) -> Character:
    """Local character of the virtual extension class of rank n1 + n2:
    one term per box of Z1 and of Z2 (see the module docstring)."""
    return _add_em({}, 1, Z1, Z2)


def _add_em(out: dict, sign: int, Z1: BoxCharacter, Z2: BoxCharacter) -> Character:
    """``out`` plus sign * em(Z1, Z2), added up in ``out`` itself."""
    row1, col1, row2, col2 = Z1.rows, Z1.cols, Z2.rows, Z2.cols
    for i, j in Z1.terms:
        k = (i - row1[j], col2.get(i, 0) - j - 1)
        out[k] = out.get(k, 0) + sign
    for i, j in Z2.terms:
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
