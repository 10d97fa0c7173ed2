"""Fixed-point character formulas and configuration enumeration.

All formulas are Laurent polynomials in the local chart variables; the
outer partition (size n1) plays the role of Z1 and the inner partition
(size n2) the role of Z2.  That pairing is fixed by two constraints
checked in the tests: the diagonal Z1 = Z2 reduces to the Hilbert-scheme
tangent character, and the signed rank of the nested tangent character
equals n1 + n2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .charalg import Character
from .errors import InvalidNesting
from .partitions import Partition, box_char, nested_pairs, partitions_of
from .toric import ToricSurfaceDescriptor

# (1 - t1)(1 - t2) / (t1 t2), the two-variable Koszul factor
_KOSZUL = Character({(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1})
_INV_T1T2 = Character.monomial(-1, -1)


def nested_tangent_char(Z1: Character, Z2: Character) -> Character:
    """Virtual tangent character of the nested scheme at one chart."""
    return (
        Z1
        + Z2.bar() * _INV_T1T2
        + (Z1.bar() * Z2 - Z1.bar() * Z1 - Z2.bar() * Z2) * _KOSZUL
    )


def hilb_tangent_char(Z: Character) -> Character:
    """Tangent character of the (smooth) Hilbert scheme of points at one chart."""
    return Z + Z.bar() * _INV_T1T2 - Z.bar() * Z * _KOSZUL


def em_char(Z1: Character, Z2: Character) -> Character:
    """Local character of the virtual extension class of rank n1 + n2.

    A twisting line bundle enters its Chern series as the integer value
    of the bundle's weight (``chern_useries``'s ``twist``).
    """
    return Z2 + Z1.bar() * _INV_T1T2 - Z1.bar() * Z2 * _KOSZUL


@dataclass(frozen=True)
class FixedConfig:
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
        return [(pr.outer, pr.inner) for pr in nested_pairs(a, b)]
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
