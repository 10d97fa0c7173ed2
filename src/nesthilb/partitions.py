"""Integer partitions, checked when made, built once and immutable by
convention (``Slotted``); boxwise-nested pairs are ``(outer, inner)`` tuples.
A partition's box character is built once as well and carries its lengths."""

from __future__ import annotations

from functools import lru_cache
from operator import le

from .charalg import Character, Slotted
from .errors import InvalidNesting


class Partition(Slotted):
    """A weakly decreasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        self.parts = tuple(parts)
        if any(type(p) is not int for p in self.parts):
            raise ValueError(f"parts must be integers: {self.parts}")
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def boxes(self):
        """Yield boxes (i, j): column i along t1, row j along t2, 0-indexed."""
        for j, part in enumerate(self.parts):
            for i in range(part):
                yield (i, j)

    def contains(self, other: "Partition") -> bool:
        """Boxwise containment: other sits inside self."""
        o, s = other.parts, self.parts
        return len(o) <= len(s) and all(map(le, o, s))

    def __hash__(self):
        return hash(self.parts)  # agrees with Slotted.__eq__, without its fields tuple

    def __repr__(self):
        return f"Partition({list(self.parts)})"


EMPTY = Partition(())


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in lexicographic descending order, each built once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY,)
    return tuple(
        Partition((first,) + rest.parts)
        for first in range(n, 0, -1)
        for rest in partitions_of(n - first)
        if not rest.parts or rest.parts[0] <= first
    )


def nested_pairs(n1: int, n2: int) -> list[tuple[Partition, Partition]]:
    """All pairs (mu1 of n1, mu2 of n2) with mu2 boxwise inside mu1."""
    if n2 < 0 or n1 < n2:
        raise InvalidNesting(f"need n1 >= n2 >= 0, got ({n1}, {n2})")
    inner = partitions_of(n2)
    return [(mu1, mu2) for mu1 in partitions_of(n1) for mu2 in inner if mu1.contains(mu2)]


class BoxCharacter(Character):
    """A partition's box character with its row lengths by j, column lengths by
    i and Hilbert tangent (None until ``fixedchar.hilb_tangent_char`` builds it)."""

    __slots__ = ("rows", "cols", "tangent")

    def __init__(self, mu: Partition):
        super().__init__({(i, j): 1 for j, part in enumerate(mu.parts) for i in range(part)})
        self.rows = dict(enumerate(mu.parts))
        self.cols = {i: sum(p > i for p in mu.parts) for i in range(max(mu.parts, default=0))}
        self.tangent = None


@lru_cache(maxsize=None)
def box_char(mu: Partition) -> BoxCharacter:
    """Sum of t1^i t2^j over the boxes of mu, built once per partition."""
    return BoxCharacter(mu)
