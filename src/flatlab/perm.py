"""Permutations of {0, ..., degree-1}.

Composition convention, fixed once for the whole package: ``p * q`` applies
``p`` first and then ``q``, i.e. ``(p * q)(x) == q(p(x))``.  Words over group
elements therefore evaluate left to right, the way they are written.

Permutations are the boundary representation.  Groups compute on integer
codes numbered in the sorted order of their permutations (``__lt__``, by
image tuple; see ``permgroup``), so this order fixes every element list,
scan and witness of the package.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DegreeMismatchError


class Permutation:
    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection of 0..{n - 1}: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def _make(images: tuple[int, ...]) -> "Permutation":
        """Internal fast path for images known to be a bijection."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_hash", hash(images))
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {cyc!r}")
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if not (0 <= a < degree):
                    raise ValueError(f"point {a} outside degree {degree}")
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        return Permutation._make(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._make(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}@{self.degree}"


def parse_cycle_string(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(0 1 2 3)(7 8)`` or ``()``."""
    text = text.strip()
    if text in ("()", ""):
        return Permutation.identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        points = [int(tok) for tok in chunk.replace(",", " ").split()]
        if not points:
            raise ValueError(f"empty cycle in {text!r}")
        cycles.append(points)
    return Permutation.from_cycles(cycles, degree)
