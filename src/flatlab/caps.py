"""Resource caps for the exhaustive desk-scale algorithms.

Every cap-guarded operation takes an optional ``caps`` argument; when a cap
is exhausted the operation raises :class:`flatlab.errors.CapExceededError`
instead of silently truncating.
"""

from __future__ import annotations


class Caps:
    """Immutable, and equal and hashed by value: caps are memo keys."""

    __slots__ = (
        "order", "hom_search", "hom_domain", "word_arity", "tuple_scan",
        "iso_order", "ab_elements", "_key",
    )

    def __init__(
        self,
        # maximum number of elements a permutation group may enumerate, and of
        # cosets a presentation's coset enumeration may define
        order: int = 100_000,
        # maximum size |X|^k of a generator-image search space for Hom(P, X)
        hom_search: int = 5_000_000,
        # maximum |domain| for edge-checked homomorphism verification
        hom_domain: int = 4096,
        # maximum arity of a verbal word and maximum number of tuples scanned
        word_arity: int = 3,
        tuple_scan: int = 2_000_000,
        # is_isomorphic gives up (explicit error, never a wrong answer) above this
        iso_order: int = 200,
        # abelian enumeration: maximum number of torsion elements listed
        ab_elements: int = 200_000,
    ):
        key = (order, hom_search, hom_domain, word_arity, tuple_scan, iso_order, ab_elements)
        for name, value in zip(self.__slots__, key):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, *a):
        raise AttributeError("Caps is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Caps) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def with_(self, **kw) -> "Caps":
        """A copy with the named caps replaced; an unknown name is a TypeError."""
        return Caps(**dict(zip(self.__slots__, self._key), **kw))


DEFAULT_CAPS = Caps()
