"""Resource caps for the exhaustive desk-scale algorithms.

Every cap-guarded operation takes an optional ``caps`` argument; when a cap
is exhausted the operation raises :class:`flatlab.errors.CapExceededError`
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    # maximum number of elements a permutation group may enumerate, and of
    # cosets a presentation's coset enumeration may define
    order: int = 100_000
    # maximum size |X|^k of a generator-image search space for Hom(P, X)
    hom_search: int = 5_000_000
    # maximum |domain| for edge-checked homomorphism verification
    hom_domain: int = 4096
    # maximum arity of a verbal word and maximum number of tuples scanned
    word_arity: int = 3
    tuple_scan: int = 2_000_000
    # is_isomorphic gives up (explicit error, never a wrong answer) above this
    iso_order: int = 200
    # abelian enumeration: maximum number of torsion elements listed
    ab_elements: int = 200_000

    def with_(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()
