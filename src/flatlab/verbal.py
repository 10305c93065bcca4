"""Verbal subgroups and lower central series.

The exhaustive route evaluates every word of W on every tuple of group
elements; because conjugation is an automorphism, w(g_1,...,g_k)^h =
w(g_1^h,...,g_k^h), so the full value set is already closed under
conjugation and the generated subgroup is normal without a closure pass.

Two exact fast paths cover the functors the suites use heavily: power words
x^n scan {g^n : g in G}, and an iterated commutator, given by its class c
(``_law``), uses gamma_{c+1} = <<[t, s] : t generating gamma_c, s generating
G>>.  Property tests cross-check both against the exhaustive census.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import isqrt
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import CapExceededError
from .permgroup import PermGroup, normal_closure_codes
from .words import Word


def _is_power_word(w: Word) -> int | None:
    if len(w.letters) == 1 and w.letters[0][0] == 0:
        return abs(w.letters[0][1])
    return None


def _law(w: Word | int) -> Word | int:
    """The law w as ``verbal_subgroup`` reads it: the class c when w is the
    iterated commutator [x1, ..., x_(c+1)] (``Word.lcs_word(c)``, of
    3 * 2^c - 2 letters), whose verbal subgroup is gamma_(c+1); else w.  A
    class is its own law.  Only a word of exactly that length is compared."""
    if isinstance(w, int):
        return w
    n, c = len(w.letters), 1
    while 3 * 2**c - 2 < n:
        c += 1
    return c if 3 * 2**c - 2 == n and w == Word.lcs_word(c) else w


def word_value_codes(G: PermGroup, word: Word, caps: Caps = DEFAULT_CAPS) -> set[int]:
    """Exhaustive value census {w(g_1,...,g_k)} over all tuples, as codes."""
    arity = max(word.arity, 0)
    if arity > caps.word_arity:
        raise CapExceededError(f"word arity {arity} exceeds cap {caps.word_arity}")
    n = G.order(caps)
    if n**arity > caps.tuple_scan:
        raise CapExceededError(f"tuple scan {n}^{arity} exceeds cap {caps.tuple_scan}")
    if arity == 0:
        return {0}
    evaluate = G.ambient(caps).evaluate
    return {evaluate(word, tup) for tup in iproduct(G.codes(caps), repeat=arity)}


def verbal_subgroup(
    G: PermGroup, laws: Sequence[Word | int], caps: Caps = DEFAULT_CAPS
) -> PermGroup:
    """Normal subgroup generated by all values of the given laws: words, or
    classes c, each standing for the word [x1, ..., x_(c+1)], so a high
    class builds no word.  A law of class c (``_law``) gives gamma_(c+1),
    a power word x^n the powers, and any other word its census; a single
    class is its memoised ``lower_central_series`` term itself.

    The seeds are closed under conjugation: the values of a word are (see
    above), and so are the powers g^n and the normal subgroup gamma_c.  A
    subgroup generated by a conjugation-closed set S is normal, as
    (s_1...s_r)^h = s_1^h...s_r^h, so no normality check is run.  Memoised
    per (laws, caps), as a word census is capped by more than the group's
    order."""
    laws = tuple(map(_law, laws))
    if len(laws) == 1 and isinstance(laws[0], int):
        return lower_central_series(G, laws[0], caps)[laws[0]]

    def compute():
        amb = G.ambient(caps)
        seeds: set[int] = set()
        for w in laws:
            if isinstance(w, int):
                seeds.update(lower_central_series(G, w, caps)[w].codes(caps))
            elif (n := _is_power_word(w)) is not None:
                seeds.update(amb.power(g, n) for g in G.codes(caps))
            else:
                seeds.update(word_value_codes(G, w, caps))
        return G.generate(seeds, "W(G)", caps)

    return G.memo(("verbal", laws, caps), compute, caps)


def lower_central_series(
    G: PermGroup, depth: int | None = None, caps: Caps = DEFAULT_CAPS
) -> list[PermGroup]:
    """lcs(0) = G, lcs(k+1) = [lcs(k), G]; stabilized tail is repeated up to
    ``depth``.  Memoized per (group, caps): the memo grows lcs(1), lcs(2),
    ... and holds no G, so every depth shares the same lcs(k).  lcs(k+1) is
    the normal closure of the [t, s], t in the generators that lcs(k)'s
    closure kept and s in G's: modulo it every t, so all of lcs(k), is
    central."""
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    tail: list[PermGroup] = G.memo(("lcs", caps), list, caps)
    amb = G.ambient(caps)
    conjugators = [amb.conjugator(s) for s in G.gen_codes(caps)]
    chain = [G, *tail]
    while depth is None or len(chain) <= depth:
        if len(chain) >= 2 and chain[-1].code_set(caps) == chain[-2].code_set(caps):
            break  # stabilized
        # [t, s] = t^-1 s^-1 t s = t^-1 (t^s)
        seeds = [
            amb.mul(amb.inv(t), conj(t))
            for t in chain[-1].gen_codes(caps) for conj in conjugators
        ]
        nxt = normal_closure_codes(G, seeds, caps)
        chain.append(nxt)
        tail.append(nxt)
        if depth is None and nxt.is_trivial():
            break
    if depth is None:
        return chain
    return chain[: depth + 1] + [chain[-1]] * (depth + 1 - len(chain))


def derived_subgroup(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    return lower_central_series(G, 1, caps)[1]


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))
