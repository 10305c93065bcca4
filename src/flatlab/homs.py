"""Exhaustive homomorphism enumeration and presentation realization.

Hom(P, X) for a finite presentation P is found by backtracking over
generator images with relators checked as soon as their support is
assigned.  realize_presentation builds the presented group itself as a
permutation group via brute-force closure of short words modulo relator
insertions; it either returns a provably exact realization or fails loudly.
"""

from __future__ import annotations

from typing import Container, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import CapExceededError, RealizationError
from .perm import Permutation
from .permgroup import GroupHom, PermGroup
from .words import Presentation, Word


def relator_solutions(
    pres: Presentation,
    X: PermGroup,
    candidates: Sequence[Permutation],
    trivial: Container[Permutation],
    caps: Caps = DEFAULT_CAPS,
) -> list[tuple[Permutation, ...]]:
    """Every tuple of candidates on which each relator of ``pres`` evaluates
    into ``trivial``, in candidate order; a relator is checked as soon as its
    support is assigned.

    With all of X as candidates and ``trivial = {1}`` these are the generator
    images of Hom(P, X).  With N-coset representatives and ``trivial = N``
    for a normal subgroup N they lift the generator images of Hom(P, X/N).
    """
    k = len(pres.generators)
    if len(candidates) ** k > caps.hom_search:
        raise CapExceededError(
            f"hom search space {len(candidates)}^{k} exceeds cap {caps.hom_search}"
        )
    ident = X.identity()
    single: list[list[Word]] = [[] for _ in range(k)]
    multi: list[list[Word]] = [[] for _ in range(k)]
    for rel in pres.relators:
        if rel.is_empty():
            continue
        support = {s for s, _ in rel.letters}
        (single if len(support) == 1 else multi)[max(support)].append(rel)
    allowed = [
        [
            y
            for y in candidates
            if all(r.evaluate([y] * k, ident) in trivial for r in single[i])
        ]
        for i in range(k)
    ]
    results: list[tuple[Permutation, ...]] = []
    assignment: list[Permutation] = [ident] * k

    def backtrack(i: int):
        if i == k:
            results.append(tuple(assignment))
            return
        for y in allowed[i]:
            assignment[i] = y
            if all(r.evaluate(assignment, ident) in trivial for r in multi[i]):
                backtrack(i + 1)

    backtrack(0)
    return results


def enumerate_hom_images(
    pres: Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[tuple[Permutation, ...]]:
    """All generator-image tuples satisfying the relators, in sorted order."""
    return relator_solutions(pres, X, X.elements(caps), {X.identity()}, caps)


def hom_count(pres: Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    return len(enumerate_hom_images(pres, X, caps))


def enumerate_homs(
    domain: PermGroup | Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[GroupHom]:
    """Exactly the homomorphisms from the presented group into X.

    A PermGroup domain must carry a known-exact presentation; a bare
    Presentation is realized first so the returned homs have a group domain.
    """
    if isinstance(domain, Presentation):
        domain = realize_presentation(domain, caps)
    if domain.presentation is None or not domain.presentation_exact:
        raise ValueError(
            "hom enumeration needs a domain with a known-exact presentation"
        )
    images = enumerate_hom_images(domain.presentation, X, caps)
    return [GroupHom(domain, X, imgs, caps=caps) for imgs in images]


# -- realization of a presentation ------------------------------------------


def _reduce_signed(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _signed_relators(pres: Presentation) -> list[tuple[int, ...]]:
    rels = []
    for rel in pres.relators:
        signed: list[int] = []
        for sym, exp in rel.letters:
            letter = sym + 1 if exp > 0 else -(sym + 1)
            signed.extend([letter] * abs(exp))
        rels.append(_reduce_signed(tuple(signed)))
    return [r for r in rels if r]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _all_words(k: int, max_len: int, cap: int) -> list[tuple[int, ...]]:
    letters = [i + 1 for i in range(k)] + [-(i + 1) for i in range(k)]
    words: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in letters:
                if w and w[-1] == -s:
                    continue
                nxt.append(w + (s,))
        words.extend(nxt)
        if len(words) > cap:
            raise CapExceededError(
                f"realization word cap {cap} exceeded", partial=len(words)
            )
        frontier = nxt
    return words


def realize_presentation(
    pres: Presentation, caps: Caps = DEFAULT_CAPS, name: str | None = None
) -> PermGroup:
    """Realize the presented group exactly, or raise RealizationError.

    Short words are identified whenever inserting a relator (or its inverse)
    at any position maps one kept word to another; the quotient classes are
    then given the right-multiplication action.  The result is accepted only
    if that action is total, well defined, and kills every relator on every
    class — which certifies that the class count equals the presented order.
    """
    k = len(pres.generators)
    if k == 0:
        return PermGroup(1, (), presentation=pres, presentation_exact=True, name=name)
    relators = _signed_relators(pres)
    min_len = max([2] + [len(r) for r in relators])
    for max_len in range(min_len, caps.realize_length + 1):
        try:
            words = _all_words(k, max_len, caps.realize_words)
        except CapExceededError:
            break
        index = {w: i for i, w in enumerate(words)}
        uf = _UnionFind(len(words))
        for w in words:
            for cut in range(len(w) + 1):
                head, tail = w[:cut], w[cut:]
                for rel in relators:
                    for ins in (rel, tuple(-s for s in reversed(rel))):
                        cand = _reduce_signed(head + ins + tail)
                        j = index.get(cand)
                        if j is not None:
                            uf.union(index[w], j)
        group = _try_build(words, index, uf, k, pres, name)
        if group is not None:
            return group
    raise RealizationError(
        f"could not realize <{','.join(pres.generators)} | "
        f"{','.join(pres.relator_texts())}> within caps "
        f"(max word length {caps.realize_length})"
    )


def _try_build(words, index, uf, k, pres, name) -> PermGroup | None:
    letters = [i + 1 for i in range(k)] + [-(i + 1) for i in range(k)]
    # propagate right-multiplication consistency: w ~ w' forces wg ~ w'g
    changed = True
    while changed:
        changed = False
        targets: dict[tuple[int, int], int] = {}
        for wi, w in enumerate(words):
            root = uf.find(wi)
            for s in letters:
                cand = _reduce_signed(w + (s,))
                j = index.get(cand)
                if j is None:
                    continue
                jr = uf.find(j)
                prev = targets.get((root, s))
                if prev is None:
                    targets[(root, s)] = jr
                elif uf.find(prev) != jr:
                    uf.union(prev, jr)
                    changed = True
    roots = sorted({uf.find(i) for i in range(len(words))})
    root_pos = {r: i for i, r in enumerate(roots)}
    n = len(roots)
    # build the action; every class must have a defined image for each letter
    action: dict[int, list[int | None]] = {s: [None] * n for s in letters}
    for wi, w in enumerate(words):
        pos = root_pos[uf.find(wi)]
        for s in letters:
            j = index.get(_reduce_signed(w + (s,)))
            if j is not None:
                action[s][pos] = root_pos[uf.find(j)]
    if any(None in action[s] for s in letters):
        return None
    gen_perms = []
    for i in range(k):
        imgs = action[i + 1]
        if sorted(imgs) != list(range(n)):
            return None
        perm = Permutation(imgs)
        inv_imgs = action[-(i + 1)]
        if perm.inverse() != Permutation(inv_imgs):
            return None
        gen_perms.append(perm)
    ident = Permutation.identity(n)
    for rel in pres.relators:
        if not rel.evaluate(gen_perms, ident).is_identity():
            return None
    # regular action: orbit of the identity class must be everything
    orbit = {root_pos[uf.find(index[()])]}
    frontier = list(orbit)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_perms:
                q = g.images[p]
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    if len(orbit) != n:
        return None
    G = PermGroup(
        n, tuple(gen_perms), presentation=pres, presentation_exact=True, name=name
    )
    if G.order() != n:
        return None
    return G
