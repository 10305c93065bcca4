"""Exhaustive homomorphism enumeration and presentation realization.

Hom(P, X) for a finite presentation P is found by backtracking over
generator images with relators checked as soon as their support is
assigned.  realize_presentation builds the presented group itself as a
permutation group by Todd-Coxeter (HLT) coset enumeration over the trivial
subgroup; it either returns a provably exact realization or fails loudly.
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
    candidates: Sequence[int],
    trivial: Container[int],
    caps: Caps = DEFAULT_CAPS,
) -> list[tuple[int, ...]]:
    """Every tuple of candidate codes on which each relator of ``pres``
    evaluates into the code set ``trivial``, in candidate order; a relator is
    checked as soon as its support is assigned.

    With all of X as candidates and ``trivial = {1}`` these are the generator
    images of Hom(P, X).  With N-coset representatives and ``trivial = N``
    for a normal subgroup N they lift the generator images of Hom(P, X/N).
    """
    k = len(pres.generators)
    if len(candidates) ** k > caps.hom_search:
        raise CapExceededError(
            f"hom search space {len(candidates)}^{k} exceeds cap {caps.hom_search}"
        )
    evaluate = X.ambient(caps).evaluate
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
            if all(evaluate(r, [y] * k) in trivial for r in single[i])
        ]
        for i in range(k)
    ]
    if not k:
        return [()]
    # depth-first over the positions, candidates in order: tried[i] counts
    # the candidates taken at position i since position i - 1 last moved
    results: list[tuple[int, ...]] = []
    assignment: list[int] = [0] * k
    tried = [0] * k
    i = 0
    while i >= 0:
        if tried[i] == len(allowed[i]):
            tried[i] = 0
            i -= 1
            continue
        assignment[i] = allowed[i][tried[i]]
        tried[i] += 1
        if all(evaluate(r, assignment) in trivial for r in multi[i]):
            if i + 1 < k:
                i += 1
            else:
                results.append(tuple(assignment))
    return results


def hom_image_codes(
    pres: Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[tuple[int, ...]]:
    """All generator-image code tuples satisfying the relators, in sorted
    order."""
    return relator_solutions(pres, X, X.codes(caps), (0,), caps)


def hom_count(pres: Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    return len(hom_image_codes(pres, X, caps))


def enumerate_homs(
    domain: PermGroup | Presentation, X: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[GroupHom]:
    """Exactly the homomorphisms from the presented group into X, as a new
    list.

    A PermGroup domain must carry a known-exact presentation; its homs are
    built once per (domain, caps) and kept on X, so they live as long as
    their target.  A bare Presentation is realized first, anew on each
    call, so the returned homs have a group domain.
    """
    if isinstance(domain, Presentation):
        return _build_homs(realize_presentation(domain, caps), X, caps)
    return list(X.memo(("homs", domain, caps), lambda: _build_homs(domain, X, caps), caps))


def _build_homs(domain: PermGroup, X: PermGroup, caps: Caps) -> list[GroupHom]:
    if domain.presentation is None or not domain.presentation_exact:
        raise ValueError(
            "hom enumeration needs a domain with a known-exact presentation"
        )
    images = hom_image_codes(domain.presentation, X, caps)
    return [GroupHom._from_codes(domain, X, imgs, caps) for imgs in images]


# -- realization of a presentation ------------------------------------------


def realize_presentation(
    pres: Presentation, caps: Caps = DEFAULT_CAPS, name: str | None = None
) -> PermGroup:
    """Realize the presented group exactly, or raise RealizationError.

    HLT coset enumeration over the trivial subgroup (Todd & Coxeter 1936;
    Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
    §5.1), defining at most ``caps.order`` cosets.  Exactness is certified
    by the enumeration itself: every coset is scanned under every relator
    and two cosets are identified only when a relator forces it, so the
    finished table has one coset per element of the presented group, which
    acts on it by right multiplication.  Cosets are numbered by the shortlex
    order (g1 < .. < gk < g1^-1 < .. < gk^-1) of their shortest words, and
    PermGroup re-checks that every relator is the identity on the resulting
    generator permutations.
    """
    k = len(pres.generators)
    # letter 2i is generator i and 2i+1 its inverse, so a ^ 1 inverts a;
    # short relators first, which defines far fewer redundant cosets
    relators = sorted(
        (
            [2 * sym + (exp < 0) for sym, exp in rel.letters for _ in range(abs(exp))]
            for rel in pres.relators
        ),
        key=len,
    )
    table: list[list[int | None]] = [[None] * (2 * k)]
    forward = [0]  # forward[c] == c while coset c is live, else a smaller coset

    def rep(c: int) -> int:
        root = c
        while forward[root] != root:
            root = forward[root]
        while forward[c] != root:
            forward[c], c = root, forward[c]
        return root

    def define(c: int, a: int) -> None:
        if len(table) >= caps.order:
            raise RealizationError(
                f"could not realize <{','.join(pres.generators)} | "
                f"{','.join(pres.relator_texts())}> within caps "
                f"(coset limit {caps.order})"
            )
        table[c][a] = len(table)
        table.append([None] * (2 * k))
        table[-1][a ^ 1] = c
        forward.append(len(forward))

    def coincidence(c: int, d: int) -> None:
        dead: list[int] = []

        def merge(c: int, d: int) -> None:
            c, d = sorted((rep(c), rep(d)))
            if c != d:
                forward[d] = c
                dead.append(d)

        merge(c, d)
        for gone in dead:  # merge appends while this loop runs
            for a, target in enumerate(table[gone]):
                if target is None:
                    continue
                table[target][a ^ 1] = None
                c, d = rep(gone), rep(target)
                if table[c][a] is not None:
                    merge(d, table[c][a])
                elif table[d][a ^ 1] is not None:
                    merge(c, table[d][a ^ 1])
                else:
                    table[c][a], table[d][a ^ 1] = d, c

    def scan_and_fill(c: int, rel: list[int]) -> None:
        f, b, i, j = c, c, 0, len(rel) - 1
        while True:
            while i <= j and table[f][rel[i]] is not None:
                f, i = table[f][rel[i]], i + 1
            while j >= i and table[b][rel[j] ^ 1] is not None:
                b, j = table[b][rel[j] ^ 1], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][rel[i]], table[b][rel[i] ^ 1] = b, f
                return
            define(f, rel[i])

    c = 0
    while c < len(table):
        for rel in relators:
            if forward[c] == c:
                scan_and_fill(c, rel)
        for a in range(2 * k):
            if forward[c] == c and table[c][a] is None:
                define(c, a)
        c += 1
    # standardize: number the live cosets in breadth-first order from coset 0
    order, number = [0], {0: 0}
    for c in order:
        for a in [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]:
            if table[c][a] not in number:
                number[table[c][a]] = len(order)
                order.append(table[c][a])
    gens = [Permutation([number[table[c][2 * i]] for c in order]) for i in range(k)]
    return PermGroup(
        len(order), gens, presentation=pres, presentation_exact=True, name=name
    )
