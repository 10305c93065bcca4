"""Finite groups of permutations, homomorphisms between them, and the
exhaustive desk-scale operations: enumeration, subgroups, normal closures,
quotients, fiber products, normal-subgroup lists and isomorphism testing.

Everything is exact and deterministic: element lists are sorted by image
tuple, all searches iterate in sorted order, and no randomness is used.
Values are immutable after construction; the element-table memoization is
compute-once/recompute-equal, so concurrent first access is safe.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    CapExceededError,
    FlatlabError,
    InvalidHomomorphismError,
    NotAbelianError,
    NotASubgroupError,
    NotNormalError,
)
from .perm import Permutation
from .words import Presentation


class PermGroup:
    """A finite permutation group on {0, ..., degree-1}.

    ``presentation_exact`` records that the attached presentation is known to
    present exactly this group (catalog constructions and realizations set
    it); only then may relator checking substitute for elementwise
    homomorphism verification.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        presentation: Presentation | None = None,
        presentation_exact: bool = False,
        name: str | None = None,
        _elements: Sequence[Permutation] | None = None,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = generators
        self.presentation = presentation
        self.presentation_exact = presentation_exact
        self.name = name
        self._memo: dict = {}
        if _elements is not None:
            elts = sorted(_elements)
            self._memo["elements"] = tuple(elts)
            self._memo["element_set"] = frozenset(elts)
        if presentation is not None:
            if len(presentation.generators) != len(generators):
                raise ValueError("presentation generator count mismatch")
            ident = self.identity()
            for rel in presentation.relators:
                if not rel.evaluate(generators, ident).is_identity():
                    raise ValueError(
                        f"relator {rel.text(presentation.generators)} does not "
                        "hold on the generators"
                    )
        if presentation_exact and presentation is None:
            raise ValueError("presentation_exact requires a presentation")

    # -- element table -----------------------------------------------------

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self, caps: Caps = DEFAULT_CAPS) -> tuple[Permutation, ...]:
        elts = self._memo.get("elements")
        if elts is None:
            elts = tuple(generated_subgroup(self.generators, self.degree, caps.order)[0])
            self._memo["elements"] = elts
            self._memo["element_set"] = frozenset(elts)
        elif len(elts) > caps.order:
            # a stored table obeys the caps of this call, not of the first one
            raise CapExceededError(f"order cap {caps.order} exceeded", partial=caps.order)
        return elts

    def element_set(self, caps: Caps = DEFAULT_CAPS) -> frozenset[Permutation]:
        self.elements(caps)
        return self._memo["element_set"]

    def order(self, caps: Caps = DEFAULT_CAPS) -> int:
        return len(self.elements(caps))

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and p in self.element_set()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def is_abelian(self) -> bool:
        if "is_abelian" not in self._memo:
            gens = self.generators
            self._memo["is_abelian"] = all(
                a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :]
            )
        return self._memo["is_abelian"]

    def order_histogram(self, caps: Caps = DEFAULT_CAPS) -> dict[int, int]:
        if "order_histogram" not in self._memo:
            self._memo["order_histogram"] = dict(
                sorted(Counter(e.order() for e in self.elements(caps)).items())
            )
        return self._memo["order_histogram"]

    def exponent(self, caps: Caps = DEFAULT_CAPS) -> int:
        from math import lcm

        return lcm(*self.order_histogram(caps).keys())

    # -- derived groups ----------------------------------------------------

    def subgroup(
        self, generators: Iterable[Permutation], name: str | None = None
    ) -> "PermGroup":
        return PermGroup(self.degree, tuple(generators), name=name)

    def subgroup_from_elements(
        self, elements: Iterable[Permutation], name: str | None = None
    ) -> "PermGroup":
        """Subgroup whose full element set is already known and closed."""
        elts = sorted(set(elements))
        gens = small_generating_set(elts, self.degree)
        return PermGroup(self.degree, gens, name=name, _elements=elts)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.element_set() <= other.element_set()

    def memo(self, key, compute, caps: Caps = DEFAULT_CAPS):
        """Compute-once derived data; a hit re-checks the group's order
        against the caps, so no cap verdict depends on call history."""
        if key in self._memo:
            self.elements(caps)
        else:
            self._memo[key] = compute()
        return self._memo[key]

    def describe(self) -> str:
        return self.name or f"<perm group deg {self.degree}, order {self.order()}>"

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"PermGroup(deg={self.degree}, gens={len(self.generators)}{nm})"


def generated_subgroup(
    seeds: Iterable[Permutation], degree: int, cap: int
) -> tuple[list[Permutation], tuple[Permutation, ...]]:
    """Sorted elements and a small generating set of <seeds>; the one
    multiplicative closure of the package.

    Seeds are taken in sorted order and kept only if not yet generated.  A
    kept seed e first adds the coset H*e of the subgroup H built so far (all
    new, since e is not in H); the new elements are then closed under right
    multiplication by the kept seeds.  Every insertion is checked against the
    cap, and finiteness makes inverses automatic.
    """
    ident = Permutation.identity(degree)
    gens: list[Permutation] = []
    elts = [ident]
    have = {ident}
    for e in sorted(set(seeds)):
        if e in have:
            continue
        gens.append(e)
        start = len(elts)
        for x in elts[:start]:
            if len(elts) >= cap:
                raise CapExceededError(f"order cap {cap} exceeded", partial=len(elts))
            y = x * e
            have.add(y)
            elts.append(y)
        i = start
        while i < len(elts):
            x = elts[i]
            i += 1
            for g in gens:
                y = x * g
                if y not in have:
                    if len(elts) >= cap:
                        raise CapExceededError(
                            f"order cap {cap} exceeded", partial=len(elts)
                        )
                    have.add(y)
                    elts.append(y)
    return sorted(elts), tuple(gens)


def small_generating_set(
    elements: Sequence[Permutation], degree: int
) -> tuple[Permutation, ...]:
    """Greedy minimal-ish generating set for a known closed element set."""
    return generated_subgroup(elements, degree, len(set(elements)) + 1)[1]


# -- homomorphisms ---------------------------------------------------------


def _extend_mapping(domain, codomain, images, caps: Caps):
    """Define f on every domain element by BFS over generator edges.

    Checking every edge (e, e*g) for consistency is equivalent to checking
    f(ab) = f(a) f(b) for all a, b.  Returns the full map or None on conflict.
    """
    if domain.order(caps) > caps.hom_domain:
        raise CapExceededError(
            f"hom verification cap {caps.hom_domain} exceeded by |domain| = "
            f"{domain.order(caps)}"
        )
    mapping = {domain.identity(): codomain.identity()}
    frontier = [domain.identity()]
    gens = domain.generators
    while frontier:
        new = []
        for e in frontier:
            ye = mapping[e]
            for g, h in zip(gens, images):
                x = e * g
                y = ye * h
                prev = mapping.get(x)
                if prev is None:
                    mapping[x] = y
                    new.append(x)
                elif prev != y:
                    return None
        frontier = new
    return mapping


class GroupHom:
    """A verified homomorphism, stored as generator images.

    Verification uses the domain presentation when it is known-exact and the
    elementwise edge check otherwise; either way the full element map is
    available through :meth:`apply`.
    """

    def __init__(
        self,
        domain: PermGroup,
        codomain: PermGroup,
        images: Iterable[Permutation],
        caps: Caps = DEFAULT_CAPS,
        name: str | None = None,
        _trusted: bool = False,
        _mapping: dict | None = None,
    ):
        """``_trusted`` skips elementwise verification; reserved for maps that
        are homomorphisms by construction (quotient projections, coordinate
        projections of fiber products, composites of verified maps)."""
        images = tuple(images)
        if len(images) != len(domain.generators):
            raise InvalidHomomorphismError(
                f"{len(images)} images for {len(domain.generators)} generators"
            )
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.name = name
        self._caps = caps
        self._mapping = _mapping
        if _trusted:
            return
        cod_set = codomain.element_set(caps)
        for y in images:
            if y not in cod_set:
                raise InvalidHomomorphismError(
                    f"image {y.cycle_string()} not in codomain"
                )
        if domain.presentation is not None and domain.presentation_exact:
            ident = codomain.identity()
            for rel in domain.presentation.relators:
                if not rel.evaluate(images, ident).is_identity():
                    raise InvalidHomomorphismError(
                        f"relator {rel.text(domain.presentation.generators)} "
                        "not satisfied by the images"
                    )
        elif images and all(g == y for g, y in zip(domain.generators, images)):
            # an inclusion: trivially a homomorphism
            if not domain.element_set(caps) <= cod_set:
                raise InvalidHomomorphismError("inclusion source is not a subgroup")
            self._mapping = None
        else:
            mapping = _extend_mapping(domain, codomain, images, caps)
            if mapping is None:
                raise InvalidHomomorphismError(
                    "generator images do not extend to a homomorphism"
                )
            self._mapping = mapping

    def mapping(self) -> dict[Permutation, Permutation]:
        if self._mapping is None:
            if self.images and all(
                g == y for g, y in zip(self.domain.generators, self.images)
            ):
                self._mapping = {x: x for x in self.domain.elements(self._caps)}
            else:
                mapping = _extend_mapping(
                    self.domain, self.codomain, self.images, self._caps
                )
                if mapping is None:  # cannot happen for a verified hom
                    raise InvalidHomomorphismError("inconsistent mapping")
                self._mapping = mapping
        return self._mapping

    def apply(self, x: Permutation) -> Permutation:
        return self.mapping()[x]

    def __call__(self, x: Permutation) -> Permutation:
        return self.apply(x)

    def kernel(self) -> PermGroup:
        if not hasattr(self, "_kernel_cache"):
            ident = self.codomain.identity()
            kern = [x for x, y in self.mapping().items() if y == ident]
            k = self.domain.subgroup_from_elements(kern, name="ker")
            if self.domain.order() != k.order() * self.image().order():
                raise FlatlabError("kernel order times image order != domain order")
            self._kernel_cache = k
        return self._kernel_cache

    def image(self) -> PermGroup:
        if not hasattr(self, "_image_cache"):
            self._image_cache = self.codomain.subgroup_from_elements(
                set(self.mapping().values()), name="im"
            )
        return self._image_cache

    def is_injective(self) -> bool:
        ident = self.codomain.identity()
        return sum(1 for y in self.mapping().values() if y == ident) == 1

    def is_surjective(self) -> bool:
        return self.image().order() == self.codomain.order()

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite (apply self first, then other)."""
        return GroupHom(
            self.domain,
            other.codomain,
            tuple(other.apply(y) for y in self.images),
            caps=self._caps,
            _trusted=True,
        )

    @classmethod
    def identity_hom(cls, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> "GroupHom":
        return cls(G, G, G.generators, caps=caps)

    @classmethod
    def inclusion(cls, sub: PermGroup, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> "GroupHom":
        if not sub.is_subgroup_of(G):
            raise NotASubgroupError("inclusion source is not a subgroup")
        return cls(sub, G, sub.generators, caps=caps)

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"GroupHom({self.domain.describe()} -> {self.codomain.describe()}{nm})"


# -- operations ------------------------------------------------------------


def normal_closure(
    G: PermGroup, elements: Iterable[Permutation], caps: Caps = DEFAULT_CAPS
) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements."""
    gset = G.element_set(caps)
    seeds = []
    for e in elements:
        if e not in gset:
            raise NotASubgroupError(f"{e.cycle_string()} is not an element of G")
        if not e.is_identity():
            seeds.append(e)
    if not seeds:
        return G.subgroup((), name="1")
    conjugators = [(g, g.inverse()) for g in G.generators]
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        new = []
        for t in frontier:
            for g, ginv in conjugators:
                for c in (ginv * t * g, g * t * ginv):
                    if c not in closed:
                        closed.add(c)
                        new.append(c)
        frontier = new
    elements, gens = generated_subgroup(closed, G.degree, caps.order)
    return PermGroup(G.degree, gens, name="ncl", _elements=elements)


def is_normal(N: PermGroup, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    if not N.is_subgroup_of(G):
        return False
    nset = N.element_set(caps)
    return all(
        g.inverse() * n * g in nset for n in N.generators for g in G.generators
    )


def right_cosets(
    G: PermGroup, n_elements: Sequence[Permutation], caps: Caps = DEFAULT_CAPS
) -> tuple[list[Permutation], dict[Permutation, int]]:
    """One pass over G: the least element of each right coset Nx, and the
    index of every element's coset in that list."""
    reps: list[Permutation] = []
    coset_index: dict[Permutation, int] = {}
    for x in G.elements(caps):
        if x in coset_index:
            continue
        for n in n_elements:
            coset_index[n * x] = len(reps)
        reps.append(x)
    return reps, coset_index


def quotient(
    G: PermGroup, N: PermGroup, caps: Caps = DEFAULT_CAPS
) -> tuple[PermGroup, GroupHom]:
    """The faithful action of G/N on the cosets of N, with the projection."""
    if not N.is_subgroup_of(G):
        raise NotASubgroupError("N is not a subgroup of G")
    if not is_normal(N, G, caps):
        raise NotNormalError("N is not normal in G")
    reps, coset_index = right_cosets(G, N.elements(caps), caps)
    proj_images = [
        Permutation(tuple(coset_index[rep * g] for rep in reps))
        for g in G.generators
    ]
    gname = G.name or "G"
    nname = N.name or "N"
    Q = PermGroup(
        max(len(reps), 1), tuple(proj_images), name=f"{gname}/{nname}"
    )
    if Q.order(caps) * N.order(caps) != G.order(caps):
        raise FlatlabError("quotient order times subgroup order != group order")
    proj = GroupHom(G, Q, proj_images, caps=caps, _trusted=True)
    return Q, proj


def direct_product(
    A: PermGroup, B: PermGroup, name: str | None = None, caps: Caps = DEFAULT_CAPS
) -> PermGroup:
    """External direct product on disjoint point sets."""
    dA, dB = A.degree, B.degree
    idA = tuple(range(dA))
    idB = tuple(range(dA, dA + dB))
    gens = [Permutation(g.images + idB) for g in A.generators]
    gens += [Permutation(idA + tuple(i + dA for i in g.images)) for g in B.generators]
    pres = None
    exact = False
    if A.presentation is not None and B.presentation is not None:
        from .words import Word

        names = list(A.presentation.generators)
        bnames = []
        for nm in B.presentation.generators:
            new = nm
            while new in names or new in bnames:
                new = new + "'"
            bnames.append(new)
        k = len(names)
        relators = list(A.presentation.relators)
        relators += [
            Word(tuple((s + k, e) for s, e in rel.letters))
            for rel in B.presentation.relators
        ]
        relators += [
            Word.commutator(Word.generator(i), Word.generator(k + j))
            for i in range(k)
            for j in range(len(bnames))
        ]
        pres = Presentation(tuple(names + bnames), tuple(relators))
        exact = A.presentation_exact and B.presentation_exact
    prod_name = name or f"{A.name or 'A'}x{B.name or 'B'}"
    return PermGroup(
        dA + dB, gens, presentation=pres, presentation_exact=exact, name=prod_name
    )


def pullback_group(
    f: GroupHom, g: GroupHom, caps: Caps = DEFAULT_CAPS
) -> tuple[PermGroup, GroupHom, GroupHom]:
    """Fiber product {(e, x) : f(e) = g(x)} inside the direct product,
    with its two projections."""
    if f.codomain is not g.codomain and (
        f.codomain.degree != g.codomain.degree
        or f.codomain.element_set(caps) != g.codomain.element_set(caps)
    ):
        raise InvalidHomomorphismError("pullback legs must share a codomain")
    E, X = f.domain, g.domain
    dE, dX = E.degree, X.degree
    fibers: dict[Permutation, list[Permutation]] = {}
    for x in X.elements(caps):
        fibers.setdefault(g.apply(x), []).append(x)
    pair_count = 0
    elts = []
    for e in E.elements(caps):
        for x in fibers.get(f.apply(e), ()):
            pair_count += 1
            elts.append(Permutation(e.images + tuple(i + dE for i in x.images)))
    id_x = tuple(range(dE, dE + dX))
    gens: tuple[Permutation, ...] | None = None
    if f.image().order(caps) == f.codomain.order(caps):
        # f surjective: the fiber product is generated by ker(f) x 1 together
        # with one lift (e_x, x) of each generator x of X
        preimage: dict[Permutation, Permutation] = {}
        for e in E.elements(caps):
            preimage.setdefault(f.apply(e), e)
        lift_gens = [
            Permutation._make(
                preimage[g.apply(x)].images + tuple(i + dE for i in x.images)
            )
            for x in X.generators
        ]
        kernel_gens = [
            Permutation._make(k.images + id_x) for k in f.kernel().generators
        ]
        gens = tuple(kernel_gens + lift_gens)
    if gens is None:
        gens = small_generating_set(elts, dE + dX)
    P = PermGroup(dE + dX, gens, name=f"pb({E.name or 'E'},{X.name or 'X'})")
    # the closure of the generators must reproduce the fiber-product set
    if P.order(caps) != pair_count:
        raise FlatlabError("fiber-product generators do not span the fiber product")
    map_e = {p: Permutation._make(p.images[:dE]) for p in elts}
    map_x = {
        p: Permutation._make(tuple(i - dE for i in p.images[dE:])) for p in elts
    }
    pr_e = GroupHom(
        P, E, tuple(map_e[p] for p in P.generators), caps=caps,
        _trusted=True, _mapping=map_e,
    )
    pr_x = GroupHom(
        P, X, tuple(map_x[p] for p in P.generators), caps=caps,
        _trusted=True, _mapping=map_x,
    )
    if any(f.apply(pr_e.apply(p)) != g.apply(pr_x.apply(p)) for p in P.generators):
        raise FlatlabError("fiber-product square does not commute")
    return P, pr_e, pr_x


def normal_subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """All normal subgroups, as joins of cyclic normal closures."""
    key = "normal_subgroups"

    def compute():
        trivial = G.subgroup((), name="1")
        found: dict[frozenset, PermGroup] = {trivial.element_set(caps): trivial}
        for x in G.elements(caps):
            if x.is_identity():
                continue
            N = normal_closure(G, [x], caps)
            found.setdefault(N.element_set(caps), N)
        changed = True
        while changed:
            changed = False
            items = list(found.values())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    join_elts, gens = generated_subgroup(
                        items[i].generators + items[j].generators, G.degree, caps.order
                    )
                    key_j = frozenset(join_elts)
                    if key_j not in found:
                        found[key_j] = PermGroup(G.degree, gens, _elements=join_elts)
                        changed = True
        return sorted(found.values(), key=lambda n: (n.order(caps), n.elements(caps)))

    return G.memo(key, compute, caps)


def abelian_census_invariants(
    G: PermGroup, caps: Caps = DEFAULT_CAPS
) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of a finite abelian group read off the element-order
    census (the counts #{g : g^(p^j) = 1} determine each p-partition)."""
    if not G.is_abelian():
        raise NotAbelianError("census classification needs an abelian group")
    hist = G.order_histogram(caps)
    n = G.order(caps)
    primes = _prime_factors(n)
    per_prime: dict[int, list[int]] = {}
    for p in primes:
        sizes = []
        j = 0
        while True:
            target = p**j
            s = sum(cnt for o, cnt in hist.items() if target % o == 0)
            sizes.append(s)
            if s == sum(cnt for o, cnt in hist.items() if _is_p_power(o, p)):
                break
            j += 1
        exps = []
        for jj in range(1, len(sizes)):
            m = _int_log(sizes[jj], p) - _int_log(sizes[jj - 1], p)
            exps.append(m)
        # exps[j-1] = number of invariant p-exponents >= j
        multiset = []
        for v in range(1, len(exps) + 1):
            count = exps[v - 1] - (exps[v] if v < len(exps) else 0)
            multiset.extend([v] * count)
        per_prime[p] = sorted(multiset, reverse=True)
    k = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for t in range(k):
        d = 1
        for p, exps in per_prime.items():
            if t < len(exps):
                d *= p ** exps[t]
        factors.append(d)
    return 0, tuple(sorted(factors))


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _int_log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise FlatlabError("census size is not a prime power")
        n //= p
        k += 1
    return k


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- isomorphism -----------------------------------------------------------


def _iso_screen(G: PermGroup, H: PermGroup, caps: Caps) -> bool:
    if G.order(caps) != H.order(caps):
        return False
    if G.order_histogram(caps) != H.order_histogram(caps):
        return False
    if G.is_abelian() != H.is_abelian():
        return False
    if _conjugacy_class_sizes(G, caps) != _conjugacy_class_sizes(H, caps):
        return False
    return True


def _conjugacy_class_sizes(G: PermGroup, caps: Caps) -> tuple[int, ...]:
    def compute():
        elts = G.elements(caps)
        seen: set[Permutation] = set()
        sizes = []
        for x in elts:
            if x in seen:
                continue
            cls = {g.inverse() * x * g for g in elts}
            seen |= cls
            sizes.append(len(cls))
        return tuple(sorted(sizes))

    return G.memo("conj_class_sizes", compute, caps)


def find_isomorphism(
    G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS
) -> GroupHom | None:
    """Explicit isomorphism G -> H, or None; gives up above the iso cap."""
    if G.order(caps) > caps.iso_order or H.order(caps) > caps.iso_order:
        raise CapExceededError(
            f"isomorphism search capped at order {caps.iso_order}"
        )
    if not _iso_screen(G, H, caps):
        return None
    gens = G.generators
    if len(gens) > 4 or not gens:
        gens = small_generating_set(G.elements(caps), G.degree)
    if not gens:  # trivial group
        return GroupHom(G, H, (), caps=caps) if H.is_trivial() else None
    # cumulative subgroups for partial verification
    partials = []
    for i in range(1, len(gens) + 1):
        partials.append(G.subgroup(gens[:i]))
    by_order: dict[int, list[Permutation]] = {}
    for y in H.elements(caps):
        by_order.setdefault(y.order(), []).append(y)

    chosen: list[Permutation] = []

    def backtrack(i: int) -> GroupHom | None:
        if i == len(gens):
            mapping = _extend_mapping(G, H, tuple(chosen), caps)
            if mapping is not None and len(set(mapping.values())) == G.order(caps):
                hom = GroupHom(G, H, tuple(chosen), caps=caps)
                return hom
            return None
        for y in by_order.get(gens[i].order(), ()):
            chosen.append(y)
            sub = partials[i]
            mapping = _extend_mapping(sub, H, tuple(chosen), caps)
            if mapping is not None and len(set(mapping.values())) == sub.order(caps):
                result = backtrack(i + 1)
                if result is not None:
                    return result
            chosen.pop()
        return None

    return backtrack(0)


def is_isomorphic(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff an isomorphism exists; never a wrong answer, errors on cap."""
    if G.order(caps) != H.order(caps):
        return False
    if G.is_abelian() and H.is_abelian():
        return abelian_census_invariants(G, caps) == abelian_census_invariants(H, caps)
    return find_isomorphism(G, H, caps) is not None
