"""Finite groups of permutations, homomorphisms between them, and the
exhaustive desk-scale operations: enumeration, subgroups, normal closures,
quotients, fiber products, normal-subgroup lists and isomorphism testing.

Every group computes on integer codes.  A group lives in an *ambient*, a
finite group whose elements are numbered 0, 1, ... in sorted-Permutation
order: the identity is code 0, and a scan in code order is a scan in sorted
order, so every witness, list and report reads exactly as if the group were
enumerated as sorted permutations.  A table ambient lists one group given by
permutations (a catalog group, a quotient, a realized presentation) in one
breadth-first pass over its generators, numbers the elements, and multiplies
through columns of its Cayley table, built on first use from the generator
columns that pass recorded (the regular representation).  Every later
enumeration is a closure on codes.  A product ambient numbers the pairs (a, b) of two ambients as a*|B| + b and
multiplies componentwise; it serves fiber and direct products.  Subgroups
share their parent's ambient and are sets of codes, and homomorphisms are
maps of codes.  Permutations appear only at the boundary: the generators a
caller gives, ``elements()``, ``apply`` and witness strings.

Everything is exact and deterministic, and no randomness is used.  Values
are immutable after construction; memoization is compute-once/recompute-
equal, so concurrent first access is safe.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import chain
from math import lcm
from typing import Iterable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    CapExceededError,
    InvalidHomomorphismError,
    NotASubgroupError,
    NotNormalError,
)
from .perm import Permutation
from .words import Presentation, Word

_MISSING = object()  # a memo miss; a memoised value may be None

# -- ambients ----------------------------------------------------------------


class _Ambient:
    """Integer codes for a finite group; subclasses give ``right`` (the map
    x -> x*b), ``conjugator`` (x -> g^-1 x g), ``mul``, ``inv``,
    ``order_of``, ``decode`` and ``encode``."""

    trivial = None  # a weak reference to the trivial subgroup (PermGroup.trivial)

    def power(self, a: int, e: int) -> int:
        """a^e by square-and-multiply from the top bit; a^1 costs nothing."""
        if e < 0:
            a, e = self.inv(a), -e
        if not e:
            return 0
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def evaluate(self, word: Word, values: Sequence[int]) -> int:
        """The word on codes, left to right."""
        acc = 0
        for sym, exp in word.letters:
            acc = self.mul(acc, self.power(values[sym], exp))
        return acc


# A table ambient of more elements than this multiplies permutations, as the
# full Cayley table would hold size**2 entries.
_TABLE_MAX = 1024


class _TableAmbient(_Ambient):
    """The sorted elements of the permutation group <gens>, listed in one
    breadth-first pass from the identity over the generators' image tuples
    that records each generator's column and each new element's parent (the
    orbit listing; Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, §4.1), then renumbered in sorted order.  Up to
    ``_TABLE_MAX`` elements, column b of the Cayley table (x -> x*b) is built
    on first use from its parent in that tree: if b = p*g then x*b = (x*p)*g.
    A larger group multiplies the permutations of its codes and builds no
    column, Cayley or conjugation."""

    def __init__(self, gens: Sequence[Permutation], degree: int, cap: int):
        tuples = [tuple(range(degree))]
        seen = {tuples[0]: 0}  # image tuple -> listing number
        moves = [g.images.__getitem__ for g in gens]
        gcols: list[list[int]] = [[] for _ in moves]
        parent: list = [None]
        for x, t in enumerate(tuples):  # the list grows while it is walked
            for i, move in enumerate(moves):
                y = tuple(map(move, t))
                c = seen.get(y)
                if c is None:
                    if len(tuples) >= cap:
                        raise CapExceededError(f"order cap {cap} exceeded", partial=len(tuples))
                    c = seen[y] = len(tuples)
                    tuples.append(y)
                    parent.append((x, i))
                gcols[i].append(c)
        order = sorted(range(len(tuples)), key=tuples.__getitem__)
        self.index = index = {tuples[x]: c for c, x in enumerate(order)}
        self.perms = [Permutation._make(tuples[x]) for x in order]
        self.size = len(order)
        self.degree = degree
        self._inverses: list[int] | None = None
        self._orders: list[int] | None = None
        self._conj: dict[int, list[int]] = {}
        self.tabled = self.size <= _TABLE_MAX
        self._cols: list[list[int] | None] | None = None
        if self.tabled:
            code = [index[t] for t in tuples]
            gcols = [[code[col[x]] for x in order] for col in gcols]
            self._cols = [None] * self.size
            for col in [list(range(self.size)), *gcols]:
                self._cols[col[0]] = col
            self._tree = [None] * self.size  # code -> (parent, generator column)
            for x in range(1, self.size):
                p, i = parent[x]
                self._tree[code[x]] = (code[p], gcols[i])

    def column(self, b: int) -> list[int]:
        cols = self._cols
        col = cols[b]
        if col is None:
            path = []
            c = b
            while cols[c] is None:
                path.append(c)
                c = self._tree[c][0]
            col = cols[c]
            for c in reversed(path):
                g = self._tree[c][1]
                col = cols[c] = [g[v] for v in col]
        return col

    def right(self, b: int):
        if self.tabled:
            return self.column(b).__getitem__
        index, perms, image = self.index, self.perms, self.perms[b].images.__getitem__
        return lambda x: index[tuple(map(image, perms[x].images))]

    def conjugator(self, g: int):
        """x -> g^-1 x g, as (x g)^-1 g inverted; tabled, one cached column
        per g, as the callers conjugate by generators and their inverses."""
        if not self.tabled:
            r, inv = self.right(g), self.inv
            return lambda x: inv(r(inv(r(x))))
        col = self._conj.get(g)
        if col is None:
            self.inv(0)  # builds the inverse list
            r, inv = self.column(g), self._inverses
            col = self._conj[g] = [inv[r[inv[r[x]]]] for x in range(self.size)]
        return col.__getitem__

    def mul(self, a: int, b: int) -> int:
        if self.tabled:
            return self.column(b)[a]
        return self.index[tuple(map(self.perms[b].images.__getitem__, self.perms[a].images))]

    def inv(self, a: int) -> int:
        if self._inverses is None:
            self._inverses = [self.index[p.inverse().images] for p in self.perms]
        return self._inverses[a]

    def order_of(self, a: int) -> int:
        if self._orders is None:
            self._orders = [p.order() for p in self.perms]
        return self._orders[a]

    def decode(self, c: int) -> Permutation:
        return self.perms[c]

    def encode(self, images: tuple[int, ...]) -> int | None:
        return self.index.get(images)


class _ProductAmbient(_Ambient):
    """Pairs (a, b) of two ambients, coded a*|B| + b; the permutation of a
    pair is a's images followed by b's images shifted past a's points, so
    code order is again sorted-Permutation order."""

    def __init__(self, A: _Ambient, B: _Ambient):
        self.A, self.B = A, B
        self.nb = B.size
        self.size = A.size * B.size
        self.degree = A.degree + B.degree

    def right(self, b: int):
        nb = self.nb
        i, j = divmod(b, nb)
        ra, rb = self.A.right(i), self.B.right(j)
        return lambda x: ra(x // nb) * nb + rb(x % nb)

    def conjugator(self, g: int):
        nb, (i, j) = self.nb, divmod(g, self.nb)
        ca, cb = self.A.conjugator(i), self.B.conjugator(j)
        return lambda x: ca(x // nb) * nb + cb(x % nb)

    def mul(self, a: int, b: int) -> int:
        nb = self.nb
        return self.A.mul(a // nb, b // nb) * nb + self.B.mul(a % nb, b % nb)

    def power(self, a: int, e: int) -> int:
        i, j = divmod(a, self.nb)
        return self.A.power(i, e) * self.nb + self.B.power(j, e)

    def evaluate(self, word: Word, values: Sequence[int]) -> int:
        A, B, nb = self.A, self.B, self.nb  # _Ambient.evaluate is the reference
        a = b = 0  # the word on each component, one divmod per letter
        for sym, exp in word.letters:
            i, j = divmod(values[sym], nb)
            a, b = A.mul(a, A.power(i, exp)), B.mul(b, B.power(j, exp))
        return a * nb + b

    def inv(self, a: int) -> int:
        i, j = divmod(a, self.nb)
        return self.A.inv(i) * self.nb + self.B.inv(j)

    def order_of(self, a: int) -> int:
        i, j = divmod(a, self.nb)
        return lcm(self.A.order_of(i), self.B.order_of(j))

    def decode(self, c: int) -> Permutation:
        i, j = divmod(c, self.nb)
        d = self.A.degree
        return Permutation._make(
            self.A.decode(i).images + tuple(v + d for v in self.B.decode(j).images)
        )

    def encode(self, images: tuple[int, ...]) -> int | None:
        d = self.A.degree
        i = self.A.encode(images[:d])
        j = self.B.encode(tuple(v - d for v in images[d:]))
        return None if i is None or j is None else i * self.nb + j


def _closure(seeds: Iterable[int], right, cap: int, start=None) -> tuple[list, tuple]:
    """Sorted codes and a small generating set of <seeds>; the one
    multiplicative closure on codes of an ambient.  ``start``, the codes and
    generators of a subgroup H, continues from H, giving <H, seeds>.

    Seeds are taken in sorted order and kept only if not yet generated.  A
    kept seed e first adds the coset H*e of the subgroup H built so far (all
    new, since e is not in H); the new elements are then closed under right
    multiplication by the kept seeds (``right(e)`` is x -> x*e).  Every
    insertion is checked against the cap, and finiteness makes inverses
    automatic.
    """
    elts, gens = ([0], []) if start is None else map(list, start)
    moves = list(map(right, gens))
    have = set(elts)
    for e in sorted(set(seeds)):
        if e in have:
            continue
        gens.append(e)
        moves.append(right(e))
        start = len(elts)
        for y in map(moves[-1], elts[:start]):
            if len(elts) >= cap:
                raise CapExceededError(f"order cap {cap} exceeded", partial=len(elts))
            have.add(y)
            elts.append(y)
        i = start
        while i < len(elts):
            x = elts[i]
            i += 1
            for r in moves:
                y = r(x)
                if y not in have:
                    if len(elts) >= cap:
                        raise CapExceededError(
                            f"order cap {cap} exceeded", partial=len(elts)
                        )
                    have.add(y)
                    elts.append(y)
    return sorted(elts), tuple(gens)


class PermGroup:
    """A finite permutation group on {0, ..., degree-1}.

    ``presentation_exact`` records that the attached presentation is known to
    present exactly this group (catalog constructions and realizations set
    it); only then may Hom from this group be enumerated by its relators.

    A group built from permutations gets its own table ambient when its
    elements are first needed; subgroups, kernels, images and fiber products
    are built on codes inside an existing ambient.  ``_factors``, when set,
    records the group as a subdirect product (:class:`_Subdirect`): a direct
    product, a fiber product or its kernel.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        presentation: Presentation | None = None,
        presentation_exact: bool = False,
        name: str | None = None,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self._gens = generators
        self._gen_codes = None
        self._amb = None
        self._owns_ambient = True  # every code of the ambient is an element
        self._factors = None  # a _Subdirect record
        self.presentation = presentation
        self.presentation_exact = presentation_exact
        self.name = name
        self._codes = self._code_set = None  # the element table
        self._memo: dict = {}  # derived data
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

    @classmethod
    def _coded(cls, amb: _Ambient, gen_codes, name=None, codes=None) -> "PermGroup":
        """A group inside ``amb`` given by generator codes, or by ``codes``,
        its sorted closed code set, alone (gen_codes None)."""
        G = cls.__new__(cls)
        G.degree = amb.degree
        G._gens = None
        G._gen_codes = None if gen_codes is None else tuple(gen_codes)
        G._amb = amb
        G._owns_ambient = False
        G._factors = None
        G.presentation = None
        G.presentation_exact = False
        G.name = name
        G._codes = None if codes is None else tuple(codes)
        G._code_set = None
        G._memo = {}
        return G

    # -- codes -------------------------------------------------------------

    def ambient(self, caps: Caps | None = DEFAULT_CAPS) -> _Ambient:
        if self._amb is None:
            caps = caps or DEFAULT_CAPS
            if self._factors is not None:  # a direct product
                A, B = self._factors.direct
                self._amb = _ProductAmbient(A.ambient(caps), B.ambient(caps))
            else:
                self._amb = _TableAmbient(self._gens, self.degree, caps.order)
                self._codes = tuple(range(self._amb.size))
        return self._amb

    def gen_codes(self, caps: Caps | None = DEFAULT_CAPS) -> tuple[int, ...]:
        if self._gen_codes is None:
            amb = self.ambient(caps)
            if self._gens is not None:
                self._gen_codes = tuple(amb.encode(g.images) for g in self._gens)
            else:  # a subgroup known by its codes: greedy generators
                codes = self.codes(caps)
                self._gen_codes = _closure(codes, amb.right, len(codes) + 1)[1]
        return self._gen_codes

    def codes(self, caps: Caps | None = DEFAULT_CAPS) -> tuple[int, ...]:
        """The sorted codes of the elements.  ``caps`` None is a cap-free
        query: a stored table is used as it is."""
        codes = self._codes
        if codes is None:
            amb = self.ambient(caps)
            codes = self._codes
            if codes is None:
                cap = (caps or DEFAULT_CAPS).order
                codes = self._codes = tuple(_closure(self.gen_codes(caps), amb.right, cap)[0])
        elif caps is not None and len(codes) > caps.order:
            # a stored table obeys the caps of this call, not of the first one
            raise CapExceededError(f"order cap {caps.order} exceeded", partial=caps.order)
        return codes

    def code_set(self, caps: Caps | None = DEFAULT_CAPS) -> frozenset[int]:
        codes = self.codes(caps)
        if self._code_set is None:
            self._code_set = frozenset(codes)
        return self._code_set

    def encode(self, p: Permutation, caps: Caps | None = None) -> int | None:
        """The code of p in this group's ambient, or None outside it."""
        if p.degree != self.degree:
            return None
        return self.ambient(caps).encode(p.images)

    def codes_of(
        self, perms: Iterable[Permutation], error, caps: Caps | None = DEFAULT_CAPS
    ) -> tuple[int, ...]:
        """The codes of ``perms`` as elements of this group; ``error(p)`` is
        raised for the first p that is not one, even when p lies in the
        ambient.  A group that owns its ambient is all of it, and is not
        listed to answer."""
        perms = tuple(perms)
        codes = tuple(self.encode(p, caps) for p in perms)
        members = None if self._owns_ambient else self.code_set(caps)
        for p, c in zip(perms, codes):
            if c is None or (members is not None and c not in members):
                raise error(p)
        return codes

    def generate(
        self, seeds: Iterable[int], name=None, caps: Caps = DEFAULT_CAPS, start=None
    ) -> "PermGroup":
        """The subgroup generated by the codes ``seeds`` and, when given, the
        subgroup ``start`` of this group's ambient; the ambient's shared
        ``trivial()`` when that is 1."""
        amb = self.ambient(caps)
        if start is not None:
            start = (start.codes(caps), start.gen_codes(caps))
        codes, gens = _closure(seeds, amb.right, caps.order, start)
        if len(codes) == 1:
            return self.trivial(caps)
        return PermGroup._coded(amb, gens, name=name, codes=codes)

    def trivial(self, caps: Caps = DEFAULT_CAPS) -> "PermGroup":
        """The trivial subgroup of this group's ambient, one per ambient:
        ``generate`` returns it for a closure that is 1, so the trivial
        radicals and series terms of the ambient's groups share it.
        The ambient holds it by weak reference, as it holds the ambient."""
        amb = self.ambient(caps)
        T = amb.trivial and amb.trivial()
        if T is None:
            T = PermGroup._coded(amb, (), "1", (0,))
            amb.trivial = weakref.ref(T)
        return T

    def _sub(self, codes, name: str | None = None) -> "PermGroup":
        """The subgroup with this known closed set of codes of this group's
        (built) ambient."""
        return PermGroup._coded(self._amb, None, name=name, codes=sorted(set(codes)))

    def named(self, name: str, caps: Caps | None = DEFAULT_CAPS) -> "PermGroup":
        """This group under ``name``: a copy on the same ambient, generator
        codes and element codes, so this group keeps its own name."""
        return PermGroup._coded(self.ambient(caps), self.gen_codes(caps), name, self.codes(caps))

    def _rehome(self, H: "PermGroup", caps: Caps | None = DEFAULT_CAPS) -> "PermGroup":
        """H itself when it shares this group's ambient, else H's elements
        as a subgroup of this group (NotASubgroupError if they are not)."""
        if H.ambient(caps) is self.ambient(caps):
            return H
        error = NotASubgroupError("elements lie outside the group")
        recoded = _recode(H, H.codes(caps), self, caps, error)
        return self._sub(recoded.values(), name=H.name)

    # -- element table -----------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._gens is None:
            self._gens = tuple(map(self._amb.decode, self.gen_codes(None)))
        return self._gens

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self, caps: Caps | None = DEFAULT_CAPS) -> tuple[Permutation, ...]:
        codes = self.codes(caps)
        elts = self._memo.get("elements")
        if elts is None:
            elts = self._memo["elements"] = tuple(map(self._amb.decode, codes))
        return elts

    def element_set(self, caps: Caps | None = DEFAULT_CAPS) -> frozenset[Permutation]:
        self.elements(caps)
        found = self._memo.get("element_set")
        if found is None:
            found = self._memo["element_set"] = frozenset(self._memo["elements"])
        return found

    def order(self, caps: Caps = DEFAULT_CAPS) -> int:
        return len(self.codes(caps))

    def __contains__(self, p: Permutation) -> bool:
        return self.encode(p) in self.code_set(None)

    def is_trivial(self) -> bool:
        return len(self.codes(None)) == 1

    def is_abelian(self) -> bool:
        if "is_abelian" not in self._memo:
            if self._amb is None:  # no enumeration: the generator permutations
                gens, mul = self._gens, Permutation.__mul__
            else:
                gens, mul = self.gen_codes(None), self._amb.mul
            self._memo["is_abelian"] = all(
                mul(a, b) == mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
            )
        return self._memo["is_abelian"]

    def order_histogram(self, caps: Caps = DEFAULT_CAPS) -> dict[int, int]:
        codes = self.codes(caps)
        if "order_histogram" not in self._memo:
            self._memo["order_histogram"] = dict(
                sorted(Counter(map(self._amb.order_of, codes)).items())
            )
        return self._memo["order_histogram"]

    def exponent(self, caps: Caps = DEFAULT_CAPS) -> int:
        return lcm(*self.order_histogram(caps).keys())

    # -- derived groups ----------------------------------------------------

    def subgroup(
        self, generators: Iterable[Permutation], name: str | None = None,
        caps: Caps = DEFAULT_CAPS,
    ) -> "PermGroup":
        codes = self.codes_of(
            generators,
            lambda p: NotASubgroupError("subgroup generators lie outside the group"), caps,
        )
        return PermGroup._coded(self.ambient(caps), codes, name=name)

    def subgroup_from_elements(
        self, elements: Iterable[Permutation], name: str | None = None
    ) -> "PermGroup":
        """Subgroup whose full element set is already known and closed."""
        codes = self.codes_of(
            elements, lambda p: NotASubgroupError("elements lie outside the group"), None
        )
        return self._sub(codes, name=name)

    def is_subgroup_of(self, other: "PermGroup", caps: Caps | None = None) -> bool:
        if self.degree != other.degree:
            return False
        if self.ambient(caps) is other.ambient(caps):
            self.codes(caps)  # this group's table obeys the caps too
            return other.code_set(caps).issuperset(self.gen_codes(caps))
        return self.element_set(caps) <= other.element_set(caps)

    def memo(self, key, compute, caps: Caps | None = DEFAULT_CAPS):
        """Compute-once derived data; a hit re-checks the group's order
        against the caps.  A memo whose value needs another cap-guarded step
        holds the caps in its key (``"radical"``, ``"apply"``, ``"verbal"``,
        ``"lcs"``, ``"homs"``, ``"extensions"``), so a hit never hands out a
        value that a fresh process would refuse under the caps of the call.
        ``("preimage", codes)`` holds the subgroup with those codes, listed
        by the caller, and is read with caps None, as a pullback smaller than
        this group reads it (:class:`_Subdirect`).

        A memo value never references this group, so a group dies by
        reference count when its last user drops it, and the verdict loops
        leave no cycles for the garbage collector.  The two exceptions hold
        their group by nature and live on long-lived catalog groups and
        bases: ``"extensions"`` (each extension's projection starts at the
        group) and ``"homs"`` (each hom ends at it)."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        else:
            self.codes(caps)
        return value

    def describe(self) -> str:
        return self.name or f"<perm group deg {self.degree}, order {self.order(None)}>"

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"PermGroup(deg={self.degree}, gens={len(self.generators)}{nm})"


class _Subdirect:
    """The record of a group P <= A x B that projects onto A and onto B, a
    subdirect product, with pair codes a * |B's ambient| + b.  ``direct``
    is (A, B) and ``over`` None when P is all of A x B: a direct product, a
    pullback along the trivial hom, a pullback's kernel K' = K x 1.
    Otherwise P is the fiber product {(e, x) : f(e) = g(x)} along a leg g
    that is not trivial, which ``extensions._fiber_facts`` reads: ``over``
    maps each y in g(B) to the sorted x with g(x) = y, and A is
    E_H = f^-1(g(B)), listed as ``a_codes``.  Unless it is E itself, E_H
    is built on its first read and memoised on E under its codes, so the
    pullbacks over one g(B) share it, and share its memoised radicals."""

    __slots__ = ("_a", "B", "f", "a_codes", "over", "direct")

    def __init__(self, A, B, f=None, a_codes=None, over=None):
        self._a, self.B, self.f, self.a_codes, self.over = A, B, f, a_codes, over
        self.direct = (A, B) if over is None else None

    def first(self) -> PermGroup:
        """A, built in E's ambient for a fiber product; the memo value
        holds that ambient, not E."""
        if self._a is None:
            E, codes = self.f.domain, tuple(self.a_codes)
            self._a = E.memo(
                ("preimage", codes), lambda: PermGroup._coded(E._amb, None, "E_H", codes), None
            )
        return self._a


def _recode(
    H: PermGroup, codes: Iterable[int], G: PermGroup, caps: Caps | None, error: Exception
) -> dict[int, int]:
    """Each of ``codes`` of H's ambient -> the code of its permutation in
    G's ambient, the one way codes cross ambients; ``error`` is raised when
    one of them is not an element of G."""
    amb = G.ambient(caps)
    if H.ambient(caps) is amb:
        recoded = {c: c for c in codes}
    else:
        decode, encode = H.ambient(caps).decode, amb.encode
        recoded = {c: encode(decode(c).images) for c in codes}
    if not G.code_set(caps).issuperset(recoded.values()):
        raise error
    return recoded


# -- homomorphisms ---------------------------------------------------------


def _extend_mapping(domain, codomain, images, caps: Caps):
    """Define f on every domain code by BFS over generator edges.

    Checking every edge (e, e*g) for consistency is equivalent to checking
    f(ab) = f(a) f(b) for all a, b.  Returns the full map or None on conflict.
    """
    if domain.order(caps) > caps.hom_domain:
        raise CapExceededError(
            f"hom verification cap {caps.hom_domain} exceeded by |domain| = "
            f"{domain.order(caps)}"
        )
    da, ca = domain.ambient(caps), codomain.ambient(caps)
    moves = [(da.right(g), ca.right(h)) for g, h in zip(domain.gen_codes(caps), images)]
    mapping = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for e in frontier:
            ye = mapping[e]
            for rg, rh in moves:
                x = rg(e)
                y = rh(ye)
                prev = mapping.get(x)
                if prev is None:
                    mapping[x] = y
                    new.append(x)
                elif prev != y:
                    return None
        frontier = new
    return mapping


class GroupHom:
    """A verified homomorphism, stored as generator image codes and its full
    code map.

    A hom that is one by construction (a projection, a composite, a found
    isomorphism) is handed its map.  Any other is checked by one rule: an
    inclusion is the identity on codes, a map built on its first use, and
    every other hom is verified by the edge check of :func:`_extend_mapping`,
    which also builds its map.
    :meth:`apply` maps permutations.

    Enumerated homs are kept for the life of their codomain, so a hom
    stores codes only: its image permutations are decoded when asked.
    """

    __slots__ = ("domain", "codomain", "image_codes", "name", "_caps", "_kernel",
                 "_image", "_fibers", "_map")

    def __init__(
        self,
        domain: PermGroup,
        codomain: PermGroup,
        images: Iterable[Permutation],
        caps: Caps = DEFAULT_CAPS,
        name: str | None = None,
    ):
        images = tuple(images)
        if len(images) != len(domain.generators):
            raise InvalidHomomorphismError(
                f"{len(images)} images for {len(domain.generators)} generators"
            )
        codes = codomain.codes_of(
            images,
            lambda p: InvalidHomomorphismError(f"image {p.cycle_string()} not in codomain"),
            caps,
        )
        self._init(domain, codomain, codes, caps, name)

    @classmethod
    def _from_codes(
        cls, domain, codomain, codes, caps: Caps = DEFAULT_CAPS, mapping=None, kernel=None,
        image=None,
    ) -> "GroupHom":
        """The hom with these generator image codes, each the code of an
        element of ``codomain`` by the caller's construction, as are
        ``kernel`` and ``image``, when given."""
        hom = cls.__new__(cls)
        hom._init(domain, codomain, tuple(codes), caps, None, mapping)
        hom._kernel, hom._image = kernel, image
        return hom

    def _init(self, domain, codomain, codes, caps, name, mapping=None):
        self.domain = domain
        self.codomain = codomain
        self.image_codes = codes
        self.name = name
        self._caps = caps
        self._kernel = self._image = self._fibers = None
        if mapping is None:
            if domain._amb is codomain.ambient(caps) and codes == domain.gen_codes(caps):
                # an inclusion: the domain is generated by these codes of the
                # codomain (``_amb``, so a domain that is not listed stays
                # unlisted); listing it checks it against the caps now
                domain.codes(caps)
            else:
                mapping = _extend_mapping(domain, codomain, codes, caps)
                if mapping is None:
                    raise InvalidHomomorphismError(
                        "generator images do not extend to a homomorphism"
                    )
        self._map = mapping

    @property
    def images(self) -> tuple[Permutation, ...]:
        return tuple(map(self.codomain.ambient(None).decode, self.image_codes))

    def code_map(self) -> dict[int, int]:
        if self._map is None:  # an inclusion
            codes = self.domain.codes(None)
            self._map = dict(zip(codes, codes))
        return self._map

    def apply(self, x: Permutation) -> Permutation:
        (c,) = self.domain.codes_of(
            (x,),
            lambda p: NotASubgroupError(f"{p.cycle_string()} is not an element of the domain"),
            self._caps,
        )
        return self.codomain.ambient(None).decode(self.code_map()[c])

    def __call__(self, x: Permutation) -> Permutation:
        return self.apply(x)

    def kernel(self) -> PermGroup:
        if self._kernel is None:
            kern = [x for x, y in self.code_map().items() if y == 0]
            self._kernel = self.domain._sub(kern, name="ker")
        return self._kernel

    def image(self) -> PermGroup:
        """f(domain); the codomain's shared ``trivial()`` when that is 1."""
        if self._image is None:
            values = set(self.code_map().values())
            self._image = (
                self.codomain._sub(values, name="im") if len(values) > 1
                else self.codomain.trivial(self._caps)
            )
        return self._image

    def fibers(self) -> dict[int, list[int]]:
        """y -> the sorted x with f(x) = y, for every y in the image."""
        if self._fibers is None:
            fibers: dict[int, list[int]] = {}
            for x, y in sorted(self.code_map().items()):
                fibers.setdefault(y, []).append(x)
            self._fibers = fibers
        return self._fibers

    def is_injective(self) -> bool:
        return sum(1 for y in self.code_map().values() if y == 0) == 1

    def is_surjective(self) -> bool:
        return self.image().order(None) == self.codomain.order(None)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite (apply self first, then other); self's image must lie
        in other's domain, in whatever ambient that lives."""
        caps, cmap, smap = self._caps, other.code_map(), self.code_map()
        error = InvalidHomomorphismError("image of the first map is not in the second's domain")
        recode = _recode(self.codomain, set(smap.values()), other.domain, caps, error)
        cmap = {y: cmap[z] for y, z in recode.items()}
        mapping = {x: cmap[y] for x, y in smap.items()}
        return GroupHom._from_codes(
            self.domain, other.codomain, [cmap[y] for y in self.image_codes], caps,
            mapping=mapping,
        )

    @classmethod
    def identity_hom(cls, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> "GroupHom":
        return cls._from_codes(G, G, G.gen_codes(caps), caps)

    @classmethod
    def inclusion(cls, sub: PermGroup, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> "GroupHom":
        """sub -> G, x -> x, the identity on codes when sub lives in G's
        ambient; the one membership check is on sub's generators."""
        error = NotASubgroupError("inclusion source is not a subgroup")
        if sub.ambient(caps) is not G.ambient(caps):
            codes = G.codes_of(sub.generators, lambda p: error, caps)
            return cls._from_codes(sub, G, codes, caps)
        if not G.code_set(caps).issuperset(sub.gen_codes(caps)):
            raise error
        return cls._from_codes(sub, G, sub.gen_codes(caps), caps, image=sub)

    def __repr__(self) -> str:
        nm = f" {self.name!r}" if self.name else ""
        return f"GroupHom({self.domain.describe()} -> {self.codomain.describe()}{nm})"


# -- operations ------------------------------------------------------------


def normal_closure(
    G: PermGroup, elements: Iterable[Permutation], caps: Caps = DEFAULT_CAPS
) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements."""
    codes = G.codes_of(
        elements, lambda e: NotASubgroupError(f"{e.cycle_string()} is not an element of G"), caps
    )
    return normal_closure_codes(G, codes, caps)


def normal_closure_codes(
    G: PermGroup, codes: Iterable[int], caps: Caps = DEFAULT_CAPS, start=None
) -> PermGroup:
    """normal_closure on codes of G's ambient.  ``start``, a normal subgroup
    of G, continues from it: only the codes outside it are conjugated, and
    the closure grows from its elements; it is returned itself when it
    holds every code."""
    if start is None:
        start = G.trivial(caps)
    have = start.code_set(caps)
    closed = [c for c in set(codes) if c not in have]
    if not closed:
        return start
    amb = G.ambient(caps)
    conjugators = [amb.conjugator(h) for g in G.gen_codes(caps) for h in (g, amb.inv(g))]
    _orbits(closed, conjugators, {*have, *closed})
    return G.generate(closed, "ncl", caps, start)


def _orbits(elts: list, moves, seen: set) -> list:
    """``elts`` extended in place by its images under ``moves`` until closed;
    ``seen`` holds what is already there and is kept up to date."""
    for t in elts:  # the list grows while it is walked
        for move in moves:
            c = move(t)
            if c not in seen:
                seen.add(c)
                elts.append(c)
    return elts


def is_normal(N: PermGroup, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    if not N.is_subgroup_of(G, caps):
        return False
    N = G._rehome(N, caps)
    nset = N.code_set(caps)
    amb = G.ambient(caps)
    conjugators = [amb.conjugator(g) for g in G.gen_codes(caps)]
    return all(conj(n) in nset for conj in conjugators for n in N.gen_codes(caps))


def right_cosets(
    G: PermGroup, n_codes: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> tuple[list[int], dict[int, int]]:
    """One pass over G's codes: the least element of each right coset Nx,
    and the index of every element's coset in that list."""
    amb = G.ambient(caps)
    reps: list[int] = []
    coset_index: dict[int, int] = {}
    for x in G.codes(caps):
        if x in coset_index:
            continue
        k = len(reps)
        for y in map(amb.right(x), n_codes):
            coset_index[y] = k
        reps.append(x)
    return reps, coset_index


def quotient(
    G: PermGroup, N: PermGroup, caps: Caps = DEFAULT_CAPS
) -> tuple[PermGroup, GroupHom]:
    """The faithful action of G/N on the cosets of N, with the projection."""
    if not N.is_subgroup_of(G, caps):
        raise NotASubgroupError("N is not a subgroup of G")
    if not is_normal(N, G, caps):
        raise NotNormalError("N is not normal in G")
    N = G._rehome(N, caps)
    reps, coset_index = right_cosets(G, N.codes(caps), caps)
    amb = G.ambient(caps)
    proj_images = [
        Permutation(tuple(coset_index[y] for y in map(amb.right(g), reps)))
        for g in G.gen_codes(caps)
    ]
    gname = G.name or "G"
    nname = N.name or "N"
    Q = PermGroup(
        max(len(reps), 1), tuple(proj_images), name=f"{gname}/{nname}"
    )
    # N is normal, so the action's kernel is N and Q = G/N acts regularly on
    # the cosets; x sends point 0 (N itself) to x's coset, and maps to the
    # one q of Q that does the same
    decode = Q.ambient(caps).decode
    by_point = {decode(q).images[0]: q for q in Q.codes(caps)}
    mapping = {x: by_point[i] for x, i in coset_index.items()}
    # the kernel is N: the x whose coset is N itself, mapped to Q's identity
    return Q, GroupHom._from_codes(G, Q, Q.gen_codes(caps), caps, mapping=mapping, kernel=N)


def direct_product(
    A: PermGroup, B: PermGroup, name: str | None = None, caps: Caps = DEFAULT_CAPS
) -> PermGroup:
    """External direct product on disjoint point sets; it computes in the
    product of A's and B's ambients, enumerated under the caps of each query."""
    dA, dB = A.degree, B.degree
    idA = tuple(range(dA))
    idB = tuple(range(dA, dA + dB))
    gens = [Permutation(g.images + idB) for g in A.generators]
    gens += [Permutation(idA + tuple(i + dA for i in g.images)) for g in B.generators]
    pres = None
    exact = False
    if A.presentation is not None and B.presentation is not None:
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
    G = PermGroup(
        dA + dB, gens, presentation=pres, presentation_exact=exact, name=prod_name
    )
    G._factors = _Subdirect(A, B)
    G._owns_ambient = A._owns_ambient and B._owns_ambient  # all of A x B
    return G


def pullback_group(
    f: GroupHom, g: GroupHom, caps: Caps = DEFAULT_CAPS
) -> tuple[PermGroup, GroupHom]:
    """Fiber product {(e, x) : f(e) = g(x)} in the product of E's and X's
    ambients, with its projection to X.  The E component of a pair code p
    is p // |X's ambient|, the first E.degree points of its permutation.

    P is a subdirect product of E_H = f^-1(g(X')) and X' = g^-1(im f), and
    ``_factors`` records it (:class:`_Subdirect`).  It is listed in code
    order, with no sort: each e of E_H in order, then each x over f(e) in
    order, from g's fibers, built per call.  Its generators, ker(f) x 1 and
    (least e over g(x), x) for each generator x of X', lie in P by
    construction and generate it: the first generate ker(pr_x) (ker f's are
    certified by its closure) and the rest map onto X', pr_x's image.  pr_x
    is given both; |P| = |ker f| * |X'|, as each fiber of f is a coset of
    ker f.  The kernel K' = ker(f) x 1 is recorded as the product of ker f
    and X's trivial subgroup, and when g is trivial, P = ker f x X' pair for
    pair is recorded as a product too."""
    gmap = g.code_map()
    G, H = f.codomain, g.codomain
    if G is not H:
        error = InvalidHomomorphismError("pullback legs must share a codomain")
        recode = _recode(H, H.codes(caps), G, caps, error)
        if G.order(caps) != H.order(caps):
            raise error
        gmap = {x: recode[y] for x, y in gmap.items()}
    E, X = f.domain, g.domain
    amb = _ProductAmbient(E.ambient(caps), X.ambient(caps))
    nx = amb.nb
    fibers, fmap, K = f.fibers(), f.code_map(), f.kernel()
    over: dict[int, list[int]] = {}  # y in g(X') -> the x over it, in order
    for x in X.codes(caps):
        if (y := gmap[x]) in fibers:
            over.setdefault(y, []).append(x)
    if sum(map(len, over.values())) == X.order(caps):
        Xf = X
    else:
        Xf = X._sub(chain.from_iterable(over.values()))
    # E_H in order; when g(X') = 1 it is ker f, the fiber over 1
    eh = fibers[0] if len(over) == 1 else sorted(chain.from_iterable(map(fibers.get, over)))
    kgens = [k * nx for k in K.gen_codes(caps)]
    gens = kgens + [fibers[gmap[x]][0] * nx + x for x in Xf.gen_codes(caps)]
    codes = [e * nx + x for e in eh for x in over[fmap[e]]]
    P = PermGroup._coded(amb, gens, f"pb({E.name or 'E'},{X.name or 'X'})", codes)
    P.order(caps)  # checks the listed codes against the caps, as a closure would
    K2 = PermGroup._coded(amb, kgens, "ker", [k * nx for k in K.codes(caps)])
    K2._factors = _Subdirect(K, X.trivial(caps))
    if len(over) == 1:
        P._factors = _Subdirect(K, Xf)
    else:  # E_H is E itself when g(X') is all of im f
        P._factors = _Subdirect(E if len(eh) == len(fmap) else None, Xf, f, eh, over)
    pr_x = GroupHom._from_codes(
        P, X, [p % nx for p in gens], caps, mapping={p: p % nx for p in codes},
        kernel=K2, image=Xf,
    )
    return P, pr_x


def normal_subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """All normal subgroups, as joins of cyclic normal closures."""
    key = "normal_subgroups"

    def compute():
        found: dict[frozenset, PermGroup] = {}
        for x in G.codes(caps):  # code 0 gives the trivial subgroup first
            N = normal_closure_codes(G, [x], caps)
            found.setdefault(N.code_set(caps), N)
        changed = True
        while changed:
            changed = False
            items = list(found.values())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    join = G.generate(
                        items[i].gen_codes(caps) + items[j].gen_codes(caps), caps=caps
                    )
                    if join.code_set(caps) not in found:
                        found[join.code_set(caps)] = join
                        changed = True
        return sorted(found.values(), key=lambda n: (n.order(caps), n.codes(caps)))

    return G.memo(key, compute, caps)


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
        # a class is an orbit under conjugation by the generators
        amb = G.ambient(caps)
        conjugators = [amb.conjugator(g) for g in G.gen_codes(caps)]
        seen: set[int] = set()
        sizes = []
        for x in G.codes(caps):
            if x not in seen:
                seen.add(x)
                sizes.append(len(_orbits([x], conjugators, seen)))
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
    amb = G.ambient(caps)
    gens = G.gen_codes(caps)
    if len(gens) > 4 or not gens:
        gens = G._sub(G.codes(caps)).gen_codes(caps)  # greedy, from the code set
    if not gens:  # trivial group
        return GroupHom(G, H, (), caps=caps) if H.is_trivial() else None
    # cumulative subgroups for partial verification
    partials = [PermGroup._coded(amb, gens[:i]) for i in range(1, len(gens) + 1)]
    hamb = H.ambient(caps)
    by_order: dict[int, list[int]] = {}
    for y in H.codes(caps):
        by_order.setdefault(hamb.order_of(y), []).append(y)

    # depth-first over the generators, images in order: tried[i] counts the
    # images taken for gens[i] since gens[i - 1] last moved
    choices = [by_order.get(amb.order_of(g), []) for g in gens]
    chosen = [0] * len(gens)
    tried = [0] * len(gens)
    i = 0
    while i >= 0:
        if tried[i] == len(choices[i]):
            tried[i] = 0
            i -= 1
            continue
        chosen[i] = choices[i][tried[i]]
        tried[i] += 1
        sub = partials[i]
        mapping = _extend_mapping(sub, H, chosen[: i + 1], caps)
        if mapping is not None and len(set(mapping.values())) == sub.order(caps):
            if i + 1 == len(gens):
                # the chosen generators span G: the mapping is the whole map
                return GroupHom._from_codes(
                    G, H, [mapping[g] for g in G.gen_codes(caps)], caps, mapping=mapping
                )
            i += 1
    return None


def is_isomorphic(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff an isomorphism exists; never a wrong answer, errors on cap.

    Finite abelian groups are isomorphic exactly when they have the same
    number of elements of each order.  The order histogram counts the x with
    x^(p^j) = 1; they form the Sylow p-subgroup's elements of order dividing
    p^j, which for Z/p^e_1 x ... x Z/p^e_r number p^(min(e_1, j) + ... +
    min(e_r, j)).  So the count at j over the count at j - 1 is p to the
    number of e_i >= j, and the counts fix every Sylow subgroup's invariants."""
    if G.order(caps) != H.order(caps):
        return False
    if G.is_abelian() and H.is_abelian():
        return G.order_histogram(caps) == H.order_histogram(caps)
    return find_isomorphism(G, H, caps) is not None
