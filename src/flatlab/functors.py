"""The cast of group endofunctors, the localizations L_f and the
subfunctors T_A, with localization maps, induced maps, locality and
acyclicity tests.  Every epireflection in the cast is an L_f:
nullifications, quasi-variety reflections, and, on a free source, variety
reflections, nilpotent quotients and abelianization.  The subgroup S_p
generated by the elements of order p is T_(C_p).

Epireflections return a surjective structure map eta with its kernel (the
radical); a subfunctor returns an inclusion.  All functors apply to finite
permutation groups and to finitely generated abelian groups.

L_f, f : A = <X | R> ->> <X | R u S>, has one rule per flavor: in G the
radical is the preimage chain N_(i+1) = <<N_i, s(x) : x solves R in G/N_i,
s in S>>; an abelian M is quotiented by the images s(h), h in
Hom(A, M) = Hom(A^ab, M), until they vanish.  Two rules give the radical
at once: on a free source it is the verbal subgroup of S, and for
f = A ->> 1 with A solvable it is generated by the pi-elements of G, pi
the primes dividing |A^ab|.  T_A is the first step N_1 of P_A's chain,
generated by the generator images of Hom(A, G), in either flavor.
"""

from __future__ import annotations

from functools import cache
from math import gcd, prod
from typing import Union

from .abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    _exponent_sums,
    ab_image,
    ab_kernel,
    ab_quotient,
    abelian_hom_group,
    solve_columns,
    solve_in_column_lattice,
)
from .caps import DEFAULT_CAPS, Caps
from .catalog import parse_group_literal
from .errors import (
    CapExceededError,
    FlatlabError,
    InvalidHomomorphismError,
    RealizationError,
    ScenarioError,
    UnsupportedFunctorError,
)
from .homs import hom_image_codes, realize_presentation, relator_solutions
from .permgroup import GroupHom, PermGroup, normal_closure_codes, quotient, right_cosets
from .verbal import derived_subgroup, is_prime, verbal_subgroup
from .words import Presentation, Word, _split_top_level, parse_word


# -- functor specifications --------------------------------------------------


class _Spec:
    """A functor specification: immutable, and equal and hashed by its key,
    the tuple of its parameters, since specs are the memo keys of radicals.
    The hash and the ``describe()`` text are computed once, by ``_freeze``,
    as every memo lookup hashes the spec and every verdict names it."""

    __slots__ = ("_key", "_hash", "_text")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _freeze(self, key: tuple, text: str) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_text", text)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def describe(self) -> str:
        return self._text


def _free(k: int) -> Presentation:
    """F_k on x1, ..., xk, the source of a variety's f."""
    return Presentation(tuple(f"x{i + 1}" for i in range(k)), ())


def _text(A: Presentation) -> str:
    """A as the spellings write it, <x,y|x^2,y^2>."""
    return f"<{','.join(A.generators)}|{','.join(A.relator_texts())}>"


class Localization(_Spec):
    """L_f, localization at f : A = <X | R> ->> <X | R u S> (Farjoun, LNM
    1622, 1996): G is f-local when every solution of R in G satisfies S.
    ``conditions`` holds the (A, S) pairs: nullification P_A is f = A ->> 1,
    S = X; each quasi-variety rule x^a => x^b is f = C_a ->> C_gcd(a,b); the
    variety with laws S is f = F_k ->> <X | S>, A free (Casacuberta,
    Rodriguez & Scevenels, 1999).

    Two rules are read off the conditions once, here.  ``laws`` is S when
    there is one condition and A is free (the free-source rule of
    ``_localization_radical``).  Otherwise ``nullified`` is A when f is
    A ->> 1.  A law is a word or a class c, standing for [x1, ..., x_(c+1)]
    (``verbal.verbal_subgroup``).  N_1 of P_A's chain, normally closed, is
    T_A (:class:`GeneratedSubfunctor`).  Subclasses spell their key and
    ``describe()`` text by ``_spelling``."""

    __slots__ = ("conditions", "nullified", "laws")

    def __init__(self, *conditions: tuple[Presentation, tuple[Word | int, ...]]):
        object.__setattr__(self, "conditions", conditions)
        free = kills = False
        if len(conditions) == 1:
            (A, S), = conditions
            free = not A.relators
            generators = {((i, 1),) for i in range(len(A.generators))}
            kills = not free and generators <= {w.letters for w in S}  # S holds them all
        object.__setattr__(self, "laws", S if free else None)
        object.__setattr__(self, "nullified", A if kills else None)
        self._freeze(*self._spelling())

    def _spelling(self) -> tuple[tuple, str]:
        return self.conditions, ";".join(
            f"orthogonal({_text(A)}=>{','.join(w.text(A.generators) for w in S)})"
            for A, S in self.conditions
        )


class Variety(Localization):
    """The reflection onto the variety with laws ``words``."""

    __slots__ = ("words",)

    def __init__(self, words: tuple[Word, ...]):
        object.__setattr__(self, "words", words)
        super().__init__((_free(max((w.arity for w in words), default=0)), words))

    def _spelling(self) -> tuple[tuple, str]:
        return (self.words,), f"variety({','.join(w.text() for w in self.words)})"


class NilpotentQuotient(Localization):
    """G/gamma_(c+1)(G): the variety of the law [x1, ..., x_(c+1)], given by
    its class c, as the word has 3 * 2^c - 2 letters."""

    __slots__ = ("nilpotency_class",)

    def __init__(self, nilpotency_class: int):
        if nilpotency_class < 1:
            raise ValueError("nilpotency class must be >= 1")
        object.__setattr__(self, "nilpotency_class", nilpotency_class)
        super().__init__((_free(nilpotency_class + 1), (nilpotency_class,)))

    def _spelling(self) -> tuple[tuple, str]:
        return (self.nilpotency_class,), f"nilpotent(class={self.nilpotency_class})"


class Abelianization(NilpotentQuotient):
    """The nilpotent quotient of class 1."""

    __slots__ = ()

    def __init__(self):
        super().__init__(1)

    def _spelling(self) -> tuple[tuple, str]:
        return (), "abelianization"  # no parameters


class Nullification(Localization):
    __slots__ = ("target",)

    def __init__(self, target: Presentation):
        if len(target.generators) > 3:
            raise UnsupportedFunctorError("nullification target limited to <= 3 generators")
        object.__setattr__(self, "target", target)
        super().__init__((target, tuple(map(Word.generator, range(len(target.generators))))))

    def _spelling(self) -> tuple[tuple, str]:
        return (self.target,), f"nullification({_text(self.target)})"


class QuasiVarietyReflection(Localization):
    __slots__ = ("rules",)

    def __init__(self, rules: tuple[tuple[Word, Word], ...]):
        object.__setattr__(self, "rules", rules)
        super().__init__(*(
            (Presentation(_free(max(c.arity, u.arity, 1)).generators, (c,)), (u,))
            for c, u in rules
        ))

    def _spelling(self) -> tuple[tuple, str]:
        return self.conditions, "quasivariety(" + ";".join(
            f"{c.text()}=>{u.text()}" for c, u in self.rules
        ) + ")"


class GeneratedSubfunctor(_Spec):
    """T_A(G) = <h(x) : h in Hom(A, G), x in X> for A = <X | R>, the
    group-level shadow of A-cellularization, dual to the nullification P_A
    (Farjoun, LNM 1622, 1996; Farjoun, Göbel & Segev, JPAA 208, 2007).  A
    subfunctor of the identity: for f : G -> H each f h is a hom A -> H, so
    f(T_A G) <= T_A H, and T_A G is characteristic, so normal.  S_p is
    T_(C_p), T_Z the identity, T_1 trivial.  Subclasses spell their key
    and ``describe()`` text by ``_spelling``."""

    __slots__ = ("source",)
    laws = None  # not an L_f: no free-source rule

    def __init__(self, source: Presentation):
        object.__setattr__(self, "source", source)
        self._freeze(*self._spelling())

    def _spelling(self) -> tuple[tuple, str]:
        return (self.source,), f"generated({_text(self.source)})"


class SpSubfunctor(GeneratedSubfunctor):
    """S_p, generated by the elements of order p: T_A for A = <x | x^p>."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise FlatlabError(f"{p} is not prime")
        object.__setattr__(self, "p", p)
        super().__init__(Presentation(("x",), (Word.generator(0, p),)))

    def _spelling(self) -> tuple[tuple, str]:
        return (self.p,), f"sp(p={self.p})"


FunctorSpec = Union[Localization, GeneratedSubfunctor]

EPIREFLECTION = "epireflection"
SUBFUNCTOR = "subfunctor"


def functor_kind(F: FunctorSpec) -> str:
    return EPIREFLECTION if isinstance(F, Localization) else SUBFUNCTOR


_PARAMETERS = {
    "abelianization": (),
    "nilpotent": ("class",),
    "variety": ("words",),
    "nullification": ("H",),
    "quasivariety": ("cond", "impose"),
    "orthogonal": ("gens", "rels", "impose"),
    "generated": ("H",),
    "sp": ("p",),
}


def _word_list(text: str, alphabet=None) -> tuple[Word, ...]:
    """The words of a bracketed list such as [x1^2,[x1,x2]]."""
    return tuple(parse_word(chunk, alphabet) for chunk in _split_top_level(text.strip()[1:-1]))


def parse_functor_literal(kind: str, params: dict, line: int | None = None) -> FunctorSpec:
    """Shared by scenario [functor] sections and the CLI --functor option;
    an unknown kind or parameter and a malformed value are ScenarioErrors."""
    if kind not in _PARAMETERS:
        raise ScenarioError(f"unknown functor kind {kind!r}", line)
    for key in params:
        if key not in _PARAMETERS[kind]:
            known = ", ".join(_PARAMETERS[kind]) or "none"
            raise ScenarioError(
                f"functor {kind} has no parameter {key!r} (known: {known})", line
            )
    try:
        if kind == "abelianization":
            return Abelianization()
        if kind == "nilpotent":
            return NilpotentQuotient(int(params["class"]))
        if kind == "variety":
            return Variety(_word_list(params["words"]))
        if kind in ("nullification", "generated"):  # a catalog group is presented
            spec = Nullification if kind == "nullification" else GeneratedSubfunctor
            return spec(parse_group_literal(params["H"]).presentation)
        if kind == "quasivariety":
            # one-variable rules are written in the single letter x
            def one_var(text: str) -> Word:
                try:
                    return parse_word(text, ("x",))
                except ValueError:
                    return parse_word(text)

            return QuasiVarietyReflection(((one_var(params["cond"]), one_var(params["impose"])),))
        if kind == "orthogonal":
            A = Presentation.parse(params["gens"], params["rels"].strip()[1:-1])
            return Localization((A, _word_list(params["impose"], A.generators)))
        return SpSubfunctor(int(params["p"]))  # the last kind left
    except KeyError as exc:
        raise ScenarioError(f"functor {kind} missing parameter {exc}", line) from None
    except ValueError as exc:
        raise ScenarioError(f"functor {kind}: {exc}", line) from None


def functor_from_fields(form: str | None, fields, line: int | None = None) -> FunctorSpec:
    """The functor of a literal split by ``words.parse_fields``, such as
    ``variety words=[x1^2, [x1,x2]]``, for the CLI --functor option and for
    scenario [functor] sections: the kind is the first ``kind=`` field or
    else the bare word, and the other fields are its parameters."""
    kind = next((v for k, v in fields if k == "kind"), None) or form
    if kind is None:
        raise ScenarioError("functor needs kind=...", line)
    return parse_functor_literal(kind, {k: v for k, v in fields if k != "kind"}, line)


class LocalizedResult:
    __slots__ = ("functor", "source", "result", "eta", "radical", "kind")

    def __init__(self, functor: FunctorSpec, source, result, eta, radical, kind: str):
        self.functor, self.source, self.result, self.kind = functor, source, result, kind
        self.eta = eta  # projection (epireflection) or inclusion (subfunctor)
        self.radical = radical  # kernel of eta, for epireflections; else None


# -- application: permutation flavor -----------------------------------------


def _preimage_chain(G: PermGroup, seeds_mod, caps: Caps) -> PermGroup:
    """Limit of N_0 = 1, N_(i+1) = <<N_i, seeds_mod(N_i)>>, computed inside G
    on codes without constructing any quotient group.

    N_i is normal, so <<N_i, seeds>> = N_i once every seed lies in N_i: the
    chain stops there, with no closure to confirm it.  Otherwise only the
    seeds outside N_i are conjugated, and the closure grows from N_i
    (``normal_closure_codes`` with ``start``)."""
    N = G.trivial(caps)
    while (N2 := normal_closure_codes(G, seeds_mod(N), caps, start=N)) is not N:
        N = N2
    return N


def _lifted_seeds(A: Presentation, S, G: PermGroup, caps: Caps):
    """seeds(N) = { s(x) : x a solution of A's relators in G/N, s in S },
    each solution lifted to coset representatives: whether x solves the
    relators, and s(x) modulo N, depend only on the cosets."""
    evaluate = G.ambient(caps).evaluate

    def seeds(N: PermGroup) -> set:
        reps, _ = right_cosets(G, N.codes(caps), caps)
        solutions = relator_solutions(A, G, reps, N.code_set(caps), caps)
        return {evaluate(w, x) for x in solutions for w in S}

    return seeds


def _evaluated_seeds(A: Presentation, S, G: PermGroup, caps: Caps):
    """``_lifted_seeds`` for a one-generator A, evaluated once per element.

    A one-generator word takes g to g^e, e its exponent sum, so g solves
    A's relators modulo N exactly when t(g) = g^a lies in N, a the gcd of
    their exponent sums.  The pairs (t(g), s(g)) do not change along the
    chain, so they are computed once and each step only asks which t(g) lie
    in N.  Every g = xn, x a coset representative and n in N, gives
    t(g) in t(x)N and s(g) in s(x)N: g solves exactly when x does, and adds
    a seed of the coset s(x)N, so both seed sets give the same
    <<N, seeds(N)>> at every step and the same chain."""
    power = G.ambient(caps).power
    a, bs = gcd(*(r.exponent_sum() for r in A.relators)), [w.exponent_sum() for w in S]
    pairs = {(power(g, a), power(g, b)) for b in bs for g in G.codes(caps)}

    def seeds(N: PermGroup) -> set:
        n_set = N.code_set(caps)
        return {u for t, u in pairs if t in n_set}

    return seeds


@cache
def _pi_exponent(pres: Presentation, caps: Caps) -> int | None:
    """An m whose prime divisors are pi, the primes dividing |H^ab|, for the
    presented group H: 0 (every prime) when H^ab has a Z summand, |H^ab| when
    H is certified finite and solvable, None otherwise.

    H^ab is Z^k modulo the relators' exponent sums: one Smith normal form.
    A free rank needs no realization, as H then maps onto Z and so onto
    every C_p.  Otherwise H is realized by Todd-Coxeter coset enumeration
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
    §5.1) and is solvable when its derived series reaches 1; the answer is
    memoised per (H, caps).  A perfect section (A5) or a realization beyond
    the caps gives None."""
    k = len(pres.generators)
    Hab = AbGroup(k, IntMatrix.from_columns(_exponent_sums(pres.relators, k), k))
    if Hab.rank:
        return 0
    try:
        D = realize_presentation(pres, caps)
        while not D.is_trivial():
            D2 = derived_subgroup(D, caps)
            if D2.order(caps) == D.order(caps):
                return None  # a perfect section
            D = D2
    except (RealizationError, CapExceededError):
        return None
    return prod(Hab.invariants)


def _localization_radical(F: Localization, G: PermGroup, caps: Caps) -> PermGroup:
    """The least normal N with G/N f-local: the preimage chain on the
    seeds of every condition (``_evaluated_seeds`` for a one-generator A,
    ``_lifted_seeds`` otherwise), unless one of two rules gives N at once.

    Free source (``F.laws``).  When A = F_k has no relators, every k-tuple
    of G/N solves R, so N_1 = <<s(x) : x in G^k, s in S>> = V_S(G), the
    verbal subgroup of S: the values of a law are closed under conjugation
    (``verbal.verbal_subgroup``).  The chain stops there, as G/N_1
    satisfies S: a tuple y of G/N_1 lifts to a tuple x of G, and
    s(y) = s(x) N_1 = N_1.  So N = V_S(G), and a single law of class c
    gives gamma_(c+1)(G), the memoised lower central series term.

    Nullification (``F.nullified``), when f is A ->> 1.  Let pi be the
    primes dividing |A^ab|, every prime when A^ab has a Z summand.  If A is
    solvable or A^ab has a Z summand, then Hom(A, Q) != 1 for a finite Q
    exactly when Q has an element of some order p in pi.  (<=) A maps onto
    C_p through A^ab, and C_p onto that element's subgroup.  (=>) A
    nontrivial image M of A is solvable, so M^ab != 1; M^ab is a quotient
    of A^ab, so some p in pi divides |M|, and by Cauchy's theorem M has an
    element of order p.  (With a Z summand every prime is in pi.)  By
    Cauchy again, N is the least normal subgroup with G/N a pi'-group:
    O^pi'(G), generated by the pi-elements of G.  They are closed under
    conjugation, so one closure gives N.  An A not certified solvable
    (``_pi_exponent`` is None) runs the chain.  Both routes give the same
    N, so no radical depends on the caps A was realized under."""
    if F.laws is not None:
        return verbal_subgroup(G, F.laws, caps)
    if F.nullified is not None and (m := _pi_exponent(F.nullified, caps)) is not None:
        codes = G.codes(caps)
        # o divides m^o exactly when every prime factor of o divides m
        pi = [c for c, o in zip(codes, map(G.ambient(caps).order_of, codes)) if pow(m, o, o) == 0]
        return G.generate(pi, "ncl", caps)
    rules = [
        (_evaluated_seeds if len(A.generators) == 1 else _lifted_seeds)(A, S, G, caps)
        for A, S in F.conditions
    ]
    return _preimage_chain(G, lambda N: set().union(*(rule(N) for rule in rules)), caps)


def _generated_subgroup(A: Presentation, G: PermGroup, caps: Caps) -> PermGroup:
    """T_A(G), generated by the coordinates of the solutions of A's
    relators in G, the generator images of Hom(A, G).  That set is closed
    under conjugation, as h followed by an inner automorphism is a hom, so
    the subgroup it generates is normal with no closure: it is N_1 of the
    nullification P_A's chain.

    One generator.  A one-generator word takes g to g^e, e its exponent
    sum, so g solves <x | R> exactly when g^e = 1 for every such e, that is
    when g^a = 1 for a the gcd of R's exponent sums (a is an integer
    combination of them, and each is a multiple of a): exactly when
    order(g) divides a, and a = 0 admits every g.  So the solutions are
    read off the element orders (``generator_images``)."""
    codes = G.codes(caps)
    if len(A.generators) == 1:
        seeds = generator_images(A, G, codes, caps)
    else:
        seeds = {c for x in relator_solutions(A, G, codes, (0,), caps) for c in x}
    return G.generate(seeds, "T_A(G)", caps)


def generator_images(A: Presentation, G: PermGroup, codes, caps: Caps) -> list[int]:
    """The g of ``codes`` that a hom from the one-generator A takes its
    generator to: those whose order divides the gcd of R's exponent sums."""
    a = gcd(*(r.exponent_sum() for r in A.relators))
    order_of = G.ambient(caps).order_of
    return [g for g in codes if a % order_of(g) == 0]


def radical_subgroup(F: FunctorSpec, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Kernel of the localization map, computed without building quotients."""
    if functor_kind(F) != EPIREFLECTION:
        raise UnsupportedFunctorError("only epireflections have a radical")
    return functor_subgroup(F, G, caps)


def functor_subgroup(F: FunctorSpec, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The subgroup W that F picks in G: T_A(G) for a subfunctor, the radical
    of an epireflection.  Flatness and induced maps of permutation groups
    read F through W alone.  W is memoised on G per (F, caps), as the rules
    below run cap-guarded steps.  Every rule first lists G under the caps,
    as a memo hit does, so no verdict depends on which rule or call came
    first.  The product rule reads W of a direct product P = A x B
    (``_factors``, a ``permgroup._Subdirect``) off its factors; every other
    G, a fiber product included, takes the rule of F's family, the family
    rule.  Pair codes are a * |B's ambient| + b.

    Product.  W(A x B) = W(A) x W(B), read off the factors' memoised W (a
    trivial factor is its own W).

    - Every epireflection in the cast gives the least normal N with G/N in
      a class C closed under subgroups and finite products: a variety
      (abelianization, nilpotent quotients) or the f-local groups of an
      epimorphism f (a localization of several conditions is L_f for their
      free product; Casacuberta, Rodríguez & Scevenels, 1999).  Then
      (A x B)/(W(A) x W(B)) = A/W(A) x B/W(B) lies in C, so
      W(A x B) <= W(A) x W(B).  A/(A n W(A x B)) embeds in
      (A x B)/W(A x B), so it lies in C and W(A) <= W(A x B); likewise
      W(B) <= W(A x B), so W(A) x W(B) <= W(A x B).
    - For T_C, C a presentation, Hom(C, A x B) = Hom(C, A) x Hom(C, B):
      the homs (phi, 1) and (1, psi) give T_C(A) x T_C(B), which holds the
      image (phi(x), psi(x)) of every generator x under every hom.

    A pullback's flatness verdict reads its facts about W(P) off E_H and X
    where it can (``extensions._fiber_facts``)."""
    key = ("radical", F, caps)  # G.memo, inlined, as every pullback verdict runs this
    W = G._memo.get(key)
    if W is None:
        W = G._memo[key] = _structure_rule(F, G, caps)
    else:
        G.codes(caps)
    return W


def _structure_rule(F: FunctorSpec, G: PermGroup, caps: Caps) -> PermGroup:
    """W by the product rule for a direct product, else by the family rule."""
    G.codes(caps)  # the order cap holds on G, not only on its factors
    factors = G._factors and G._factors.direct
    if factors:  # a trivial factor is its own W
        WA, WB = (H if len(H.codes(caps)) == 1 else functor_subgroup(F, H, caps) for H in factors)
        amb = G.ambient(caps)
        nb = amb.nb  # a product ambient; every code list below is sorted
        codes = [a * nb + b for a in WA.codes(caps) for b in WB.codes(caps)]
        return PermGroup._coded(amb, None, f"{WA.name}x{WB.name}", codes)
    if isinstance(F, GeneratedSubfunctor):
        return _generated_subgroup(F.source, G, caps)
    return _localization_radical(F, G, caps)


def _apply_perm(F: FunctorSpec, G: PermGroup, caps: Caps) -> tuple:
    """``apply``'s memo value on G for an epireflection, the quotient by its
    radical W: (G/W, W, the projection's code map)."""
    W = radical_subgroup(F, G, caps)
    Q, proj = quotient(G, W, caps)
    return Q, W, proj.code_map()


# -- application: abelian flavor ----------------------------------------------


def _epireflection(A: AbGroup, eta: AbHom) -> tuple:
    """``apply``'s memo value on A for an epireflection: (LA, the radical,
    eta's matrix), with None for LA when eta is the identity of A."""
    radical, _ = ab_kernel(eta)
    return None if eta.codomain is A else eta.codomain, radical, eta.matrix


def _word_image(w: Word, h, n: int) -> tuple[int, ...]:
    """w(h) in generator coordinates, for a hom h into an abelian group on n
    generators given by its generator images in blocks of n: on an abelian
    group w acts through its exponent sums."""
    image = [0] * n
    for sym, exp in w.letters:
        for a in range(n):
            image[a] += exp * h[sym * n + a]
    return tuple(image)


def _apply_abelian(F: FunctorSpec, A: AbGroup) -> tuple:
    if isinstance(F, GeneratedSubfunctor):
        # T_C(A) is spanned by the generator images of the homs C -> A, the
        # blocks of the columns of Hom(C, A)'s inclusion into A^k: the
        # values the loop below builds on its first pass for P_C.  For k = 1
        # the inclusion lands in A and is injective: Hom(C, A) is T_C(A)
        T, incl = abelian_hom_group(F.source, A)
        if incl.codomain is not A:
            n = A.ngens
            blocks = [h[i:i + n] for h in incl.matrix.columns() for i in range(0, len(h), n)]
            free = AbGroup(len(blocks), IntMatrix.zeros(len(blocks), 0))
            T, incl = ab_image(AbHom(free, A, IntMatrix.from_columns(blocks, n)))
        return T, None, incl.matrix
    if F.laws is not None:
        # the free-source rule: a law acts on an abelian group through its
        # exponent sums, so V_S(A) = gA, g their gcd; a class (an iterated
        # commutator) has none
        words = [w for w in F.laws if isinstance(w, Word)]
        g = gcd(*(sum(e for s, e in w.letters if s == i) for w in words for i in range(w.arity)))
        eta = AbHom.identity_hom(A) if g == 0 else ab_quotient(A, IntMatrix.scalar(A.ngens, g))[1]
        return _epireflection(A, eta)
    # quotient by the images s(h) of the homs h : A -> L, s in S, until they
    # all vanish in L
    eta = AbHom.identity_hom(A)
    while True:
        L, cols = eta.codomain, []
        for source, S in F.conditions:
            homs = abelian_hom_group(source, L)[1].matrix.columns()
            cols += [_word_image(w, h, L.ngens) for w in S for h in homs]
        if all(solve_in_column_lattice(L.snf, c) is not None for c in cols):
            return _epireflection(A, eta)
        eta = eta.then(ab_quotient(L, IntMatrix.from_columns(cols, L.ngens))[1])


def apply(F: FunctorSpec, G, caps: Caps = DEFAULT_CAPS) -> LocalizedResult:
    """Apply the functor; epireflections yield eta: G ->> LG with its radical,
    a subfunctor yields an inclusion.

    The memo on G keeps the result, the radical and eta's code map or
    matrix, none of which references G (a permutation subfunctor's
    subgroup is memoised by ``functor_subgroup``), and eta is built around
    G on each call, unchecked, as the memo holds a hom verified between the
    same two groups: so a group that holds its own result dies by reference
    count.  A permutation group's memo is kept per caps, as the radical's
    rule runs cap-guarded steps."""
    if isinstance(G, PermGroup):
        if functor_kind(F) == SUBFUNCTOR:
            S = functor_subgroup(F, G, caps)
            return LocalizedResult(F, G, S, GroupHom.inclusion(S, G, caps), None, SUBFUNCTOR)
        L, W, mapping = G.memo(("apply", F, caps), lambda: _apply_perm(F, G, caps), caps)
        proj = GroupHom._from_codes(G, L, L.gen_codes(caps), caps, mapping=mapping, kernel=W)
        return LocalizedResult(F, G, L, proj, W, EPIREFLECTION)
    if isinstance(G, AbGroup):
        L, W, matrix = G.memo(("apply", F), lambda: _apply_abelian(F, G))
        if W is None:
            return LocalizedResult(F, G, L, AbHom._from_matrix(L, G, matrix), None, SUBFUNCTOR)
        L = G if L is None else L
        return LocalizedResult(F, G, L, AbHom._from_matrix(G, L, matrix), W, EPIREFLECTION)
    raise UnsupportedFunctorError(f"cannot apply a functor to {type(G).__name__}")


# -- induced maps -------------------------------------------------------------


def induce(F: FunctorSpec, f, caps: Caps = DEFAULT_CAPS):
    """The induced map F(dom) -> F(cod); raises on a naturality violation
    (which would indicate an implementation bug, not a data error)."""
    Ldom = apply(F, f.domain, caps)
    Lcod = apply(F, f.codomain, caps)
    if isinstance(f, GroupHom):
        fmap = f.code_map()
        epi = functor_kind(F) == EPIREFLECTION
        w_cod = functor_subgroup(F, f.codomain, caps).code_set(caps)
        if any(fmap[x] not in w_cod for x in functor_subgroup(F, f.domain, caps).codes(caps)):
            raise FlatlabError(
                f"induced map undefined: {'radical' if epi else 'subfunctor'} not preserved"
            )
        if not epi:  # the restriction of f to the subgroups
            images = [fmap[g] for g in Ldom.result.gen_codes(caps)]
            return GroupHom._from_codes(Ldom.result, Lcod.result, images, caps)
        eta = Lcod.eta.code_map()
        images = [eta[fmap[g]] for g in f.domain.gen_codes(caps)]
        # LG's generators are the eta-images of G's, so the square
        # eta_cod f = induced eta_dom holds on G's generators by
        # definition; both sides are homs, so it holds on all of G
        return GroupHom._from_codes(Ldom.result, Lcod.result, images, caps)
    if isinstance(f, AbHom):
        if functor_kind(F) == EPIREFLECTION:
            # all abelian epireflection results reuse the source generators,
            # so well-definedness of f on the extended relations IS naturality
            try:
                return AbHom(Ldom.result, Lcod.result, f.matrix)
            except InvalidHomomorphismError as exc:
                raise FlatlabError(
                    f"induced map undefined: radical not preserved ({exc})"
                ) from None
        # subfunctor: solve incl_cod * M = f * incl_dom modulo codomain relations
        sol = solve_columns(
            Lcod.eta.matrix.hstack(f.codomain.relations), f.matrix * Ldom.eta.matrix
        )
        if sol is None:
            raise FlatlabError("induced map undefined: subfunctor not preserved")
        return AbHom(Ldom.result, Lcod.result, sol.row_slice(0, Lcod.result.ngens))
    raise UnsupportedFunctorError(f"cannot induce along {type(f).__name__}")


# -- locality -----------------------------------------------------------------


class TestMap:
    """A homomorphism phi: A -> B between finitely presented groups, given by
    a word in B's generators for each generator of A.  Locality of a group X
    means precomposition Hom(B, X) -> Hom(A, X) is a bijection."""

    __test__ = False  # not a pytest class; "test map" is the domain term

    def __init__(self, domain_pres: Presentation, codomain_pres: Presentation,
                 images: tuple[Word, ...] | list[Word], name: str = "phi",
                 caps: Caps = DEFAULT_CAPS):
        images = tuple(images)
        if len(images) != len(domain_pres.generators):
            raise ValueError("one image word per domain generator required")
        for w in images:
            if w.arity > len(codomain_pres.generators):
                raise ValueError("image word uses undeclared codomain generators")
        B = realize_presentation(codomain_pres, caps)
        ident = B.identity()
        b_images = tuple(w.evaluate(B.generators, ident) for w in images)
        for rel in domain_pres.relators:
            if not rel.evaluate(b_images, ident).is_identity():
                raise ValueError(
                    f"relator {rel.text(domain_pres.generators)} is not killed: "
                    "phi is not a homomorphism"
                )
        self.domain_pres, self.codomain_pres = domain_pres, codomain_pres
        self.images, self.name = images, name

    def describe(self) -> str:
        dom = ",".join(self.domain_pres.generators)
        cod = ",".join(self.codomain_pres.generators)
        imgs = ",".join(w.text(self.codomain_pres.generators) for w in self.images)
        return f"{self.name}: <{dom}> -> <{cod}>, [{imgs}]"


def standard_quasi_c4_c2() -> tuple[TestMap, QuasiVarietyReflection]:
    """The projection C4 -> C2 with its quasi-variety reflection
    (condition x^4, imposition x^2)."""
    x = Word.generator(0)
    dom = Presentation(("x",), (x**4,))
    cod = Presentation(("y",), (x**2,))
    phi = TestMap(dom, cod, (x,), name="phi:C4->C2")
    F = QuasiVarietyReflection(((x**4, x**2),))
    return phi, F


class LocalityReport:
    def __init__(self, group: str, test_map: str, hom_count_b: int, hom_count_a: int,
                 is_local: bool, witness: str | None):
        self.group, self.test_map, self.is_local, self.witness = group, test_map, is_local, witness
        self.hom_count_b, self.hom_count_a = hom_count_b, hom_count_a

    def verdict(self) -> str:
        return "local" if self.is_local else "not local"


def is_local_wrt(X, phi: TestMap, caps: Caps = DEFAULT_CAPS) -> LocalityReport:
    """Is precomposition with phi a bijection Hom(B, X) -> Hom(A, X)?"""
    if isinstance(X, PermGroup):
        return _is_local_perm(X, phi, caps)
    if isinstance(X, AbGroup):
        return _is_local_abelian(X, phi, caps)
    raise UnsupportedFunctorError(f"cannot test locality of {type(X).__name__}")


def _is_local_perm(X: PermGroup, phi: TestMap, caps: Caps) -> LocalityReport:
    amb = X.ambient(caps)
    return _locality_report(
        X,
        phi,
        hom_image_codes(phi.codomain_pres, X, caps),
        hom_image_codes(phi.domain_pres, X, caps),
        lambda hb: tuple(amb.evaluate(w, hb) for w in phi.images),
        lambda images: "[" + ",".join(amb.decode(c).cycle_string() for c in images) + "]",
        ("codomain homs ", ""),
    )


def _is_local_abelian(X: AbGroup, phi: TestMap, caps: Caps) -> LocalityReport:
    n = X.ngens

    def homs(pres: Presentation) -> list[tuple]:
        # each hom as the tuple of its generator images in X
        H, incl = abelian_hom_group(pres, X)
        k = len(pres.generators)
        raw = [incl.matrix.matvec(H.lift(t)) for t in H.elements(caps)]
        return [tuple(X.from_raw(v[i * n:i * n + n]) for i in range(k)) for v in raw]

    def restrict(hb: tuple) -> tuple:
        h = [c for y in hb for c in X.lift(y)]
        return tuple(X.from_raw(_word_image(w, h, n)) for w in phi.images)

    return _locality_report(
        X,
        phi,
        homs(phi.codomain_pres),
        sorted(set(homs(phi.domain_pres))),
        restrict,
        lambda h: ",".join(map(X.format_element, h)),
        ("", "generator -> " if len(phi.domain_pres.generators) == 1 else "generators -> "),
    )


def _locality_report(
    X, phi: TestMap, maps_b, maps_a, restrict, fmt, labels: tuple[str, str]
) -> LocalityReport:
    """Precomposition maps_b -> maps_a is a bijection iff no two maps from B
    restrict to the same map from A and every map from A is a restriction;
    ``labels`` prefix the collision and the uncovered witness."""
    seen: dict = {}
    witness = None
    for hb in maps_b:
        ha = restrict(hb)
        if ha in seen:
            witness = (
                f"collision: {labels[0]}{fmt(seen[ha])} and {fmt(hb)} "
                "pull back to the same map"
            )
            break
        seen[ha] = hb
    else:
        for ha in maps_a:
            if ha not in seen:
                witness = f"uncovered: {labels[1]}{fmt(ha)} is not a pullback of any hom"
                break
    return LocalityReport(
        X.describe(), phi.describe(), len(maps_b), len(maps_a), witness is None, witness
    )


# -- acyclicity and idempotency ------------------------------------------------


def is_acyclic(F: FunctorSpec, X, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff applying the epireflection kills X entirely."""
    if functor_kind(F) != EPIREFLECTION:
        raise UnsupportedFunctorError("acyclicity is an epireflection notion")
    if isinstance(X, PermGroup):
        return radical_subgroup(F, X, caps).order(caps) == X.order(caps)
    return apply(F, X, caps).result.is_trivial()


class IdempotencyReport:
    def __init__(self, functor: str, first_order: int | None, second_order: int | None,
                 idempotent: bool, detail: str):
        self.functor, self.first_order, self.second_order = functor, first_order, second_order
        self.idempotent, self.detail = idempotent, detail


def idempotency_check(F: FunctorSpec, G, caps: Caps = DEFAULT_CAPS) -> IdempotencyReport:
    """For L_f on a free source (a variety, abelianization and nilpotent
    quotients among them) on a permutation group: compare its radical WG,
    the verbal subgroup, with the radical of WG as a standalone group.
    Otherwise: apply twice and compare."""
    if F.laws is not None and isinstance(G, PermGroup):
        WG = radical_subgroup(F, G, caps)
        WWG = radical_subgroup(F, PermGroup(WG.degree, WG.generators, name="WG"), caps)
        same = WG.element_set(caps) == WWG.element_set(caps)
        o1, o2 = WG.order(caps), WWG.order(caps)
        detail = f"|WG| = {o1}, |W(WG)| = {o2}"
    else:
        L = apply(F, G, caps).result
        LL = apply(F, L, caps).result
        if isinstance(G, PermGroup):
            o1, o2 = L.order(caps), LL.order(caps)
            same = o1 == o2
        else:
            o1, o2 = L.order(), LL.order()
            same = L.canonical_invariants() == LL.canonical_invariants()
        detail = f"|LG| = {o1}, |LLG| = {o2}"
    return IdempotencyReport(F.describe(), o1, o2, same, detail)
