"""The cast of group endofunctors: variety reflections, nilpotent quotients,
abelianization, nullifications, quasi-variety reflections, and the
order-p-generated subgroup subfunctor — with localization maps, induced maps,
locality and acyclicity tests.

Epireflections return a surjective structure map eta with its kernel (the
radical); the subfunctor returns an inclusion.  All functors apply to finite
permutation groups; the abelian flavor supports every variety word (words
collapse to exponent sums), quasi-variety rules, S_p as p-torsion, and
nullification at a finite cyclic group.

The nullification radical at a solvable target H is generated by the
pi-elements of G, pi the primes dividing |H^ab| (Cauchy's theorem), and is
all of G when H^ab has a Z summand.  H is solvable when its presentation is
abelian or its Todd-Coxeter realization has a derived series reaching 1;
any other target runs the preimage chain.
"""

from __future__ import annotations

from functools import cache
from math import gcd, prod
from typing import Union

from .abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_kernel,
    n_torsion,
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
from .verbal import (
    derived_subgroup,
    is_prime,
    lower_central_series,
    s_p_subgroup,
    verbal_subgroup,
)
from .words import Presentation, Word, _split_top_level, parse_word


# -- functor specifications --------------------------------------------------


class _Spec:
    """A functor specification: immutable, and equal and hashed by ``_key``,
    the tuple of its parameters, since specs are the memo keys of radicals."""

    __slots__ = ("_key",)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class Variety(_Spec):
    __slots__ = ("words",)

    def __init__(self, words: tuple[Word, ...]):
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_key", (words,))

    def describe(self) -> str:
        return f"variety({','.join(w.text() for w in self.words)})"


class NilpotentQuotient(_Spec):
    __slots__ = ("nilpotency_class",)

    def __init__(self, nilpotency_class: int):
        if nilpotency_class < 1:
            raise ValueError("nilpotency class must be >= 1")
        object.__setattr__(self, "nilpotency_class", nilpotency_class)
        object.__setattr__(self, "_key", (nilpotency_class,))

    def describe(self) -> str:
        return f"nilpotent(class={self.nilpotency_class})"


class Abelianization(_Spec):
    __slots__ = ()
    _key = ()  # no parameters

    def describe(self) -> str:
        return "abelianization"


class Nullification(_Spec):
    __slots__ = ("target",)

    def __init__(self, target: Presentation):
        if len(target.generators) > 3:
            raise UnsupportedFunctorError(
                "nullification target limited to <= 3 generators"
            )
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_key", (target,))

    def describe(self) -> str:
        gens = ",".join(self.target.generators)
        rels = ",".join(self.target.relator_texts())
        return f"nullification(<{gens}|{rels}>)"


class QuasiVarietyReflection(_Spec):
    __slots__ = ("rules",)

    def __init__(self, rules: tuple[tuple[Word, Word], ...]):
        for cond, imp in rules:
            if cond.arity > 1 or imp.arity > 1:
                raise UnsupportedFunctorError(
                    "quasi-variety rules must be one-variable words"
                )
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_key", (rules,))

    def describe(self) -> str:
        return "quasivariety(" + ";".join(
            f"{c.text()}=>{u.text()}" for c, u in self.rules
        ) + ")"


class SpSubfunctor(_Spec):
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise FlatlabError(f"{p} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_key", (p,))

    def describe(self) -> str:
        return f"sp(p={self.p})"


FunctorSpec = Union[
    Variety,
    NilpotentQuotient,
    Abelianization,
    Nullification,
    QuasiVarietyReflection,
    SpSubfunctor,
]

EPIREFLECTION = "epireflection"
SUBFUNCTOR = "subfunctor"


def functor_kind(F: FunctorSpec) -> str:
    return SUBFUNCTOR if isinstance(F, SpSubfunctor) else EPIREFLECTION


_PARAMETERS = {
    "abelianization": (),
    "nilpotent": ("class",),
    "variety": ("words",),
    "nullification": ("H",),
    "quasivariety": ("cond", "impose"),
    "sp": ("p",),
}


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
            words = tuple(
                parse_word(chunk)
                for chunk in _split_top_level(params["words"].strip()[1:-1])
            )
            return Variety(words)
        if kind == "nullification":
            H = parse_group_literal(params["H"])
            if H.presentation is None:
                raise FlatlabError("nullification target needs a presentation")
            return Nullification(H.presentation)
        if kind == "quasivariety":
            # one-variable rules are written in the single letter x
            def one_var(text: str) -> Word:
                try:
                    return parse_word(text, ("x",))
                except ValueError:
                    return parse_word(text)

            return QuasiVarietyReflection(
                ((one_var(params["cond"]), one_var(params["impose"])),)
            )
        return SpSubfunctor(int(params["p"]))  # the last kind left
    except KeyError as exc:
        raise ScenarioError(f"functor {kind} missing parameter {exc}", line) from None
    except ValueError as exc:
        raise ScenarioError(f"functor {kind}: {exc}", line) from None


class LocalizedResult:
    __slots__ = ("functor", "source", "result", "eta", "radical", "kind")

    def __init__(self, functor: FunctorSpec, source, result, eta, radical, kind: str):
        self.functor = functor
        self.source = source
        self.result = result
        self.eta = eta  # projection (epireflection) or inclusion (subfunctor)
        self.radical = radical  # kernel of eta, for epireflections; else None
        self.kind = kind


# -- application: permutation flavor -----------------------------------------


@cache
def _abelian_product_form(pres: Presentation) -> tuple[int, ...] | None:
    """Exponents n_i if pres is <x_1..x_k | x_i^{n_i}, all [x_i,x_j]>; the
    one reader of abelian presentations (empty relators are skipped)."""
    k = len(pres.generators)
    powers = {}
    pairs = set()
    for rel in pres.relators:
        if rel.is_empty():
            continue
        if len(rel.letters) == 1:
            sym, exp = rel.letters[0]
            powers[sym] = gcd(powers.get(sym, 0), abs(exp))
        else:
            found = None
            for i in range(k):
                for j in range(k):
                    if i != j and rel == Word.commutator(
                        Word.generator(i), Word.generator(j)
                    ):
                        found = frozenset((i, j))
            if found is None:
                return None
            pairs.add(found)
    if k > 1 and pairs != {
        frozenset((i, j)) for i in range(k) for j in range(i + 1, k)
    }:
        return None
    return tuple(powers.get(i, 0) for i in range(k))


def _cyclic_order_of_presentation(pres: Presentation) -> int | None:
    """n when pres presents C_n on one generator (0 for Z): the one-generator
    case of ``_abelian_product_form``."""
    form = _abelian_product_form(pres)
    return form[0] if form is not None and len(form) == 1 else None


def _preimage_chain(G: PermGroup, seeds_mod, caps: Caps) -> PermGroup:
    """Limit of N_0 = 1, N_(i+1) = <<N_i, seeds_mod(N_i)>>, computed inside G
    on codes without constructing any quotient group.

    N_i is normal, so <<N_i, seeds>> = N_i once every seed lies in N_i: the
    chain stops there, with no closure to confirm it.  Otherwise only the
    seeds outside N_i are conjugated, and the closure grows from N_i
    (``normal_closure_codes`` with ``start``)."""
    N = G.generate((), "1", caps)
    while (N2 := normal_closure_codes(G, seeds_mod(N), caps, start=N)) is not N:
        N = N2
    return N


def _hom_components(pres: Presentation, G: PermGroup, N: PermGroup, caps: Caps) -> set:
    """Every component of every hom from pres into G/N, lifted to coset
    representatives (validity and the generated subgroup mod N depend only
    on the cosets)."""
    reps, _ = right_cosets(G, N.codes(caps), caps)
    solutions = relator_solutions(pres, G, reps, N.code_set(caps), caps)
    return {y for images in solutions for y in images}


@cache
def _pi_exponent(pres: Presentation, caps: Caps) -> int | None:
    """An m whose prime divisors are pi, the primes dividing |H^ab|, for the
    presented group H: 0 (every prime) when H^ab has a Z summand, |H^ab| when
    H is certified finite and solvable, None otherwise.

    H^ab is Z^k modulo the relators' exponent sums: one Smith normal form.
    A free rank needs no realization, as H then maps onto Z and so onto
    every C_p.  An abelian H is solvable by ``_abelian_product_form``; any
    other H is realized by Todd-Coxeter coset enumeration (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, §5.1) and is
    solvable when its derived series reaches 1.  A perfect section (A5) or
    a realization beyond the caps gives None."""
    k = len(pres.generators)
    sums = [[0] * k for _ in pres.relators]
    for col, rel in zip(sums, pres.relators):
        for sym, exp in rel.letters:
            col[sym] += exp
    Hab = AbGroup(k, IntMatrix.from_columns(sums, k))
    if Hab.rank:
        return 0
    if _abelian_product_form(pres) is None:
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


def _nullification_radical(F: "Nullification", G: PermGroup, caps: Caps) -> PermGroup:
    """Smallest normal N with no nontrivial map from the target H into G/N.

    Let pi be the primes dividing |H^ab|, every prime when H^ab has a Z
    summand.  If H is solvable or H^ab has a Z summand, then Hom(H, Q) != 1
    for a finite Q exactly when Q has an element of some order p in pi.
    (<=) H maps onto C_p through H^ab, and C_p onto that element's subgroup.
    (=>) A nontrivial image M of H is solvable, so M^ab != 1; M^ab is a
    quotient of H^ab, so some p in pi divides |M|, and by Cauchy's theorem
    M has an element of order p.  (With a Z summand every prime is in pi.)
    By Cauchy again, N is the least normal subgroup with G/N a pi'-group:
    O^pi'(G), generated by the pi-elements of G.  They are closed under
    conjugation, so one closure gives N.

    A target not certified solvable (``_pi_exponent`` is None) runs the
    preimage chain on hom components.  Both routes give the same N, so no
    radical depends on the caps the target was realized under."""
    m = _pi_exponent(F.target, caps)
    if m is None:
        return _preimage_chain(G, lambda N: _hom_components(F.target, G, N, caps), caps)
    codes = G.codes(caps)
    # o divides m^o exactly when every prime factor of o divides m
    pi = [c for c, o in zip(codes, map(G.ambient(caps).order_of, codes)) if pow(m, o, o) == 0]
    return G.generate(pi, "ncl" if len(pi) > 1 else "1", caps)


def _quasivariety_radical(
    F: "QuasiVarietyReflection", G: PermGroup, caps: Caps
) -> PermGroup:
    """Preimage chain: keep adjoining u(g) whenever t(g) already dies.

    The pairs (t(g), u(g)) do not change along the chain, so they are
    evaluated once; each step only asks which t(g) lie in N."""
    evaluate = G.ambient(caps).evaluate
    pairs = {
        (evaluate(cond, (g,)), evaluate(imp, (g,)))
        for cond, imp in F.rules
        for g in G.codes(caps)
    }

    def imposed(N: PermGroup) -> set:
        n_set = N.code_set(caps)
        return {u for t, u in pairs if t in n_set}

    return _preimage_chain(G, imposed, caps)


def radical_subgroup(F: FunctorSpec, G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Kernel of the localization map, computed without building quotients."""
    if functor_kind(F) != EPIREFLECTION:
        raise UnsupportedFunctorError("only epireflections have a radical")

    def compute():
        if G.transport is not None:
            # a functor commutes with isomorphisms: carry the source's radical
            m = G.transport.code_map()
            R = radical_subgroup(F, G.transport.domain, caps)
            return G._sub([m[c] for c in R.codes(caps)], name=R.name)
        if isinstance(F, Variety):
            return verbal_subgroup(G, F.words, caps)
        if isinstance(F, Abelianization):
            return lower_central_series(G, 1, caps)[1]
        if isinstance(F, NilpotentQuotient):
            c = F.nilpotency_class
            return lower_central_series(G, c, caps)[c]
        if isinstance(F, Nullification):
            return _nullification_radical(F, G, caps)
        if isinstance(F, QuasiVarietyReflection):
            return _quasivariety_radical(F, G, caps)
        raise UnsupportedFunctorError(f"unknown functor {F!r}")

    return G.memo(("radical", F), compute, caps)


def _apply_perm(F: FunctorSpec, G: PermGroup, caps: Caps) -> LocalizedResult:
    if isinstance(F, SpSubfunctor):
        S = s_p_subgroup(G, F.p, caps)
        incl = GroupHom.inclusion(S, G, caps)
        return LocalizedResult(F, G, S, incl, None, SUBFUNCTOR)
    # every epireflection is the quotient by its radical
    W = radical_subgroup(F, G, caps)
    Q, proj = quotient(G, W, caps)
    return LocalizedResult(F, G, Q, proj, W, EPIREFLECTION)


# -- application: abelian flavor ----------------------------------------------


def _epireflection(F, A: AbGroup, eta: AbHom) -> LocalizedResult:
    radical, _ = ab_kernel(eta)
    return LocalizedResult(F, A, eta.codomain, eta, radical, EPIREFLECTION)


def _quotient_by_columns(A: AbGroup, extra: IntMatrix) -> AbHom:
    """The projection of A onto its quotient by extra's columns."""
    Q = AbGroup(A.ngens, A.relations.hstack(extra), name=None)
    return AbHom(A, Q, IntMatrix.identity(A.ngens))


def _iterated_quotient(F, A: AbGroup, relations_to_impose) -> LocalizedResult:
    """Quotient A step by step by the columns relations_to_impose(current
    group) returns, until it returns None."""
    eta = AbHom.identity_hom(A)
    while (extra := relations_to_impose(eta.codomain)) is not None:
        eta = eta.then(_quotient_by_columns(eta.codomain, extra))
    return _epireflection(F, A, eta)


def _apply_abelian(F: FunctorSpec, A: AbGroup, caps: Caps) -> LocalizedResult:
    if isinstance(F, (Abelianization, NilpotentQuotient, Variety)):
        # on abelian groups a word acts through its exponent sums; iterated
        # commutators have zero exponent sums
        g = 0
        if isinstance(F, Variety):
            for w in F.words:
                sums = [0] * max(w.arity, 0)
                for sym, exp in w.letters:
                    sums[sym] += exp
                for total in sums:
                    g = gcd(g, abs(total))
        if g == 0:
            return _epireflection(F, A, AbHom.identity_hom(A))
        return _epireflection(F, A, _quotient_by_columns(A, IntMatrix.scalar(A.ngens, g)))
    if isinstance(F, QuasiVarietyReflection):

        def unmet_rule(cur: AbGroup) -> IntMatrix | None:
            for cond, imp in F.rules:
                a = abs(cond.exponent_sum())
                b = imp.exponent_sum()
                if a == 0:
                    imposed = IntMatrix.scalar(cur.ngens, b)
                else:
                    _, incl = n_torsion(cur, a)
                    imposed = IntMatrix(
                        [[b * x for x in row] for row in incl.matrix.entries],
                        cols=incl.matrix.cols,
                    )
                if any(solve_in_column_lattice(cur.snf, c) is None for c in imposed.columns()):
                    return imposed
            return None

        return _iterated_quotient(F, A, unmet_rule)
    if isinstance(F, Nullification):
        n = _cyclic_order_of_presentation(F.target)
        if n is None or n == 0:
            raise UnsupportedFunctorError(
                "abelian nullification needs a finite cyclic target"
            )

        def n_torsion_columns(cur: AbGroup) -> IntMatrix | None:
            T, incl = n_torsion(cur, n)
            return None if T.is_trivial() else incl.matrix

        return _iterated_quotient(F, A, n_torsion_columns)
    if isinstance(F, SpSubfunctor):
        T, incl = n_torsion(A, F.p)
        return LocalizedResult(F, A, T, incl, None, SUBFUNCTOR)
    raise UnsupportedFunctorError(f"unknown functor {F!r}")


def apply(F: FunctorSpec, G, caps: Caps = DEFAULT_CAPS) -> LocalizedResult:
    """Apply the functor; epireflections yield eta: G ->> LG with its radical,
    the subfunctor yields an inclusion."""
    if isinstance(G, PermGroup):
        return G.memo(("apply", F), lambda: _apply_perm(F, G, caps), caps)
    if isinstance(G, AbGroup):
        return G.memo(("apply", F), lambda: _apply_abelian(F, G, caps))
    raise UnsupportedFunctorError(f"cannot apply a functor to {type(G).__name__}")


# -- induced maps -------------------------------------------------------------


def induce(F: FunctorSpec, f, caps: Caps = DEFAULT_CAPS):
    """The induced map F(dom) -> F(cod); raises on a naturality violation
    (which would indicate an implementation bug, not a data error)."""
    Ldom = apply(F, f.domain, caps)
    Lcod = apply(F, f.codomain, caps)
    if isinstance(f, GroupHom):
        fmap = f.code_map()
        if functor_kind(F) == EPIREFLECTION:
            rad_cod = Lcod.radical.code_set(caps)
            if any(fmap[x] not in rad_cod for x in Ldom.radical.codes(caps)):
                raise FlatlabError("induced map undefined: radical not preserved")
            eta = Lcod.eta.code_map()
            images = [eta[fmap[g]] for g in f.domain.gen_codes(caps)]
            # LG's generators are the eta-images of G's, so the square
            # eta_cod f = induced eta_dom holds on G's generators by
            # definition; both sides are homs, so it holds on all of G
            return GroupHom._from_codes(Ldom.result, Lcod.result, images, caps)
        sub_cod = Lcod.result.code_set(caps)
        if any(fmap[x] not in sub_cod for x in Ldom.result.codes(caps)):
            raise FlatlabError("induced map undefined: subfunctor not preserved")
        images = [fmap[g] for g in Ldom.result.gen_codes(caps)]
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

    def __init__(
        self,
        domain_pres: Presentation,
        codomain_pres: Presentation,
        images: tuple[Word, ...] | list[Word],
        name: str = "phi",
        caps: Caps = DEFAULT_CAPS,
    ):
        images = tuple(images)
        if len(images) != len(domain_pres.generators):
            raise ValueError("one image word per domain generator required")
        for w in images:
            if w.arity > len(codomain_pres.generators):
                raise ValueError("image word uses undeclared codomain generators")
        B = realize_presentation(codomain_pres, caps)
        b_images = tuple(
            w.evaluate(B.generators, B.identity()) for w in images
        )
        ident = B.identity()
        for rel in domain_pres.relators:
            if not rel.evaluate(b_images, ident).is_identity():
                raise ValueError(
                    f"relator {rel.text(domain_pres.generators)} is not killed: "
                    "phi is not a homomorphism"
                )
        self.domain_pres = domain_pres
        self.codomain_pres = codomain_pres
        self.images = images
        self.name = name

    def as_cyclic(self) -> tuple[int, int, int] | None:
        """(m, n, k) when phi is C_m -> C_n, x -> y^k with m, n finite."""
        m = _cyclic_order_of_presentation(self.domain_pres)
        n = _cyclic_order_of_presentation(self.codomain_pres)
        if m is None or n is None or m == 0 or n == 0:
            return None
        k = self.images[0].exponent_sum() % n if self.images else 0
        return (m, n, k)

    def describe(self) -> str:
        dom = ",".join(self.domain_pres.generators)
        cod = ",".join(self.codomain_pres.generators)
        imgs = ",".join(
            w.text(self.codomain_pres.generators) for w in self.images
        )
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
        self.group = group
        self.test_map = test_map
        self.hom_count_b = hom_count_b
        self.hom_count_a = hom_count_a
        self.is_local = is_local
        self.witness = witness

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
    cyc = phi.as_cyclic()
    if cyc is None:
        raise CapExceededError(
            "abelian locality testing needs a finite cyclic test map"
        )
    m, n, k = cyc
    Tn, incl_n = n_torsion(X, n)
    Tm, incl_m = n_torsion(X, m)
    return _locality_report(
        X,
        phi,
        [incl_n.apply(t) for t in Tn.elements(caps)],
        sorted({incl_m.apply(t) for t in Tm.elements(caps)}),
        lambda v: X.scale(k, v),
        X.format_element,
        ("", "generator -> "),
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
        self.functor = functor
        self.first_order = first_order
        self.second_order = second_order
        self.idempotent = idempotent
        self.detail = detail


def idempotency_check(F: FunctorSpec, G, caps: Caps = DEFAULT_CAPS) -> IdempotencyReport:
    """For varieties: compare WG with W applied to WG as a standalone group.
    For other functors: apply twice and compare."""
    if isinstance(F, (Variety, Abelianization, NilpotentQuotient)):
        if isinstance(F, Variety):
            words = F.words
        elif isinstance(F, Abelianization):
            words = (Word.lcs_word(1),)
        else:
            words = (Word.lcs_word(F.nilpotency_class),)
        WG = verbal_subgroup(G, words, caps)
        standalone = PermGroup(WG.degree, WG.generators, name="WG")
        WWG = verbal_subgroup(standalone, words, caps)
        same = WG.element_set(caps) == WWG.element_set(caps)
        return IdempotencyReport(
            F.describe(),
            WG.order(caps),
            WWG.order(caps),
            same,
            f"|WG| = {WG.order(caps)}, |W(WG)| = {WWG.order(caps)}",
        )
    first = apply(F, G, caps)
    second = apply(F, first.result, caps)
    if isinstance(G, PermGroup):
        o1, o2 = first.result.order(caps), second.result.order(caps)
        same = o1 == o2
    else:
        o1 = first.result.order()
        o2 = second.result.order()
        same = (
            first.result.canonical_invariants()
            == second.result.canonical_invariants()
        )
    return IdempotencyReport(
        F.describe(),
        o1,
        o2,
        same,
        f"|LG| = {o1}, |LLG| = {o2}",
    )
