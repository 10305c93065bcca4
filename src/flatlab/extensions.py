"""Extensions, pullbacks of extensions, flatness verdicts, conditional
flatness probes, and the certification engine for the local-pullback
counterexample construction.

An extension K -> E -> G, in either group flavor, is fixed by its
surjection E -> G: K is the kernel with its inclusion, so the sequence is
exact by construction and only surjectivity is checked.  Flatness of a
functor on an extension is decided by exact element/lattice computation
and reported with explicit witnesses locating the failing flag (left
injectivity, middle exactness, right surjectivity).
"""

from __future__ import annotations

from .abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_cokernel,
    ab_kernel,
    ab_pullback,
    abelian_hom_group,
    enumerate_ab_homs,
    image_lattice_basis,
    kernel_lattice_basis,
    perm_to_abelian,
    smith_normal_form,
    solve_columns,
    solve_in_column_lattice,
)
from .caps import DEFAULT_CAPS, Caps
from .errors import (
    FlatlabError,
    FlavorMismatchError,
    NotSurjectiveError,
)
from .functors import (
    EPIREFLECTION,
    FunctorSpec,
    GeneratedSubfunctor,
    LocalityReport,
    TestMap,
    apply,
    functor_kind,
    functor_subgroup,
    generator_images,
    induce,
    is_local_wrt,
)
from .homs import enumerate_homs, hom_image_codes
from .permgroup import (
    GroupHom,
    PermGroup,
    find_isomorphism,
    normal_subgroups,
    pullback_group,
    quotient,
)

PERM = "permutation"
ABELIAN = "abelian"


class Extension:
    """The extension K >-> E ->> G fixed by its surjection ``proj``: E ->> G.

    K is the kernel of ``proj`` and ``iota`` its inclusion: ``proj.kernel()``,
    which lives in E's ambient, so that iota is the identity on codes, or
    ``ab_kernel(proj)``, whose inclusion matrix is a basis of the kernel
    lattice.  The sequence is then exact by definition; only surjectivity is
    checked (NotSurjectiveError), besides the inclusion's generator check:

    - iota is injective, being an inclusion;
    - iota(K) = K = ker(proj), as K is that kernel;
    - K is normal in E, being the kernel of a homomorphism.
    """

    def __init__(self, proj, name: str | None = None, caps: Caps = DEFAULT_CAPS):
        if isinstance(proj, GroupHom):
            self.flavor = PERM
            K = proj.kernel()
            if K.name is None:
                K = K.named("ker", caps)
            iota = GroupHom.inclusion(K, proj.domain, caps)
        elif isinstance(proj, AbHom):
            self.flavor = ABELIAN
            K, iota = ab_kernel(proj)
        else:
            raise FlavorMismatchError(f"not a homomorphism: {type(proj).__name__}")
        if not proj.is_surjective():
            raise NotSurjectiveError("extension projection is not surjective")
        self.kernel_group = K
        self.total = proj.domain
        self.base = proj.codomain
        self.iota = iota
        self.proj = proj
        self.name = name

    @classmethod
    def _pulled_back(cls, proj: GroupHom, caps: Caps) -> "Extension":
        """The extension of a pullback's projection pr_x : P ->> X, trusted
        for the two checks ``__init__`` runs: pr_x is onto because the
        pulled-back projection is, and its kernel K', named "ker", is listed
        in P's ambient from pairs of P, so iota is an inclusion with no
        membership to check."""
        ext = cls.__new__(cls)
        K = proj.kernel()
        ext.flavor, ext.kernel_group, ext.total, ext.base = PERM, K, proj.domain, proj.codomain
        ext.iota = GroupHom._from_codes(K, proj.domain, K.gen_codes(caps), caps, image=K)
        ext.proj, ext.name = proj, None
        return ext

    def describe(self) -> str:
        if self.name:
            return self.name
        return (
            f"{self.kernel_group.describe()} -> {self.total.describe()} -> "
            f"{self.base.describe()}"
        )

    def __repr__(self) -> str:
        return f"Extension({self.describe()})"


def extension_from_normal_subgroup(
    G: PermGroup, N: PermGroup, caps: Caps = DEFAULT_CAPS
) -> Extension:
    """N -> G -> G/N; an unnamed N is named by its order, on a copy, so the
    caller's N keeps its name."""
    if N.name in (None, "ncl"):
        N = N.named(f"N{N.order(caps)}", caps)
    return Extension(quotient(G, N, caps)[1], caps=caps)


def extensions_from_group(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[Extension]:
    """One extension N -> G -> G/N per normal subgroup N.

    Built once per (G, caps) and kept on G, so every functor probed on G
    shares the extensions, their bases and the homs into those bases; each
    call returns a new list of the same extensions.  The caps are in the key
    because each extension's maps keep the caps they were built with."""
    return list(G.memo(("extensions", caps), lambda: tuple(
        extension_from_normal_subgroup(G, N, caps) for N in normal_subgroups(G, caps)
    ), caps))


# -- pullback of an extension -------------------------------------------------


class PulledBackExtension:
    """A pulled-back extension with the canonical map from the source
    extension's kernel K; in the permutation flavor the map is built on
    first read."""

    __slots__ = ("extension", "_canonical", "_source")

    def __init__(self, extension: Extension, canonical_kernel_map=None, source=None):
        self.extension = extension
        self._canonical = canonical_kernel_map  # K -> P, an isomorphism onto ker(P -> X)
        self._source = source  # (the source extension, caps), to build it

    @property
    def canonical_kernel_map(self):
        if self._canonical is None:
            ext, caps = self._source
            K, P = ext.kernel_group, self.extension.total
            nx = P.ambient(caps).nb
            self._canonical = GroupHom._from_codes(
                K, P, [k * nx for k in K.gen_codes(caps)], caps,
                mapping={k: k * nx for k in K.codes(caps)},
            )
        return self._canonical


def pullback_extension(ext: Extension, f, caps: Caps = DEFAULT_CAPS) -> PulledBackExtension:
    """Pull K -> E -> G back along f: X -> G; the canonical map identifies
    the kernel of the new extension with K.

    In both flavors the canonical map k -> (iota k, 1), (iota k, 0) in the
    abelian flavor, is an isomorphism onto K' = ker(P -> X) by construction
    and is not checked.  Its image is iota(K) x 1 = ker(E -> G) x 1 =
    {(e, 1) in P} = K', and it is injective, because iota is the inclusion
    of ker(E -> G) (see :class:`Extension`).

    For permutation groups K lives in E's ambient, so the map is
    k -> (k, 1), pair code k * |X's ambient|, built when it is first read,
    and K' is the kernel ``pullback_group`` lists and records as K x 1.
    The new extension is built by ``Extension._pulled_back``.  For abelian
    groups the map is solved in P's basis; a (iota k, 0) outside P would be
    a bug, and raises."""
    if ext.flavor == PERM:
        if not isinstance(f, GroupHom):
            raise FlavorMismatchError("permutation extension needs a GroupHom leg")
        _, pr_x = pullback_group(ext.proj, f, caps)
        return PulledBackExtension(Extension._pulled_back(pr_x, caps), source=(ext, caps))
    if not isinstance(f, AbHom):
        raise FlavorMismatchError("abelian extension needs an AbHom leg")
    P, pr_e, pr_x = ab_pullback(ext.proj, f)
    # canonical K -> P: k maps to (iota k, 0), solved in P's inclusion basis
    iota = ext.iota.matrix
    block = IntMatrix(pr_e.matrix.entries + pr_x.matrix.entries, cols=P.ngens).hstack(
        IntMatrix.diag_blocks(ext.total.relations, f.domain.relations)
    )
    zero = ((0,) * iota.cols,) * f.domain.ngens
    sol = solve_columns(block, IntMatrix(iota.entries + zero, cols=iota.cols))
    if sol is None:
        raise FlatlabError("canonical kernel map does not land in the pullback")
    canonical = AbHom(ext.kernel_group, P, sol.row_slice(0, P.ngens))
    return PulledBackExtension(Extension(pr_x, caps=caps), canonical)


def pullback_along_localization(
    F: FunctorSpec, ext: Extension, G, caps: Caps = DEFAULT_CAPS
) -> PulledBackExtension:
    """Pull an extension over LG back along the localization map of G.

    Convenience probe: the interesting pullbacks all arise this way, since
    any map into the base factors through its localization.  The extension's
    base must be the localization of G (same object, or isomorphic; the leg
    is aligned through the canonical identification).
    """
    eta = _onto(
        apply(F, G, caps).eta, ext.base, caps,
        "extension base is not the localization of the given group",
    )
    return pullback_extension(ext, eta, caps)


# -- flatness ------------------------------------------------------------------


class FlatnessReport:
    __slots__ = ("functor", "extension", "left_injective", "middle_exact", "right_surjective",
                 "witnesses")

    def __init__(self, functor: str, extension: str, left_injective: bool, middle_exact: bool,
                 right_surjective: bool, witnesses: dict[str, str]):
        self.functor = functor
        self.extension = extension
        self.left_injective = left_injective
        self.middle_exact = middle_exact
        self.right_surjective = right_surjective
        self.witnesses = witnesses

    @property
    def is_right_exact(self) -> bool:
        return self.middle_exact and self.right_surjective

    @property
    def is_flat(self) -> bool:
        return self.left_injective and self.is_right_exact

    def to_dict(self) -> dict:
        return {
            "functor": self.functor,
            "extension": self.extension,
            "left_injective": self.left_injective,
            "middle_exact": self.middle_exact,
            "right_surjective": self.right_surjective,
            "is_flat": self.is_flat,
            "witnesses": dict(sorted(self.witnesses.items())),
        }


def check_flatness(F: FunctorSpec, ext: Extension, caps: Caps = DEFAULT_CAPS) -> FlatnessReport:
    """Decide whether F(K) -> F(E) -> F(G) is again an extension, with
    witnesses at the failing flag."""
    if ext.flavor == PERM:
        return _flatness_perm(F, ext, caps)
    return _flatness_abelian(F, ext, caps)


def _flatness_perm(F, ext: Extension, caps: Caps) -> FlatnessReport:
    """The flags from two facts about the subgroups W that F picks
    (``functor_subgroup``), inner = (K n W(E)) - W(K) and proj(W(E)): read
    off the source of a pullback (``_fiber_facts``), or by set algebra on
    codes.  Elements are scanned only to name the witness of a failing
    flag.  K = ker(proj) lives in E's ambient, so iota is the identity on
    codes.  Naturality gives W(K) <= W(E) and proj(W(E)) <= W(G), both
    checked, so onto, |proj(W(E))| = |W(G)|, is proj(W(E)) = W(G).

    Epireflection, F = G/W.  Left: K/W(K) -> E/W(E) is injective iff
    K n W(E) lies in W(K), i.e. iff inner is empty.  Middle: K and W(E) are
    normal, so K W(E) is the preimage of proj(W(E)), and the sequence is
    exact in the middle iff every e with proj(e) in W(G) has proj(e) in
    proj(W(E)), i.e. iff W(G) lies in proj(W(E)), proj being onto
    (``Extension`` checks it): that is onto.  Right: the induced map of a
    surjection on quotients is surjective.

    Subfunctor, F = W.  Left: a restriction of an injective map is
    injective.  Middle: the kernel of W(E) -> W(G) is W(E) n K, and the
    image of W(K) is W(K) itself, so exactness is inner being empty.
    Right: W(E) -> W(G) is onto iff onto holds."""
    facts = _fiber_facts(F, ext, caps)
    if facts == ((), None):  # inner empty, onto
        return FlatnessReport(F.describe(), ext.describe(), True, True, True, {})
    K, total, proj = ext.kernel_group, ext.total, ext.proj.code_map()
    epi = functor_kind(F) == EPIREFLECTION
    if facts is None:  # the set algebra on W(P)
        wk = functor_subgroup(F, K, caps).code_set(caps)
        we = functor_subgroup(F, total, caps).code_set(caps)
        inner = we.intersection(K.codes(caps)) - wk if wk <= we else None
        facts = inner, set(map(proj.__getitem__, we))
    wg = functor_subgroup(F, ext.base, caps).code_set(caps)
    inner, proj_we = facts[0], wg if facts[1] is None else facts[1]
    if inner is None or not proj_we <= wg:
        leg = "inclusion" if inner is None else "projection"
        raise FlatlabError(f"naturality failed: {leg} does not preserve "
                           f"{'radical' if epi else 'the subfunctor'}")
    onto = len(proj_we) == len(wg)
    witnesses: dict[str, str] = {}
    if inner and epi:
        witnesses["left"] = (
            f"kernel element {_cycles(total, min(inner))} maps into the radical "
            "of the total group but lies outside the kernel's radical"
        )
    elif inner:
        witnesses["middle"] = (
            f"element {_cycles(total, min(inner))} is in the subfunctor of the "
            "total group and in the kernel, but not in the image of the kernel's subfunctor"
        )
    if not onto and epi:
        e = next(e for e in total.codes(caps) if proj[e] in wg and proj[e] not in proj_we)
        witnesses["middle"] = (
            f"total element {_cycles(total, e)} maps into the base radical but "
            "is not a product of a kernel element and a total-radical element"
        )
    elif not onto:
        witnesses["right"] = (
            f"base element {_cycles(ext.base, min(wg - proj_we))} is in the subfunctor "
            "of the base but not in the image of the subfunctor of the total group"
        )
    flags = (not inner, onto, True) if epi else (True, not inner, onto)
    return FlatnessReport(F.describe(), ext.describe(), *flags, witnesses)


def _fiber_facts(F, ext: Extension, caps: Caps):
    """The two facts of ``_flatness_perm`` read off the source of a
    pulled-back extension, with no W(P) and no W(K'): inner as codes of P,
    () when empty, and pr_X(W(P)) as codes of X, None when it is W(X).
    None when the source does not show them exactly.

    ext is read as a pullback when its total P is recorded as a subdirect
    product (``permgroup._Subdirect``) of some A and X = ext.base and its
    projection is the second one, checked on P's generators.  For a fiber
    product P = {(e, x) : f(e) = g(x)} of f : E ->> G and g : X -> G, A is
    E_H = f^-1(g(X)), which holds K = ker f, and K' = ker(pr_X) = K x 1.

    Trivial leg (P = A x X, K' = A x 1).  W(P) = W(A) x W(X) by the
    product rule of ``functor_subgroup``, and W(A x 1) = W(A) x 1, as a
    functor commutes with isomorphisms: flat.

    A fiber product.  Both projections carry W into W, so W(P) lies in
    W(E_H) x_H W(X), H = g(X), and inner in ((W(E_H) n K) - W(K)) x 1: it
    is empty when that is.  W(K) <= W(E_H) is the set algebra's naturality
    check W(K') <= W(P).  Three routes read the rest:

    - Verbal: F = L_f on a free source, W = V the verbal subgroup of its
      laws.  A surjection h carries V onto V: h(w(p_1, ..., p_k)) =
      w(h p_1, ..., h p_k), and every tuple of its target lifts (H.
      Neumann, Varieties of Groups, 1967).  So pr_X(V(P)) = V(X) and
      pr_E(V(P)) = V(E_H).  When V(X) = 1, V(P) lies in P n (E_H x 1),
      where pr_E is injective, so V(P) = V(E_H) x 1 and inner is
      ((V(E_H) n K) - V(K)) x 1.
    - Restriction: g injective on X.  pr_E : P -> E_H is then a bijection,
      as (e, x) in P has x = g^-1(f(e)), so an isomorphism, and a functor
      commutes with isomorphisms: W(P) = {(e, g^-1 f(e)) : e in W(E_H)}.
      So inner is ((W(E_H) n K) - W(K)) x 1, and pr_X(W(P)) is
      g^-1(f(W(E_H))), of order |W(E_H)| / |W(E_H) n K|.
    - T_A for a one-generator A.  Hom(A, -) preserves limits (Mac Lane,
      CWM V.4), so Hom(A, P) = Hom(A, E_H) x_Hom(A, H) Hom(A, X), and
      pr_X(T_A P) is generated by the psi(A) for the psi in Hom(A, X) with
      g psi in f Hom(A, E_H).  A hom from A is its generator's image
      (``functors.generator_images``), so pr_X(T_A P) is generated by the
      x in X with g(x) in f(Hom(A, E_H)) that are images of A's generator:
      by all of them, T_A(X), when f(Hom(A, E_H)) is H.

    The set algebra decides a non-empty inner off the restriction route
    and the verbal route with V(X) = 1, and an L_f not on a free source or
    a T_A with more generators along a leg neither trivial nor injective.
    The caps other than the order are checked on E_H, K and X, whose
    orders are at most |P|, and the order cap on P."""
    P, X = ext.total, ext.base
    rec = P._factors
    if rec is None or rec.B is not X:
        return None
    nx = P.ambient(caps).nb
    if ext.proj.image_codes != tuple(p % nx for p in P.gen_codes(caps)):
        return None  # not the second projection
    P.codes(caps)  # the order cap holds on P
    n_wx = len(functor_subgroup(F, X, caps).codes(caps))
    if rec.over is None:
        functor_subgroup(F, rec.first(), caps)
        return (), None
    over, EH = rec.over, rec.first()
    verbal, injective = F.laws is not None, len(over) == len(X.codes(caps))
    if not (verbal or injective or isinstance(F, GeneratedSubfunctor)
            and len(F.source.generators) == 1):
        return None
    K, fmap = rec.f.kernel(), rec.f.code_map()
    wk = functor_subgroup(F, K, caps).code_set(caps)
    we = functor_subgroup(F, EH, caps).codes(caps)
    kwe = K.code_set(caps).intersection(we)
    if not wk <= kwe or len(kwe) != len(wk) and not (injective or verbal and n_wx == 1):
        return None  # naturality fails, or inner is not read exactly
    inner = () if len(kwe) == len(wk) else [k * nx for k in kwe - wk]
    if verbal or injective and len(we) == len(kwe) * n_wx:
        return inner, None
    if injective:
        return inner, {over[fmap[e]][0] for e in we}
    A = F.source  # f(Hom(A, E_H)), then the x over it in Hom(A, X)
    hit = set(map(fmap.__getitem__, generator_images(A, EH, EH.codes(caps), caps)))
    if len(hit) == len(over):
        return inner, None
    seeds = generator_images(A, X, [x for y in hit for x in over[y]], caps)
    prx = X.generate(seeds, None, caps).code_set(caps)
    return inner, None if len(prx) == n_wx else prx


def _cycles(G: PermGroup, code: int) -> str:
    return G.ambient(None).decode(code).cycle_string()


def _flatness_abelian(F, ext: Extension, caps: Caps) -> FlatnessReport:
    """The three flags from lattices.  im(F iota) lies in ker(F proj) by
    functoriality, as F(proj) F(iota) = F(proj iota) = F(0) = 0, so the
    sequence is exact in the middle iff ker(F proj) lies in im(F iota): the
    image lattice is factored once, and the first column of the kernel
    basis that does not solve in it is the witness."""
    iota_ind = induce(F, ext.iota, caps)
    proj_ind = induce(F, ext.proj, caps)
    witnesses: dict[str, str] = {}
    K1, kincl = ab_kernel(iota_ind)
    left = K1.is_trivial()
    if not left:
        # a generator of a kernel presentation can be zero; name a real one
        j = next(j for j in range(K1.ngens) if any(K1.generator_element(j)))
        elt = kincl.apply(K1.generator_element(j))
        witnesses["left"] = (
            f"localized kernel element {iota_ind.domain.format_element(elt)} "
            "dies in the localized total group"
        )
    snf_im = smith_normal_form(image_lattice_basis(iota_ind))
    ker = kernel_lattice_basis(proj_ind)
    middle = True
    for j in range(ker.cols):
        if solve_in_column_lattice(snf_im, ker.column(j)) is None:
            middle = False
            elt = proj_ind.domain.from_raw(ker.column(j))
            witnesses["middle"] = (
                f"element {proj_ind.domain.format_element(elt)} of the localized "
                "total group maps to zero in the localized base but is not in the "
                "image of the localized kernel"
            )
            break
    C, _ = ab_cokernel(proj_ind)
    right = C.is_trivial()
    if not right:
        base = proj_ind.codomain
        snf_im_p = smith_normal_form(image_lattice_basis(proj_ind))
        candidates = [base.generator_element(j) for j in range(base.ngens)]
        if base.is_finite():
            candidates.extend(base.torsion_elements(caps))
        for g in candidates:
            if any(g) and solve_in_column_lattice(snf_im_p, base.lift(g)) is None:
                witnesses["right"] = (
                    f"localized base element {base.format_element(g)} is not hit"
                )
                break
        witnesses.setdefault("right", "localized projection has nontrivial cokernel")
    return FlatnessReport(F.describe(), ext.describe(), left, middle, right, witnesses)


def check_right_exactness(
    F: FunctorSpec, ext: Extension, caps: Caps = DEFAULT_CAPS
) -> FlatnessReport:
    """The flatness report of an epireflection, read through its
    ``is_right_exact`` flag: left injectivity is deliberately not required."""
    if functor_kind(F) != EPIREFLECTION:
        raise FlatlabError("right exactness is checked for epireflections only")
    return check_flatness(F, ext, caps)


# -- induced sequence (honest objects, for reports and cross-checks) -----------


class InducedSequence:
    def __init__(self, extension: Extension, functor: str, left_group, middle_group,
                 right_group, left_map, right_map):
        self.extension = extension
        self.functor = functor
        self.left_group = left_group
        self.middle_group = middle_group
        self.right_group = right_group
        self.left_map = left_map
        self.right_map = right_map


def induced_sequence(F: FunctorSpec, ext: Extension, caps: Caps = DEFAULT_CAPS) -> InducedSequence:
    """Materialize F(K) -> F(E) -> F(G) with its maps; the composite must be
    trivial."""
    lm = induce(F, ext.iota, caps)
    rm = induce(F, ext.proj, caps)
    composite = lm.then(rm)
    if isinstance(composite, GroupHom):
        if any(composite.code_map().values()):
            raise FlatlabError("induced composite is not trivial")
    else:
        if not composite.is_zero():
            raise FlatlabError("induced composite is not trivial")
    return InducedSequence(
        ext, F.describe(), lm.domain, lm.codomain, rm.codomain, lm, rm
    )


# -- conditional flatness probe -------------------------------------------------


class ProbeEntry:
    """One pullback of a probe; ``hom`` formats its leg f when read."""

    def __init__(self, test_group: str, f, report: FlatnessReport):
        self.test_group = test_group
        self.f = f
        self.report = report

    @property
    def hom(self) -> str:
        return hom_description(self.f)

    def to_dict(self) -> dict:
        return {
            "test_group": self.test_group,
            "hom": self.hom,
            "verdict": self.report.to_dict(),
        }


class ProbeReport:
    def __init__(self, extension: str, functor: str, base_flat: bool, entries: list[ProbeEntry]):
        self.extension = extension
        self.functor = functor
        self.base_flat = base_flat
        self.entries = entries

    @property
    def all_pullbacks_flat(self) -> bool:
        return all(e.report.is_flat for e in self.entries)

    def counterexamples(self) -> list[ProbeEntry]:
        return [e for e in self.entries if not e.report.is_flat]

    def to_dict(self) -> dict:
        return {
            "extension": self.extension,
            "functor": self.functor,
            "base_flat": self.base_flat,
            "pullbacks": [e.to_dict() for e in self.entries],
            "all_pullbacks_flat": self.all_pullbacks_flat,
        }


def hom_description(f) -> str:
    if isinstance(f, GroupHom):
        names = (
            f.domain.presentation.generators
            if f.domain.presentation is not None
            else tuple(f"g{i}" for i in range(len(f.domain.generators)))
        )
        parts = [f"{n}->{p.cycle_string()}" for n, p in zip(names, f.images)]
        return "[" + ", ".join(parts) + "]"
    return f"matrix {[list(r) for r in f.matrix.entries]}"


def probe_conditional_flatness(
    F: FunctorSpec,
    ext: Extension,
    test_groups,
    caps: Caps = DEFAULT_CAPS,
    allow_nonflat_base: bool = False,
) -> ProbeReport:
    """Pull the extension back along EVERY homomorphism from every test group
    and check flatness of each pullback; exhaustiveness makes the report a
    proof over the given catalog."""
    base_report = check_flatness(F, ext, caps)
    if not base_report.is_flat and not allow_nonflat_base:
        raise FlatlabError(
            "base extension is not flat; pass allow_nonflat_base to probe anyway"
        )
    entries: list[ProbeEntry] = []
    for X in test_groups:
        for f in _homs_into_base(X, ext, caps):
            pulled = pullback_extension(ext, f, caps)
            rep = check_flatness(F, pulled.extension, caps)
            entries.append(ProbeEntry(X.describe(), f, rep))
    return ProbeReport(ext.describe(), F.describe(), base_report.is_flat, entries)


def _homs_into_base(X, ext: Extension, caps: Caps):
    if ext.flavor == PERM:
        if not isinstance(X, PermGroup):
            raise FlavorMismatchError(
                "test groups for a permutation extension must be permutation groups"
            )
        return enumerate_homs(X, ext.base, caps)
    if isinstance(X, PermGroup):
        if not X.is_abelian():
            raise FlavorMismatchError(
                "only abelian test groups can probe an abelian extension"
            )
        X = perm_to_abelian(X, caps)
    return enumerate_ab_homs(X, ext.base, caps)


# -- certification of the local-pullback construction ---------------------------


class CertifyReport:
    def __init__(self, hypotheses: dict[str, bool], hypothesis_details: dict[str, str],
                 pullback_description: str, pullback_local: LocalityReport | None,
                 source_flatness: FlatnessReport, conclusion_asserted: bool):
        self.hypotheses = hypotheses
        self.hypothesis_details = hypothesis_details
        self.pullback_description = pullback_description
        self.pullback_local = pullback_local
        self.source_flatness = source_flatness
        self.conclusion_asserted = conclusion_asserted

    def all_hypotheses_hold(self) -> bool:
        return all(self.hypotheses.values())

    def to_dict(self) -> dict:
        return {
            "hypotheses": dict(sorted(self.hypotheses.items())),
            "details": dict(sorted(self.hypothesis_details.items())),
            "pullback": self.pullback_description,
            "pullback_local": (
                None
                if self.pullback_local is None
                else {
                    "is_local": self.pullback_local.is_local,
                    "hom_count_b": self.pullback_local.hom_count_b,
                    "hom_count_a": self.pullback_local.hom_count_a,
                    "witness": self.pullback_local.witness,
                }
            ),
            "source_extension": self.source_flatness.to_dict(),
            "conclusion_asserted": self.conclusion_asserted,
        }


def _hom_set_trivial(pres, E, caps: Caps) -> bool:
    if isinstance(E, PermGroup):
        return len(hom_image_codes(pres, E, caps)) == 1
    return abelian_hom_group(pres, E)[0].is_trivial()


def ab_canonical_iso(A: AbGroup, B: AbGroup) -> AbHom:
    """The coordinate isomorphism between groups with equal invariants."""
    if A.canonical_invariants() != B.canonical_invariants():
        raise FlatlabError("groups are not abstractly isomorphic")
    cols = [
        B.lift(A.from_raw(tuple(1 if i == j else 0 for i in range(A.ngens))))
        for j in range(A.ngens)
    ]
    return AbHom(A, B, IntMatrix.from_columns(cols, B.ngens))


def _onto(f, target, caps: Caps, mismatch: str):
    """f followed by the identification of its codomain with ``target``:
    the canonical isomorphism for abelian groups (none when the presentations
    agree), an explicit one for permutation groups."""
    cod = f.codomain
    if cod is target:
        return f
    if isinstance(f, AbHom):
        return f if cod.same_presentation(target) else f.then(ab_canonical_iso(cod, target))
    iso = find_isomorphism(cod, target, caps)
    if iso is None:
        raise FlatlabError(mismatch)
    return f.then(iso)


def certify_prop44(
    phi: TestMap,
    F: FunctorSpec,
    G,
    E,
    surj,
    caps: Caps = DEFAULT_CAPS,
) -> CertifyReport:
    """Check the hypotheses of the local-pullback construction and, when they
    all hold, compute P = pullback of (E ->> LG <<- G) and test its locality.

    Hypotheses: the localization map on G is not an isomorphism, its kernel
    is local, E is local, and both test-map groups admit only the trivial
    map to E.  The flatness of the source extension E ->> LG is reported
    separately and never fused into the conclusion.
    """
    L = apply(F, G, caps)
    LG = L.result
    hyp: dict[str, bool] = {}
    det: dict[str, str] = {}

    radical = L.radical
    hyp["eta_non_identity"] = not radical.is_trivial()
    if isinstance(G, PermGroup):
        det["eta_non_identity"] = f"|radical| = {radical.order(caps)}"
    else:
        det["eta_non_identity"] = f"radical = {radical.describe()}"

    kernel_local = is_local_wrt(radical, phi, caps)
    hyp["kernel_local"] = kernel_local.is_local
    det["kernel_local"] = kernel_local.witness or "bijective on hom sets"

    e_local = is_local_wrt(E, phi, caps)
    hyp["E_local"] = e_local.is_local
    det["E_local"] = e_local.witness or "bijective on hom sets"

    hyp["hom_A_E_trivial"] = _hom_set_trivial(phi.domain_pres, E, caps)
    hyp["hom_B_E_trivial"] = _hom_set_trivial(phi.codomain_pres, E, caps)

    surj_aligned = _onto(surj, LG, caps, "surjection codomain is not the localization")
    hyp["surjection_onto_LG"] = surj_aligned.is_surjective()

    source_ext = Extension(surj_aligned, caps=caps)
    source_flatness = check_flatness(F, source_ext, caps)

    pullback_local: LocalityReport | None = None
    conclusion = False
    if all(hyp.values()):
        if isinstance(G, PermGroup):
            P, _ = pullback_group(surj_aligned, L.eta, caps)
            pdesc = f"order {P.order(caps)}"
        else:
            P, _, _ = ab_pullback(surj_aligned, L.eta)
            pdesc = f"rank {P.rank}, torsion {list(P.invariants)}"
        pullback_local = is_local_wrt(P, phi, caps)
        conclusion = pullback_local.is_local
    else:
        pdesc = "not computed (hypothesis failed)"
    return CertifyReport(hyp, det, pdesc, pullback_local, source_flatness, conclusion)
