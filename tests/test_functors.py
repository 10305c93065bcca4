import collections
import gc
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from flatlab import extensions, functors
from flatlab.abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_from_invariants,
    enumerate_ab_homs,
    perm_to_abelian,
)
from flatlab.catalog import (
    alternating,
    cyclic,
    default_battery,
    dihedral,
    elementary_abelian,
    product,
    quaternion,
    symmetric,
    trivial_group,
)
from flatlab.caps import DEFAULT_CAPS, Caps
from flatlab.errors import (
    CapExceededError,
    FlatlabError,
    RealizationError,
    UnsupportedFunctorError,
)
from flatlab.extensions import (
    Extension,
    check_flatness,
    extension_from_normal_subgroup,
    extensions_from_group,
    pullback_extension,
)
from flatlab.functors import (
    Abelianization,
    GeneratedSubfunctor,
    Localization,
    NilpotentQuotient,
    Nullification,
    QuasiVarietyReflection,
    SpSubfunctor,
    TestMap,
    Variety,
    apply,
    idempotency_check,
    induce,
    is_acyclic,
    is_local_wrt,
    parse_functor_literal,
    _evaluated_seeds,
    _lifted_seeds,
    _localization_radical,
    _pi_exponent,
    _preimage_chain,
    abelian_hom_group,
    functor_subgroup,
    radical_subgroup,
    standard_quasi_c4_c2,
)
from flatlab.homs import enumerate_homs, hom_count, hom_image_codes
from flatlab.permgroup import (
    GroupHom,
    PermGroup,
    direct_product,
    is_isomorphic,
    normal_subgroups,
    quotient,
)
from flatlab.verbal import derived_subgroup, lower_central_series, word_value_codes
from flatlab.words import Presentation, Word, parse_word

PHI, QUASI = standard_quasi_c4_c2()


def test_quasivariety_on_c4_gives_c2():
    L = apply(QUASI, cyclic(4))
    assert L.result.order() == 2
    assert L.radical.order() == 2


def test_abelianization_of_abelian_is_bijective():
    G = product(cyclic(2), cyclic(4))
    L = apply(Abelianization(), G)
    assert L.result.order() == G.order()
    assert L.eta.is_bijective()


def test_nullification_of_s3_at_c3():
    # the images of all maps from C3 generate the rotation subgroup; the
    # quotient C2 admits only the trivial map from C3
    L = apply(Nullification(cyclic(3).presentation), symmetric(3))
    assert L.result.order() == 2
    assert L.radical.order() == 3


def test_nullification_stops_at_local_quotient():
    from flatlab.homs import hom_count

    L = apply(Nullification(cyclic(3).presentation), symmetric(3))
    assert hom_count(cyclic(3).presentation, L.result) == 1


def test_epireflection_order_divides():
    for G in (dihedral(8), quaternion(8), symmetric(4)):
        for F in (Abelianization(), NilpotentQuotient(2), QUASI):
            L = apply(F, G)
            assert G.order() % L.result.order() == 0
            assert L.eta.image().order() == L.result.order()


def test_sp_subfunctor_inclusion():
    L = apply(SpSubfunctor(2), dihedral(8))
    assert L.result.order() == 8
    assert L.kind == "subfunctor"
    L2 = apply(SpSubfunctor(2), cyclic(4))
    assert L2.result.order() == 2


def test_induce_abelianization_of_central_quotient_is_iso():
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    ind = induce(Abelianization(), proj)
    assert ind.is_bijective()
    assert ind.domain.order() == 4


def test_induce_identity_is_identity():
    D8 = dihedral(8)
    ind = induce(NilpotentQuotient(2), GroupHom.identity_hom(D8))
    assert ind.is_bijective()
    assert all(ind.apply(x) == x for x in ind.domain.elements())


def test_induce_sp_on_inclusion():
    C4, C2 = cyclic(4), cyclic(2)
    x = C4.generators[0]
    incl = GroupHom(C2, C4, (x * x,))
    ind = induce(SpSubfunctor(2), incl)
    assert ind.domain.order() == 2
    assert ind.codomain.order() == 2
    assert ind.is_bijective()


def test_locality_reference_values():
    Z = ab_from_invariants(1, (), name="Z")
    ZxZ2 = ab_from_invariants(1, (2,), name="ZxZ2")
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    assert is_local_wrt(Z, PHI).is_local
    assert is_local_wrt(ZxZ2, PHI).is_local
    rep = is_local_wrt(C4, PHI)
    assert not rep.is_local
    assert (rep.hom_count_b, rep.hom_count_a) == (2, 4)
    assert rep.witness is not None


def test_locality_perm_route():
    # a permutation group is local for the C4 -> C2 map iff it has no
    # element of order exactly 4
    assert is_local_wrt(elementary_abelian(2, 2), PHI).is_local
    assert not is_local_wrt(cyclic(8), PHI).is_local
    assert is_local_wrt(symmetric(3), PHI).is_local


def test_reflection_lands_in_local_groups():
    from flatlab.catalog import default_battery

    for G in default_battery(16):
        R = apply(QUASI, G).result
        assert is_local_wrt(R, PHI).is_local, G.name


def test_quasivariety_fixed_point():
    for G in (cyclic(8), quaternion(8), dihedral(16)):
        R = apply(QUASI, G).result
        ident = R.identity()
        for g in R.elements():
            if (g**4).is_identity():
                assert (g**2).is_identity()


def test_acyclicity():
    assert is_acyclic(Abelianization(), trivial_group())
    assert is_acyclic(Nullification(cyclic(2).presentation), dihedral(8))
    assert not is_acyclic(Abelianization(), cyclic(4))
    with pytest.raises(UnsupportedFunctorError):
        is_acyclic(SpSubfunctor(2), dihedral(8))


def test_idempotency_variety_vs_nullification():
    D8 = dihedral(8)
    var = idempotency_check(Variety((Word.lcs_word(1),)), D8)
    assert (var.first_order, var.second_order, var.idempotent) == (2, 1, False)
    abelian_case = idempotency_check(Abelianization(), product(cyclic(2), cyclic(4)))
    assert abelian_case.idempotent  # WG trivial for abelian groups
    nul = idempotency_check(Nullification(cyclic(2).presentation), D8)
    assert nul.idempotent


@pytest.mark.parametrize(
    "F", [Abelianization(), NilpotentQuotient(2), Variety((parse_word("x1^2"),))],
    ids=lambda F: F.describe(),
)
def test_variety_idempotency_on_abelian_groups(F):
    # an abelian group takes the apply-twice route: LA is already local
    for A in (ab_from_invariants(1, (4, 6)), ab_from_invariants(0, (2, 4))):
        assert idempotency_check(F, A).idempotent


def test_abelian_functor_applications():
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    Z = ab_from_invariants(1, ())
    # quasi-variety localization of C4 is C2; Z is already local
    L = apply(QUASI, C4)
    assert L.result.canonical_invariants() == (0, (2,))
    assert apply(QUASI, Z).result.canonical_invariants() == (1, ())
    # power-word variety: the exponent-2 reflection
    V = Variety((parse_word("x1^2"),))
    assert apply(V, C4).result.canonical_invariants() == (0, (2,))
    # commutator words act trivially on abelian groups
    assert apply(Abelianization(), C4).result.canonical_invariants() == (0, (4,))
    assert apply(NilpotentQuotient(2), C4).eta.is_injective()
    # S_p is the p-torsion subgroup
    A = ab_from_invariants(1, (4,))
    T = apply(SpSubfunctor(2), A)
    assert T.result.canonical_invariants() == (0, (2,))
    # nullification at C2 kills the whole 2-primary tower
    N = apply(Nullification(cyclic(2).presentation), C4)
    assert N.result.is_trivial()
    NZ = apply(Nullification(cyclic(2).presentation), ab_from_invariants(1, (2,)))
    assert NZ.result.canonical_invariants() == (1, ())


def test_abelian_nullification_at_any_target():
    # Hom(H, M) = Hom(H^ab, M) on an abelian M, so any target H works
    def result(H, M):
        return apply(Nullification(H), M).result.canonical_invariants()

    V4 = elementary_abelian(2, 2).presentation
    assert result(V4, ab_from_invariants(1, (2,))) == (1, ())
    assert result(V4, ab_from_invariants(0, (6,))) == (0, (3,))
    S3, C2 = symmetric(3).presentation, cyclic(2).presentation
    for rank, torsion in [(0, (2,)), (0, (12,)), (1, (4, 6)), (2, (2, 8)), (1, ())]:
        M = ab_from_invariants(rank, torsion)
        assert result(S3, M) == result(C2, M)
        assert result(Presentation(("x",), ()), M) == (0, ())


def test_nullification_target_generator_cap():
    with pytest.raises(UnsupportedFunctorError):
        Nullification(elementary_abelian(2, 4).presentation)


def test_test_map_validation():
    x = Word.generator(0)
    with pytest.raises(ValueError):
        # x -> y where y^3 = 1 does not kill x^4
        TestMap(
            Presentation(("x",), (x**4,)),
            Presentation(("y",), (x**3,)),
            (x,),
        )


def test_radical_memoized_and_consistent_with_apply():
    G = dihedral(16)
    for F in (Abelianization(), NilpotentQuotient(2), QUASI,
              Nullification(cyclic(2).presentation)):
        R = radical_subgroup(F, G)
        L = apply(F, G)
        assert R.element_set() == L.radical.element_set()


def test_class_one_nilpotent_quotient_is_abelianization():
    # the class-indexing convention: quotient by lcs(1) = the commutator
    # subgroup, i.e. class 1 reproduces abelianization exactly
    for G in (dihedral(8), quaternion(8), symmetric(4)):
        a = apply(Abelianization(), G)
        n = apply(NilpotentQuotient(1), G)
        assert a.radical.element_set() == n.radical.element_set()
        assert a.result.order() == n.result.order()


def test_sp_naturality_property():
    # order-p elements map to order-p-or-trivial elements
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    S_dom = apply(SpSubfunctor(2), D8).result
    S_cod = apply(SpSubfunctor(2), Q).result
    cod_set = S_cod.element_set()
    for x in S_dom.elements():
        assert proj.apply(x) in cod_set


def test_memoised_radical_and_apply_respect_the_caps_of_each_call():
    D16 = dihedral(16)
    F = NilpotentQuotient(2)
    assert radical_subgroup(F, D16).order() == 2
    assert apply(F, D16).result.order() == 8
    with pytest.raises(CapExceededError):
        radical_subgroup(F, D16, Caps(order=2))
    with pytest.raises(CapExceededError):
        apply(F, D16, Caps(order=2))


def test_nullification_at_a_free_target_kills_everything():
    # a target with an infinite-order generator is acyclic-making: the radical
    # is the whole group (the preimage chain once oscillated here)
    Z = Presentation(("x",), ())
    for G in (cyclic(4), symmetric(3)):
        assert radical_subgroup(Nullification(Z), G).order() == G.order()


def _chain_radical(pres, G, caps=DEFAULT_CAPS, impose=None):
    """The general L_f rule's preimage chain, which lifts every solution of
    the relators in G/N to coset representatives; ``impose`` defaults to
    every generator, the nullification at ``pres``."""
    if impose is None:
        impose = [Word.generator(i) for i in range(len(pres.generators))]
    return _preimage_chain(G, _lifted_seeds(pres, impose, G, caps), caps)


def test_abelian_target_radical_is_the_chain_radical(battery_groups):
    # the pi-element radical against the preimage chain on the battery and
    # on every pullback total of default_battery(16) along default_battery(4)
    targets = [
        G.presentation
        for G in (
            cyclic(2),
            cyclic(3),
            elementary_abelian(2, 2),
            cyclic(4),
            cyclic(6),
            product(cyclic(4), cyclic(6)),
            trivial_group(),
        )
    ] + [Presentation(("x",), ())]
    caps = DEFAULT_CAPS
    for pres in targets:
        assert _pi_exponent(pres, caps) is not None
        F = Nullification(pres)
        for G in battery_groups:
            chain = _chain_radical(pres, G, caps)
            assert _localization_radical(F, G, caps).code_set() == chain.code_set()
    assert len(targets) * len(battery_groups) == 11_560


def test_one_generator_seeds_are_the_lifted_seeds(battery_groups):
    # a one-generator A evaluates (g^a, s(g)) once per element; the general
    # rule lifts every solution in G/N to coset representatives instead
    x = Word.generator(0)
    rules = [(4, 2), (8, 4), (6, 3), (9, 3), (4, 1), (2, 1), (0, 2), (12, 4)]
    caps = DEFAULT_CAPS
    checked = 0
    for a, b in rules:
        F = QuasiVarietyReflection(((x**a, x**b),))
        (A, S), = F.conditions
        for G in battery_groups:
            once = _preimage_chain(G, _evaluated_seeds(A, S, G, caps), caps)
            assert once.code_set() == _chain_radical(A, G, caps, S).code_set()
            assert _localization_radical(F, G, caps).code_set() == once.code_set()
            checked += 1
    assert checked == 11_560


def _solvable_targets():
    targets = [H for H in default_battery(24) if not H.is_abelian()]
    assert [H.name for H in targets] == ["S3", "D8", "Q8", "D12", "A4", "D16", "S4"]
    return targets


def test_solvable_target_radical_is_the_chain_radical(battery_groups):
    # every non-abelian target of the battery realizes to a solvable group,
    # so its radical is generated by the elements whose order has only prime
    # factors of |H^ab|; the preimage chain gives the same subgroup
    caps = DEFAULT_CAPS
    targets = _solvable_targets()
    assert [_pi_exponent(H.presentation, caps) for H in targets] == [2, 4, 4, 4, 3, 4, 2]
    checked = 0
    for H in targets:
        F = Nullification(H.presentation)
        for G in battery_groups:
            chain = _chain_radical(H.presentation, G, caps)
            assert _localization_radical(F, G, caps).code_set() == chain.code_set()
            checked += 1
    assert checked == 10_115


def test_a_target_not_certified_solvable_takes_the_chain(monkeypatch):
    # A5 is perfect, so the pi-element rule does not apply: its radical in
    # A5 x C2 is the A5 factor, from the chain
    A5 = alternating(5).presentation
    G = direct_product(alternating(5), cyclic(2))
    assert _pi_exponent(A5, DEFAULT_CAPS) is None
    R = radical_subgroup(Nullification(A5), G)
    assert R.order() == 60
    assert all(p.images[5:] == (5, 6) for p in R.elements())
    assert R.code_set() == _chain_radical(A5, G).code_set()
    # a solvable target that cannot be realized (as beyond the caps) gets no
    # certificate and runs the chain, to the same radical
    caps = DEFAULT_CAPS
    targets = [Nullification(H.presentation) for H in _solvable_targets()]
    groups = default_battery(64)
    expected = [[_localization_radical(F, G, caps).code_set() for G in groups] for F in targets]
    chains = []
    original = functors._preimage_chain

    def unrealizable(pres, caps=DEFAULT_CAPS, name=None):
        raise RealizationError("could not realize within caps")

    def counted(*args):
        chains.append(args)
        return original(*args)

    monkeypatch.setattr(functors, "realize_presentation", unrealizable)
    monkeypatch.setattr(functors, "_preimage_chain", counted)
    functors._pi_exponent.cache_clear()
    try:
        for F, radicals in zip(targets, expected):
            assert _pi_exponent(F.target, caps) is None
            assert [_localization_radical(F, G, caps).code_set() for G in groups] == radicals
    finally:
        functors._pi_exponent.cache_clear()
    assert len(chains) == len(targets) * len(groups)


def test_a_z_summand_kills_everything_without_realization(monkeypatch):
    # <a,b | a^2> maps onto Z, so onto every C_p: its radical is all of G,
    # found from the abelianization alone
    def no_realization(*args, **kwargs):
        raise AssertionError("a Z summand needs no realization")

    monkeypatch.setattr(functors, "realize_presentation", no_realization)
    pres = Presentation.parse("a,b", "a^2")
    assert _pi_exponent(pres, DEFAULT_CAPS) == 0
    for G in default_battery(64):
        R = _localization_radical(Nullification(pres), G, DEFAULT_CAPS)
        assert R.code_set() == G.code_set() == _chain_radical(pres, G).code_set()


def test_radicals_do_no_confirming_closure(monkeypatch):
    # a solvable target needs no normal closure at all; the A5 chain on
    # A5 x C2 grows once to the A5 factor and stops without closing again (a
    # call whose codes all lie in its start hands the start back and closes
    # nothing)
    calls = []
    original = functors.normal_closure_codes

    def counted(G, codes, caps=DEFAULT_CAPS, start=None):
        N = original(G, codes, caps, start)
        if N is not start:
            calls.append((start.order() if start is not None else 1, N.order()))
        return N

    monkeypatch.setattr(functors, "normal_closure_codes", counted)
    C3, S3 = Nullification(cyclic(3).presentation), Nullification(symmetric(3).presentation)
    for G in (cyclic(8), dihedral(8), quaternion(8), elementary_abelian(2, 3)):
        assert _localization_radical(C3, G, DEFAULT_CAPS).is_trivial()
    assert _localization_radical(S3, symmetric(4), DEFAULT_CAPS).order() == 24
    assert calls == []
    A5 = Nullification(alternating(5).presentation)
    G = direct_product(alternating(5), cyclic(2))
    assert _localization_radical(A5, G, DEFAULT_CAPS).order() == 60
    assert calls == [(1, 60)]


def test_an_empty_relator_leaves_the_abelian_form_alone(monkeypatch):
    # x^2*x^-2 reduces to the empty word, so the target is still C4 and its
    # nullification takes the pi-element radical, not the preimage chain
    odd, plain = Presentation.parse("x", "x^2*x^-2,x^4"), Presentation.parse("x", "x^4")
    assert _pi_exponent(odd, DEFAULT_CAPS) == _pi_exponent(plain, DEFAULT_CAPS) == 4
    C8 = ab_from_invariants(0, (8,))
    assert abelian_hom_group(odd, C8)[0].canonical_invariants() == (0, (4,))
    reports = [is_local_wrt(C8, TestMap(A, plain, (Word.generator(0),))) for A in (odd, plain)]
    assert [(r.hom_count_b, r.hom_count_a, r.witness) for r in reports] == [(4, 4, None)] * 2

    def no_chain(*args):
        raise AssertionError("an abelian target runs no preimage chain")

    monkeypatch.setattr(functors, "_preimage_chain", no_chain)
    for G in default_battery(16):
        R = radical_subgroup(Nullification(odd), G)
        assert R.code_set() == radical_subgroup(Nullification(plain), G).code_set()


def test_equal_specs_built_apart_share_one_memo_entry():
    def specs():
        return [
            Nullification(Presentation.parse("x,y", "x^3,y^2,x*y*x*y")),
            Variety((parse_word("x1^2"), parse_word("[x1,x2]"))),
            QuasiVarietyReflection(((parse_word("x1^4"), parse_word("x1^2")),)),
        ]

    D8 = dihedral(8)
    G = PermGroup(D8.degree, D8.generators)  # a memo of its own
    for F, twin in zip(specs(), specs()):
        assert F is not twin and F == twin and hash(F) == hash(twin)
        assert radical_subgroup(twin, G) is radical_subgroup(F, G)
    radicals = [k for k in G._memo if isinstance(k, tuple) and k[0] == "radical"]
    assert len(radicals) == 3
    # the stored hashes are built from integers: no string hash seed enters
    probe = "from flatlab.words import Presentation as P; print(hash(P.parse('x,y', 'x^3,y^2')))"
    seeds = [
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert seeds[0] == seeds[1]


def test_value_records_are_immutable_and_caps_reject_unknown_names():
    x = parse_word("x1^2")
    records = {
        DEFAULT_CAPS: "order",
        x: "letters",
        Presentation.parse("x", "x^2"): "relators",
        Variety((x,)): "words",
        NilpotentQuotient(2): "nilpotency_class",
        Nullification(cyclic(2).presentation): "target",
        QuasiVarietyReflection(((x, x),)): "rules",
        SpSubfunctor(2): "p",
    }
    for record, field in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert DEFAULT_CAPS.with_(order=7) == Caps(order=7) != DEFAULT_CAPS
    assert hash(DEFAULT_CAPS.with_(order=7)) == hash(Caps(order=7))
    with pytest.raises(TypeError):
        DEFAULT_CAPS.with_(bogus=1)


def test_induced_maps_make_the_naturality_square_commute(battery_pullbacks):
    # induce gives LG's generators, the eta-images of G's generators, the
    # images eta(f(g)); the square eta_cod f = induced eta_dom then holds on
    # every element, as the check that no longer runs would confirm
    functors_ = (
        Abelianization(),
        NilpotentQuotient(2),
        NilpotentQuotient(3),
        Variety((parse_word("x1^2"),)),
    )
    exts = {id(ext): ext for ext, _, _ in battery_pullbacks}
    exts.update((id(p.extension), p.extension) for _, _, p in battery_pullbacks)
    squares = 0
    for ext in exts.values():
        for f in (ext.iota, ext.proj):
            fmap = f.code_map()
            for F in functors_:
                ind = induce(F, f).code_map()
                eta_dom = apply(F, f.domain).eta.code_map()
                eta_cod = apply(F, f.codomain).eta.code_map()
                assert all(eta_cod[fmap[x]] == ind[eta_dom[x]] for x in f.domain.codes())
                squares += 1
    assert (len(exts), squares) == (1_521, 12_168)


def test_abelian_hom_rule_counts_match_enumeration():
    # |Hom(A, M)| from the kernel of M^k -> M^|R| against enumerate_ab_homs
    # from A^ab, the exponent sums of A's relators
    sources = [cyclic(n).presentation for n in (2, 3, 4, 6)] + [
        elementary_abelian(2, 2).presentation,
        symmetric(3).presentation,
        Presentation(("x",), ()),
        Presentation.parse("x,y", "x^2,y^2,(x*y)^2"),
    ]
    targets = [
        ab_from_invariants(0, t) for t in [(), (2,), (4,), (6,), (2, 2), (2, 4), (3, 9), (2, 2, 2)]
    ] + [AbGroup(2, IntMatrix([[2, 4], [0, 6]])), AbGroup(2, IntMatrix([[3, 1], [1, 3]]))]
    for pres in sources:
        k = len(pres.generators)
        sums = [[sum(e for s, e in rel.letters if s == i) for i in range(k)] for rel in pres.relators]
        Aab = AbGroup(k, IntMatrix.from_columns(sums, k))
        for M in targets:
            H, incl = abelian_hom_group(pres, M)
            assert H.order() == len(enumerate_ab_homs(Aab, M)), (pres, M)
            assert incl.codomain.ngens == k * M.ngens


def test_localizations_agree_across_flavors():
    # the result order of P_V4, P_S3, P_Z and x^4 => x^2 on each finite
    # abelian battery group, as a permutation group and as an AbGroup
    functors_ = [
        Nullification(elementary_abelian(2, 2).presentation),
        Nullification(symmetric(3).presentation),
        Nullification(Presentation(("x",), ())),
        QUASI,
    ]
    groups = [G for G in default_battery(64) if G.is_abelian()]
    assert len(groups) == 15
    for G in groups:
        M = perm_to_abelian(G)
        for F in functors_:
            assert apply(F, G).result.order() == apply(F, M).result.order(), (F, G.name)


def test_generated_subfunctors_agree_across_flavors():
    # T_A for A in {1, C2, C4, V4, C2xC4, S3, D8, Q8} on each finite abelian
    # battery group: the subgroup generated by Hom(A, G)'s generator images
    # against the span of the blocks of Hom(A, M)'s inclusion
    sources = [G.presentation for G in (
        trivial_group(), cyclic(2), cyclic(4), elementary_abelian(2, 2),
        product(cyclic(2), cyclic(4)), symmetric(3), dihedral(8), quaternion(8))]
    groups = [G for G in default_battery(64) if G.is_abelian()]
    assert len(groups) == 15
    for G in groups:
        M = perm_to_abelian(G)
        for A in sources:
            F = GeneratedSubfunctor(A)
            perm = perm_to_abelian(apply(F, G).result).canonical_invariants()
            assert perm == apply(F, M).result.canonical_invariants(), (F.describe(), G.name)


def _criterion_4_totals():
    """The totals of the 12,696 criterion-4 pullbacks: every extension of a
    ``default_battery(64)`` group pulled back along every hom from a
    ``default_battery(16)`` group."""
    return (
        pullback_extension(ext, f).extension.total
        for G in default_battery(64)
        for ext in extensions_from_group(G)
        for X in default_battery(16)
        for f in enumerate_homs(X, ext.base)
    )


def test_one_generator_sources_read_their_homs_off_element_orders():
    # T_A for a one-generator A keeps the g whose order divides a, the gcd
    # of A's exponent sums; the general rule generates the coordinates of
    # relator_solutions, here hom_image_codes, instead.  <x | > gives the
    # identity functor T_Z and <x | x> the trivial one T_1
    x = Word.generator(0)
    sources = [Presentation(("x",), rels) for rels in ((x**2,), (x**3,), (x**4,), (), (x,))]
    T_Z, T_1 = GeneratedSubfunctor(sources[3]), GeneratedSubfunctor(sources[4])
    checked = 0
    for G in itertools.chain(default_battery(64), _criterion_4_totals()):
        for A in sources:
            general = G.generate({c for h in hom_image_codes(A, G) for c in h})
            assert functor_subgroup(GeneratedSubfunctor(A), G).code_set() == general.code_set()
        assert functor_subgroup(T_Z, G).order() == G.order()
        assert functor_subgroup(T_1, G).is_trivial()
        checked += 1
    assert checked == 23 + 12_696


def test_orthogonal_literal_is_its_own_localization():
    # x^2 = y^2 = 1 => [x,y] = 1: two involutions must commute
    F = parse_functor_literal("orthogonal", {"gens": "x,y", "rels": "[x^2,y^2]", "impose": "[[x,y]]"})
    assert isinstance(F, Localization) and type(F) is Localization
    assert F.describe() == "orthogonal(<x,y|x^2,y^2>=>x^-1*y^-1*x*y)"
    assert F != Nullification(Presentation.parse("x,y", "x^2,y^2"))
    assert radical_subgroup(F, dihedral(8)).order() == 2
    assert radical_subgroup(F, symmetric(4)).order() == 12
    assert apply(F, symmetric(3)).result.order() == 2
    for G in default_battery(24):
        R = apply(F, G).result
        involutions = [g for g in R.elements() if (g * g).is_identity()]
        assert all(a * b == b * a for a in involutions for b in involutions), G.name
    assert apply(F, ab_from_invariants(1, (4,))).result.canonical_invariants() == (1, (4,))


@pytest.mark.parametrize("default_first", [False, True])
def test_repeated_apply_is_equal_and_checks_the_caps_every_time(default_first):
    # apply keeps the result, the radical and eta's map on the group, and
    # builds eta around the group on each call; a call under smaller caps
    # fails the same way whether or not the memo holds a result
    small = Caps(order=12)
    for F in (Abelianization(), NilpotentQuotient(2), SpSubfunctor(2)):
        S4 = symmetric(4)
        G = PermGroup(S4.degree, S4.generators, name="S4")  # G stays unlisted
        for caps in [Caps(), small, Caps(), small][not default_first:]:
            if caps is small:
                with pytest.raises(CapExceededError) as exc:
                    apply(F, G, caps)
                assert (str(exc.value), exc.value.partial) == ("order cap 12 exceeded", 12)
                continue
            first, again = apply(F, G, caps), apply(F, G, caps)
            assert first.source is again.source is G
            assert first.result is again.result and first.radical is again.radical
            assert first.eta is not again.eta
            assert first.eta.code_map() == again.eta.code_map()
            assert first.eta.kernel().codes() == again.eta.kernel().codes()
    for F in (Abelianization(), SpSubfunctor(2), Nullification(cyclic(2).presentation)):
        A = ab_from_invariants(1, (4, 6))
        first, again = apply(F, A), apply(F, A)
        assert first.result is again.result and first.radical is again.radical
        assert (first.eta.domain, first.eta.codomain) == (again.eta.domain, again.eta.codomain)
        assert first.eta.matrix == again.eta.matrix


# every functor of the two benchmark sweeps; the criterion-4 functors are the
# first four
SWEEP_FUNCTORS = (
    Abelianization(),
    NilpotentQuotient(2),
    NilpotentQuotient(3),
    Variety((parse_word("x1^2"),)),
    SpSubfunctor(2),
    *(Nullification(H.presentation) for H in (
        cyclic(2), cyclic(3), elementary_abelian(2, 2), symmetric(3))),
    standard_quasi_c4_c2()[1],
)


# a two-generator T_A: its rule runs relator_solutions
T_V4 = GeneratedSubfunctor(elementary_abelian(2, 2).presentation)


def test_a_product_reads_its_functor_subgroup_off_its_factors():
    # W(A x B) = W(A) x W(B) (the product rule of functor_subgroup) against
    # the family rule on an unfactored copy, on every direct product of two
    # battery groups of order <= 8 and every criterion-4 pullback total along
    # a trivial hom (P = K x X); each such pullback is flat
    small = default_battery(8)
    products = [direct_product(A, B) for A in small for B in small]
    pulled = [
        pullback_extension(ext, f).extension
        for G in default_battery(64)
        for ext in extensions_from_group(G)
        for X in default_battery(16)
        for f in enumerate_homs(X, ext.base)
        if not any(f.image_codes)
    ]
    assert (len(products), len(pulled)) == (169, 2240)
    for P in [*products, *(ext.total for ext in pulled)]:
        assert P._factors is not None
        copy = P.named("copy")  # a copy has no factors: the family rule
        for F in (*SWEEP_FUNCTORS, T_V4):
            assert functor_subgroup(F, P).code_set() == functor_subgroup(F, copy).code_set()
    for ext in pulled:
        for F in (*SWEEP_FUNCTORS, T_V4):
            assert check_flatness(F, ext).is_flat


def _set_algebra_twin(ext):
    """ext on an unrecorded copy of its total, with the same projection: its
    verdict is the set algebra's, on W from the family rule."""
    copy = ext.total.named(ext.total.name)  # a copy has no record
    return Extension(GroupHom(copy, ext.base, ext.proj.images))


def _route(F, ext):
    """How check_flatness decides the pulled-back ext: the route whose
    exact facts extensions._fiber_facts reads off the source, or the set
    algebra on W(P) when it reads none."""
    record = ext.total._factors
    if extensions._fiber_facts(F, ext, DEFAULT_CAPS) is None:
        return "set algebra"
    if record.over is None:
        return "product"
    if F.laws is not None and functor_subgroup(F, ext.base).is_trivial():
        return "verbal"
    if len(record.over) == ext.base.order():
        return "restriction"
    return "verbal, W(X) != 1" if F.laws is not None else "one-generator T_A"


def test_a_pullback_verdict_read_off_its_fiber_is_the_set_algebra_verdict():
    # the verdict read off the source (extensions._fiber_facts: the trivial
    # leg, the verbal route with W(X) = 1 and with W(X) != 1, the
    # restriction route and the one-generator T_A route), witnesses
    # included, against the set algebra on an unrecorded copy of P, for the
    # 10 sweep functors and T_V4 on every criterion-4 pullback, along the
    # trivial hom too; every pullback that no route reads is compared too. A
    # verdict a route decides, flat or not, builds no W(P). The pullbacks of
    # one pass of each benchmark sweep (flat sources, probes of order <= 4
    # for its first five functors, <= 3 for the rest) are all read
    pullbacks, routes, sweeps = 0, collections.Counter(), collections.Counter()
    for G in default_battery(64):
        for ext in extensions_from_group(G):
            flat = {F for F in SWEEP_FUNCTORS if check_flatness(F, ext).is_flat}
            for X in default_battery(16):
                for f in enumerate_homs(X, ext.base):
                    pulled = pullback_extension(ext, f).extension
                    twin = _set_algebra_twin(pulled)
                    pullbacks += 1
                    for F in (*SWEEP_FUNCTORS, T_V4):
                        route = _route(F, pulled)
                        routes[route] += 1
                        variety = F in SWEEP_FUNCTORS[:5]
                        if F in flat and X.order() <= (4 if variety else 3):
                            sweeps["variety" if variety else "radical", route] += 1
                        verdict = check_flatness(F, pulled).to_dict()
                        assert verdict == check_flatness(F, twin).to_dict(), F.describe()
                        if route != "set algebra":
                            assert ("radical", F, DEFAULT_CAPS) not in pulled.total._memo
    assert pullbacks == 12_696
    assert routes == {"product": 24_640, "verbal": 27_955, "restriction": 10_723,
                      "verbal, W(X) != 1": 10_665, "one-generator T_A": 8_748,
                      "set algebra": 56_925}
    # 7,505 and 2,700 pullbacks, none of them by the set algebra
    assert sweeps == {("variety", "product"): 2_365, ("variety", "verbal"): 3_920,
                      ("variety", "restriction"): 579, ("variety", "verbal, W(X) != 1"): 125,
                      ("variety", "one-generator T_A"): 516,
                      ("radical", "product"): 1_563, ("radical", "restriction"): 1_137}


def test_a_pullback_that_no_route_finds_flat_reads_its_functor_subgroup_off_its_fiber():
    # [x1,x2]^2 on A4 -> S4 ->> C2 along a leg from elementary(2, k) onto
    # C2: W(X) = 1, so the verbal route reads inner exactly, and
    # W(S4) n A4 = A4 while W(A4) = 1, so it is not left exact. The verdict
    # and its witness are read off E_H = S4, whose census of 24^2 pairs
    # fits, with no W(P): the family rule on the unrecorded twin scans
    # |P|^2 pairs and exceeds the cap
    law = Variety((parse_word("[x1,x2]^2"),))
    ext = next(e for e in extensions_from_group(symmetric(4)) if e.kernel_group.order() == 12)
    tight = Caps(tuple_scan=24**2)
    for k, caps in ((2, tight), (7, DEFAULT_CAPS)):  # |P| = 48, 1,536
        X = elementary_abelian(2, k)
        f = next(f for f in enumerate_homs(X, ext.base) if any(f.image_codes))
        pulled = pullback_extension(ext, f).extension
        assert pulled.total.order() ** 2 > caps.tuple_scan
        assert _route(law, pulled) == "verbal"
        report = check_flatness(law, pulled, caps).to_dict()
        flags = (report["left_injective"], report["middle_exact"], report["right_surjective"])
        assert flags == (False, True, True)
        assert ("radical", law, caps) not in pulled.total._memo
        if k == 2:  # the family rule on P needs 48^2 pairs
            twin = _set_algebra_twin(pulled)
            assert report == check_flatness(law, twin).to_dict()
            with pytest.raises(CapExceededError):
                check_flatness(law, _set_algebra_twin(pulled), caps)


def test_only_the_second_projection_of_a_product_is_read_off_its_factors():
    # C2 x C2 onto its second factor is a pullback along the trivial hom;
    # onto the same C2 by the product of the coordinates it is not, and the
    # set algebra decides it
    C2 = cyclic(2)
    D = direct_product(C2, C2)  # recorded with C2 as its second factor
    g = C2.generators[0]
    second = Extension(GroupHom(D, C2, [C2.identity(), g]))
    other = Extension(GroupHom(D, C2, [g, g]))
    for F in (*SWEEP_FUNCTORS, T_V4):
        assert (_route(F, second), _route(F, other)) == ("product", "set algebra")
        for ext in (second, other):
            assert check_flatness(F, ext).to_dict() == \
                check_flatness(F, _set_algebra_twin(ext)).to_dict()


def test_the_t_a_read_finds_the_prop_4_6_shape_not_onto_and_keeps_its_witness():
    # D8 ->> V4 pulled back along V4 -> V4, (a, b) -> (1, x), which is
    # neither trivial nor injective: E_H = C4, whose S_2 = Z = S_2(Z), so
    # inner is empty, but f(Hom(C2, E_H)) = {1}, and the x of V4 with
    # x^2 = 1 over 1 generate only the leg's kernel, not S_2(V4) = V4. The
    # read finds onto false and the verdict names the set algebra's witness.
    # Along C4 onto x the same read finds onto true
    F, D8 = SpSubfunctor(2), dihedral(8)
    ext = extension_from_normal_subgroup(D8, derived_subgroup(D8))
    x = ext.proj.apply(D8.generators[0])  # the image of the rotation

    def leg(X, images):
        return next(f for f in enumerate_homs(X, ext.base) if f.images == images)

    V4 = elementary_abelian(2, 2)
    pulled = pullback_extension(ext, leg(V4, (ext.base.identity(), x))).extension
    E_H = pulled.total._factors.first()
    assert E_H.order() == 4 and functor_subgroup(F, E_H).code_set() == ext.kernel_group.code_set()
    assert _route(F, pulled) == "one-generator T_A"
    report = check_flatness(F, pulled).to_dict()
    assert report == check_flatness(F, _set_algebra_twin(pulled)).to_dict()
    assert report["witnesses"] == {"right": (
        "base element (2 3) is in the subfunctor of the base but not in the image of the "
        "subfunctor of the total group")}
    along_c4 = pullback_extension(ext, leg(cyclic(4), (x,))).extension
    assert _route(F, along_c4) == "one-generator T_A"
    assert check_flatness(F, along_c4).to_dict() == \
        check_flatness(F, _set_algebra_twin(along_c4)).to_dict()


def test_x1_squared_along_c4_reads_its_verdict_though_w_of_c4_is_c2():
    # the variety x1^2 pulled back along a leg from C4 that is neither
    # trivial nor injective, where W(C4) = C2 is not 1: on V4 ->> V4/N2 the
    # verbal route reads it flat, on C4 ->> C4/N2 W(C4) n N2 = N2 is not
    # W(N2) = 1 and the set algebra decides; each verdict is its twin's
    F = Variety((parse_word("x1^2"),))
    C4 = cyclic(4)
    assert functor_subgroup(F, C4).order() == 2
    routes = []
    for G in (elementary_abelian(2, 2), C4):
        ext = next(e for e in extensions_from_group(G) if e.kernel_group.order() == 2)
        f = next(f for f in enumerate_homs(C4, ext.base) if any(f.image_codes))
        pulled = pullback_extension(ext, f).extension
        routes.append(_route(F, pulled))
        report = check_flatness(F, pulled).to_dict()
        assert report == check_flatness(F, _set_algebra_twin(pulled)).to_dict()
        assert report["is_flat"]
    assert routes == ["verbal, W(X) != 1", "set algebra"]


def test_a_pullback_over_the_order_cap_fails_on_each_new_read():
    # the one-generator T_A read and the verbal read with W(X) != 1 read
    # E_H, K and X, all of which fit, yet the order cap holds on P, of
    # order 8, itself, on the first call and on a memo hit alike
    small = Caps(order=7)
    for F, route, G in ((SpSubfunctor(2), "one-generator T_A", dihedral(8)),
                        (Variety((parse_word("x1^2"),)), "verbal, W(X) != 1",
                         elementary_abelian(2, 2))):
        G = PermGroup(G.degree, G.generators, name=G.name)  # a memo of its own
        ext = next(e for e in extensions_from_group(G) if e.kernel_group.order() == 2)
        f = next(f for f in enumerate_homs(cyclic(4), ext.base)
                 if any(f.image_codes) and not f.is_injective())
        pulled = pullback_extension(ext, f).extension
        assert pulled.total.order() == 8
        for _ in range(2):
            with pytest.raises(CapExceededError) as exc:
                check_flatness(F, pulled, small)
            assert str(exc.value) == "order cap 7 exceeded"
        assert _route(F, pulled) == route
        assert check_flatness(F, pulled).is_flat
        with pytest.raises(CapExceededError, match="order cap 7 exceeded"):
            check_flatness(F, pulled, small)


def test_a_memoised_radical_fails_under_the_caps_a_fresh_group_fails_under():
    # a radical or quotient filled under the default caps is not handed out
    # under caps that its computation exceeds
    A = Presentation.parse("x,y", "x^2,y^2")
    cases = [
        (Variety((parse_word("[x1,x2]*x1^2"),)), Caps(tuple_scan=100),
         "tuple scan 24^2 exceeds cap 100"),
        (Localization((A, (parse_word("[x,y]", A.generators),))), Caps(hom_search=10),
         "hom search space 24^2 exceeds cap 10"),
    ]
    for F, small, message in cases:
        for run in (radical_subgroup, apply):
            S4 = symmetric(4)
            G = PermGroup(S4.degree, S4.generators, name="S4")  # a memo of its own
            for caps in (small, Caps(), small):
                if caps is small:
                    with pytest.raises(CapExceededError) as exc:
                        run(F, G, caps)
                    assert str(exc.value) == message
                else:
                    run(F, G, caps)
                    assert radical_subgroup(F, G, caps).order() == 12


def test_every_entry_point_fails_warm_as_it_fails_fresh():
    # each cap-guarded entry point, under a cap just below what it needs,
    # fails on a fresh group, twice, and, with the same message, on a group
    # whose memos a call under the default caps has filled
    def outcome(run, G, caps):
        try:
            return repr(run(G, caps))
        except CapExceededError as exc:
            return f"cap: {exc}"

    def fiber_verdict(kernel_order, X, leg=GroupHom.is_injective):
        # the verdict of G's extension with that kernel pulled back along a
        # leg from X, read off the fiber: the order of P, W(X), then W(K)
        # and, unless the leg is trivial, W(E_H) = W(G), each scanning
        # |group|^2 pairs for the law
        law = Variety((parse_word("[x1,x2]*x1^2"),))

        def run(G, caps):
            ext = next(e for e in extensions_from_group(G) if e.kernel_group.order() == kernel_order)
            f = next(f for f in enumerate_homs(X, ext.base) if leg(f))
            return check_flatness(law, pullback_extension(ext, f).extension, caps).to_dict()

        return run

    commutator = parse_word("[x1,x2]")
    cases = [
        (lambda G, caps: len(enumerate_homs(symmetric(3), G, caps)),
         (Caps(hom_search=24**2 - 1), Caps(hom_domain=5))),
        (lambda G, caps: hom_count(cyclic(2).presentation, G, caps),
         (Caps(hom_search=23), Caps(order=23))),
        (lambda G, caps: sorted(word_value_codes(G, commutator, caps)),
         (Caps(tuple_scan=24**2 - 1), Caps(word_arity=1))),
        (lambda G, caps: is_isomorphic(G, symmetric(4), caps),
         (Caps(iso_order=23), Caps(order=23))),
        (lambda G, caps: [N.codes() for N in normal_subgroups(G, caps)], (Caps(order=23),)),
        # flat pullbacks: W(X), then W(K) and W(E_H), over the cap
        (fiber_verdict(1, symmetric(4)), (Caps(tuple_scan=24**2 - 1),)),
        (fiber_verdict(12, cyclic(2)), (Caps(tuple_scan=12**2 - 1), Caps(tuple_scan=24**2 - 1))),
        # along the trivial hom: P = A4 x C4 over the order cap, then W(K)
        (fiber_verdict(12, cyclic(4), lambda f: not any(f.image_codes)),
         (Caps(order=47), Caps(tuple_scan=12**2 - 1))),
    ]
    for run, tight in cases:
        for caps in tight:
            S4 = symmetric(4)
            G = PermGroup(S4.degree, S4.generators, name="S4")
            fresh = outcome(run, G, caps)
            assert outcome(run, G, caps) == fresh
            G = PermGroup(S4.degree, S4.generators, name="S4")  # a memo of its own
            full = outcome(run, G, Caps())
            assert fresh.startswith("cap: ") and not full.startswith("cap: ")
            assert outcome(run, G, caps) == fresh
            assert outcome(run, G, Caps()) == full


def test_a_product_over_the_order_cap_fails_though_its_factors_fit():
    # the product rule reads W off the factors, yet the order cap holds on
    # the product itself, on the first call and on a memo hit alike
    caps = Caps(order=1000)
    for F, order in ((Abelianization(), 3600), (SpSubfunctor(2), 14400)):
        G = direct_product(symmetric(5), symmetric(5))  # 120 * 120 > 1000
        for _ in range(2):
            with pytest.raises(CapExceededError) as exc:
                functor_subgroup(F, G, caps)
            assert str(exc.value) == "order cap 1000 exceeded"
        assert functor_subgroup(F, G).order() == order
        with pytest.raises(CapExceededError, match="order cap 1000 exceeded"):
            functor_subgroup(F, G, caps)
        with pytest.raises(CapExceededError, match="order cap 1000 exceeded"):
            apply(F, direct_product(symmetric(5), symmetric(5)), caps)


def _rule_bypassed(F):
    """F as a plain L_f that runs the general chain: its laws spelled as
    words and the free-source rule switched off."""
    (A, S), = F.conditions
    L = Localization((A, tuple(Word.lcs_word(w) if isinstance(w, int) else w for w in S)))
    object.__setattr__(L, "laws", None)
    return L


def test_the_free_source_rule_is_the_general_chain():
    # on a free source the radical is the verbal subgroup of the laws: the
    # general preimage chain (lifted or evaluated seeds) must stop there
    battery = default_battery(64)
    cases = [
        (Abelianization(), battery),
        (Variety((parse_word("x1^2"),)), battery),
        (Variety((parse_word("x1^4"),)), battery),
        (Variety((parse_word("[x1,x2]"), parse_word("x1^3"))), battery),
        (NilpotentQuotient(2), [G for G in battery if G.order() <= 24]),
        (NilpotentQuotient(3), [G for G in battery if G.order() <= 16]),
    ]
    checked = 0
    for F, groups in cases:
        L = _rule_bypassed(F)
        assert F.laws is not None and L.laws is None and L.nullified is None
        for G in groups:
            chain = _localization_radical(L, G, DEFAULT_CAPS)
            assert chain.code_set() == radical_subgroup(F, G).code_set(), (F.describe(), G.name)
            checked += 1
    assert checked == 4 * 23 + 21 + 20
    abelian = [ab_from_invariants(r, t) for r, t in
               [(0, (2,)), (1, ()), (1, (4, 6)), (0, (2, 4, 8)), (2, (3, 9))]]
    for F, _ in cases:
        L = _rule_bypassed(F)
        for M in abelian:
            rule, chain = apply(F, M), apply(L, M)
            assert rule.result.canonical_invariants() == chain.result.canonical_invariants()
            assert rule.radical.canonical_invariants() == chain.radical.canonical_invariants()
            assert rule.eta.matrix == chain.eta.matrix


def test_a_nilpotent_class_reads_the_lower_central_series_itself():
    # the free-source rule hands a single class to the lcs memo: the radical
    # is that term, with no verbal closure of it and no "verbal" memo entry
    for F, c in ((Abelianization(), 1), (NilpotentQuotient(2), 2), (NilpotentQuotient(40), 40)):
        D16 = dihedral(16)
        G = PermGroup(D16.degree, D16.generators, name="D16")  # a memo of its own
        assert radical_subgroup(F, G) is lower_central_series(G, c)[c]
        assert not [k for k in G._memo if isinstance(k, tuple) and k[0] == "verbal"]


def test_every_literal_kind_keeps_its_spec():
    literals = {
        ("abelianization", ()): "abelianization",
        ("nilpotent", (("class", "3"),)): "nilpotent(class=3)",
        ("variety", (("words", "[x1^2,[x1,x2]]"),)): "variety(x1^2,x1^-1*x2^-1*x1*x2)",
        ("nullification", (("H", "symmetric(3)"),)): "nullification(<x,y|x^3,y^2,x*y*x*y>)",
        ("quasivariety", (("cond", "x^4"), ("impose", "x^2"))): "quasivariety(x1^4=>x1^2)",
        ("orthogonal", (("gens", "x,y"), ("rels", "[x^2,y^2]"), ("impose", "[[x,y]]"))):
            "orthogonal(<x,y|x^2,y^2>=>x^-1*y^-1*x*y)",
        ("sp", (("p", "3"),)): "sp(p=3)",
        ("generated", (("H", "elementary(2,2)"),)): "generated(<x,x'|x^2,x'^2,x^-1*x'^-1*x*x'>)",
    }
    for (kind, params), text in literals.items():
        F, twin = (parse_functor_literal(kind, dict(params)) for _ in range(2))
        assert F.describe() == text
        assert F is not twin and F == twin and hash(F) == hash(twin)
    assert Variety((Word.lcs_word(1),)) != Abelianization() != NilpotentQuotient(1)
    # S_p is the spelling of T_(C_p), with its own key
    assert SpSubfunctor(2).source == cyclic(2).presentation
    assert SpSubfunctor(2) != GeneratedSubfunctor(cyclic(2).presentation)
    # no conditions: every group is local
    assert radical_subgroup(QuasiVarietyReflection(()), dihedral(8)).is_trivial()
    assert NilpotentQuotient(2) != NilpotentQuotient(3)
    # the benchmark's sweeps name each functor's radical layer by type(F)
    import importlib.util

    import flatlab

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "sweeps.py"
    spec = importlib.util.spec_from_file_location("_sweeps", path)
    sweeps = sys.modules["_sweeps"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(sweeps)
        layers = [sweeps._radical_layer(flatlab, make(flatlab))[0]
                  for sweep in (sweeps.VARIETY_SWEEP, sweeps.RADICAL_SWEEP)
                  for _, make in sweep.functors]
    finally:
        del sys.modules["_sweeps"]
        if getattr(sweeps, "_on_gc", None) in gc.callbacks:
            gc.callbacks.remove(sweeps._on_gc)
    assert layers == [
        "functors.radical.abelianization", "functors.radical.nilpotent",
        "functors.radical.nilpotent", "functors.radical.variety", "functors.apply.sp",
        *["functors.radical.nullification"] * 4, "functors.radical.quasivariety",
    ]


class _UnreadableCaps(Caps):
    """Caps whose limits fail the test when read."""

    __slots__ = ()

    def __getattribute__(self, name):
        if name in Caps.__slots__ and name != "_key":
            raise AssertionError(f"the {name} cap was read")
        return super().__getattribute__(name)


def test_abelian_memo_computations_read_no_cap():
    # AbGroup.memo keys ("apply", F) without the caps, so what it computes
    # must read none
    x = Word.generator(0)
    functors_ = [
        *SWEEP_FUNCTORS,
        NilpotentQuotient(40),
        Variety((parse_word("[x1,x2]"), parse_word("x1^3"))),
        parse_functor_literal(
            "orthogonal", {"gens": "x,y", "rels": "[x^2,y^2]", "impose": "[[x,y]]"}
        ),
        QuasiVarietyReflection(((x**6, x**2), (x**9, x**3))),
        T_V4,
    ]
    for r, t in [(0, (2,)), (1, ()), (1, (4, 6)), (0, (2, 4, 8)), (2, (3, 9))]:
        for F in functors_:
            M = ab_from_invariants(r, t)
            assert apply(F, M, _UnreadableCaps()).result is apply(F, M).result
