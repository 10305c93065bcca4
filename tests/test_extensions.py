import gc

import pytest

from flatlab import permgroup
from flatlab.abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_from_invariants,
    ab_kernel,
    ab_pullback,
    enumerate_ab_homs,
    image_lattice_basis,
    kernel_lattice_basis,
    solve_columns,
    solve_in_column_lattice,
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
from flatlab.caps import Caps
from flatlab.errors import (
    CapExceededError,
    FlatlabError,
    FlavorMismatchError,
    NotSurjectiveError,
)
from flatlab.extensions import (
    Extension,
    certify_prop44,
    check_flatness,
    check_right_exactness,
    extension_from_normal_subgroup,
    extensions_from_group,
    induced_sequence,
    probe_conditional_flatness,
    pullback_extension,
)
from flatlab.functors import (
    Abelianization,
    NilpotentQuotient,
    Nullification,
    SpSubfunctor,
    Variety,
    induce,
    radical_subgroup,
    standard_quasi_c4_c2,
)
from flatlab.homs import enumerate_homs, realize_presentation
from flatlab.permgroup import (
    GroupHom,
    PermGroup,
    _extend_mapping,
    is_isomorphic,
    normal_subgroups,
    pullback_group,
    quotient,
)
from flatlab.verbal import derived_subgroup
from flatlab.words import Presentation, Word, parse_word

PHI, QUASI = standard_quasi_c4_c2()


def central_dihedral_extension():
    D8 = dihedral(8)
    return extension_from_normal_subgroup(D8, derived_subgroup(D8))


def integers_mod_two_extension():
    Z = ab_from_invariants(1, (), name="Z")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    return Extension(red, name="Z -> Z -> Z/2")


def test_from_surjection_identity():
    D8 = dihedral(8)
    ext = Extension(GroupHom.identity_hom(D8))
    assert ext.kernel_group.order() == 1


def test_from_surjection_dihedral():
    ext = central_dihedral_extension()
    assert ext.kernel_group.order() == 2
    assert ext.total.order() == 8
    assert ext.base.order() == 4
    assert ext.base.order_histogram() == {1: 1, 2: 3}


def test_from_surjection_abelian():
    ext = integers_mod_two_extension()
    assert ext.kernel_group.canonical_invariants() == (1, ())
    assert ext.total.canonical_invariants() == (1, ())
    assert ext.base.canonical_invariants() == (0, (2,))


def test_from_surjection_rejects_non_surjective():
    C4, C2 = cyclic(4), cyclic(2)
    x = C4.generators[0]
    incl = GroupHom(C2, C4, (x * x,))
    with pytest.raises(NotSurjectiveError):
        Extension(incl)
    Z = ab_from_invariants(1, ())
    with pytest.raises(NotSurjectiveError):
        Extension(AbHom(Z, Z, IntMatrix([[2]])))


def test_extension_rejects_mixed_flavors():
    # an extension is built from its surjection alone, so the only flavor
    # it can be handed that is not one is a non-homomorphism
    D8 = dihedral(8)
    for not_a_hom in (D8, ab_from_invariants(1, ()), quotient(D8, derived_subgroup(D8))):
        with pytest.raises(FlavorMismatchError, match="not a homomorphism"):
            Extension(not_a_hom)


def test_pullback_extension_identity_leg():
    ext = central_dihedral_extension()
    pulled = pullback_extension(ext, GroupHom.identity_hom(ext.base))
    assert is_isomorphic(pulled.extension.total, ext.total)
    assert pulled.extension.kernel_group.order() == ext.kernel_group.order()


def test_pullback_extension_produces_c4_case():
    ext = central_dihedral_extension()
    xbar = ext.proj.apply(dihedral(8).generators[0])
    incl = GroupHom(cyclic(2), ext.base, (xbar,))
    pulled = pullback_extension(ext, incl)
    assert pulled.extension.kernel_group.order() == 2
    assert pulled.extension.total.order() == 4
    assert is_isomorphic(pulled.extension.total, cyclic(4))
    assert pulled.extension.base.order() == 2


def test_pullback_extension_thm41_data():
    ext = integers_mod_two_extension()
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    phi = AbHom(C4, ext.base, IntMatrix([[1]]))
    pulled = pullback_extension(ext, phi)
    assert pulled.extension.total.canonical_invariants() == (1, (2,))
    assert pulled.extension.kernel_group.canonical_invariants() == (1, ())
    assert pulled.extension.base.canonical_invariants() == (0, (4,))


def test_flatness_abelianization_of_central_extension():
    # kernel generator lands in the commutator subgroup: left flag fails
    rep = check_flatness(Abelianization(), central_dihedral_extension())
    assert not rep.is_flat
    assert not rep.left_injective
    assert rep.middle_exact
    assert rep.right_surjective
    assert "left" in rep.witnesses


def test_flatness_quasivariety_on_local_extension():
    rep = check_flatness(QUASI, integers_mod_two_extension())
    assert rep.is_flat


def test_flatness_quasivariety_on_pulled_extension_fails_middle():
    ext = integers_mod_two_extension()
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    phi = AbHom(C4, ext.base, IntMatrix([[1]]))
    pulled = pullback_extension(ext, phi)
    rep = check_flatness(QUASI, pulled.extension)
    assert not rep.is_flat
    assert rep.left_injective
    assert not rep.middle_exact
    assert rep.right_surjective
    assert "middle" in rep.witnesses


def test_right_exactness_of_central_extension():
    rex = check_right_exactness(Abelianization(), central_dihedral_extension())
    assert rex.is_right_exact


def test_right_exactness_various():
    for ext in extensions_from_group(symmetric(4)):
        for F in (Abelianization(), NilpotentQuotient(2)):
            assert check_right_exactness(F, ext).is_right_exact


def test_right_exactness_subfunctor_rejected():
    with pytest.raises(FlatlabError):
        check_right_exactness(SpSubfunctor(2), central_dihedral_extension())


def test_trivial_extension_right_exact():
    D8 = dihedral(8)
    ext = extension_from_normal_subgroup(D8, D8.subgroup(()))
    assert check_right_exactness(Abelianization(), ext).is_right_exact


def test_s2_flatness_of_central_extension_and_pullback():
    ext = central_dihedral_extension()
    assert check_flatness(SpSubfunctor(2), ext).is_flat
    xbar = ext.proj.apply(dihedral(8).generators[0])
    incl = GroupHom(cyclic(2), ext.base, (xbar,))
    pulled = pullback_extension(ext, incl)
    rep = check_flatness(SpSubfunctor(2), pulled.extension)
    assert not rep.is_flat
    assert rep.left_injective and rep.middle_exact
    assert not rep.right_surjective
    assert "right" in rep.witnesses


def test_induced_sequence_objects():
    seq = induced_sequence(Abelianization(), central_dihedral_extension())
    assert seq.left_group.order() == 2
    assert seq.middle_group.order() == 4
    assert seq.right_group.order() == 4
    seq_ab = induced_sequence(QUASI, integers_mod_two_extension())
    assert seq_ab.middle_group.canonical_invariants() == (1, ())


def test_probe_finds_dihedral_counterexample():
    ext = central_dihedral_extension()
    probe = probe_conditional_flatness(SpSubfunctor(2), ext, [cyclic(2)])
    assert len(probe.entries) == 4
    assert len(probe.counterexamples()) == 1


def test_probe_abelianization_all_flat():
    G = product(cyclic(2), cyclic(4))
    N = G.subgroup_from_elements(
        {e for e in G.elements() if all(e.images[i] == i for i in range(2, 6))}
    )
    ext = extension_from_normal_subgroup(G, N)
    probe = probe_conditional_flatness(
        Abelianization(), ext, [trivial_group(), cyclic(2), cyclic(4), elementary_abelian(2, 2)]
    )
    assert probe.all_pullbacks_flat


def test_probe_trivial_catalog():
    ext = central_dihedral_extension()
    probe = probe_conditional_flatness(SpSubfunctor(2), ext, [trivial_group()])
    assert len(probe.entries) == 1
    assert probe.all_pullbacks_flat


def test_probe_requires_flat_base():
    ext = central_dihedral_extension()
    with pytest.raises(FlatlabError):
        probe_conditional_flatness(Abelianization(), ext, [cyclic(2)])
    probe = probe_conditional_flatness(
        Abelianization(), ext, [cyclic(2)], allow_nonflat_base=True
    )
    assert not probe.base_flat


def test_certify_thm41_data():
    Z = ab_from_invariants(1, (), name="Z")
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    cert = certify_prop44(PHI, QUASI, C4, Z, red)
    assert cert.all_hypotheses_hold()
    assert cert.pullback_description == "rank 1, torsion [2]"
    assert cert.pullback_local.is_local
    assert cert.conclusion_asserted
    assert cert.source_flatness.is_flat


def test_certify_identity_localization_fails_hypothesis():
    # a group that is already local: eta is an isomorphism, hypothesis fails
    Z = ab_from_invariants(1, (), name="Z")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    cert = certify_prop44(PHI, QUASI, Z2, Z, red)
    assert not cert.hypotheses["eta_non_identity"]
    assert not cert.conclusion_asserted


def test_certify_nonlocal_e_fails_hypothesis():
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    ident = AbHom.identity_hom(C4)
    # E = C4 is not local; use C4 ->> L(C4) = C2 as the surjection
    cert = certify_prop44(PHI, QUASI, C4, C4, AbHom(C4, ab_from_invariants(0, (2,)), IntMatrix([[1]])))
    assert not cert.hypotheses["E_local"]
    assert not cert.conclusion_asserted


def test_pullback_functoriality_up_to_iso():
    # pulling back along f o g agrees with pulling back in two steps
    ext = central_dihedral_extension()
    V4 = ext.base
    C2 = cyclic(2)
    xbar = ext.proj.apply(dihedral(8).generators[0])
    f = GroupHom(C2, V4, (xbar,))
    one = trivial_group()
    g = GroupHom(one, C2, ())
    once = pullback_extension(ext, GroupHom(one, V4, ()))
    twice = pullback_extension(pullback_extension(ext, f).extension, g)
    assert is_isomorphic(once.extension.total, twice.extension.total)


def test_extensions_from_group_counts():
    assert len(extensions_from_group(dihedral(8))) == 6
    assert len(extensions_from_group(quaternion(8))) == 6


def _fresh(G):
    """A copy of G that no earlier call has seen, so nothing is kept on it."""
    return PermGroup(G.degree, G.generators, G.presentation, G.presentation_exact, G.name)


def test_extensions_and_homs_are_built_once_and_handed_out_in_new_lists():
    G = _fresh(dihedral(8))
    first = extensions_from_group(G)
    again = extensions_from_group(G)
    assert again is not first
    assert all(a is b for a, b in zip(first, again, strict=True))
    first.clear()
    assert [e.base.order() for e in extensions_from_group(G)] == [8, 4, 2, 2, 2, 1]
    V4, base = elementary_abelian(2, 2), again[1].base  # D8/Z = V4
    homs = enumerate_homs(V4, base)
    more = enumerate_homs(V4, base)
    assert more is not homs and len(homs) == 16
    assert all(f is g for f, g in zip(homs, more, strict=True))
    homs.pop()
    assert len(enumerate_homs(V4, base)) == 16
    # other caps build their own, since a hom keeps the caps it was built with
    assert enumerate_homs(V4, base, Caps(order=64))[0] is not more[0]


def test_building_an_extension_renames_no_group_of_the_caller():
    G = _fresh(dihedral(8))
    names = [N.describe() for N in normal_subgroups(G)]
    assert names == ["1", "ncl", "ncl", "ncl", "ncl", "<perm group deg 4, order 8>"]
    exts = [e.describe() for e in extensions_from_group(G)]
    assert [N.describe() for N in normal_subgroups(G)] == names
    assert exts == [
        "1 -> D8 -> D8/1", "N2 -> D8 -> D8/N2", "N4 -> D8 -> D8/N4",
        "N4 -> D8 -> D8/N4", "N4 -> D8 -> D8/N4", "N8 -> D8 -> D8/N8",
    ]
    D = derived_subgroup(G)
    assert extension_from_normal_subgroup(G, D).describe() == "N2 -> D8 -> D8/N2"
    assert D.name == "ncl"
    # a kernel handed over without a name is named on the extension only
    N = G._sub(D.codes())
    assert Extension(quotient(G, N)[1]).describe() == "ker -> D8 -> D8/N"
    assert N.name is None


@pytest.mark.parametrize("default_first", [False, True])
def test_a_capped_build_fails_the_same_way_whatever_ran_before(default_first):
    G, S4 = _fresh(symmetric(4)), _fresh(symmetric(4))  # G stays unlisted
    base = Extension(quotient(S4, normal_subgroups(S4)[1])[1]).base  # S4/V4 = S3
    X = elementary_abelian(2, 2)
    capped = [
        (lambda caps: extensions_from_group(G, caps), Caps(order=12),
         "order cap 12 exceeded", 12),
        (lambda caps: enumerate_homs(X, base, caps), Caps(hom_search=30),
         "hom search space 6^2 exceeds cap 30", None),
    ]
    for build, small, message, partial in capped:
        for caps in [Caps(), small, Caps(), small][not default_first:]:
            if caps is small:
                with pytest.raises(CapExceededError) as exc:
                    build(caps)
                assert (str(exc.value), exc.value.partial) == (message, partial)
            else:
                assert build(caps)


def test_a_search_builds_each_extension_once_for_every_functor(monkeypatch):
    from flatlab import extensions
    from flatlab.search import search_counterexamples

    battery = [_fresh(G) for G in default_battery(16)]
    quotients = []
    original = extensions.quotient

    def counted(G, N, caps):
        quotients.append(N)
        return original(G, N, caps)

    monkeypatch.setattr(extensions, "quotient", counted)
    for F in (Abelianization(), NilpotentQuotient(2)):
        search_counterexamples(F, 16, 4, battery=battery)
    assert len(quotients) == sum(len(normal_subgroups(G)) for G in battery) == 99


CYCLE_FAMILIES = (
    Abelianization(),
    NilpotentQuotient(3),
    Variety((parse_word("x1^2"),)),
    Nullification(cyclic(2).presentation),
    Nullification(symmetric(3).presentation),
    QUASI,
    SpSubfunctor(2),
)


@pytest.mark.parametrize("F", CYCLE_FAMILIES, ids=lambda F: F.describe())
def test_a_pullback_verdict_leaves_no_cyclic_garbage(F):
    # no memo value references its group, so every pullback, its groups and
    # its verdict die by reference count: with the collector off, a sweep's
    # inner loop leaves nothing for it to find
    pairs = [
        (ext, f)
        for G in default_battery(16)
        for ext in extensions_from_group(G)
        if check_flatness(F, ext).is_flat
        for X in default_battery(4)
        for f in enumerate_homs(X, ext.base)
    ]
    assert len(pairs) > 200
    gc.collect()
    gc.disable()
    try:
        for ext, f in pairs:
            check_flatness(F, pullback_extension(ext, f).extension)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pullback_along_localization_reproduces_counterexample():
    from flatlab.extensions import pullback_along_localization

    # the thm-4.1 pullback IS the pullback along the localization map of C4
    ext = integers_mod_two_extension()
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    pulled = pullback_along_localization(QUASI, ext, C4)
    assert pulled.extension.total.canonical_invariants() == (1, (2,))
    assert not check_flatness(QUASI, pulled.extension).is_flat


def test_abelian_subfunctor_flatness():
    # torsion restriction of Z/2 -> Z/4 -> Z/2 fails right surjectivity,
    # mirroring the permutation-flavor order-4 counterexample
    C2 = ab_from_invariants(0, (2,), name="Z/2")
    C4 = AbGroup(1, IntMatrix([[4]]), name="Z/4")
    proj = AbHom(C4, C2, IntMatrix([[1]]))
    ext = Extension(proj)
    rep = check_flatness(SpSubfunctor(2), ext)
    assert not rep.is_flat
    assert rep.left_injective and rep.middle_exact
    assert not rep.right_surjective
    # and the flat direction: Z -> Z -> Z/2 has an exact torsion restriction
    flat_rep = check_flatness(SpSubfunctor(2), integers_mod_two_extension())
    assert not flat_rep.right_surjective  # 0 -> 0 -> Z/2 is not onto either


def test_probe_abelian_extension_with_perm_test_groups():
    ext = integers_mod_two_extension()
    probe = probe_conditional_flatness(QUASI, ext, [trivial_group(), cyclic(2)])
    assert probe.all_pullbacks_flat
    assert len(probe.entries) == 3  # 1 trivial hom + 2 maps from C2
    with pytest.raises(FlavorMismatchError):
        probe_conditional_flatness(QUASI, ext, [symmetric(3)])


def test_certify_perm_flavor_reports_hypothesis_failures():
    # with the C4 -> C2 test map no finite group can satisfy every
    # hypothesis (a surjection onto C2 forces even order, hence an
    # involution, hence a nontrivial map from C2); the certificate must
    # report the failure and withhold the conclusion
    from flatlab.permgroup import GroupHom

    C8 = cyclic(8)
    D8 = dihedral(8)
    # the localization of C8 is C2; rebase a surjection D8 ->> C2 onto it
    surj = GroupHom(D8, cyclic(2), (cyclic(2).generators[0], cyclic(2).identity()))
    cert = certify_prop44(PHI, QUASI, C8, D8, surj)
    assert not cert.hypotheses["kernel_local"]  # radical of C8 is C4
    assert not cert.hypotheses["hom_B_E_trivial"]
    assert not cert.conclusion_asserted


def test_induced_sequence_subfunctor():
    seq = induced_sequence(SpSubfunctor(2), central_dihedral_extension())
    assert seq.left_group.order() == 2
    assert seq.middle_group.order() == 8
    assert seq.right_group.order() == 4


def test_pullback_along_localization_perm():
    from flatlab.extensions import pullback_along_localization
    from flatlab.functors import Abelianization

    # an extension of abelian groups over the abelianization of the dihedral
    # group, pulled back along its localization map
    D8 = dihedral(8)
    V4 = elementary_abelian(2, 2)
    ext = extension_from_normal_subgroup(
        product(cyclic(2), V4),
        product(cyclic(2), V4).subgroup_from_elements(
            {e for e in product(cyclic(2), V4).elements() if all(e.images[i] == i for i in range(2, 6))}
        ),
    )
    pulled = pullback_along_localization(Abelianization(), ext, D8)
    assert pulled.extension.base.order() == 8
    assert pulled.extension.total.order() == 16


def test_abelian_left_witness_names_a_nonzero_element():
    # Z presented on two generators: the localized kernel's generator 0 is zero
    E = AbGroup(2, IntMatrix([[0, 8], [0, 1]]))
    G = AbGroup(1, IntMatrix([[2]]))
    ext = Extension(AbHom(E, G, IntMatrix([[3, 0]])))
    F = Variety((Word.generator(0) ** 2,))
    K1, _ = ab_kernel(induce(F, ext.iota))
    assert not any(K1.generator_element(0))
    rep = check_flatness(F, ext)
    assert not rep.left_injective
    assert rep.witnesses["left"] == (
        "localized kernel element (1 mod 2) dies in the localized total group"
    )


def test_right_exactness_is_a_view_of_the_flatness_report():
    ext = central_dihedral_extension()
    rex = check_right_exactness(Abelianization(), ext)
    flat = check_flatness(Abelianization(), ext)
    assert rex.to_dict() == flat.to_dict()
    assert rex.is_right_exact and not rex.is_flat


def _middle_against_closure(F, ext) -> bool:
    """check_flatness's middle flag and witness against the subgroup
    M = <iota(K), R(E)> they stand for, which must be the preimage of
    proj(R(E)); True when the middle flag fails."""
    E, proj = ext.total, ext.proj.code_map()
    RE = radical_subgroup(F, E)
    M = E.generate(ext.iota.image().gen_codes() + RE.gen_codes()).code_set()
    proj_re = {proj[x] for x in RE.codes()}
    assert M == {e for e in E.codes() if proj[e] in proj_re}
    rg = radical_subgroup(F, ext.base).code_set()
    outside = [e for e in E.codes() if proj[e] in rg and e not in M]
    rep = check_flatness(F, ext)
    assert rep.middle_exact == (not outside)
    if outside:
        cycles = E.ambient().decode(outside[0]).cycle_string()
        assert rep.witnesses["middle"].startswith(f"total element {cycles} ")
    return bool(outside)


def test_middle_exactness_scan_matches_the_closure():
    # every epireflection of the benchmark sweeps on the battery extensions
    # and their pullbacks along default_battery(4), all middle exact
    functors = [
        Abelianization(),
        NilpotentQuotient(2),
        NilpotentQuotient(3),
        Variety((parse_word("x1^2"),)),
        *(
            Nullification(G.presentation)
            for G in (cyclic(2), cyclic(3), elementary_abelian(2, 2), symmetric(3))
        ),
        QUASI,
    ]
    checked = 0
    for G in default_battery(64):
        for ext in extensions_from_group(G):
            pulled = [
                pullback_extension(ext, f).extension
                for X in default_battery(4)
                for f in enumerate_homs(X, ext.base)
            ]
            for ext2 in [ext, *pulled]:
                for F in functors:
                    assert not _middle_against_closure(F, ext2)
                    checked += 1
    assert checked == 9 * 1_869
    # C2 -> SL(2,5) -> A5 is not: SL(2,5) has one involution, so no A5 inside,
    # and its A5-radical is trivial while A5's is all of A5
    SL25 = realize_presentation(Presentation.parse("r,s,t", "r^2*t^-5,s^3*t^-5,r*s*t^-4"))
    centre = next(N for N in normal_subgroups(SL25) if N.order() == 2)
    ext = extension_from_normal_subgroup(SL25, centre)
    assert _middle_against_closure(Nullification(alternating(5).presentation), ext)


def test_pullback_is_the_fiber_product_and_its_kernel_is_generated(battery_pullbacks):
    for ext, f, pulled in battery_pullbacks:
        new = pulled.extension
        P, K2, pr_x = new.total, new.kernel_group, new.proj
        E, X = ext.total, f.domain
        nx = X.ambient().size
        proj, fmap = ext.proj.code_map(), f.code_map()
        fibers = [e * nx + x for e in E.codes() for x in X.codes() if proj[e] == fmap[x]]
        assert list(P.codes()) == fibers
        # K2 = ker(pr_x), and the closure of its generators is K2
        assert K2 is pr_x.kernel()
        assert K2.code_set() == {p for p, x in pr_x.code_map().items() if x == 0}
        assert P.generate(K2.gen_codes()).codes() == K2.codes()
        assert new.iota.image() is K2
        # P's generators generate it, pr_x's image is the x with a lift, and
        # the composed canonical map is the one its generator images define
        assert P.generate(P.gen_codes()).codes() == P.codes()
        lifts = set(proj.values())
        assert pr_x.image().code_set() == {x for x in X.codes() if fmap[x] in lifts}
        canonical = pulled.canonical_kernel_map
        assert canonical.code_map() == _extend_mapping(
            ext.kernel_group, P, canonical.image_codes, Caps()
        )
    assert len(battery_pullbacks) == 1_422


def test_a_pullback_runs_no_closure(monkeypatch):
    # once an extension's projection has its fibers and its kernel's
    # generators (memoised on the projection), a pullback lists P from the
    # fibers and closes nothing
    calls = []
    original = permgroup._closure

    def counted(*args, **kw):
        calls.append(args[0])
        return original(*args, **kw)

    pairs = [
        (ext, f)
        for G in default_battery(16)
        for ext in extensions_from_group(G)
        for X in default_battery(4)
        for f in enumerate_homs(X, ext.base)
    ]
    for ext, f in pairs:
        pullback_extension(ext, f)
    monkeypatch.setattr(permgroup, "_closure", counted)
    for ext, f in pairs:
        calls.clear()
        pullback_extension(ext, f)
        assert calls == []
    assert len(pairs) == 1_422


def test_an_inclusion_runs_no_edge_check(monkeypatch):
    # an inclusion, of the trivial subgroup too, and the identity of a
    # presented group are the identity map on codes: no BFS verifies them.
    # A quotient projection and a pullback's maps are handed their maps, and
    # an enumerated hom runs the BFS once, as it is built: the bases are
    # fresh quotients, so no earlier enumeration has kept their homs, and a
    # repeated enumeration builds none.
    calls = []
    original = permgroup._extend_mapping

    def counted(*args, **kw):
        calls.append(args[0])
        return original(*args, **kw)

    monkeypatch.setattr(permgroup, "_extend_mapping", counted)
    for G in default_battery(16):
        assert G.presentation_exact
        incl = GroupHom.inclusion(G.generate((), "1"), G)
        assert incl.code_map() == {0: 0} and incl.kernel().is_trivial()
        ident = GroupHom.identity_hom(G)
        assert ident.code_map() == {x: x for x in G.codes()}
    assert calls == []
    exts = [ext for G in default_battery(16) for ext in extensions_from_group(G)]
    assert calls == []
    exts = [Extension(quotient(G, N)[1])
            for G in default_battery(16) for N in normal_subgroups(G)]
    assert calls == []
    pairs = [(ext, f) for ext in exts for X in default_battery(4)
             for f in enumerate_homs(X, ext.base)]
    assert len(calls) == len(pairs) == 1_422
    calls.clear()
    assert [(ext, f) for ext in exts for X in default_battery(4)
            for f in enumerate_homs(X, ext.base)] == pairs
    assert calls == []
    for ext, f in pairs:
        pullback_extension(ext, f)
    assert calls == []


def test_a_capped_pullback_fails_the_same_way_every_time():
    # C4 -> C4 -> 1 pulled back along C4 -> 1: P = C4 x C4 has 16 elements
    C4 = cyclic(4)
    ext = extension_from_normal_subgroup(C4, C4)
    f = GroupHom(C4, ext.base, [ext.base.identity()])
    small = Caps(order=8)
    for caps in (small, Caps(), small):
        if caps is small:
            for build in (pullback_extension, pullback_group):
                with pytest.raises(CapExceededError) as exc:
                    build(ext if build is pullback_extension else ext.proj, f, caps)
                assert str(exc.value) == "order cap 8 exceeded"
                assert exc.value.partial == 8
        else:
            assert pullback_extension(ext, f, caps).extension.total.order() == 16


def _same_lattice(A, B) -> bool:
    return solve_columns(B, A) is not None and solve_columns(A, B) is not None


AB_CAST = (
    Abelianization(), Variety((parse_word("x1^2"),)), QUASI,
    Nullification(cyclic(2).presentation), SpSubfunctor(2),
)


def _exact_by_construction(ext) -> bool:
    """The checks an extension no longer runs: its kernel inclusion is
    injective with image lattice ker(proj), and im(F iota) lies in
    ker(F proj) for every functor of the abelian flavor's cast."""
    if not ext.iota.is_injective():
        return False
    if not _same_lattice(image_lattice_basis(ext.iota), kernel_lattice_basis(ext.proj)):
        return False
    # im(F iota) <= ker(F proj): the composite F(proj) F(iota) is zero
    return all(induce(F, ext.iota).then(induce(F, ext.proj)).is_zero() for F in AB_CAST)


def test_abelian_pullbacks_need_none_of_the_deleted_checks():
    # ab_pullback's P is a basis of {(e, x) : f(e) - g(x) in rel(G)}, the
    # canonical map's image is iota(K) x 0 = ker(P -> X), an extension's
    # kernel inclusion is exact by construction, and middle exactness
    # asks only ker(F proj) <= im(F iota): the checks of the square, of
    # injectivity, of those images and of im(F iota) <= ker(F proj), run
    # here, pass on every pullback of every surjection between small
    # abelian groups
    g = ab_from_invariants
    sources = [g(0, (2,)), g(0, (4,)), g(0, (2, 2)), g(0, (2, 4)), g(1, ()), g(1, (2,))]
    bases = [g(0, (2,)), g(0, (4,)), g(0, (2, 2))]
    probes = [g(0, ()), g(0, (2,)), g(0, (4,)), g(1, ())]
    exts = [
        Extension(p)
        for E in sources for B in bases for p in enumerate_ab_homs(E, B) if p.is_surjective()
    ]
    pulled_count = 0
    for ext in exts:
        assert _exact_by_construction(ext)
        for X in probes:
            for f in enumerate_ab_homs(X, ext.base):
                P, pr_e, pr_x = ab_pullback(ext.proj, f)
                lhs, rhs = ext.proj.matrix * pr_e.matrix, f.matrix * pr_x.matrix
                for j in range(P.ngens):
                    delta = tuple(a - b for a, b in zip(lhs.column(j), rhs.column(j)))
                    assert solve_in_column_lattice(ext.base.snf, delta) is not None
                pulled = pullback_extension(ext, f)
                canonical = pulled.canonical_kernel_map
                assert canonical.is_injective()
                im, ker = image_lattice_basis(canonical), kernel_lattice_basis(pulled.extension.proj)
                assert _same_lattice(im, ker)
                assert _exact_by_construction(pulled.extension)
                pulled_count += 1
    assert (len(exts), pulled_count) == (42, 450)


def test_a_leg_into_a_copy_of_the_base_gives_the_same_pullback():
    # a leg into the same group built again, in an ambient of its own or as
    # a subgroup of the symmetric group (whose codes differ from the base's),
    # is recoded into the base's ambient: P's codes and the verdicts agree
    functors_ = (Abelianization(), NilpotentQuotient(2), SpSubfunctor(2))
    compared = 0
    for G in default_battery(8):
        for ext in extensions_from_group(G):
            base = ext.base
            copies = [permgroup.PermGroup(base.degree, base.generators, name=base.name)]
            if 2 < base.degree <= 5:
                copies.append(symmetric(base.degree).subgroup(base.generators))
                assert copies[-1].codes() != base.codes()
            for X in default_battery(4):
                for f in enumerate_homs(X, base):
                    a = pullback_extension(ext, f).extension
                    flat = [check_flatness(F, a).to_dict() for F in functors_]
                    for copy in copies:
                        f_copy = GroupHom(X, copy, f.images)
                        b = pullback_extension(ext, f_copy).extension
                        assert b.total.codes() == a.total.codes()
                        assert [check_flatness(F, b).to_dict() for F in functors_] == flat
                        compared += 1
    assert compared == 1_229
