import pytest

from flatlab.catalog import (
    alternating,
    catalog,
    cyclic,
    default_battery,
    dihedral,
    elementary_abelian,
    parse_group_literal,
    product,
    quaternion,
    symmetric,
    trivial_group,
)
from flatlab.errors import CatalogError
from flatlab.homs import realize_presentation
from flatlab.permgroup import is_isomorphic


def test_cyclic_one_is_trivial():
    assert cyclic(1).order() == 1


def test_dihedral_8():
    D8 = dihedral(8)
    assert D8.order() == 8
    assert D8.order_histogram()[2] == 5


def test_quaternion():
    Q8 = quaternion(8)
    assert Q8.order() == 8
    assert Q8.order_histogram() == {1: 1, 2: 1, 4: 6}


def test_symmetric_alternating_orders():
    assert [symmetric(n).order() for n in range(1, 6)] == [1, 2, 6, 24, 120]
    assert [alternating(n).order() for n in range(1, 6)] == [1, 1, 3, 12, 60]


def test_alternating_5():
    assert alternating(5).order() == 60


def test_elementary_abelian():
    assert elementary_abelian(2, 3).order() == 8
    assert elementary_abelian(3, 2).order() == 9
    assert elementary_abelian(5, 0).order() == 1
    with pytest.raises(CatalogError):
        elementary_abelian(4, 2)


def test_catalog_dispatch_and_errors():
    assert catalog("cyclic", 6).order() == 6
    assert catalog("dihedral", 12).order() == 12
    with pytest.raises(CatalogError):
        catalog("sporadic", 1)
    with pytest.raises(CatalogError):
        catalog("symmetric", 6)
    with pytest.raises(CatalogError):
        catalog("alternating", 7)
    with pytest.raises(CatalogError):
        catalog("dihedral", 7)


def test_parse_group_literal():
    assert parse_group_literal("cyclic(12)").order() == 12
    assert parse_group_literal("trivial").order() == 1
    G = parse_group_literal("product(cyclic(2),dihedral(8))")
    assert G.order() == 16
    with pytest.raises(CatalogError):
        parse_group_literal("widget(3)")


def test_products_multiply_orders():
    G = product(cyclic(3), symmetric(3))
    assert G.order() == 18
    assert not G.is_abelian()


def certified_groups():
    """Every catalog group the battery and the scenarios draw on."""
    return tuple(default_battery(64)) + (
        symmetric(4),
        symmetric(5),
        alternating(5),
        dihedral(6),
        dihedral(16),
        dihedral(32),
        elementary_abelian(2, 4),
    )


def test_presentations_hold_and_are_exact_small():
    """Every catalog presentation is machine-certified exact: its relators
    hold on the catalog generators, so the catalog group is a quotient of
    the presented group, and the presented group realizes to the same order,
    so that quotient map is an isomorphism."""
    for G in certified_groups():
        ident = G.identity()
        for rel in G.presentation.relators:
            assert rel.evaluate(G.generators, ident).is_identity(), G.name
        R = realize_presentation(G.presentation)
        assert R.order() == G.order(), G.name
        if G.order() <= 12:
            assert is_isomorphic(R, G), G.name


def test_presented_orders_match_sympy():
    """Differential oracle: sympy's coset enumeration gives the same
    presented order for every certified catalog group."""
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    for G in certified_groups():
        F, *gens = free_group(",".join(G.presentation.generators))
        rels = [rel.evaluate(gens, F.identity) for rel in G.presentation.relators]
        R = realize_presentation(G.presentation)
        assert FpGroup(F, rels).order() == R.order(), G.name


def test_s4_presentation_endomorphism_fingerprint():
    """An independent check of the S4 presentation: hom counts derived from
    the normal subgroup lattice (kernels 1, V4, A4, S4 give 24 + 24 + 9 + 1
    endomorphisms)."""
    from flatlab.homs import hom_count
    from flatlab.catalog import symmetric as sym

    S4 = sym(4)
    assert hom_count(S4.presentation, S4) == 58
    assert hom_count(S4.presentation, cyclic(2)) == 2
    assert hom_count(S4.presentation, symmetric(3)) == 10
    # only the trivial map and the three maps through the sign character
    # (image one of the three involutions) land in the alternating group
    assert hom_count(S4.presentation, alternating(4)) == 4


def test_battery_is_deterministic_and_bounded():
    b64 = default_battery(64)
    assert [g.name for g in b64] == [g.name for g in default_battery(64)]
    assert all(g.order() <= 64 for g in b64)
    names = [g.name for g in b64]
    for expected in ("C2", "C3", "C4", "C2^2", "S3", "D8", "Q8", "A5", "C64"):
        assert expected in names
    b16 = default_battery(16)
    assert all(g.order() <= 16 for g in b16)


def test_every_battery_call_hands_out_the_same_groups():
    # the memos of a battery group (its extensions, the homs into it, its
    # radicals) are built once per process, C2xC4's too
    first, again = default_battery(64), default_battery(64)
    assert len(first) == 23
    assert all(g is h for g, h in zip(first, again))
    assert product(cyclic(2), cyclic(4)) is product(cyclic(2), cyclic(4))
    assert product(cyclic(2), cyclic(4)) is not product(cyclic(2), cyclic(4), name="C2xC4")
