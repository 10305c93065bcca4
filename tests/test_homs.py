from itertools import product

import pytest

from flatlab.caps import Caps
from flatlab.catalog import (
    cyclic,
    default_battery,
    dihedral,
    quaternion,
    symmetric,
    trivial_group,
)
from flatlab.errors import CapExceededError, InvalidHomomorphismError, RealizationError
from flatlab.homs import (
    enumerate_homs,
    hom_count,
    hom_image_codes,
    realize_presentation,
)
from flatlab.permgroup import GroupHom, is_isomorphic
from flatlab.words import Presentation, Word, parse_word


def test_hom_c2_d8():
    # 1 trivial + 5 involutions of the dihedral group
    assert hom_count(cyclic(2).presentation, dihedral(8)) == 6


def test_hom_c4_d8():
    # every element of the dihedral group has order dividing 4
    assert hom_count(cyclic(4).presentation, dihedral(8)) == 8


def test_hom_into_trivial():
    assert hom_count(cyclic(4).presentation, trivial_group()) == 1


def test_the_edge_check_accepts_exactly_the_relator_solutions():
    # the one verification rule of GroupHom against the relators as oracle
    for D in default_battery(8):
        for X in default_battery(8):
            homs = set(hom_image_codes(D.presentation, X))
            for t in product(X.codes(), repeat=len(D.gen_codes())):
                try:
                    GroupHom._from_codes(D, X, t)
                except InvalidHomomorphismError:
                    assert t not in homs, (D.name, X.name, t)
                else:
                    assert t in homs, (D.name, X.name, t)


def test_the_hom_domain_cap_applies_when_a_hom_is_built():
    # an enumerated hom is verified, and capped, as it is built: every call
    # fails the same way, whatever ran before
    C8, C2, caps = cyclic(8), cyclic(2), Caps(hom_domain=4)
    for _ in range(2):
        with pytest.raises(CapExceededError) as exc:
            enumerate_homs(C8, C2, caps)
        assert str(exc.value) == "hom verification cap 4 exceeded by |domain| = 8"


def test_hom_count_invariant_under_isomorphic_replacement():
    pres = cyclic(2).presentation
    D8 = dihedral(8)
    # a relabeled copy of the same group
    from flatlab.perm import parse_cycle_string
    from flatlab.permgroup import PermGroup

    x = parse_cycle_string("(1 2 3 0)", 4) ** 1
    copy = PermGroup(4, (parse_cycle_string("(1 2 3 0)", 4), parse_cycle_string("(0 2)", 4)))
    assert is_isomorphic(D8, copy)
    assert hom_count(pres, D8) == hom_count(pres, copy)


def test_enumerate_homs_returns_verified_homs():
    homs = enumerate_homs(cyclic(2), dihedral(8))
    assert len(homs) == 6
    for f in homs:
        img = f.images[0]
        assert (img * img).is_identity()


def test_hom_search_cap():
    with pytest.raises(CapExceededError):
        hom_image_codes(
            symmetric(4).presentation, dihedral(16), Caps(hom_search=10)
        )


def test_realize_cyclic():
    G = realize_presentation(Presentation.parse("x", "x^6"))
    assert G.order() == 6
    assert G.presentation_exact


def test_realize_klein():
    G = realize_presentation(Presentation.parse("a,b", "a^2,b^2,[a,b]"))
    assert G.order() == 4
    assert G.order_histogram() == {1: 1, 2: 3}


def test_realize_dihedral_and_quaternion():
    D = realize_presentation(Presentation.parse("x,y", "x^4,y^2,y*x*y*x"))
    assert D.order() == 8
    assert is_isomorphic(D, dihedral(8))
    Q = realize_presentation(Presentation.parse("x,y", "x^4, x^2*y^-2, y^-1*x*y*x"))
    assert Q.order() == 8
    assert is_isomorphic(Q, quaternion(8))


def test_realize_symmetric_3():
    S = realize_presentation(symmetric(3).presentation)
    assert S.order() == 6
    assert is_isomorphic(S, symmetric(3))


def test_realize_fails_loudly_on_tight_caps():
    with pytest.raises((RealizationError, CapExceededError)):
        realize_presentation(
            Presentation.parse("x,y", "x^7,y^2,(x*y)^3"), Caps(order=1000)
        )


def test_realize_obeys_the_order_cap():
    with pytest.raises(RealizationError, match="coset limit 4"):
        realize_presentation(Presentation.parse("x", "x^8"), Caps(order=4))


@pytest.mark.parametrize("n", [12, 16])
def test_realize_cyclic_12_and_16(n):
    G = realize_presentation(Presentation.parse("x", f"x^{n}"))
    assert G.order() == n
    assert is_isomorphic(G, cyclic(n))


def test_trivial_presentation():
    G = realize_presentation(Presentation((), ()))
    assert G.order() == 1


def test_s5_presentation_endomorphism_fingerprint():
    """The catalog S5 presentation presents a group whose hom counts into
    small targets match the independently derived endomorphism census.

    Kernel classification in the symmetric group on five letters: maps to
    itself are 120 automorphisms + 25 involutions x sign + 1 trivial = 146;
    to C2: 1 + 1 via sign; to S3: 1 + 3 involutions via sign.
    """
    S5 = symmetric(5)
    assert hom_count(S5.presentation, S5) == 146
    assert hom_count(S5.presentation, cyclic(2)) == 2
    assert hom_count(S5.presentation, symmetric(3)) == 4
    assert hom_count(S5.presentation, cyclic(4)) == 2


def test_a5_presentation_fingerprint():
    """Simplicity pins the hom counts: a nontrivial map from the alternating
    group on five letters is injective, so |End| = 1 + |Aut| = 1 + 120."""
    from flatlab.catalog import alternating

    A5 = alternating(5)
    assert hom_count(A5.presentation, A5) == 121
    assert hom_count(A5.presentation, cyclic(2)) == 1
    assert hom_count(A5.presentation, symmetric(4)) == 1
