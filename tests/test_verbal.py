import gc
import weakref

import pytest

from flatlab.caps import Caps
from flatlab.catalog import (
    alternating,
    cyclic,
    default_battery,
    dihedral,
    elementary_abelian,
    product,
    quaternion,
    symmetric,
)
from flatlab.errors import CapExceededError, FlatlabError
from flatlab.extensions import Extension, pullback_extension
from flatlab.functors import SpSubfunctor, functor_subgroup
from flatlab.permgroup import GroupHom, PermGroup, is_normal
from flatlab.verbal import (
    derived_subgroup,
    lower_central_series,
    verbal_subgroup,
    word_value_codes,
)
from flatlab.words import Word, parse_word

COMM = Word.lcs_word(1)
SQUARE = parse_word("x1^2")


def test_commutator_word_on_dihedral():
    D8 = dihedral(8)
    W = verbal_subgroup(D8, [COMM])
    assert W.order() == 2
    assert is_normal(W, D8)


def test_commutator_word_on_abelian_is_trivial():
    assert verbal_subgroup(product(cyclic(2), cyclic(4)), [COMM]).order() == 1


def test_square_word_on_c4():
    W = verbal_subgroup(cyclic(4), [SQUARE])
    assert W.order() == 2


def test_fast_paths_agree_with_exhaustive_census():
    for G in (dihedral(8), quaternion(8), symmetric(3), alternating(4), cyclic(8)):
        for word in (COMM, SQUARE, parse_word("x1^3")):
            fast = verbal_subgroup(G, [word])
            scan = G.generate(word_value_codes(G, word))
            assert fast.element_set() == scan.element_set(), (G.name, word)


def test_lcs_fast_path_matches_census_for_class_2():
    w2 = Word.lcs_word(2)
    for G in (dihedral(8), dihedral(16), quaternion(8)):
        fast = verbal_subgroup(G, [w2])
        scan = G.generate(word_value_codes(G, w2))
        assert fast.element_set() == scan.element_set()


def test_quotient_by_verbal_satisfies_words():
    from flatlab.permgroup import quotient
    from itertools import product as iproduct

    G = dihedral(16)
    W = verbal_subgroup(G, [SQUARE])
    Q, _ = quotient(G, W)
    ident = Q.identity()
    for tup in iproduct(Q.elements(), repeat=1):
        assert SQUARE.evaluate(tup, ident).is_identity()


def test_lcs_of_abelian():
    chain = lower_central_series(product(cyclic(2), cyclic(4)), 1)
    assert chain[1].order() == 1


def test_lcs_of_dihedral():
    D8 = dihedral(8)
    chain = lower_central_series(D8, 3)
    assert [g.order() for g in chain] == [8, 2, 1, 1]


def test_nonidempotency_witness():
    # the commutator subgroup of the dihedral group, taken standalone,
    # has trivial commutator subgroup: W(WG) != WG
    D8 = dihedral(8)
    WG = verbal_subgroup(D8, [COMM])
    standalone = PermGroup(WG.degree, WG.generators)
    WWG = verbal_subgroup(standalone, [COMM])
    assert WG.order() == 2
    assert WWG.order() == 1


def test_lcs_depth_of_perfect_group():
    A5 = alternating(5)
    chain = lower_central_series(A5, 4)
    assert all(g.order() == 60 for g in chain)
    # the series of a perfect group stabilizes at once: lcs(1) = lcs(0)
    full = lower_central_series(A5)
    assert len(full) == 2 and full[1].code_set() == full[0].code_set()


def test_s_p_examples():
    D8 = dihedral(8)
    assert functor_subgroup(SpSubfunctor(2), D8).order() == 8
    assert functor_subgroup(SpSubfunctor(2), cyclic(4)).order() == 2
    assert functor_subgroup(SpSubfunctor(3), cyclic(4)).order() == 1
    assert functor_subgroup(SpSubfunctor(3), symmetric(3)).order() == 3


def test_s_p_requires_prime():
    with pytest.raises(FlatlabError):
        functor_subgroup(SpSubfunctor(4), dihedral(8))


def test_word_values_caps():
    with pytest.raises(CapExceededError):
        word_value_codes(dihedral(8), Word.lcs_word(3), Caps(word_arity=3, tuple_scan=10))
    with pytest.raises(CapExceededError):
        word_value_codes(dihedral(8), Word.lcs_word(4), Caps(word_arity=3))


def test_derived_subgroup_of_symmetric():
    S4 = symmetric(4)
    assert derived_subgroup(S4).order() == 12
    assert derived_subgroup(alternating(5)).order() == 60


def _census_chain(G, depth):
    """gamma_{k+1} = <[a, b] : a in gamma_k, b in G>, every pair of elements
    scanned: no generating set and no normal closure."""
    amb = G.ambient()
    chain = [G.codes()]
    for _ in range(depth):
        chain.append(G.generate(
            amb.mul(amb.mul(amb.inv(a), amb.inv(b)), amb.mul(a, b))
            for a in chain[-1] for b in G.codes()
        ).codes())
    return chain


def test_lcs_from_generators_matches_the_census_chain(battery_pullbacks):
    totals = [pulled.extension.total for _, _, pulled in battery_pullbacks]
    for G in default_battery(64) + totals:
        chain = [N.codes() for N in lower_central_series(G, 4)]
        assert chain == _census_chain(G, 4), G.describe()
    # the word census itself, where its |G|^(c+1) tuples stay small
    for G in default_battery(16):
        for c in (1, 2):
            scan = G.generate(word_value_codes(G, Word.lcs_word(c)))
            assert scan.codes() == lower_central_series(G, c)[c].codes()


def test_a_closure_that_is_1_is_the_shared_trivial_subgroup():
    # a verbal subgroup or T_A whose seeds are all 1, the image of a trivial
    # hom and the second factor of a pullback's kernel K' = K x 1 are the
    # ambient's one trivial subgroup, not a fresh group per call
    C2 = cyclic(2)
    G = PermGroup(C2.degree, C2.generators)  # a memo of its own
    T = G.trivial()
    assert G.generate([0]) is T
    assert verbal_subgroup(G, [SQUARE]) is T
    assert functor_subgroup(SpSubfunctor(3), G) is T
    X = PermGroup(C2.degree, C2.generators)
    trivial_hom = GroupHom(X, G, [G.identity()])
    assert trivial_hom.image() is T
    for f in (trivial_hom, GroupHom.identity_hom(G)):
        K2 = pullback_extension(Extension(GroupHom.identity_hom(G)), f).extension.kernel_group
        assert K2._factors.B is f.domain.trivial()


def test_verbal_and_order_p_subgroups_are_normal_by_construction(battery_groups):
    # both are generated by conjugation-closed seeds, so they are normal with
    # no check; the check they no longer run holds on every group the sweeps
    # build: the variety words of the variety functors (and their
    # idempotency checks) and the involution subfunctor
    words = [[Word.lcs_word(c)] for c in (1, 2, 3)] + [[SQUARE]]
    S2 = SpSubfunctor(2)
    checked = 0
    for G in battery_groups:
        for W in [verbal_subgroup(G, w) for w in words] + [functor_subgroup(S2, G)]:
            assert is_normal(W, G), G.describe()
            checked += 1
    assert checked == 5 * 1_445


def test_lcs_terms_are_shared_across_depths_and_hold_no_group():
    D16 = dihedral(16)
    G = PermGroup(D16.degree, D16.generators, name="D16")
    shallow = lower_central_series(G, 1)
    deep = lower_central_series(G, 5)
    assert shallow[1] is deep[1]
    assert all(a is b for a, b in zip(lower_central_series(G), deep))
    assert [H.order() for H in deep] == [16, 4, 2, 1, 1, 1]
    # the memo keeps lcs(1), lcs(2), ... and not G, so G dies with its last
    # reference, with the collector off
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G, shallow, deep
        assert ref() is None
    finally:
        gc.enable()
