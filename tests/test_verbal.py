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
from flatlab.permgroup import PermGroup, is_normal
from flatlab.verbal import (
    derived_subgroup,
    lower_central_series,
    s_p_subgroup,
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
            scan = verbal_subgroup(G, [word], force_scan=True)
            assert fast.element_set() == scan.element_set(), (G.name, word)


def test_lcs_fast_path_matches_census_for_class_2():
    w2 = Word.lcs_word(2)
    for G in (dihedral(8), dihedral(16), quaternion(8)):
        fast = verbal_subgroup(G, [w2])
        scan = verbal_subgroup(G, [w2], force_scan=True)
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
    assert s_p_subgroup(D8, 2).order() == 8
    assert s_p_subgroup(cyclic(4), 2).order() == 2
    assert s_p_subgroup(cyclic(4), 3).order() == 1
    assert s_p_subgroup(symmetric(3), 3).order() == 3


def test_s_p_requires_prime():
    with pytest.raises(FlatlabError):
        s_p_subgroup(dihedral(8), 4)


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
            scan = verbal_subgroup(G, [Word.lcs_word(c)], force_scan=True)
            assert scan.codes() == lower_central_series(G, c)[c].codes()
