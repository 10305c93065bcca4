"""Invariant checks: structural laws that must hold across whole families of
inputs, exercised by hypothesis where randomization helps and exhaustively
where the domain is small enough to sweep."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlab.abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_from_invariants,
    ab_image,
    ab_kernel,
    ab_pullback,
    n_torsion,
    smith_normal_form,
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
from flatlab.extensions import extensions_from_group
from flatlab.functors import (
    Abelianization,
    NilpotentQuotient,
    Nullification,
    apply,
    is_acyclic,
    radical_subgroup,
)
from flatlab.homs import enumerate_homs, hom_image_codes
from flatlab.perm import Permutation, parse_cycle_string
from flatlab.permgroup import (
    GroupHom,
    normal_subgroups,
    pullback_group,
    quotient,
)
from flatlab.verbal import lower_central_series, verbal_subgroup
from flatlab.words import Word, parse_word

entries = st.integers(min_value=-20, max_value=20)


@st.composite
def int_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return IntMatrix(rows)


@given(int_matrices())
@settings(max_examples=120, deadline=None)
def test_snf_self_verification(M):
    s = smith_normal_form(M)  # raises if U*M*V != D or transforms not unimodular
    diag = s.diagonal
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@st.composite
def unimodular(draw, n):
    """Product of random elementary matrices: determinant +-1 by construction."""
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        q = draw(st.integers(min_value=-3, max_value=3))
        for k in range(n):
            M[i][k] += q * M[j][k]
    return IntMatrix(M)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_invariants_unimodular_invariance(data):
    M = data.draw(int_matrices(max_dim=4))
    A = AbGroup(M.rows, M)
    U = data.draw(unimodular(M.cols))
    # composing the relation matrix with a unimodular matrix on the right
    # changes the presentation, not the column lattice
    B = AbGroup(M.rows, M * U)
    assert A.canonical_invariants() == B.canonical_invariants()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ab_pullback_along_identity(data):
    from flatlab.errors import InvalidHomomorphismError

    M = data.draw(int_matrices(max_dim=3))
    E = AbGroup(M.rows, M)
    G = ab_from_invariants(0, (2,))
    try:
        f = AbHom(E, G, IntMatrix([[1] * E.ngens]))
    except InvalidHomomorphismError:
        f = AbHom.zero_hom(E, G)
    P, _, _ = ab_pullback(f, AbHom.identity_hom(G))
    assert P.canonical_invariants() == E.canonical_invariants()


def test_torsion_divides_bound():
    battery = [
        ab_from_invariants(0, ()),
        ab_from_invariants(1, ()),
        ab_from_invariants(0, (2,)),
        ab_from_invariants(0, (4,)),
        ab_from_invariants(0, (2, 4)),
        ab_from_invariants(1, (2,)),
        ab_from_invariants(0, (6, 12)),
        ab_from_invariants(2, (3, 9)),
    ]
    for A in battery:
        for n in range(1, 13):
            T, _ = n_torsion(A, n)
            order = T.order()
            assert order is not None
            k = len(A.invariants)
            bound = n**k if k else 1
            assert bound % order == 0


def test_kernel_image_exact_sequence():
    A = ab_from_invariants(0, (4, 8))
    B = ab_from_invariants(0, (2, 4))
    for m in ([[1, 0], [0, 1]], [[2, 0], [1, 1]], [[0, 0], [1, 2]]):
        f = AbHom(A, B, IntMatrix(m))
        K, _ = ab_kernel(f)
        I, _ = ab_image(f)
        assert K.order() * I.order() == A.order()


SMALL_GROUPS = [
    trivial_group(),
    cyclic(2),
    cyclic(6),
    elementary_abelian(2, 2),
    symmetric(3),
    dihedral(8),
    quaternion(8),
    alternating(4),
    product(cyclic(2), cyclic(4)),
]


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.name or "G")
def test_hom_is_multiplicative_exhaustively(G):
    # every verified map satisfies f(ab) = f(a) f(b) on the full table
    targets = [cyclic(2), symmetric(3)]
    for X in targets:
        if G.presentation is None:
            continue
        for f in enumerate_homs(G, X)[:6]:
            for a in G.elements():
                for b in G.elements():
                    assert f.apply(a * b) == f.apply(a) * f.apply(b)


@pytest.mark.parametrize("G", [dihedral(8), quaternion(8), symmetric(3)], ids=lambda g: g.name)
def test_quotient_order_and_kernel(G):
    for N in normal_subgroups(G):
        Q, proj = quotient(G, N)
        assert Q.order() * N.order() == G.order()
        ident = Q.identity()
        killed = {x for x in G.elements() if proj.apply(x) == ident}
        assert killed == set(N.elements())


def test_pullback_squares_and_order():
    D8 = dihedral(8)
    Q, proj = quotient(D8, radical_subgroup(Abelianization(), D8))
    for X in (cyclic(2), elementary_abelian(2, 2)):
        for f in enumerate_homs(X, Q):
            P, prx = pullback_group(proj, f)
            count = sum(
                1
                for e in D8.elements()
                for x in X.elements()
                if proj.apply(e) == f.apply(x)
            )
            assert P.order() == count
            for p in P.elements():
                # the E component is the pair's first D8.degree points
                e = Permutation(p.images[: D8.degree])
                assert proj.apply(e) == f.apply(prx.apply(p))


WORDS = [parse_word("x1^2"), Word.lcs_word(1), parse_word("x1^3")]


@pytest.mark.parametrize("G", [dihedral(8), symmetric(3), quaternion(8)], ids=lambda g: g.name)
@pytest.mark.parametrize("w", WORDS, ids=lambda w: w.text())
def test_verbal_quotient_satisfies_words(G, w):
    W = verbal_subgroup(G, [w])
    Q, _ = quotient(G, W)
    ident = Q.identity()
    arity = max(w.arity, 0)
    for tup in itertools.product(Q.elements(), repeat=arity):
        assert w.evaluate(tup, ident).is_identity()


@pytest.mark.parametrize("w", WORDS, ids=lambda w: w.text())
def test_verbal_subgroup_is_largest_such_quotient(w):
    # for every normal N with G/N in the variety, WG <= N
    for G in (dihedral(8), quaternion(8), symmetric(3), cyclic(8), alternating(4)):
        W = verbal_subgroup(G, [w])
        arity = max(w.arity, 0)
        for N in normal_subgroups(G):
            Q, _ = quotient(G, N)
            ident = Q.identity()
            satisfied = all(
                w.evaluate(tup, ident).is_identity()
                for tup in itertools.product(Q.elements(), repeat=arity)
            )
            if satisfied:
                assert W.element_set() <= N.element_set()


@pytest.mark.parametrize("c", [1, 2, 3])
def test_nilpotent_quotient_class(c):
    for G in (dihedral(8), dihedral(16), quaternion(8), symmetric(4)):
        L = apply(NilpotentQuotient(c), G)
        chain = lower_central_series(L.result, c)
        assert chain[c].is_trivial()


def test_epireflection_eta_kills_exactly_radical():
    for G in (dihedral(8), symmetric(4), quaternion(8)):
        for F in (Abelianization(), NilpotentQuotient(2)):
            L = apply(F, G)
            ident = L.result.identity()
            killed = {x for x in G.elements() if L.eta.apply(x) == ident}
            assert killed == set(L.radical.elements())
            assert G.order() % L.result.order() == 0


NULL_TARGETS = [cyclic(2), cyclic(3), elementary_abelian(2, 2), symmetric(3)]


@pytest.mark.parametrize("H", NULL_TARGETS, ids=lambda g: g.name)
def test_nullification_result_admits_no_maps(H):
    F = Nullification(H.presentation)
    for G in (dihedral(8), symmetric(4), cyclic(12), alternating(4)):
        L = apply(F, G)
        images = hom_image_codes(H.presentation, L.result)
        assert all(all(i == 0 for i in tup) for tup in images)  # code 0 is 1
        # and the kernel of the localization is acyclic
        assert is_acyclic(F, L.radical)


def test_thm_3_2_shadow_battery():
    # nullification radicals are acyclic on every battery group up to 32
    for H in NULL_TARGETS:
        F = Nullification(H.presentation)
        for G in default_battery(32):
            assert is_acyclic(F, radical_subgroup(F, G))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_word_power_laws(a, b):
    w = Word.generator(0)
    assert (w**a * w**b).letters == ((0, a + b),)
    assert (w**a).inverse() == w**-a


def _honest_flags(F, ext):
    """Flatness flags computed the slow way, through the materialized
    induced sequence, as an independent oracle for the radical-set route."""
    from flatlab.extensions import induced_sequence

    seq = induced_sequence(F, ext)
    left = seq.left_map.is_injective()
    middle = (
        seq.left_map.image().element_set()
        == seq.right_map.kernel().element_set()
    )
    right = seq.right_map.is_surjective()
    return left, middle, right


_WITNESS = re.compile(r"element ((?:\([^)]*\))+)")


def _check_witnesses(F, ext, rep):
    """Each witness names an element that fails its flag: the element read
    back from its cycles is tested against the subgroups W that F picks."""
    from flatlab.functors import EPIREFLECTION, functor_kind, functor_subgroup

    K, E, G = ext.kernel_group, ext.total, ext.base
    wk, we, wg = (functor_subgroup(F, H).code_set() for H in (K, E, G))
    proj = ext.proj.code_map()
    proj_we = {proj[e] for e in we}
    epi = functor_kind(F) == EPIREFLECTION
    failing = {"left": not rep.left_injective, "middle": not rep.middle_exact,
               "right": not rep.right_surjective}
    assert set(rep.witnesses) == {flag for flag, bad in failing.items() if bad}
    for flag, text in rep.witnesses.items():
        at = G if flag == "right" else E  # only the subfunctor fails right
        x = at.encode(parse_cycle_string(_WITNESS.search(text).group(1), at.degree))
        if flag == "right":  # g in S(G) - proj S(E)
            assert x in wg and x not in proj_we, text
        elif flag == "left" or not epi:  # k in K n W(E) - W(K)
            assert x in K.code_set() and x in we and x not in wk, text
        else:  # the epireflection's middle: proj(e) in W(G) - proj W(E)
            assert proj[x] in wg and proj[x] not in proj_we, text


def test_flatness_flags_match_honest_induced_sequence():
    from flatlab.extensions import check_flatness
    from flatlab.functors import SpSubfunctor, Variety, standard_quasi_c4_c2

    _, quasi = standard_quasi_c4_c2()
    functors = [
        Abelianization(),
        NilpotentQuotient(2),
        NilpotentQuotient(3),
        Variety((parse_word("x1^2"),)),
        quasi,
        Nullification(cyclic(2).presentation),
        SpSubfunctor(2),
    ]

    for G in (dihedral(8), quaternion(8), symmetric(3), cyclic(8), alternating(4)):
        for ext in extensions_from_group(G):
            for F in functors:
                rep = check_flatness(F, ext)
                honest = _honest_flags(F, ext)
                assert (
                    rep.left_injective,
                    rep.middle_exact,
                    rep.right_surjective,
                ) == honest, (G.name, F.describe(), ext.describe())
                _check_witnesses(F, ext, rep)
