import random

import pytest

from flatlab.abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_cokernel,
    ab_from_invariants,
    ab_image,
    ab_kernel,
    ab_pullback,
    enumerate_ab_homs,
    n_torsion,
    perm_to_abelian,
    smith_normal_form,
)
from flatlab.catalog import cyclic, elementary_abelian, product, trivial_group
from flatlab.errors import (
    CapExceededError,
    FlatlabError,
    InvalidHomomorphismError,
    NotAbelianError,
)


def test_snf_identity():
    s = smith_normal_form(IntMatrix.identity(3))
    assert s.diagonal == (1, 1, 1)


def test_snf_zero():
    s = smith_normal_form(IntMatrix.zeros(2, 3))
    assert s.diagonal == (0, 0)
    # no rows: equal entries, but the width tells the cached forms apart
    a, b = smith_normal_form(IntMatrix.zeros(0, 2)), smith_normal_form(IntMatrix.zeros(0, 3))
    assert (a.V.shape, b.V.shape) == ((2, 2), (3, 3))


def test_snf_frozen_example():
    # d1 = gcd of entries = 2; d1*d2 = |det| = |2*8 - 4*6| = 8, so d2 = 4
    M = IntMatrix([[2, 4], [6, 8]])
    s = smith_normal_form(M)
    assert s.diagonal == (2, 4)
    assert abs(M.det()) == 2 * 4
    # an equal matrix built separately shares the one cached factorization
    assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])) is s


def test_snf_random_battery():
    random.seed(20240817)
    for _ in range(200):
        r = random.randint(1, 6)
        c = random.randint(1, 6)
        M = IntMatrix(
            [[random.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        )
        s = smith_normal_form(M)  # verifies U*M*V = D and unimodularity itself
        # independent cross-checks: first factor is the gcd of all entries
        entries = [x for row in M.entries for x in row]
        g = 0
        for x in entries:
            g = _gcd(g, abs(x))
        nonzero = [d for d in s.diagonal if d]
        if g == 0:
            assert not nonzero
        else:
            assert nonzero[0] == g
        if r == c:
            prod = 1
            for d in s.diagonal:
                prod *= d
            assert prod == abs(M.det())


def test_snf_diagonal_matches_sympy():
    """Differential oracle on criterion 8's matrices: sympy's Smith normal
    form over ZZ has the same nonzero invariant factors, up to sign.  The
    transforms hold what the normal form verifies: U by its inverse, V by
    its determinant, with no inverse of V kept."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(1789)
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        s = smith_normal_form(IntMatrix(rows))
        assert s.U * s.Uinv == IntMatrix.identity(r) and s.V.det() in (1, -1)
        assert not hasattr(s, "Vinv")
        ours = [abs(d) for d in s.diagonal if d]
        D = sympy_snf(Matrix(rows), domain=ZZ)
        theirs = [abs(int(D[i, i])) for i in range(min(r, c)) if D[i, i]]
        assert ours == theirs, rows


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_snf_handles_large_intermediates_exactly():
    # Hadamard-ish matrix with large entries: arithmetic must not wrap
    M = IntMatrix([[10**12, 1], [1, 10**12]])
    s = smith_normal_form(M)
    assert s.diagonal[0] == 1
    assert s.diagonal[1] == 10**24 - 1


def test_canonical_invariants_basic():
    assert ab_from_invariants(1, ()).canonical_invariants() == (1, ())
    assert AbGroup(1, IntMatrix([[4]])).canonical_invariants() == (0, (4,))
    # unit factors are dropped
    assert AbGroup(2, IntMatrix([[1, 0], [0, 3]])).canonical_invariants() == (0, (3,))


def test_multiplication_by_two_on_z():
    Z = ab_from_invariants(1, (), name="Z")
    m2 = AbHom(Z, Z, IntMatrix([[2]]))
    K, _ = ab_kernel(m2)
    C, _ = ab_cokernel(m2)
    assert K.is_trivial()
    assert C.canonical_invariants() == (0, (2,))


def test_identity_kernel_cokernel():
    A = ab_from_invariants(1, (2,))
    ident = AbHom.identity_hom(A)
    assert ab_kernel(ident)[0].is_trivial()
    assert ab_cokernel(ident)[0].is_trivial()


def test_zero_map_kernel():
    C4 = AbGroup(1, IntMatrix([[4]]))
    z = AbHom.zero_hom(C4, C4)
    assert ab_kernel(z)[0].canonical_invariants() == (0, (4,))


def test_pullback_identity_leg():
    Z = ab_from_invariants(1, ())
    Z2 = ab_from_invariants(0, (2,))
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    P, pre, prx = ab_pullback(red, AbHom.identity_hom(Z2))
    assert P.canonical_invariants() == Z.canonical_invariants()


def test_pullback_of_reduction_along_c4():
    Z = ab_from_invariants(1, ())
    Z2 = ab_from_invariants(0, (2,))
    C4 = AbGroup(1, IntMatrix([[4]]))
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    phi = AbHom(C4, Z2, IntMatrix([[1]]))
    P, pre, prx = ab_pullback(red, phi)
    assert P.canonical_invariants() == (1, (2,))


def test_pullback_of_zero_maps_is_direct_sum():
    A = AbGroup(1, IntMatrix([[4]]))
    B = ab_from_invariants(1, ())
    G = ab_from_invariants(0, (2,))
    z1 = AbHom.zero_hom(A, G)
    z2 = AbHom.zero_hom(B, G)
    P, _, _ = ab_pullback(z1, z2)
    assert P.canonical_invariants() == (1, (4,))


def test_torsion():
    Z = ab_from_invariants(1, ())
    for n in (1, 2, 3, 12):
        assert n_torsion(Z, n)[0].is_trivial()
    C4 = AbGroup(1, IntMatrix([[4]]))
    assert n_torsion(C4, 2)[0].canonical_invariants() == (0, (2,))
    assert n_torsion(C4, 1)[0].is_trivial()
    A = ab_from_invariants(2, (2, 12))
    assert n_torsion(A, 6)[0].canonical_invariants() == (0, (2, 6))


def test_hom_well_definedness_rejected():
    C4 = AbGroup(1, IntMatrix([[4]]))
    C3 = AbGroup(1, IntMatrix([[3]]))
    with pytest.raises(InvalidHomomorphismError):
        AbHom(C4, C3, IntMatrix([[1]]))


def test_perm_to_abelian():
    A = perm_to_abelian(trivial_group())
    assert A.canonical_invariants() == (0, ())
    A = perm_to_abelian(elementary_abelian(2, 2))
    assert A.canonical_invariants() == (0, (2, 2))
    A = perm_to_abelian(cyclic(4))
    assert A.canonical_invariants() == (0, (4,))
    assert A.element_order(A.generator_element(0)) == 4
    with pytest.raises(NotAbelianError):
        perm_to_abelian(__import__("flatlab.catalog", fromlist=["dihedral"]).dihedral(8))


def test_enumerate_ab_homs_counts():
    ZxZ2 = ab_from_invariants(1, (2,))
    for n in (1, 2, 3, 4, 6, 12):
        Cn = ab_from_invariants(0, (n,)) if n > 1 else ab_from_invariants(0, ())
        homs = enumerate_ab_homs(Cn, ZxZ2)
        assert len(homs) == n_torsion(ZxZ2, n)[0].order()


def test_enumerate_ab_homs_infinite_rejected():
    Z = ab_from_invariants(1, ())
    with pytest.raises(CapExceededError):
        enumerate_ab_homs(Z, Z)


def test_enumerate_ab_homs_free_source_finite_target():
    Z = ab_from_invariants(1, ())
    C4 = AbGroup(1, IntMatrix([[4]]))
    assert len(enumerate_ab_homs(Z, C4)) == 4
    Z2 = ab_from_invariants(2, ())
    assert len(enumerate_ab_homs(Z2, C4)) == 16


def test_element_arithmetic():
    A = ab_from_invariants(1, (2, 4))
    a = A.from_raw((1, 1, 1))
    b = A.add(a, a)
    assert A.element_order(A.from_raw((0, 1, 0))) == 2
    assert A.element_order(A.from_raw((1, 0, 0))) is None
    assert A.scale(4, A.from_raw((0, 1, 1))) == A.zero()
    # lift/from_raw round trip
    assert A.from_raw(A.lift(a)) == a


def test_image_exactness():
    # 0 -> ker f -> A -> im f -> 0 order bookkeeping
    A = ab_from_invariants(0, (4, 8))
    B = ab_from_invariants(0, (2,))
    f = AbHom(A, B, IntMatrix([[1, 1]]))
    K, _ = ab_kernel(f)
    I, _ = ab_image(f)
    assert K.order() * I.order() == A.order()
