"""Exact integer linear algebra: Smith normal form, invariant factors,
torsion subgroups, and the fiber product that mixes free and finite parts.

Run:  python demos/02_exact_abelian_groups.py
"""

from flatlab import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_from_invariants,
    ab_pullback,
    n_torsion,
    perm_to_abelian,
    smith_normal_form,
)
from flatlab import cyclic, product

M = IntMatrix([[2, 4], [6, 8]])
s = smith_normal_form(M)
print(f"SNF of {[list(r) for r in M.entries]}: diagonal {s.diagonal}")
print(f"  re-verified U*M*V = D with det(U) = {s.U.det()}, det(V) = {s.V.det()}")

# Arbitrary precision: nothing ever wraps.
big = IntMatrix([[10**12, 1], [1, 10**12]])
print(f"A large matrix diagonalizes to {smith_normal_form(big).diagonal}")

# Groups as cokernels.
Z = ab_from_invariants(1, (), name="Z")
C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
ZxZ2 = ab_from_invariants(1, (2,), name="ZxZ/2")
print(f"{Z.name} has invariants {Z.canonical_invariants()}")
print(f"{C4.name} has invariants {C4.canonical_invariants()}")

# Torsion subgroups compute hom sets from cyclic groups.
for n in (2, 4, 12):
    T, _ = n_torsion(ZxZ2, n)
    print(f"|({ZxZ2.name})[{n}]| = {T.order()}  (= |Hom(Z/{n}, {ZxZ2.name})|)")

# The pullback of Z -> Z/2 <- C4 is Z x Z/2: exact, not hand-waved.
Z2 = ab_from_invariants(0, (2,), name="Z/2")
red = AbHom(Z, Z2, IntMatrix([[1]]))
phi = AbHom(C4, Z2, IntMatrix([[1]]))
P, pr_e, pr_x = ab_pullback(red, phi)
print(f"Pullback of {Z.name} -> {Z2.name} <- {C4.name}: invariants "
      f"{P.canonical_invariants()}  (free rank 1, one factor of 2)")

# Bridging flavors: a finite abelian permutation group classifies exactly.
A = perm_to_abelian(product(cyclic(2), cyclic(4)))
print(f"C2 x C4 classifies as invariants {A.canonical_invariants()}")
