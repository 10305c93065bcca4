"""Tour of the finite-group core: catalog groups, subgroup machinery,
quotients, verbal subgroups and the lower central series.

Run:  python demos/01_groups_and_quotients.py
"""

from flatlab import (
    SpSubfunctor,
    Word,
    apply,
    cyclic,
    dihedral,
    lower_central_series,
    normal_closure,
    normal_subgroups,
    quaternion,
    quotient,
    symmetric,
    verbal_subgroup,
)

D8 = dihedral(8)
print(f"The dihedral group {D8.name} has order {D8.order()} and")
print(f"  element orders {D8.order_histogram()}  (five involutions).")

# Normal closure of a single reflection: half the group.
y = D8.generators[1]
N = normal_closure(D8, [y])
print(f"Normal closure of one reflection: order {N.order()}.")

# The commutator-verbal subgroup is the center; the quotient is elementary.
commutator = Word.lcs_word(1)
W = verbal_subgroup(D8, [commutator])
Q, proj = quotient(D8, W)
print(f"Commutator subgroup has order {W.order()};")
print(f"  the quotient has order {Q.order()} with orders {Q.order_histogram()}.")

# The lower central series of a nilpotent group reaches the identity.
chain = lower_central_series(D8, 3)
print("Lower central series orders:", [g.order() for g in chain])

# The subgroup generated by elements of order exactly 2.
S2 = SpSubfunctor(2)
print(f"Involutions generate a subgroup of order {apply(S2, D8).result.order()}"
      f" in {D8.name}, but only {apply(S2, cyclic(4)).result.order()} in C4.")

# Every normal subgroup, exhaustively.
for G in (D8, quaternion(8), symmetric(4)):
    orders = [n.order() for n in normal_subgroups(G)]
    print(f"Normal subgroup orders of {G.name}: {orders}")
