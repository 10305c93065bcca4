"""The two counterexample stories, end to end through the public API.

Story 1: the quasi-variety reflection (x^4 = 1 forces x^2 = 1) preserves the
extension Z -> Z -> Z/2 of local groups, yet its pullback along C4 -> C2 is
the extension Z -> Z x Z/2 -> C4, which the reflection breaks at middle
exactness.

Story 2: the involution-generated subgroup functor preserves the central
extension C2 -> D8 -> C2 x C2 but not its pullback C2 -> C4 -> C2, which
fails right surjectivity.

Run:  python demos/04_flatness_and_pullbacks.py
"""

from flatlab import (
    AbGroup,
    AbHom,
    Extension,
    GroupHom,
    IntMatrix,
    SpSubfunctor,
    ab_from_invariants,
    certify_prop44,
    check_flatness,
    cyclic,
    dihedral,
    extensions_from_group,
    is_isomorphic,
    probe_conditional_flatness,
    pullback_extension,
    standard_quasi_c4_c2,
    trivial_group,
)

phi, quasi = standard_quasi_c4_c2()

print("=== Story 1: an epireflection that is not conditionally flat ===")
Z = ab_from_invariants(1, (), name="Z")
Z2 = ab_from_invariants(0, (2,), name="Z/2")
C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
src = Extension(AbHom(Z, Z2, IntMatrix([[1]])), name="Z -> Z -> Z/2")
print(f"source extension {src.describe()}: flat = "
      f"{check_flatness(quasi, src).is_flat}")
pulled = pullback_extension(src, AbHom(C4, Z2, IntMatrix([[1]])))
P = pulled.extension.total
print(f"pullback along C4 -> C2 has total group with invariants "
      f"{P.canonical_invariants()}")
rep = check_flatness(quasi, pulled.extension)
print(f"pulled-back extension flat = {rep.is_flat}; flags: "
      f"left={rep.left_injective} middle={rep.middle_exact} right={rep.right_surjective}")
print(f"witness: {rep.witnesses['middle']}")

cert = certify_prop44(phi, quasi, C4, Z, AbHom(Z, Z2, IntMatrix([[1]])))
print(f"certificate hypotheses: {cert.hypotheses}")
print(f"the pullback ({cert.pullback_description}) is local: "
      f"{cert.pullback_local.is_local}")

print()
print("=== Story 2: a subfunctor that is not conditionally flat ===")
D8 = dihedral(8)
S2 = SpSubfunctor(2)
ext = extensions_from_group(D8)[1]  # the central extension over C2 x C2
print(f"central extension {ext.describe()}: S2-flat = "
      f"{check_flatness(S2, ext).is_flat}")
xbar = ext.proj.apply(D8.generators[0])
incl = GroupHom(cyclic(2), ext.base, (xbar,))
pulled2 = pullback_extension(ext, incl)
print(f"pullback along the rotation-image copy of C2 is "
      f"{'cyclic of order 4' if is_isomorphic(pulled2.extension.total, cyclic(4)) else '???'}")
rep2 = check_flatness(S2, pulled2.extension)
print(f"pulled-back extension flat = {rep2.is_flat}; "
      f"witness: {rep2.witnesses['right']}")

probe = probe_conditional_flatness(S2, ext, [trivial_group(), cyclic(2)])
print(f"exhaustive probe over {{1, C2}}: {len(probe.entries)} pullbacks, "
      f"{len(probe.counterexamples())} counterexample(s)")
