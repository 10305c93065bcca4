import ast
import pathlib
from collections import Counter

import pytest

from flatlab.abelian import perm_to_abelian
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
    trivial_group,
)
from flatlab.errors import (
    CapExceededError,
    InvalidHomomorphismError,
    NotASubgroupError,
    NotNormalError,
    NotSurjectiveError,
)
from flatlab.perm import Permutation, parse_cycle_string
from flatlab.permgroup import (
    GroupHom,
    PermGroup,
    _conjugacy_class_sizes,
    _extend_mapping,
    direct_product,
    find_isomorphism,
    is_isomorphic,
    is_normal,
    normal_closure,
    normal_subgroups,
    pullback_group,
    quotient,
)
from flatlab.verbal import derived_subgroup


def test_enumerate_trivial():
    assert trivial_group().order() == 1


def test_enumerate_d8_with_relator_cross_check():
    # exhaustive closure, cross-checked against the relator set
    x = parse_cycle_string("(0 1 2 3)", 4)
    y = parse_cycle_string("(1 3)", 4)
    G = PermGroup(4, (x, y))
    assert G.order() == 8
    ident = Permutation.identity(4)
    assert (x**4) == ident and (y**2) == ident and (y * x * y * x) == ident


def test_enumerate_s4_a5():
    assert symmetric(4).order() == 24
    assert alternating(5).order() == 60


def test_order_cap_reports_partial():
    with pytest.raises(CapExceededError) as exc:
        cyclic_big = PermGroup(16, (parse_cycle_string("(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)", 16),))
        cyclic_big.elements(Caps(order=5))
    assert exc.value.partial == 5


def test_normal_closure_empty():
    D8 = dihedral(8)
    assert normal_closure(D8, []).order() == 1


def test_normal_closure_reflection():
    D8 = dihedral(8)
    y = D8.generators[1]
    N = normal_closure(D8, [y])
    assert N.order() == 4
    assert is_normal(N, D8)


def test_normal_closure_abelian_is_generated_subgroup():
    G = product(cyclic(2), cyclic(4))
    g = G.generators[1]
    N = normal_closure(G, [g])
    assert sorted(N.elements()) == sorted(
        G.subgroup((g,)).elements()
    )


def test_normal_closure_outside_element():
    D8 = dihedral(8)
    with pytest.raises(NotASubgroupError):
        normal_closure(D8, [parse_cycle_string("(0 1)", 4)])


def test_quotient_by_trivial_and_full():
    D8 = dihedral(8)
    triv = D8.subgroup(())
    Q, proj = quotient(D8, triv)
    assert Q.order() == 8
    assert is_isomorphic(Q, D8)
    Q2, _ = quotient(D8, D8)
    assert Q2.order() == 1


def test_quotient_d8_center():
    D8 = dihedral(8)
    Z = derived_subgroup(D8)  # = the center, order 2
    Q, proj = quotient(D8, Z)
    assert Q.order() == 4
    assert Q.order_histogram() == {1: 1, 2: 3}
    assert proj.kernel().order() == 2


def test_a_quotient_projection_is_built_with_its_map():
    # the map read off the coset pass is the one the edge check would build
    for G in default_battery(64):
        for N in normal_subgroups(G):
            Q, proj = quotient(G, N)
            assert proj.code_map() == _extend_mapping(G, Q, proj.image_codes, Caps()), (
                G.name, N.order()
            )


def test_quotient_requires_normal():
    D8 = dihedral(8)
    y = D8.generators[1]
    H = D8.subgroup((y,))
    with pytest.raises(NotNormalError):
        quotient(D8, H)


def test_kernel_image_identity_and_trivial():
    D8 = dihedral(8)
    ident = GroupHom.identity_hom(D8)
    assert ident.kernel().order() == 1
    assert ident.image().order() == 8
    triv = GroupHom(D8, trivial_group(), tuple(Permutation.identity(1) for _ in D8.generators))
    assert triv.kernel().order() == 8


def test_a_composite_maps_as_its_legs_do():
    # then() composes code maps; a second leg whose domain lives in another
    # ambient is reached by re-encoding the first leg's image
    S4, C2 = symmetric(4), cyclic(2)
    f = GroupHom(C2, S4, (parse_cycle_string("(0 1)(2 3)", 4),))
    A4 = next(N for N in normal_subgroups(S4) if N.order() == 12)
    # a D8 of S4 in an ambient of its own, whose codes differ from S4's
    D8 = PermGroup(4, (parse_cycle_string("(0 1 2 3)", 4), parse_cycle_string("(0 2)", 4)))
    for g in (GroupHom.identity_hom(S4), quotient(S4, A4)[1],
              GroupHom.identity_hom(PermGroup(4, S4.generators)),
              GroupHom.identity_hom(D8), quotient(D8, derived_subgroup(D8))[1]):
        composite = f.then(g)
        assert composite.code_map().keys() == set(C2.codes())
        for x in C2.elements():
            assert composite.apply(x) == g.apply(f.apply(x))


def test_a_composite_needs_the_first_image_in_the_second_domain():
    # (0 1) is odd, so C2 -> S4 -> ... cannot go on through A4 -> S4, whether
    # A4 shares S4's ambient or has one of its own
    S4, C2 = symmetric(4), cyclic(2)
    f = GroupHom(C2, S4, (parse_cycle_string("(0 1)", 4),))
    A4 = next(N for N in normal_subgroups(S4) if N.order() == 12)
    for domain in (A4, PermGroup(4, A4.generators)):
        with pytest.raises(InvalidHomomorphismError):
            f.then(GroupHom.inclusion(domain, S4))


def test_a_permutation_outside_the_group_is_refused_even_in_its_ambient():
    # A4 shares S4's ambient, so (0 1) has a code there but is not in A4
    S4 = symmetric(4)
    A4 = next(N for N in normal_subgroups(S4) if N.order() == 12)
    t = parse_cycle_string("(0 1)", 4)
    assert A4.encode(t) is not None and t not in A4
    with pytest.raises(NotASubgroupError):
        A4.subgroup([t])
    with pytest.raises(NotASubgroupError):
        A4.subgroup_from_elements([A4.identity(), t])
    with pytest.raises(NotASubgroupError):
        normal_closure(A4, [t])
    with pytest.raises(InvalidHomomorphismError, match=r"image \(0 1\) not in codomain"):
        GroupHom(cyclic(2), A4, (t,))
    # apply: outside the domain but in its ambient, and outside the ambient
    for hom in (GroupHom.inclusion(A4, S4), GroupHom.identity_hom(A4)):
        for x in (t, parse_cycle_string("(0 1)", 5)):
            with pytest.raises(NotASubgroupError, match="is not an element of the domain"):
                hom.apply(x)
    # an inclusion checks its source's generators, in either ambient
    for sub in (S4, PermGroup(4, S4.generators)):
        with pytest.raises(NotASubgroupError):
            GroupHom.inclusion(sub, A4)
    assert GroupHom.inclusion(PermGroup(4, A4.generators), S4).image().code_set() == A4.code_set()
    # a product with a factor in a larger ambient computes in a larger product
    # ambient, so it is no more all of it than A4 is all of S4's
    G = direct_product(A4, cyclic(2))
    t6 = parse_cycle_string("(0 1)", 6)
    assert G.encode(t6) is not None and t6 not in G
    with pytest.raises(NotASubgroupError):
        G.subgroup([t6])
    with pytest.raises(NotASubgroupError):
        G.subgroup_from_elements([G.identity(), t6])
    with pytest.raises(NotASubgroupError):
        normal_closure(G, [t6])
    with pytest.raises(InvalidHomomorphismError, match=r"image \(0 1\) not in codomain"):
        GroupHom(cyclic(2), G, (t6,))
    with pytest.raises(NotASubgroupError, match="is not an element of the domain"):
        GroupHom.identity_hom(G).apply(t6)


def test_kernel_order_product():
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    assert proj.kernel().order() * proj.image().order() == D8.order()


def test_pullback_along_identity():
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    P, _ = pullback_group(proj, GroupHom.identity_hom(Q))
    assert is_isomorphic(P, D8)


def test_pullback_with_trivial_leg_is_kernel():
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    one = trivial_group()
    triv = GroupHom(one, Q, ())
    P, _ = pullback_group(proj, triv)
    assert is_isomorphic(P, proj.kernel())


def test_pullback_of_d8_along_rotation_image_is_c4():
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    xbar = proj.apply(D8.generators[0])
    incl = GroupHom(cyclic(2), Q, (xbar,))
    P, _ = pullback_group(proj, incl)
    assert P.order() == 4
    assert is_isomorphic(P, cyclic(4))
    # direct count of the fiber pairs
    count = sum(
        1
        for e in D8.elements()
        for x in cyclic(2).elements()
        if proj.apply(e) == incl.apply(x)
    )
    assert P.order() == count


def test_pullback_with_two_non_surjective_legs():
    # fiber product of two subgroup inclusions is their intersection
    V4 = elementary_abelian(2, 2)
    a, b = V4.generators
    C2 = cyclic(2)
    inc_a = GroupHom(C2, V4, (a,))
    inc_b = GroupHom(C2, V4, (b,))
    P_same, pr_same = pullback_group(inc_a, inc_a)
    assert P_same.order() == 2  # the diagonal copy
    P_diff, pr_diff = pullback_group(inc_a, inc_b)
    assert P_diff.order() == 1
    # the second projection is given its image: the part of C2 with a lift
    for pr, order in ((pr_same, 2), (pr_diff, 1)):
        assert pr.image().code_set() == set(pr.code_map().values())
        assert pr.image().order() == order and pr.kernel().order() == 1


def test_a_leg_into_another_group_on_the_same_points_is_rejected():
    # D8/N2 is V4 acting regularly on its 4 cosets; a C4 on those points is a
    # group of the same order whose elements are not all in it, and a copy of
    # a proper subgroup has its elements in it but the wrong order
    D8 = dihedral(8)
    Q, proj = quotient(D8, derived_subgroup(D8))
    assert Q.degree == 4 and is_isomorphic(Q, elementary_abelian(2, 2))
    C4 = PermGroup(4, [Permutation((1, 2, 3, 0))])
    H = PermGroup(4, [Q.generators[0]])
    assert H.order() == 2
    for leg in (GroupHom.identity_hom(C4), GroupHom(cyclic(2), H, H.generators)):
        with pytest.raises(InvalidHomomorphismError):
            pullback_group(proj, leg)


def test_is_isomorphic_basics():
    D8 = dihedral(8)
    assert is_isomorphic(D8, D8)
    assert not is_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert not is_isomorphic(D8, quaternion(8))
    assert is_isomorphic(symmetric(3), dihedral(6))


def test_is_isomorphic_cap():
    # non-abelian groups above the cap get an explicit error, never a guess
    big = product(dihedral(16), dihedral(16))
    with pytest.raises(CapExceededError):
        is_isomorphic(big, big)
    # abelian groups are decided exactly from invariants at any order
    assert is_isomorphic(product(cyclic(64), cyclic(4)), product(cyclic(4), cyclic(64)))


def test_normal_subgroup_counts():
    assert len(normal_subgroups(dihedral(8))) == 6
    assert len(normal_subgroups(symmetric(4))) == 4
    assert len(normal_subgroups(alternating(5))) == 2
    assert len(normal_subgroups(quaternion(8))) == 6
    assert len(normal_subgroups(elementary_abelian(2, 2))) == 5


def test_census_invariants():
    assert perm_to_abelian(cyclic(4)).canonical_invariants() == (0, (4,))
    assert perm_to_abelian(elementary_abelian(2, 2)).canonical_invariants() == (0, (2, 2))
    assert perm_to_abelian(product(cyclic(2), cyclic(4))).canonical_invariants() == (0, (2, 4))
    assert perm_to_abelian(trivial_group()).canonical_invariants() == (0, ())


def test_small_generating_set():
    G = elementary_abelian(2, 3)
    gens = G._sub(G.codes()).generators  # greedy, from the closed code set
    assert len(gens) == 3
    assert G.subgroup(gens).order() == 8


def test_hom_verification_rejects_non_hom():
    from flatlab.errors import InvalidHomomorphismError

    C4 = cyclic(4)
    C2 = cyclic(2)
    with pytest.raises(InvalidHomomorphismError):
        # x has order 4; sending it to an order-4 element of C4 from C2 domain
        GroupHom(C2, C4, (C4.generators[0],))


def test_hom_via_edge_check_without_presentation():
    # a bare permutation group domain goes through the elementwise check
    x = parse_cycle_string("(0 1 2 3)", 4)
    G = PermGroup(4, (x,))
    C2 = cyclic(2)
    hom = GroupHom(G, C2, (C2.generators[0],))
    assert hom.apply(x * x).is_identity()


def test_generated_subgroup_checks_the_cap_on_every_insertion():
    # the coset step once added elements past the cap: 4 elements under cap 3
    V4 = elementary_abelian(2, 2)
    with pytest.raises(CapExceededError):
        V4.generate(V4.gen_codes(), caps=Caps(order=3))
    H = V4.generate(V4.gen_codes(), caps=Caps(order=4))
    assert H.order() == 4 and len(H.gen_codes()) == 2


def test_memoised_elements_respect_the_caps_of_each_call():
    S5 = symmetric(5)
    assert S5.order() == 120
    with pytest.raises(CapExceededError):
        S5.order(Caps(order=10))
    with pytest.raises(CapExceededError):
        normal_subgroups(S5, Caps(order=10))


def test_library_has_no_assert_statements():
    # checks must survive python -O, so the library raises instead of asserting
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlab"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_every_public_library_name_is_exported_or_used():
    # a public function or class that neither the package exports nor the
    # library calls is a second path kept alive by tests alone
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlab"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    exported = set()
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            exported.update(a.name for a in node.names)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_LAZY":
            exported.update(ast.literal_eval(node.value))  # names loaded on first use

    def references(nodes) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name
            for top in nodes for n in ast.walk(top)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        )

    used = references(trees.values())
    offenders = [
        f"{name}:{node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        # references inside its own definition (recursion) do not count
        and used[node.name] == references([node])[node.name]
    ]
    assert offenders == []


def test_private_fields_are_written_only_by_their_own_module():
    # obj._name = ... outside self and cls is allowed only in a module whose
    # own class assigns self._name: a private field is set up by its class
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlab"
    offenders = []
    for path in sorted(src.glob("*.py")):
        stores = [
            n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and n.attr.startswith("_")
        ]
        own = {n.attr for n in stores if ast.unparse(n.value) == "self"}
        offenders += [
            f"{path.name}:{n.lineno} {ast.unparse(n)}"
            for n in stores
            if ast.unparse(n.value) not in ("self", "cls") and n.attr not in own
        ]
    assert offenders == []


def test_class_sizes_are_the_orbits_of_all_conjugations():
    # the orbits under the generators against conjugation by every element
    for G in default_battery(64):
        elts = G.elements()
        classes = {frozenset(g.inverse() * x * g for g in elts) for x in elts}
        sizes = tuple(sorted(map(len, classes)))
        assert _conjugacy_class_sizes(G, Caps()) == sizes, G.describe()


def test_every_imported_name_is_used():
    # an import left behind by a deleted check is dead weight at start-up
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlab"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        offenders += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert offenders == []


def _function_reimports(path: pathlib.Path) -> list[str]:
    """Imports inside a function from a module the file imports at top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def modules(node) -> list[tuple[int, str]]:
        if isinstance(node, ast.ImportFrom):
            return [(node.level, node.module)]
        if isinstance(node, ast.Import):
            return [(0, alias.name) for alias in node.names]
        return []

    top = {m for node in tree.body for m in modules(node)}
    return [
        f"{path.name}:{node.lineno} {'.' * level}{module}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for level, module in modules(node)
        if (level, module) in top
    ]


def test_no_function_reimports_a_top_level_module():
    # a function-level import is kept only to defer loading a module (the
    # application layer in cli, scenario and the package's lazy names); one
    # from a module the file already loads at start-up defers nothing
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlab"
    assert [o for path in sorted(src.glob("*.py")) for o in _function_reimports(path)] == []


def test_abelian_groups_are_classified_by_their_order_histograms(battery_groups):
    # is_isomorphic decides two abelian groups by their histograms: on every
    # abelian group the sweeps build, histograms and the invariants of the
    # relation lattice determine each other, and two groups of a class are
    # isomorphic by the general search
    classes: dict = {}
    for G in battery_groups:
        if G.is_abelian():
            hist = tuple(G.order_histogram().items())
            classes.setdefault((hist, perm_to_abelian(G).canonical_invariants()), []).append(G)
    assert sum(map(len, classes.values())) == 1_264
    assert len(classes) == len({h for h, _ in classes}) == len({i for _, i in classes}) == 46
    for members in classes.values():
        assert find_isomorphism(members[0], members[-1]) is not None
