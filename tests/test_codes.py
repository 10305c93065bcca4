"""The tabled element core: integer codes in sorted-Permutation order, table
and product ambients, caps on code closures, and radicals carried along the
canonical kernel map of a pullback."""

import subprocess
import sys
from pathlib import Path

import pytest

from flatlab.caps import Caps
from flatlab.catalog import cyclic, default_battery, product, symmetric
from flatlab.errors import CapExceededError
from flatlab.extensions import extensions_from_group, pullback_extension
from flatlab.functors import (
    Abelianization,
    NilpotentQuotient,
    Nullification,
    Variety,
    radical_subgroup,
    standard_quasi_c4_c2,
)
from flatlab.homs import enumerate_homs, hom_count
from flatlab.permgroup import (
    GroupHom,
    PermGroup,
    _Ambient,
    _conjugacy_class_sizes,
    _ProductAmbient,
    direct_product,
    find_isomorphism,
    normal_closure_codes,
    normal_subgroups,
    quotient,
)
from flatlab.perm import Permutation
from flatlab.scenario import _group_invariants
from flatlab.search import search_counterexamples
from flatlab.verbal import lower_central_series
from flatlab.words import parse_word

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "thm-4.1.scn"


def _pullback(ext_index=-1, source=cyclic(16), probe=cyclic(4)):
    ext = extensions_from_group(source)[ext_index]
    f = enumerate_homs(probe, ext.base)[-1]
    return pullback_extension(ext, f).extension.total


def test_elements_rendered_from_codes_are_the_sorted_permutations():
    D8 = default_battery(8)[-1]
    groups = default_battery(64) + [
        quotient(symmetric(4), extensions_from_group(symmetric(4))[1].kernel_group)[0],
        _pullback(),
        _pullback(source=D8, probe=product(cyclic(2), cyclic(2))),
    ]
    for G in groups:
        # a reference of its own: {1} closed under the generators as permutations
        by_permutations = {G.identity()}
        frontier = [G.identity()]
        for x in frontier:  # the list grows while it is walked
            for y in (x * g for g in G.generators):
                if y not in by_permutations:
                    by_permutations.add(y)
                    frontier.append(y)
        assert list(G.elements()) == sorted(by_permutations), G.describe()


def test_table_multiplication_agrees_with_permutations():
    groups = default_battery(64) + [
        quotient(symmetric(4), extensions_from_group(symmetric(4))[1].kernel_group)[0],
    ]
    for G in groups:
        amb, codes = G.ambient(), G.codes()
        perms = [amb.decode(a) for a in codes]
        for a, pa in zip(codes, perms):
            for b, pb in zip(codes, perms):
                assert amb.decode(amb.mul(a, b)) == pa * pb, G.describe()


def test_product_multiplication_agrees_with_permutations():
    P = _pullback(source=symmetric(4), ext_index=1, probe=cyclic(2))
    amb = P.ambient()
    codes = P.codes()
    assert P.degree == 6 and len(codes) == 8
    for a in codes:
        pa = amb.decode(a)
        assert amb.decode(amb.inv(a)) == pa.inverse()
        assert amb.order_of(a) == pa.order()
        for b in codes:
            assert amb.decode(amb.mul(a, b)) == pa * amb.decode(b)


def test_cap_partial_is_the_same_for_permutation_and_code_seeds():
    S4 = symmetric(4)
    with pytest.raises(CapExceededError) as exc:
        PermGroup(4, S4.generators).order(Caps(order=7))  # the first listing
    assert str(exc.value) == "order cap 7 exceeded"
    assert exc.value.partial == 7
    G = direct_product(cyclic(5), cyclic(6))  # enumerated on product codes
    with pytest.raises(CapExceededError) as fresh:
        G.order(Caps(order=7))
    assert G.order() == 30
    with pytest.raises(CapExceededError) as memo_hit:
        G.order(Caps(order=7))
    assert fresh.value.partial == memo_hit.value.partial == 7


def test_search_reports_how_far_a_capped_closure_got():
    report = search_counterexamples(
        Abelianization(), 24, 1, Caps(order=10), battery=[symmetric(4)], probe_battery=[]
    )
    assert report.cap_failures == ["S4: order cap 10 exceeded (partial count 10)"]


def test_fresh_import_builds_no_table_and_loads_no_application_layer():
    # a scenario with no reproduce or search directive loads neither module,
    # and no command loads dataclasses or the inspect, ast, dis and tokenize
    # it imports, which every cold start would pay for
    probe = (
        "import sys, flatlab\n"
        "battery = flatlab.default_battery()\n"
        "assert all(G._amb is None for G in battery)\n"
        "lazy = ('registry', 'scenario', 'search')\n"
        "assert not [m for m in lazy if 'flatlab.' + m in sys.modules]\n"
        "import contextlib, io, flatlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert flatlab.cli.main(['localize', '--functor', 'sp p=2',\n"
        "                             '--group', 'dihedral(8)']) == 0\n"
        "assert not [m for m in lazy if 'flatlab.' + m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert flatlab.cli.main(['run', {str(SCENARIO)!r}]) == 0\n"
        "assert not [m for m in ('registry', 'search') if 'flatlab.' + m in sys.modules]\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "for name in ('CaseReport', 'case_ids', 'reproduce', 'Scenario',\n"
        "             'parse_scenario', 'run_scenario', 'SearchReport',\n"
        "             'search_counterexamples'):\n"
        "    assert callable(getattr(flatlab, name))\n"
        "try:\n"
        "    flatlab.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout == "ok\n"


def test_a_pullback_kernel_radical_equals_the_radical_from_scratch():
    # K' = ker(P -> X) is recorded as the product K x 1, so its radicals are
    # read off K's memoised ones; each equals the radical of a copy with no
    # record, computed from scratch
    functors = [
        Nullification(cyclic(2).presentation),
        Nullification(symmetric(3).presentation),
        standard_quasi_c4_c2()[1],
        Abelianization(),
        NilpotentQuotient(2),
        Variety((parse_word("x1^2"),)),
    ]
    checked = 0
    for G in default_battery(16):
        for ext in extensions_from_group(G):
            for X in default_battery(4):
                for f in enumerate_homs(X, ext.base):
                    K2 = pullback_extension(ext, f).extension.kernel_group
                    record = K2._factors
                    assert record.over is None and record.first() is ext.proj.kernel()
                    assert record.B.codes() == (0,)
                    fresh = PermGroup._coded(K2.ambient(), K2.gen_codes())
                    for F in functors:
                        carried = radical_subgroup(F, K2).code_set()
                        assert carried == radical_subgroup(F, fresh).code_set()
                    checked += 1
    assert checked > 1000


def test_direct_products_are_capped():
    C = cyclic(400)
    G = direct_product(C, C)
    with pytest.raises(CapExceededError) as exc:
        G.order()
    assert exc.value.partial == Caps().order
    assert G.order(Caps(order=200_000)) == 160_000


def test_cap_free_queries_use_a_stored_table_as_it_is():
    # enumerated under caps above the default ones; queries that take no
    # caps must not re-check the default cap
    G = direct_product(cyclic(400), cyclic(400), name="C400xC400")
    assert G.order(Caps(order=200_000)) == 160_000
    x, y = G.generators
    assert x * y in G
    assert not G.is_trivial() and G.is_abelian()
    assert G.describe() == "C400xC400"
    assert G.subgroup([x]).is_subgroup_of(G)


def _s7():
    return PermGroup(
        7, [Permutation((1, 0, 2, 3, 4, 5, 6)), Permutation((1, 2, 3, 4, 5, 6, 0))]
    )


def test_a_large_table_ambient_builds_no_cayley_columns():
    # the full Cayley table of S7 would hold 5040**2 entries
    S7 = _s7()
    assert hom_count(cyclic(2).presentation, S7) == 232
    assert radical_subgroup(Nullification(cyclic(2).presentation), S7).order() == 5040
    # conjugation composes the permutation products and tables nothing either
    three_cycle = S7.encode(Permutation((1, 2, 0, 3, 4, 5, 6)))
    assert normal_closure_codes(S7, [three_cycle]).order() == 2520
    amb = S7.ambient()
    assert not amb.tabled and amb._cols is None and amb._conj == {}


def _check_conjugators(G):
    amb = G.ambient()
    perms = [amb.decode(x) for x in range(amb.size)]
    for g in G.gen_codes():
        for h in (g, amb.inv(g)):
            conj, ph = amb.conjugator(h), amb.decode(h)
            for x in range(amb.size):
                assert perms[conj(x)] == ph.inverse() * perms[x] * ph


def test_conjugation_columns_agree_with_permutations(battery_pullbacks):
    for G in default_battery(64):
        _check_conjugators(G)
    totals = [pulled.extension.total for _, _, pulled in battery_pullbacks]
    assert {type(P.ambient()) for P in totals} == {_ProductAmbient}
    for P in totals:
        _check_conjugators(P)


def test_product_evaluation_agrees_with_the_letterwise_reference(battery_pullbacks):
    words = [rel for G in default_battery(64) for rel in G.presentation.relators]
    words += [parse_word("x1^4"), parse_word("x1^2")]  # the quasi-variety words
    words = list(dict.fromkeys(words))
    arity = 1 + max(s for w in words for s, _ in w.letters)
    for _, _, pulled in battery_pullbacks:
        P = pulled.extension.total
        amb, codes = P.ambient(), P.codes()
        n = len(codes)
        for i in range(n):
            values = [codes[(i + j) % n] for j in range(arity)]
            for w in words:
                assert amb.evaluate(w, values) == _Ambient.evaluate(amb, w, values)


def test_conjugation_columns_are_cached_per_generator():
    # normal subgroups, the lower central series and the class sizes of a
    # group conjugate by its generators and their inverses only
    for H in default_battery(64):
        G = PermGroup(H.degree, H.generators)  # an ambient of its own
        amb = G.ambient()
        normal_subgroups(G)
        lower_central_series(G)
        _conjugacy_class_sizes(G, Caps())
        gens = G.gen_codes()
        assert set(amb._conj) <= {h for g in gens for h in (g, amb.inv(g))}
        for g in gens:
            assert amb.conjugator(g).__self__ is amb.conjugator(g).__self__


def test_queries_without_caps_on_a_fresh_group_enumerate_nothing():
    G = direct_product(cyclic(400), cyclic(400))
    S7 = _s7()
    assert G.is_abelian() and not S7.is_abelian()
    assert G._amb is None and S7._amb is None
    # the caps of the first query that enumerates decide, not the default
    with pytest.raises(CapExceededError) as exc:
        _group_invariants(G, Caps(order=100))
    assert exc.value.partial == 100
    assert G.order(Caps(order=200_000)) == 160_000
    with pytest.raises(CapExceededError):
        S7.subgroup(S7.generators[:1], caps=Caps(order=100))
    assert _s7().subgroup(()).order() == 1


def test_find_isomorphism_with_more_than_four_generators():
    G = product(symmetric(3), cyclic(2), cyclic(2), cyclic(2))
    assert len(G.generators) == 5 and G.order() == 48
    iso = find_isomorphism(G, G)
    assert iso is not None and iso.is_bijective()
    # the images satisfy G's relators: the map is a homomorphism
    GroupHom(G, G, iso.images)
