import pathlib

import pytest

from flatlab.caps import DEFAULT_CAPS, Caps
from flatlab.errors import CapExceededError, ScenarioError
from flatlab.scenario import parse_scenario, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_empty_file():
    scn = parse_scenario("")
    assert scn.sections == []
    assert run_scenario(scn).exit_code == 0


def test_shipped_thm41_counts():
    text = (SCENARIOS / "thm-4.1.scn").read_text()
    scn = parse_scenario(text)
    assert len(scn.groups) == 4
    assert len(scn.homs) == 2
    assert len(scn.extensions) == 1
    assert len(scn.functors) == 1
    assert len(scn.directives) == 2


def test_shipped_thm41_runs_clean():
    text = (SCENARIOS / "thm-4.1.scn").read_text()
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0
    assert [r.verdict for r in result.results] == ["flat", "not-flat;iso-ok"]


def test_shipped_prop46_runs_clean():
    text = (SCENARIOS / "prop-4.6.scn").read_text()
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0


def test_undefined_reference_diagnostic():
    text = "[hom f] from=G to=H images=x\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert "undefined group 'G'" in str(exc.value)
    assert exc.value.line == 1


def test_syntax_error_diagnostic():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("stray line\n")
    assert exc.value.line == 1


def test_flavor_mismatch_diagnostic():
    text = (
        "[group A] abelian rank=1\n"
        "[group B] catalog spec=cyclic(2)\n"
        "[hom f] from=A to=B matrix=[[1]]\n"
    )
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert "flavor" in str(exc.value)


def test_expectation_mismatch_exits_2():
    text = (SCENARIOS / "prop-4.6.scn").read_text().replace(
        "name=EP functor=S2 expect=not-flat", "name=EP functor=S2 expect=flat"
    )
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 2


def test_round_trip():
    text = (SCENARIOS / "thm-4.1.scn").read_text()
    scn = parse_scenario(text)
    reparsed = parse_scenario(scn.to_text())
    assert reparsed.sections == scn.sections


def test_determinism_of_reports():
    import json

    text = (SCENARIOS / "thm-4.1.scn").read_text()
    a = json.dumps(run_scenario(parse_scenario(text)).to_dict(), indent=2)
    b = json.dumps(run_scenario(parse_scenario(text)).to_dict(), indent=2)
    assert a == b


def test_presentation_group_and_localize_directive():
    text = """
[group C8] presentation gens=x rels=x^8
[functor L] kind=quasivariety cond=x^4 impose=x^2
[directive] localize functor=L group=C8 expect_invariants=(0;[2])
"""
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0


def test_certify_directive():
    text = """
[group C4] abelian relations=[[4]]
[group Z]  abelian rank=1
[group Z2] abelian torsion=[2]
[hom phi]  from=C4 to=Z2 matrix=[[1]]
[hom red]  from=Z to=Z2 matrix=[[1]]
[functor L] kind=quasivariety cond=x^4 impose=x^2
[directive] certify functor=L phi=phi group=C4 local=Z surjection=red expect=local
"""
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0


def test_certify_test_map_is_realized_under_the_run_caps():
    """The codomain of an abelian test map is realized by coset enumeration,
    which must stop at the run's order cap like every other realization."""
    text = """
[group Z2] abelian torsion=[2]
[group C8] abelian torsion=[8]
[group Z]  abelian rank=1
[hom phi]  from=Z2 to=C8 matrix=[[4]]
[hom red]  from=Z to=Z2 matrix=[[1]]
[functor L] kind=quasivariety cond=x^4 impose=x^2
[directive] certify functor=L phi=phi group=Z2 local=Z surjection=red
"""
    assert run_scenario(parse_scenario(text)).exit_code == 0
    capped = Caps().with_(order=4)
    result = run_scenario(parse_scenario(text, capped), capped)
    assert result.exit_code == 1
    assert "coset limit 4" in result.results[0].payload["error"]

def test_an_execution_error_ends_the_run_with_one_error_result():
    text = """
[group Z2] abelian torsion=[2]
[group C8] abelian torsion=[8]
[group Z]  abelian rank=1
[hom phi]  from=Z2 to=C8 matrix=[[4]]
[hom red]  from=Z to=Z2 matrix=[[1]]
[functor L] kind=quasivariety cond=x^4 impose=x^2
[directive] certify functor=L phi=phi group=Z2 local=Z surjection=red expect=hypothesis-failed
[directive] localize functor=L group=Z
"""
    assert [r.verdict for r in run_scenario(parse_scenario(text)).results] == [
        "hypothesis-failed", "computed"
    ]
    capped = Caps().with_(order=4)
    result = run_scenario(parse_scenario(text, capped), capped)
    assert result.exit_code == 1
    [res] = result.results  # the localize directive never runs
    assert (res.kind, res.summary, res.verdict, res.expectation, res.matched) == (
        "certify", "directive at line 8", "error", "hypothesis-failed", None
    )


def test_reproduce_directive():
    text = "[directive] reproduce case=nonidempotent-verbal-d8 expect=pass\n"
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0


def test_all_functor_literals():
    text = """
[group D8] catalog spec=dihedral(8)
[functor A]  kind=abelianization
[functor N2] kind=nilpotent class=2
[functor VC] kind=variety words=[[x1,x2]]
[functor VS] kind=variety words=[x1^2]
[functor P]  kind=nullification H=cyclic(2)
[functor Q]  kind=quasivariety cond=x^4 impose=x^2
[functor S]  kind=sp p=2
[directive] localize functor=A group=D8 expect_invariants=(0;[2,2])
[directive] localize functor=N2 group=D8
[directive] localize functor=VC group=D8 expect_invariants=(0;[2,2])
[directive] localize functor=VS group=D8 expect_invariants=(0;[2,2])
[directive] localize functor=P group=D8 expect_invariants=(0;[])
[directive] localize functor=Q group=D8
[directive] localize functor=S group=D8
"""
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0
    verdicts = [r.verdict for r in result.results]
    assert verdicts.count("invariants-ok") == 4


def test_search_directive():
    text = """
[functor S2] kind=sp p=2
[directive] search functor=S2 max_order=8 probe_max_order=4 expect=found
"""
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0


def test_cap_exhaustion_is_distinct_verdict_and_fails():
    # the probe's hom enumeration exhausts a tiny cap: the directive reports
    # a distinct cap-exceeded verdict and the run exits 2, never a silent pass
    text = (SCENARIOS / "prop-4.6.scn").read_text()
    scn = parse_scenario(text)
    tight = DEFAULT_CAPS.with_(hom_search=2)
    result = run_scenario(scn, tight)
    assert result.exit_code == 2
    assert "cap-exceeded" in [r.verdict for r in result.results]


def test_cap_exceeded_verdict_reports_the_partial_count():
    text = (
        "[group S4] catalog spec=symmetric(4)\n"
        "[functor Ab] kind=abelianization\n"
        "[directive] localize functor=Ab group=S4\n"
    )
    result = run_scenario(parse_scenario(text), Caps(order=10))
    assert result.exit_code == 2
    [res] = result.results
    assert res.verdict == "cap-exceeded"
    assert res.payload == {"error": "order cap 10 exceeded", "partial": 10}
    # a hom-search cap has no partial count: the details stay as they were
    text = (SCENARIOS / "prop-4.6.scn").read_text()
    capped = run_scenario(parse_scenario(text), DEFAULT_CAPS.with_(hom_search=2))
    assert [
        sorted(r.payload) for r in capped.results if r.verdict == "cap-exceeded"
    ] == [["error"]]


def test_parse_scenario_applies_caps_and_lets_cap_errors_through():
    text = (
        "[group D8] perm deg=4 gens=(0 1 2 3),(1 3)\n"
        "[group K] catalog spec=dihedral(8)\n"
        "[hom pr] from=D8 to=K images=x,y\n"
    )
    assert "pr" in parse_scenario(text).homs
    with pytest.raises(CapExceededError):
        parse_scenario(text, Caps(order=4))


def test_an_unknown_functor_parameter_is_a_scenario_error():
    text = "[functor W] kind=variety words=[x1^4] wrods=[x1^2]\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert "'wrods'" in str(exc.value) and "line 1" in str(exc.value)


def test_orthogonal_functor_localizes_both_flavors():
    # x^2 = y^2 = 1 => [x,y] = 1: D8 keeps V4; an abelian group is local
    text = """
[group D8]  catalog spec=dihedral(8)
[group P]   catalog spec=product(cyclic(2),cyclic(4))
[group M]   abelian torsion=[2,4]
[functor O] kind=orthogonal gens=x,y rels=[x^2,y^2] impose=[[x,y]]
[directive] localize functor=O group=D8 expect_invariants=(0;[2,2])
[directive] localize functor=O group=P expect_invariants=(0;[2,4])
[directive] localize functor=O group=M expect_invariants=(0;[2,4])
"""
    result = run_scenario(parse_scenario(text))
    assert result.exit_code == 0
    assert [r.verdict for r in result.results] == ["invariants-ok"] * 3
    assert result.results[0].summary.startswith("orthogonal(<x,y|x^2,y^2>=>x^-1*y^-1*x*y)")


def test_readme_scenario_example_parses():
    readme = (SCENARIOS.parent / "README.md").read_text()
    block = readme.split("## The scenario DSL", 1)[1].split("```\n")[1]
    scn = parse_scenario(block)
    headers = [line for line in block.splitlines() if line.startswith("[")]
    assert len(scn.sections) == len(headers) == 23


def test_a_finite_abelian_test_map_is_its_word_map():
    """C2 x C2 -> C2 x C4, (1,0) -> (1,0) and (0,1) -> (0,2), read from its
    matrix, decides locality as the same map written with words does, down
    to the witness."""
    from flatlab.catalog import default_battery
    from flatlab.functors import TestMap, is_local_wrt
    from flatlab.scenario import _test_map_from_hom
    from flatlab.words import Presentation, parse_word

    text = """
[group A] abelian torsion=[2,2]
[group B] abelian torsion=[2,4]
[hom phi] from=A to=B matrix=[[1,0],[0,2]]
"""
    phi = _test_map_from_hom("phi", parse_scenario(text), 4, DEFAULT_CAPS)
    B = Presentation.parse("c,d", "c^2,d^4,[c,d]")
    words = TestMap(
        Presentation.parse("a,b", "a^2,b^2,[a,b]"), B,
        (parse_word("c", B.generators), parse_word("d^2", B.generators)),
    )
    reports = [
        [(r.hom_count_b, r.hom_count_a, r.is_local, r.witness) for r in
         (is_local_wrt(G, phi), is_local_wrt(G, words))]
        for G in default_battery(8)
    ]
    assert all(mine == theirs for mine, theirs in reports)
    assert {verdict for (_, _, verdict, _), _ in reports} == {True, False}


def test_an_abelian_test_map_refuses_only_an_infinite_codomain():
    text = """
[group Z]  abelian rank=1
[group Z2] abelian torsion=[2]
[group C4] abelian relations=[[4]]
[hom up]   from=Z2 to=Z matrix=[[0]]
[hom red]  from=Z to=Z2 matrix=[[1]]
[functor L] kind=quasivariety cond=x^4 impose=x^2
[directive] certify functor=L phi=up group=C4 local=Z surjection=red
"""
    with pytest.raises(ScenarioError, match="line 8: an abelian test map needs a "
                       "finite codomain.*cannot list an infinite group"):
        run_scenario(parse_scenario(text))
    # the domain is never realized, so a free one is accepted
    from flatlab.catalog import cyclic
    from flatlab.functors import is_local_wrt
    from flatlab.scenario import _test_map_from_hom

    red = _test_map_from_hom("red", parse_scenario(text), 6, DEFAULT_CAPS)
    report = is_local_wrt(cyclic(4), red)  # Hom(Z2, C4) = C2, Hom(Z, C4) = C4
    assert (report.hom_count_b, report.hom_count_a, report.is_local) == (2, 4, False)


def test_a_negative_abelian_rank_is_a_scenario_error():
    text = "[group A] abelian rank=1\n[group G] abelian rank=-1 torsion=[2]\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.line == 2 and "rank must be >= 0" in str(exc.value)
