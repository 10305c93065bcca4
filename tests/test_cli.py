import json
import pathlib

import pytest

from flatlab.catalog import symmetric
from flatlab.cli import main, parse_caps
from flatlab.errors import FlatlabError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_scenario_text(capsys):
    code, out = run_cli(capsys, "run", str(SCENARIOS / "thm-4.1.scn"))
    assert code == 0
    assert "not-flat" in out


def test_run_scenario_json(capsys):
    code, out = run_cli(capsys, "run", str(SCENARIOS / "thm-4.1.scn"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    assert doc["directives"][1]["verdict"].startswith("not-flat")


def test_reproduce_exit_codes(capsys):
    code, out = run_cli(capsys, "reproduce", "prop-4.6")
    assert code == 0
    assert "result: pass" in out


def test_unknown_case_id_is_an_execution_error(capsys):
    code = main(["reproduce", "no-such-case"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: unknown case 'no-such-case'")


def test_reproduce_json_deterministic(capsys):
    code1, out1 = run_cli(capsys, "reproduce", "thm-4.1", "--format", "json")
    code2, out2 = run_cli(capsys, "reproduce", "thm-4.1", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_localize(capsys):
    code, out = run_cli(
        capsys,
        "localize",
        "--functor",
        "quasivariety cond=x^4 impose=x^2",
        "--group",
        "cyclic(4)",
    )
    assert code == 0
    assert "order 2" in out


def test_localize_abelian(capsys):
    code, out = run_cli(
        capsys,
        "localize",
        "--functor",
        "sp p=2",
        "--group",
        "abelian rank=1 torsion=[4]",
    )
    assert code == 0
    assert "Z/2" in out


def test_check(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "--functor",
        "sp p=2",
        "--extension",
        str(SCENARIOS / "prop-4.6.scn"),
    )
    assert code == 0
    assert "flat" in out


def test_search(capsys):
    code, out = run_cli(
        capsys,
        "search",
        "--functor",
        "sp p=2",
        "--max-order",
        "8",
        "--probe-max-order",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["counterexamples"]) >= 1
    assert any("D8" in hit["source_group"] for hit in doc["counterexamples"])


def test_bad_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[hom f] from=missing to=missing images=x\n")
    code = main(["run", str(bad)])
    assert code == 1


@pytest.mark.parametrize(
    "argv", [["run"], ["check", "--functor", "abelianization", "--extension"]],
    ids=["run", "check"],
)
def test_an_unreadable_file_is_reported_and_exits_1(argv, tmp_path, capsys):
    # a missing file and one that is not UTF-8 are errors, not tracebacks
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes("# caf\xe9\n".encode("latin-1"))
    for path in (tmp_path / "missing.scn", latin1):
        assert main(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1


def test_caps_parsing():
    caps = parse_caps("order=2000,homs=99")
    assert caps.order == 2000
    assert caps.hom_search == 99
    with pytest.raises(FlatlabError):
        parse_caps("nonsense=1")


def test_json_documents_match_documented_schema(capsys):
    code, out = run_cli(
        capsys, "run", str(SCENARIOS / "prop-4.6.scn"), "--format", "json"
    )
    doc = json.loads(out)
    assert set(doc) == {"directives", "expectations_matched", "exit_code"}
    for d in doc["directives"]:
        assert set(d) == {
            "directive", "summary", "verdict", "expectation", "matched", "details",
        }
    probe = doc["directives"][2]["details"]
    assert set(probe) == {
        "extension", "functor", "base_flat", "pullbacks", "all_pullbacks_flat",
    }
    flat = probe["pullbacks"][0]["verdict"]
    assert set(flat) == {
        "functor", "extension", "left_injective", "middle_exact",
        "right_surjective", "is_flat", "witnesses",
    }
    code, out = run_cli(capsys, "reproduce", "prop-4.4", "--format", "json")
    doc = json.loads(out)
    assert set(doc) == {"case", "title", "passed", "assertions", "reports"}
    for a in doc["assertions"]:
        assert set(a) == {"name", "expected", "actual", "ok"}


def test_cap_exceeded_run_exits_2(capsys):
    code, out = run_cli(
        capsys,
        "run",
        str(SCENARIOS / "prop-4.6.scn"),
        "--caps",
        "homs=2",
    )
    assert code == 2
    assert "cap-exceeded" in out


def test_nullification_functor_literal(capsys):
    code, out = run_cli(
        capsys,
        "localize",
        "--functor",
        "nullification H=cyclic(3)",
        "--group",
        "symmetric(3)",
    )
    assert code == 0
    assert "order 2" in out


def test_generated_functor_literal(capsys):
    # V4 generates S4: its double transpositions and transpositions are the
    # images of V4's generators
    code, out = run_cli(
        capsys, "localize", "--functor", "generated H=elementary(2,2)", "--group", "symmetric(4)",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"] == "order 24"


def test_search_bound_one_is_empty(capsys):
    code, out = run_cli(
        capsys, "search", "--functor", "sp p=2", "--max-order", "1",
        "--probe-max-order", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == []


def test_cap_exhaustion_exits_2_even_when_memoised(capsys):
    symmetric(4).elements()  # a stored element table must not bypass the cap
    argv = ["localize", "--functor", "abelianization", "--group", "symmetric(4)"]
    assert main(argv + ["--caps", "order=10"]) == 2
    assert "cap exceeded" in capsys.readouterr().err
    assert main(argv) == 0


def test_cap_hit_while_parsing_a_scenario_exits_2(tmp_path, capsys):
    scn = tmp_path / "d8.scn"
    scn.write_text(
        "[group D8] perm deg=4 gens=(0 1 2 3),(1 3)\n"
        "[group K] catalog spec=dihedral(8)\n"
        "[hom pr] from=D8 to=K images=x,y\n"
    )
    assert main(["run", str(scn), "--caps", "order=4"]) == 2
    assert main(["run", str(scn)]) == 0


def test_unrealizable_presentation_exits_1(tmp_path, capsys):
    scn = tmp_path / "modular.scn"
    scn.write_text("[group P] presentation gens=x,y rels=x^2,y^3\n")
    assert main(["run", str(scn)]) == 1
    assert "could not realize" in capsys.readouterr().err


def test_presentation_over_the_order_cap_exits_1(tmp_path, capsys):
    scn = tmp_path / "c8.scn"
    scn.write_text("[group P] presentation gens=x rels=x^8\n")
    assert main(["run", str(scn), "--caps", "order=4"]) == 1
    assert "could not realize" in capsys.readouterr().err


def test_localize_abelian_group_option_keeps_its_literal_name(capsys):
    code, out = run_cli(
        capsys, "localize", "--functor", "abelianization",
        "--group", "abelian rank=1 torsion=[4,6]", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"] == "abelian rank=1 torsion=[4,6]"


def test_non_integer_cap_is_an_error_not_a_traceback(capsys):
    argv = ["localize", "--functor", "abelianization", "--group", "cyclic(4)"]
    assert main(argv + ["--caps", "order=abc"]) == 1
    assert capsys.readouterr().err.startswith("error: cap 'order'")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_cap_is_bad_input_not_cap_exhaustion(value, capsys):
    argv = ["localize", "--functor", "abelianization", "--group", "cyclic(4)"]
    assert main(argv + ["--caps", f"order={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cap 'order'") and "cap exceeded" not in err


@pytest.mark.parametrize(
    "option, literal",
    [
        ("--functor", "nilpotent class=0"),
        ("--functor", "nilpotent class=x"),
        ("--functor", "variety words=[x1^]"),
        ("--functor", "sp p=x"),
        ("--group", "abelian torsion=[1]"),
        ("--group", "abelian rank=-1 torsion=[2]"),
        ("--group", "abelian torsion=[4"),
    ],
)
def test_a_malformed_literal_is_an_error_not_a_traceback(option, literal, capsys):
    # every command that reads the literal reports it on stderr and exits 1
    if option == "--group":
        argvs = [["localize", "--functor", "abelianization", "--group", literal]]
    else:
        argvs = [
            ["localize", "--functor", literal, "--group", "cyclic(4)"],
            ["check", "--functor", literal, "--extension", str(SCENARIOS / "prop-4.6.scn")],
            ["search", "--functor", literal, "--max-order", "4"],
        ]
    for argv in argvs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        # an option has no line number to name
        assert not captured.err.startswith("error: line")


def test_an_unknown_functor_parameter_is_named(capsys):
    argv = ["localize", "--functor", "abelianization foo=1", "--group", "cyclic(4)"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'foo'" in err


def test_a_spaced_functor_literal_reads_as_in_a_scenario(capsys):
    # a bracketed word list may hold spaces, as in a [functor] section
    runs = [
        run_cli(capsys, "localize", "--functor", literal, "--group", "dihedral(8)",
                "--format", "json")
        for literal in ("variety words=[x1^2, [x1,x2]]", "variety words=[x1^2,[x1,x2]]")
    ]
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("literal", ["", "   "])
def test_a_blank_functor_literal_is_an_error_not_a_traceback(literal, capsys):
    assert main(["localize", "--functor", literal, "--group", "cyclic(4)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("c", [13, 40])
def test_a_high_nilpotent_class_builds_no_word(c):
    # [x1, ..., x_(c+1)] has 3 * 2^c - 2 letters; the class is handed on as
    # it is, so the command answers at once (run with a memory limit, so a
    # word built after all fails the test and not the machine)
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "flatlab.cli", "localize", "--functor", f"nilpotent class={c}",
         "--group", "dihedral(8)"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    head, elapsed = proc.stdout.rsplit("elapsed: ", 1)
    assert head == f"nilpotent(class={c}) applied to dihedral(8): order 8\nradical: order 1\n"
    assert float(elapsed.strip().rstrip("s")) < 0.25
