"""Byte-for-byte comparison of CLI JSON output and demo output against
committed golden files.

The golden files under tests/golden/ are the ``--format json`` stdout of the
registry cases, the shipped scenarios and one catalog search, and the stdout
of each demo (``demo-0N.txt`` for ``demos/0N_*.py``).  Refactors of the group
machinery must leave every one of them unchanged.  To regenerate a file after
an intended output change, run the command in ``CASES`` with ``--format
json``, or the demo, and redirect stdout to the file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from flatlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    **{
        f"reproduce-{case}": ["reproduce", case]
        for case in (
            "ex-3.3",
            "thm-3.6-nilpotent",
            "cor-3.8",
            "nonidempotent-verbal-d8",
            "thm-4.1",
            "rem-4.2",
            "prop-4.4",
            "prop-4.6",
        )
    },
    "run-prop-4.6": ["run", str(ROOT / "scenarios" / "prop-4.6.scn")],
    "run-thm-4.1": ["run", str(ROOT / "scenarios" / "thm-4.1.scn")],
    "search-sp-p2": [
        "search", "--functor", "sp p=2", "--max-order", "8", "--probe-max-order", "8",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys):
    code = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    ))


@pytest.mark.parametrize("name", ["reproduce-thm-4.1", "reproduce-prop-4.6", "search-sp-p2"])
def test_json_output_is_the_same_under_python_O(name):
    # -O strips every assert statement: no answer may rest on one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "flatlab.cli", *CASES[name], "--format", "json"],
        cwd=ROOT, env=_env(), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name[:2] for d in DEMOS])
def test_demo_output_matches_golden(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=_env(), capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (GOLDEN / f"demo-{demo.name[:2]}.txt").read_bytes()
    assert proc.stdout == expected


def test_golden_json_does_not_depend_on_call_history(capsys):
    # one process runs the registry cases and the search in forward, reverse
    # and three shuffled orders: each case then meets memos that other cases
    # filled, in a different order each time, and must print its golden bytes
    import random

    names = [n for n in sorted(CASES) if not n.startswith("run-")]
    assert len(names) == 9
    shuffled = [random.Random(seed).sample(names, len(names)) for seed in (1, 2, 3)]
    for order in [names, names[::-1], *shuffled]:
        for name in order:
            assert main(CASES[name] + ["--format", "json"]) == 0
            golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
            assert capsys.readouterr().out == golden, (order, name)
