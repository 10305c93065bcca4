"""The cli-cases workload: cold ``flatlab`` commands, one fresh process each.

Every command prints JSON, so its stdout can be checked for the expected
answer and compared byte for byte with the same command's stdout in the
run's first pass.  In a traced pass the benchmark also repeats, in its own
process on a freshly imported ``flatlab``, the library call behind each
``reproduce`` and ``run`` command, so that registry, scenario and
presentation-realization time can be told apart from start-up.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

CASES = (
    "ex-3.3", "thm-3.6-nilpotent", "cor-3.8", "nonidempotent-verbal-d8",
    "thm-4.1", "rem-4.2", "prop-4.4", "prop-4.6",
)
SHIPPED_SCENARIOS = ("scenarios/prop-4.6.scn", "scenarios/thm-4.1.scn")
# catalog presentations the word-closure realizer cannot build today; each
# must either realize and match, or fail with a realization error every time
REALIZATION_PENDING = ("C12", "C16")
PENDING = "realization pending"
LOCALIZE = (
    ("nilpotent class=2", "dihedral(16)"),
    ("abelianization", "symmetric(4)"),
    ("variety words=[x1^2]", "quaternion(8)"),
    ("nullification H=cyclic(2)", "alternating(5)"),
    ("nullification H=symmetric(3)", "symmetric(4)"),
    ("quasivariety cond=x^4 impose=x^2", "cyclic(8)"),
    ("sp p=2", "dihedral(8)"),
    ("abelianization", "abelian rank=1 torsion=[4,6]"),
    ("nullification H=cyclic(2)", "abelian torsion=[4,6]"),
    ("quasivariety cond=x^4 impose=x^2", "abelian rank=1 torsion=[8,12]"),
    ("sp p=2", "abelian torsion=[2,4]"),
    ("variety words=[x1^2]", "abelian rank=1 torsion=[4,6]"),
    ("nilpotent class=2", "abelian torsion=[2,2,3]"),
)
SEARCH = ("search", "--functor", "sp p=2", "--max-order", "8", "--probe-max-order", "8")
_PRESENTATION = re.compile(r"^\[group \S+\]\s+presentation\s+gens=(\S+)\s+rels=(\S+)", re.M)


@dataclass(frozen=True)
class Command:
    label: str
    kind: str  # reproduce | run | search | localize
    argv: tuple


def commands() -> list[Command]:
    cmds = [Command(f"reproduce {c}", "reproduce", ("reproduce", c)) for c in CASES]
    scenario_files = list(SHIPPED_SCENARIOS) + sorted(
        str(p.relative_to(ROOT)) for p in (BENCH / "scenarios").glob("*.scn")
    )
    cmds += [Command(f"run {s}", "run", ("run", s)) for s in scenario_files]
    cmds.append(Command("search sp p=2", "search", SEARCH))
    cmds += [
        Command(f"localize {f} on {g}", "localize", ("localize", "--functor", f, "--group", g))
        for f, g in LOCALIZE
    ]
    return cmds


@dataclass
class PassResult:
    outputs: dict = field(default_factory=dict)  # label -> (exit code, stdout, stderr)
    latencies: list = field(default_factory=list)  # seconds per command
    attempted: int = 0
    pending_failures: int = 0  # realization failures of REALIZATION_PENDING files
    errors: list = field(default_factory=list)


def run_pass(cmds, env, expected, rng, tr, fresh_flatlab, between) -> PassResult:
    """Every command once, in the seed's order; ``between`` is called before
    each command."""
    res = PassResult()
    for cmd in rng.sample(cmds, len(cmds)):
        between()
        res.attempted += 1
        argv = [sys.executable, "-m", "flatlab.cli", *cmd.argv, "--format", "json"]
        with tr.span("cli.command", new_op=True):
            start = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=170)
            end = perf_counter()
            tr.add(f"cli.{cmd.kind}", start, end)
            if tr.on and cmd.kind in ("reproduce", "run"):
                _replay(cmd, tr, fresh_flatlab())
        res.latencies.append(end - start)
        res.outputs[cmd.label] = (proc.returncode, proc.stdout, proc.stderr)
        verdict = _check(cmd, proc, expected.get(cmd.label))
        if verdict == PENDING:
            res.pending_failures += 1
        elif verdict is not None:
            res.errors.append(f"{cmd.label}: {verdict}")
    return res


def _check(cmd: Command, proc, want) -> str | None:
    """None when the output is right, PENDING for an allowed realization
    failure, and an error message otherwise."""
    if (cmd.kind == "run" and Path(cmd.argv[-1]).stem in REALIZATION_PENDING
            and proc.returncode == 1 and not proc.stdout
            and b"could not realize" in proc.stderr):
        return PENDING
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
    try:
        doc = json.loads(proc.stdout)
        if cmd.kind == "reproduce" and doc["passed"] is not True:
            return "case did not pass"
        if cmd.kind == "run":
            if doc["expectations_matched"] is not True or doc["exit_code"] != 0:
                return "scenario expectations not matched"
        if cmd.kind == "search":
            got = {k: doc[k] for k in ("extensions_scanned", "flat_extensions",
                                       "pullbacks_checked", "cap_failures")}
            got["counterexamples"] = len(doc["counterexamples"])
            got["source_groups"] = sorted({h["source_group"] for h in doc["counterexamples"]})
            if got != want:
                return f"search found {got}, expected {want}"
        if cmd.kind == "localize":
            got = {"result": doc["result"], "radical": doc["radical"]}
            if got != want:
                return f"localization gave {got}, expected {want}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _replay(cmd: Command, tr, fl) -> None:
    """Repeat the command's library call in this process, one span per layer."""
    if cmd.kind == "reproduce":
        tr.call("registry.reproduce", fl.reproduce, cmd.argv[1])
        return
    text = (ROOT / cmd.argv[1]).read_text(encoding="utf-8")
    for gens, rels in _PRESENTATION.findall(text):
        pres = fl.Presentation.parse(gens, rels)
        try:
            tr.call("homs.realize_presentation", fl.realize_presentation, pres)
        except fl.RealizationError:
            tr.count("homs.realize_presentation.failed")
    try:
        scn = tr.call("scenario.parse_scenario", fl.parse_scenario, text)
    except fl.ScenarioError:
        return
    tr.call("scenario.run_scenario", fl.run_scenario, scn)
