#!/usr/bin/env python3
"""The flatlab benchmark.

    python3 perfbench/run.py --workload variety-sweep --seed 1 --seconds 25 --trace 0

Runs one workload from the root of a checkout, in passes, for at least
``--seconds`` seconds, checks every pass against the exhaustive counts in
``perfbench/expected.json`` and prints the metrics, one per line, then one
JSON object as the last line of stdout:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  The exit code is 1 when a
correctness gate fails.  See perfbench/README.md for the workloads and the
meaning of every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cli_cases
import sweeps
from spans import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SWEEPS = {"variety-sweep": sweeps.VARIETY_SWEEP, "radical-sweep": sweeps.RADICAL_SWEEP}
WORKLOADS = (*SWEEPS, "cli-cases")
# untraced passes an end-to-end run needs at least: cli-cases compares each
# command's stdout across passes, and its p90 needs 100 commands and gets
# steadier with more
MIN_PASSES = {"variety-sweep": 1, "radical-sweep": 1, "cli-cases": 3}
# seconds between two fresh-interpreter set-ups timed during a run
SETUP_EVERY_S = 3.0
# set-up as a user pays it: a fresh interpreter imports flatlab and builds the
# pinned battery (interpreter start-up itself is not counted)
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import flatlab\n"
    "flatlab.default_battery()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_flatlab():
    """Import flatlab anew, so that a pass starts from the library's cold
    state, as a new process would: no memoised groups, radicals or tables."""
    for name in [m for m in sys.modules if m == "flatlab" or m.startswith("flatlab.")]:
        del sys.modules[name]
    gc.collect()
    return importlib.import_module("flatlab")


class SetupProbes:
    """Set-up timings spread over the run.  The passes call ``step`` between
    steps (source groups on the sweeps, commands on cli-cases); it times one
    fresh-interpreter set-up when ``every`` seconds have gone by since the
    last, so that the set-ups, like the passes, sample the host's drift over
    the whole run.  ``spent`` is their wall time, which the pass walls leave
    out.  With ``every`` None nothing is timed."""

    def __init__(self, env, every):
        self.env, self.every = env, every
        self.values = []  # seconds per set-up
        self.spent = 0.0
        self._last = float("-inf")

    def step(self) -> None:
        if self.every is None or perf_counter() - self._last < self.every:
            return
        t0 = perf_counter()
        self.values.append(float(subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=self.env,
            capture_output=True, check=True, timeout=120).stdout))
        self._last = perf_counter()
        self.spent += self._last - t0


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of the sorted
    values weighted by a Beta(p(n+1), (1-p)(n+1)) density over their ranks.
    It moves smoothly as single values move, where the plain quantile of a
    hundred values jumps with the one or two values next to it."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint-rule steps per value
    total = weights = 0.0
    for i, xi in enumerate(x):
        w = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w * xi
        weights += w
    return total / weights


def run_passes(workload, seconds, traced, rng, env, expected):
    """Timed passes until ``seconds`` have gone by and the workload has had
    its minimum number of passes.  An untraced run times set-up during the
    passes; a traced run times none, and alternates untraced and traced
    passes, to measure the overhead."""
    tracer = Tracer()
    passes = []  # (traced?, wall seconds, pass result)
    setup = SetupProbes(env, None if traced else SETUP_EVERY_S)
    cmds = cli_cases.commands()
    start = perf_counter()
    while True:
        tr = tracer if traced and len(passes) % 2 else NullTracer()
        spent = setup.spent
        if workload == "cli-cases":
            gc.collect()
            t0 = perf_counter()
            res = cli_cases.run_pass(cmds, env, expected, rng, tr, fresh_flatlab, setup.step)
        else:
            fl = fresh_flatlab()
            t0 = perf_counter()
            with tr.span("sweep.pass"):
                res = sweeps.run_pass(fl, SWEEPS[workload], rng, tr, setup.step)
            del fl
        probing = setup.spent - spent
        wall = perf_counter() - t0 - probing
        passes.append((tr.on, wall, res))
        if len(passes) == 1:
            # each sweep pass does the same work from a cold library, so the
            # first pass's peak is the workload's; later passes only add
            # allocator retention, which grows with the number of passes
            first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        enough = len(passes) >= (2 if traced else MIN_PASSES[workload])
        if enough and perf_counter() - start >= seconds:
            return passes, setup.values, tracer, first_rss_kb


def gate(workload, passes, want) -> list[str]:
    """Every correctness failure of the run, as messages."""
    errors = [e for _, _, res in passes for e in res.errors]
    if workload == "cli-cases":
        first = passes[0][2].outputs
        for _, _, res in passes[1:]:
            errors += [f"{label}: output differs from the first pass"
                       for label, out in res.outputs.items() if first.get(label) != out]
        return errors
    for i, (_, _, res) in enumerate(passes):
        for key in sorted(set(want["counts"]) | set(res.counts)):
            if want["counts"].get(key) != res.counts.get(key):
                errors.append(f"pass {i}: {key}: counts {res.counts.get(key)} "
                              f"!= baseline {want['counts'].get(key)}")
        if sorted(res.hits) != want["hits"]:
            errors.append(f"pass {i}: not-flat pullbacks differ from the baseline list")
    return errors


def end_to_end(workload, passes, setup, first_rss_kb) -> tuple[dict, list[str]]:
    walls = [wall for _, wall, _ in passes]
    lat = [x for _, _, res in passes for x in res.latencies]
    if workload == "cli-cases":
        how = "Harrell-Davis p90"
        tail_ms = harrell_davis(lat, 0.9) * 1e3
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
    else:
        how = "p99"
        tail_ms = quantile(lat, 99) * 1e3
        peak_kb = first_rss_kb
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(lat) / sum(walls),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024,
    }
    op = "command" if workload == "cli-cases" else "pullback"
    beyond = sum(x * 1e3 > tail_ms for x in lat)
    notes = [
        f"passes: {len(passes)}; {op}s timed: {len(lat)}",
        f"op_tail_ms is the {how} of {len(lat)} {op} latencies; {beyond} lie beyond it",
        f"setup_s is the median of {len(setup)} fresh-interpreter set-ups, "
        f"one every {SETUP_EVERY_S:g} s of the passes",
    ]
    if workload == "cli-cases":
        notes.append(f"cmd_p50_ms: {metrics['op_p50_ms']:.4f} ms")
        notes.append(f"cmd_p90_ms: {tail_ms:.4f} ms")
    else:
        notes.append(f"checks_per_s: {metrics['ops_per_s']:.4f} 1/s")
        notes.append(f"pullback_p50_ms: {metrics['op_p50_ms']:.4f} ms")
        notes.append(f"pullback_p99_ms: {tail_ms:.4f} ms")
    return metrics, notes


def per_layer(workload, passes, tracer, rng) -> dict:
    n = sum(on for on, _, _ in passes)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def per_pass(x):
        return x / n

    m = {}
    layers = [
        "permgroup.elements", "permgroup.normal_subgroups", "homs.enumerate_homs",
        "homs.realize_presentation", "extensions.pullback_extension",
        "extensions.extensions_from_group", "functors.apply.sp", "functors.idempotency",
    ] + [f"functors.radical.{f}" for f in
         ("abelianization", "nilpotent", "variety", "nullification", "quasivariety")]
    for layer in layers:
        m[f"{layer}.calls"] = per_pass(calls[layer])
        m[f"{layer}.s"] = per_pass(self_s.get(layer, 0.0))
    for flavor in ("epi", "sub", "abelian"):
        layer = f"extensions.check_flatness.{flavor}"
        m[f"{layer}.calls"] = per_pass(calls[layer])
        m[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
        m[f"{layer}.not_flat"] = per_pass(counts[f"{layer}.not_flat"])
    for name in ("permgroup.elements.count", "permgroup.normal_subgroups.count",
                 "homs.enumerate_homs.homs", "homs.realize_presentation.failed",
                 "extensions.extensions_from_group.count",
                 "extensions.extensions_from_group.flat"):
        m[name] = per_pass(counts[name])
    tuples = counts["homs.enumerate_homs.tuples"]
    m["homs.enumerate_homs.hit_ratio"] = counts["homs.enumerate_homs.homs"] / tuples if tuples else 0.0
    pb = tracer.durations("extensions.pullback_extension")
    m["extensions.pullback_extension.p99_ms"] = quantile(pb, 99) * 1e3 if len(pb) > 1 else 0.0
    for name in ("registry.reproduce", "scenario.parse_scenario", "scenario.run_scenario"):
        m[f"{name}.s"] = per_pass(self_s.get(name, 0.0))
    for kind in ("reproduce", "run", "search", "localize"):
        d = tracer.durations(f"cli.{kind}")
        m[f"cli.{kind}.ms"] = statistics.median(d) * 1e3 if d else 0.0
    walls = {on: statistics.median(w for o, w, _ in passes if o == on) for on in (False, True)}
    m["trace.overhead_share"] = walls[True] / walls[False] - 1
    m.update(kernels(fresh_flatlab(), rng))
    return m


def kernels(fl, rng) -> dict:
    """Element multiplication and Smith normal form on seeded inputs."""
    q8 = fl.quaternion(8).elements()  # degree 8
    ext = fl.extensions_from_group(fl.cyclic(64))[-1]  # C64 -> C64 -> 1
    f = fl.enumerate_homs(fl.cyclic(16), ext.base)[0]
    P = fl.pullback_extension(ext, f).extension.total  # C64 x C16 on 80 points
    if P.order() != 1024 or P.degree != 80:
        raise RuntimeError(f"expected an order-1024 pullback on 80 points, got {P!r}")
    big = P.elements()
    pairs8 = [(a, b) for a in q8 for b in q8] * 64
    pairs80 = [(rng.choice(big), rng.choice(big)) for _ in range(4096)]
    mats = [fl.IntMatrix([[rng.randint(-20, 20) for _ in range(6)] for _ in range(6)])
            for _ in range(100)]

    def per_item(fn, items, reps=7):
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            fn(items)
            times.append((perf_counter() - t0) / len(items))
        return statistics.median(times)

    def mul(pairs):
        for a, b in pairs:
            a * b

    def snf(ms):
        for M in ms:
            fl.smith_normal_form(M)

    return {
        "perm.mul_ns.deg8": per_item(mul, pairs8) * 1e9,
        "perm.mul_ns.deg80": per_item(mul, pairs80) * 1e9,
        "abelian.smith_normal_form.us_6x6": per_item(snf, mats, reps=3) * 1e6,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flatlab" / "__init__.py").is_file():
        print(f"perfbench: no flatlab sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    rng = random.Random(args.seed)
    env = child_env()
    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    passes, setup, tracer, first_rss_kb = run_passes(
        args.workload, args.seconds, args.trace, rng, env, expected)
    errors = gate(args.workload, passes, expected)
    attempted = sum(res.attempted for _, _, res in passes)
    pending = sum(res.pending_failures for _, _, res in passes)
    failed_share = (len(errors) + pending) / attempted

    if args.trace:
        values = per_layer(args.workload, passes, tracer, rng)
        values["failed_share"] = failed_share
        listed = spec["per_layer"]
        notes = [f"traced passes: {sum(on for on, _, _ in passes)} of {len(passes)}"]
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed})
        notes.append(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        untraced = [p for p in passes if not p[0]]
        values, notes = end_to_end(args.workload, untraced, setup, first_rss_kb)
        listed = spec["end_to_end"]
        notes.append(f"failed_share: {failed_share:.6f} ({pending} pending realizations)")
    unmatched = {m["name"] for m in listed} ^ set(values)
    if unmatched:
        raise RuntimeError(f"metrics computed and metrics listed differ: {sorted(unmatched)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    for note in notes:
        print(note)
    for name, v in metrics.items():
        print(f"{name}: {v['value']:.6g} {v['unit']}")
    for e in errors[:20]:
        print(f"GATE FAILED: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
