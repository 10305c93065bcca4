"""The two sweep workloads.

Each pass runs the loop of ``flatlab.search_counterexamples`` from outside
the library, once per functor: every extension of every source group gets a
flatness verdict, and every flat one is pulled back along every homomorphism
from every probe group, each pullback getting its own verdict.  Making the
calls here lets the traced run time each layer at its boundary.

In a traced pass the benchmark first calls, itself, the memoised inner layers
that the next call would reach: ``G.elements()`` on each group it is given
before that group is used, and the functor's radical (or ``apply`` for the
subfunctor) on the three groups of an extension before ``check_flatness``.
What is left inside ``check_flatness`` is then its self time.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter

SOURCE_MAX_ORDER = 64  # the whole pinned battery

# Wall time spent in the cyclic garbage collector since import.  A collection
# runs inside whichever pullback crosses the allocation threshold, and its
# length grows with the live heap, not with that pullback's work, so pullback
# latencies leave it out; the pass walls keep it.
_gc = {"paused": 0.0, "start": 0.0}


def _on_gc(phase, info) -> None:
    if phase == "start":
        _gc["start"] = perf_counter()
    else:
        _gc["paused"] += perf_counter() - _gc["start"]


gc.callbacks.append(_on_gc)


@dataclass(frozen=True)
class Sweep:
    # (label, make) pairs; make(fl) returns the functor from the fresh module
    functors: tuple
    probe_max_order: int


def _nullification(name):
    return lambda fl: fl.Nullification(fl.parse_group_literal(name).presentation)


VARIETY_SWEEP = Sweep(
    functors=(
        ("abelianization", lambda fl: fl.Abelianization()),
        ("nilpotent class=2", lambda fl: fl.NilpotentQuotient(2)),
        ("nilpotent class=3", lambda fl: fl.NilpotentQuotient(3)),
        ("variety x1^2", lambda fl: fl.Variety((fl.parse_word("x1^2"),))),
        ("sp p=2", lambda fl: fl.SpSubfunctor(2)),
    ),
    probe_max_order=4,
)

RADICAL_SWEEP = Sweep(
    functors=(
        ("nullification C2", _nullification("cyclic(2)")),
        ("nullification C3", _nullification("cyclic(3)")),
        ("nullification V4", _nullification("elementary(2,2)")),
        ("nullification S3", _nullification("symmetric(3)")),
        ("quasivariety x^4=>x^2", lambda fl: fl.standard_quasi_c4_c2()[1]),
    ),
    probe_max_order=3,
)


@dataclass
class PassResult:
    counts: dict = field(default_factory=dict)
    hits: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds per pullback, GC pauses left out
    attempted: int = 0
    pending_failures: int = 0  # a sweep has no allowed failures
    errors: list = field(default_factory=list)


def _radical_layer(fl, F):
    """The span name and the memoised call that computes F on one group."""
    if isinstance(F, fl.SpSubfunctor):
        return "functors.apply.sp", fl.apply
    family = {
        fl.Abelianization: "abelianization",
        fl.NilpotentQuotient: "nilpotent",
        fl.Variety: "variety",
        fl.Nullification: "nullification",
        fl.QuasiVarietyReflection: "quasivariety",
    }[type(F)]
    return f"functors.radical.{family}", fl.radical_subgroup


def _elements(tr, G) -> None:
    n = len(tr.call("permgroup.elements", G.elements))
    tr.count("permgroup.elements.count", n)


def _verdict(fl, tr, F, ext, flavor: str):
    if tr.on:
        layer, fn = _radical_layer(fl, F)
        for H in (ext.kernel_group, ext.total, ext.base):
            tr.call(layer, fn, F, H)
    rep = tr.call(f"extensions.check_flatness.{flavor}", fl.check_flatness, F, ext)
    if not rep.is_flat:
        tr.count(f"extensions.check_flatness.{flavor}.not_flat")
    return rep


def run_pass(fl, sweep: Sweep, rng, tr, between) -> PassResult:
    """One exhaustive sweep over a freshly imported ``flatlab``; ``between``
    is called before each source group."""
    res = PassResult()
    sources = fl.default_battery(SOURCE_MAX_ORDER)
    probes = fl.default_battery(sweep.probe_max_order)
    if tr.on:
        for G in sources:  # the probe groups are among them
            _elements(tr, G)
            subs = tr.call("permgroup.normal_subgroups", fl.normal_subgroups, G)
            tr.count("permgroup.normal_subgroups.count", len(subs))
    _battery_checks(fl, sweep, rng, tr, res)
    for label, make in sweep.functors:
        F = make(fl)
        _search(fl, tr, label, F, rng.sample(sources, len(sources)), probes, rng, res,
                between)
    return res


def _battery_checks(fl, sweep, rng, tr, res) -> None:
    """Each nullification among the sweep's functors is idempotent on every
    battery group and its radical there is acyclic."""
    for label, make in sweep.functors:
        F = make(fl)
        if not isinstance(F, fl.Nullification):
            continue
        good = 0
        battery = fl.default_battery(SOURCE_MAX_ORDER)
        for G in rng.sample(battery, len(battery)):
            res.attempted += 1
            try:
                if tr.on:
                    tr.call("functors.radical.nullification", fl.radical_subgroup, F, G)
                with tr.span("functors.idempotency"):
                    idem = fl.idempotency_check(F, G).idempotent
                    acyclic = fl.is_acyclic(F, fl.apply(F, G).radical)
            except fl.FlatlabError as exc:
                res.errors.append(f"{label} on {G.describe()}: {exc}")
                continue
            good += idem and acyclic
        res.counts[f"{label}: idempotent with acyclic radical"] = good


def _search(fl, tr, label, F, sources, probes, rng, res, between) -> None:
    flavor = "sub" if isinstance(F, fl.SpSubfunctor) else "epi"
    c = res.counts[label] = {"scanned": 0, "flat": 0, "pullbacks": 0, "not_flat": 0}
    for G in sources:
        between()
        res.attempted += 1
        try:
            exts = tr.call("extensions.extensions_from_group", fl.extensions_from_group, G)
        except fl.FlatlabError as exc:
            res.errors.append(f"{label}: extensions of {G.describe()}: {exc}")
            continue
        tr.count("extensions.extensions_from_group.count", len(exts))
        for ext in exts:
            c["scanned"] += 1
            res.attempted += 1
            try:
                if tr.on:
                    _elements(tr, ext.base)
                if not _verdict(fl, tr, F, ext, flavor).is_flat:
                    continue
            except fl.FlatlabError as exc:
                res.errors.append(f"{label}: {ext.describe()}: {exc}")
                continue
            c["flat"] += 1
            tr.count("extensions.extensions_from_group.flat")
            for X in rng.sample(probes, len(probes)):
                _probe(fl, tr, label, F, flavor, G, ext, X, c, res)


def _probe(fl, tr, label, F, flavor, G, ext, X, c, res) -> None:
    res.attempted += 1
    try:
        homs = tr.call("homs.enumerate_homs", fl.enumerate_homs, X, ext.base)
    except fl.FlatlabError as exc:
        res.errors.append(f"{label}: homs {X.describe()} -> {ext.base.describe()}: {exc}")
        return
    if tr.on:
        tr.count("homs.enumerate_homs.homs", len(homs))
        tr.count("homs.enumerate_homs.tuples",
                 ext.base.order() ** len(X.presentation.generators))
    for f in homs:
        res.attempted += 1
        paused = _gc["paused"]
        start = perf_counter()
        try:
            with tr.span("sweep.pullback", new_op=True):
                pulled = tr.call("extensions.pullback_extension",
                                 fl.pullback_extension, ext, f).extension
                if tr.on:
                    _elements(tr, pulled.total)
                    _elements(tr, pulled.kernel_group)
                rep = _verdict(fl, tr, F, pulled, flavor)
        except fl.FlatlabError as exc:
            res.errors.append(f"{label}: {ext.describe()} along {_hom(fl, f)}: {exc}")
            continue
        res.latencies.append(perf_counter() - start - (_gc["paused"] - paused))
        c["pullbacks"] += 1
        if not rep.is_flat:
            c["not_flat"] += 1
            # the hom is left out: its cycle string depends on how the quotient
            # is represented, which the counts need not pin
            res.hits.append([label, ext.describe(), G.describe(), X.describe()])


def _hom(fl, f) -> str:
    return fl.extensions.hom_description(f)
