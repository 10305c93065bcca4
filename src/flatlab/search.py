"""Counterexample search over the catalog battery.

Enumerates every extension N -> G -> G/N from normal subgroups of catalog
groups up to the order bound, keeps the ones the functor preserves, and
probes each by pulling back along every homomorphism from every probe-catalog
group.  Any pullback the functor fails to preserve is reported with its full
flatness verdict and witnesses.
"""

from __future__ import annotations

from .caps import DEFAULT_CAPS, Caps
from .catalog import default_battery
from .errors import CapExceededError
from .extensions import (
    check_flatness,
    extensions_from_group,
    probe_conditional_flatness,
)
from .functors import FunctorSpec


class SearchHit:
    def __init__(self, extension: str, source_group: str, test_group: str, hom: str,
                 verdict: dict):
        self.extension = extension
        self.source_group = source_group
        self.test_group = test_group
        self.hom = hom
        self.verdict = verdict

    def to_dict(self) -> dict:
        return {
            "extension": self.extension,
            "source_group": self.source_group,
            "test_group": self.test_group,
            "hom": self.hom,
            "verdict": self.verdict,
        }


class SearchReport:
    def __init__(self, functor: str, max_order: int, probe_max_order: int):
        self.functor = functor
        self.max_order = max_order
        self.probe_max_order = probe_max_order
        self.extensions_scanned = 0
        self.flat_extensions = 0
        self.pullbacks_checked = 0
        self.hits: list[SearchHit] = []
        self.cap_failures: list[str] = []

    def to_dict(self) -> dict:
        return {
            "functor": self.functor,
            "max_order": self.max_order,
            "probe_max_order": self.probe_max_order,
            "extensions_scanned": self.extensions_scanned,
            "flat_extensions": self.flat_extensions,
            "pullbacks_checked": self.pullbacks_checked,
            "counterexamples": [h.to_dict() for h in self.hits],
            "cap_failures": list(self.cap_failures),
        }


def _cap_failure(what: str, exc: CapExceededError) -> str:
    """The failure line, with how far the capped step got when known."""
    got = "" if exc.partial is None else f" (partial count {exc.partial})"
    return f"{what}: {exc}{got}"


def search_counterexamples(
    F: FunctorSpec,
    max_order: int,
    probe_max_order: int = 16,
    caps: Caps = DEFAULT_CAPS,
    battery=None,
    probe_battery=None,
) -> SearchReport:
    """Exhaustive flat-extension probe over the catalog; cap exhaustion is
    recorded per extension, never silently skipped."""
    battery = default_battery(max_order) if battery is None else battery
    probe_battery = (
        default_battery(probe_max_order) if probe_battery is None else probe_battery
    )
    report = SearchReport(F.describe(), max_order, probe_max_order)
    for G in battery:
        try:
            exts = extensions_from_group(G, caps)
        except CapExceededError as exc:
            report.cap_failures.append(_cap_failure(G.describe(), exc))
            continue
        for ext in exts:
            report.extensions_scanned += 1
            try:
                if not check_flatness(F, ext, caps).is_flat:
                    continue
                report.flat_extensions += 1
                probe = probe_conditional_flatness(F, ext, probe_battery, caps)
            except CapExceededError as exc:
                report.cap_failures.append(_cap_failure(ext.describe(), exc))
                continue
            report.pullbacks_checked += len(probe.entries)
            for entry in probe.counterexamples():
                report.hits.append(
                    SearchHit(
                        ext.describe(),
                        G.describe(),
                        entry.test_group,
                        entry.hom,
                        entry.report.to_dict(),
                    )
                )
    return report
