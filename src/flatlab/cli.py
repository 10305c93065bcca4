"""Command-line driver.

    flatlab run <file> [--caps order=..,homs=..] [--format text|json]
    flatlab reproduce <case-id> [--format text|json]
    flatlab search --functor "<literal>" --max-order N [--probe-max-order M]
    flatlab localize --functor "<literal>" --group "<literal>"
    flatlab check --functor "<literal>" --extension <file>

Exit codes: 0 all expectations met, 1 execution error, 2 expectation mismatch
(cap exhaustion is reported as a distinct verdict and exits 2, never 0).
The json format is byte-deterministic: it carries no timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .abelian import abelian_from_fields
from .caps import DEFAULT_CAPS, Caps
from .catalog import parse_group_literal
from .errors import CapExceededError, FlatlabError, ScenarioError
from .extensions import check_flatness
from .functors import apply, functor_from_fields
from .permgroup import PermGroup
from .words import parse_fields

_CAP_ALIASES = {
    "order": "order",
    "homs": "hom_search",
    "hom_search": "hom_search",
    "hom_domain": "hom_domain",
    "arity": "word_arity",
    "tuples": "tuple_scan",
    "tuple_scan": "tuple_scan",
    "iso": "iso_order",
    "iso_order": "iso_order",
    "ab_elements": "ab_elements",
}


def parse_caps(text: str | None) -> Caps:
    if not text:
        return DEFAULT_CAPS
    overrides = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        if key not in _CAP_ALIASES:
            raise FlatlabError(
                f"unknown cap {key!r}; known: {', '.join(sorted(_CAP_ALIASES))}"
            )
        try:
            n = int(value)
        except ValueError:
            n = 0
        if n < 1:
            raise FlatlabError(f"cap {key!r} needs a positive integer, got {value!r}")
        overrides[_CAP_ALIASES[key]] = n
    return DEFAULT_CAPS.with_(**overrides)


def _emit(doc: dict, fmt: str, text_lines: list[str], started: float) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)
        print(f"elapsed: {time.monotonic() - started:.3f}s")


def _scenario_text_lines(result) -> list[str]:
    lines = []
    for r in result.results:
        mark = {True: "ok", False: "MISMATCH", None: "-"}[r.matched]
        expect = f" expect={r.expectation}" if r.expectation else ""
        lines.append(f"[{r.kind}] {r.summary}: {r.verdict}{expect} [{mark}]")
    lines.append(f"exit code: {result.exit_code}")
    return lines


def _read_text(path: str) -> str:
    """The UTF-8 text of a scenario file; FlatlabError (exit 1) when it
    cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FlatlabError(f"cannot read {path}: {exc}") from exc


def cmd_run(args) -> int:
    from .scenario import parse_scenario, run_scenario

    caps = parse_caps(args.caps)
    started = time.monotonic()
    text = _read_text(args.file)
    try:
        scn = parse_scenario(text, caps)
        result = run_scenario(scn, caps)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    _emit(result.to_dict(), args.format, _scenario_text_lines(result), started)
    return result.exit_code


def cmd_reproduce(args) -> int:
    from .registry import reproduce  # an unknown case id raises there: exit 1

    caps = parse_caps(args.caps)
    started = time.monotonic()
    rep = reproduce(args.case, caps)
    lines = [f"case {rep.case_id}: {rep.title}"]
    for a in rep.assertions:
        mark = "ok" if a.ok else "MISMATCH"
        lines.append(f"  {a.name}: expected {a.expected}, got {a.actual} [{mark}]")
    lines.append(f"result: {'pass' if rep.passed else 'fail'}")
    _emit(rep.to_dict(), args.format, lines, started)
    return 0 if rep.passed else 2


def cmd_search(args) -> int:
    from .search import search_counterexamples

    caps = parse_caps(args.caps)
    started = time.monotonic()
    F = functor_from_fields(*parse_fields(args.functor, None))
    rep = search_counterexamples(
        F, args.max_order, args.probe_max_order, caps
    )
    lines = [
        f"search {rep.functor} over catalog <= {rep.max_order} "
        f"(probe sources <= {rep.probe_max_order})",
        f"extensions: {rep.extensions_scanned} scanned, {rep.flat_extensions} flat, "
        f"{rep.pullbacks_checked} pullbacks checked",
    ]
    for hit in rep.hits:
        lines.append(
            f"  counterexample: {hit.extension} pulled along {hit.hom} "
            f"from {hit.test_group}"
        )
    for failure in rep.cap_failures:
        lines.append(f"  cap-exceeded: {failure}")
    lines.append(f"counterexamples found: {len(rep.hits)}")
    _emit(rep.to_dict(), args.format, lines, started)
    if rep.cap_failures:
        return 2
    return 0


def cmd_localize(args) -> int:
    caps = parse_caps(args.caps)
    started = time.monotonic()
    F = functor_from_fields(*parse_fields(args.functor, None))
    G = _parse_group_option(args.group)
    L = apply(F, G, caps)
    if isinstance(L.result, PermGroup):
        desc = f"order {L.result.order(caps)}"
        radical = f"order {L.radical.order(caps)}" if L.radical is not None else None
    else:
        desc = L.result.describe()
        radical = L.radical.describe() if L.radical is not None else None
    doc = {
        "functor": F.describe(),
        "group": args.group,
        "result": desc,
        "radical": radical,
        "kind": L.kind,
    }
    lines = [f"{F.describe()} applied to {args.group}: {desc}"]
    if radical is not None:
        lines.append(f"radical: {radical}")
    _emit(doc, args.format, lines, started)
    return 0


def _parse_group_option(text: str):
    """A catalog literal, or the body of a scenario [group] abelian section;
    the group is named by the literal text.  A malformed one is an error."""
    text = text.strip()
    if text.startswith("abelian"):
        form, fields = parse_fields(text, None)
        if form == "abelian":
            try:
                return abelian_from_fields(fields, text)
            except ValueError as exc:
                raise FlatlabError(f"bad group {text!r}: {exc}") from None
    return parse_group_literal(text)


def cmd_check(args) -> int:
    from .scenario import parse_scenario

    caps = parse_caps(args.caps)
    started = time.monotonic()
    F = functor_from_fields(*parse_fields(args.functor, None))
    scn = parse_scenario(_read_text(args.extension), caps)
    if not scn.extensions:
        print("no [extension] defined in the file", file=sys.stderr)
        return 1
    name, ext = sorted(scn.extensions.items())[0]
    rep = check_flatness(F, ext, caps)
    doc = rep.to_dict()
    lines = [
        f"{rep.functor} on {rep.extension}: "
        f"{'flat' if rep.is_flat else 'not flat'}",
        f"  left_injective={rep.left_injective} middle_exact={rep.middle_exact} "
        f"right_surjective={rep.right_surjective}",
    ]
    for key, wit in sorted(rep.witnesses.items()):
        lines.append(f"  witness[{key}]: {wit}")
    _emit(doc, args.format, lines, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlab",
        description="exactness laboratory for group localization functors "
        "under extension pullbacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--caps", default=None, help="cap overrides k=v,k=v")
        p.add_argument(
            "--format", choices=("text", "json"), default="text"
        )

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a registry case")
    p_rep.add_argument("case", metavar="case-id")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_search = sub.add_parser("search", help="hunt for counterexamples")
    p_search.add_argument("--functor", required=True)
    p_search.add_argument("--max-order", type=int, required=True)
    p_search.add_argument("--probe-max-order", type=int, default=16)
    add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_loc = sub.add_parser("localize", help="apply a functor to a group")
    p_loc.add_argument("--functor", required=True)
    p_loc.add_argument("--group", required=True)
    add_common(p_loc)
    p_loc.set_defaults(func=cmd_localize)

    p_check = sub.add_parser("check", help="flatness of an extension file")
    p_check.add_argument("--functor", required=True)
    p_check.add_argument("--extension", required=True, metavar="FILE")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except FlatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
