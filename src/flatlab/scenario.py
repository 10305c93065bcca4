"""Scenario DSL: a line-oriented description of groups, homs, extensions,
functors and directives, parsed by hand with line-accurate diagnostics.

Grammar sketch (one section per [header], body lines of key=value fields,
values may contain spaces only inside (), [] brackets):

    [group D8]
    perm deg=4 gens=(0 1 2 3),(1 3)

    [group C4] presentation gens=x rels=x^4
    [group Z]  abelian rank=1
    [group V]  abelian relations=[[4]]
    [group K]  catalog spec=dihedral(8)

    # words in the codomain generators, or an integer matrix
    [hom pr]   from=D8 to=V4 images=x,y
    [hom red]  from=Z to=Z2 matrix=[[1]]

    [extension E] surjection=pr

    [functor L] kind=quasivariety cond=x^4 impose=x^2

    [directive] check functor=L extension=E expect=flat
    [directive] pullback extension=E along=phi name=EP functor=L expect=not-flat
    [directive] probe functor=L extension=E max_order=8 expect=all-flat
    [directive] localize functor=L group=C4 expect_invariants=(0;[2])
    [directive] certify functor=L phi=phi group=C4 local=Z surjection=red expect=local
    [directive] reproduce case=thm-4.1 expect=pass
    [directive] search functor=L max_order=8 expect=empty

Exit codes: 0 every expectation matched, 2 expectation mismatch (including
any cap-exhaustion verdict, which is never a silent pass), 1 execution error.
"""

from __future__ import annotations

import re

from .abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    _parse_int_list,
    _parse_matrix,
    abelian_from_fields,
    perm_to_abelian,
)
from .caps import DEFAULT_CAPS, Caps
from .catalog import default_battery, parse_group_literal
from .errors import CapExceededError, FlatlabError, ScenarioError
from .extensions import (
    Extension,
    certify_prop44,
    check_flatness,
    probe_conditional_flatness,
    pullback_extension,
)
from .functors import FunctorSpec, TestMap, apply, functor_from_fields
from .homs import realize_presentation
from .perm import parse_cycle_string
from .permgroup import GroupHom, PermGroup, is_isomorphic
from .words import Presentation, Word, _split_top_level, parse_fields, parse_word

_HEADER = re.compile(r"^\[\s*(group|hom|extension|functor|directive)\s*([A-Za-z_0-9.'-]*)\s*\]\s*(.*)$")


class Section:
    def __init__(self, kind: str, name: str | None, form: str | None,
                 fields: tuple[tuple[str, str], ...], line: int):
        self.kind = kind
        self.name = name
        self.form = form
        self.fields = fields
        self.line = line

    def __eq__(self, other) -> bool:
        # the same text on another line is the same section
        return isinstance(other, Section) and (
            (self.kind, self.name, self.form, self.fields)
            == (other.kind, other.name, other.form, other.fields)
        )

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ScenarioError(f"missing field {key}=", self.line)
        return v


class Scenario:
    def __init__(self, sections: list[Section]):
        self.sections = sections
        self.groups: dict[str, object] = {}
        self.homs: dict[str, object] = {}
        self.hom_words: dict[str, tuple] = {}
        self.extensions: dict[str, Extension] = {}
        self.functors: dict[str, FunctorSpec] = {}
        self.directives: list[Section] = []

    def to_text(self) -> str:
        lines = []
        for s in self.sections:
            header = f"[{s.kind} {s.name}]" if s.name else f"[{s.kind}]"
            body = " ".join(
                ([s.form] if s.form else [])
                + [f"{k}={v}" for k, v in s.fields]
            )
            lines.append(f"{header} {body}".rstrip())
        return "\n".join(lines) + "\n"


def _parse_sections(text: str) -> list[Section]:
    sections: list[Section] = []
    current: dict | None = None

    def finish():
        nonlocal current
        if current is not None:
            sections.append(
                Section(
                    current["kind"],
                    current["name"],
                    current["form"],
                    tuple(current["fields"]),
                    current["line"],
                )
            )
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        m = _HEADER.match(line)
        if m:
            finish()
            kind, name, rest = m.group(1), m.group(2) or None, m.group(3)
            current = {
                "kind": kind,
                "name": name,
                "form": None,
                "fields": [],
                "line": lineno,
            }
            if rest.strip():
                _feed_body(current, rest, lineno)
            continue
        if current is None:
            raise ScenarioError(f"content before any [section] header: {line!r}", lineno)
        _feed_body(current, line, lineno)
    finish()
    return sections


def _feed_body(current: dict, text: str, lineno: int) -> None:
    current["form"], fields = parse_fields(text, lineno, current["form"])
    current["fields"] += fields


def _build_group(sec: Section, caps: Caps = DEFAULT_CAPS):
    form = sec.form
    if form == "perm":
        deg = int(sec.require("deg"))
        gens_text = sec.require("gens")
        gens = [
            parse_cycle_string(chunk, deg)
            for chunk in _split_top_level(gens_text)
        ]
        return PermGroup(deg, gens, name=sec.name)
    if form == "presentation":
        pres = Presentation.parse(sec.require("gens"), sec.get("rels", "") or "")
        return realize_presentation(pres, caps, name=sec.name)
    if form == "abelian":
        return abelian_from_fields(sec.fields, sec.name, sec.line)
    if form == "catalog":
        return parse_group_literal(sec.require("spec"))
    raise ScenarioError(
        f"unknown group form {form!r} (want perm | presentation | abelian | catalog)",
        sec.line,
    )


def _build_hom(sec: Section, scn: Scenario, caps: Caps):
    src = _lookup(scn.groups, sec.require("from"), sec.line, "group")
    dst = _lookup(scn.groups, sec.require("to"), sec.line, "group")
    if isinstance(src, PermGroup) and isinstance(dst, PermGroup):
        images_text = sec.require("images")
        names = (
            dst.presentation.generators
            if dst.presentation is not None
            else tuple(f"g{i + 1}" for i in range(len(dst.generators)))
        )
        words = tuple(
            parse_word(chunk, names) for chunk in _split_top_level(images_text)
        )
        ident = dst.identity()
        images = tuple(w.evaluate(dst.generators, ident) for w in words)
        hom = GroupHom(src, dst, images, caps=caps, name=sec.name)
        scn.hom_words[sec.name] = words
        return hom
    if isinstance(src, AbGroup) and isinstance(dst, AbGroup):
        rows = _parse_matrix(sec.require("matrix"), sec.line)
        M = IntMatrix(rows, cols=len(rows[0]) if rows else src.ngens)
        return AbHom(src, dst, M, name=sec.name)
    raise ScenarioError("hom endpoints mix permutation and abelian flavors", sec.line)


def _lookup(table: dict, name: str, line: int, what: str):
    if name not in table:
        raise ScenarioError(f"undefined {what} {name!r}", line)
    return table[name]


def parse_scenario(text: str, caps: Caps = DEFAULT_CAPS) -> Scenario:
    """Parse and resolve; every definition is validated at construction,
    under the caps of the run (a cap hit surfaces as CapExceededError)."""
    scn = Scenario(_parse_sections(text))
    for sec in scn.sections:
        try:
            if sec.kind == "group":
                if not sec.name:
                    raise ScenarioError("group needs a name", sec.line)
                scn.groups[sec.name] = _build_group(sec, caps)
            elif sec.kind == "hom":
                if not sec.name:
                    raise ScenarioError("hom needs a name", sec.line)
                scn.homs[sec.name] = _build_hom(sec, scn, caps)
            elif sec.kind == "extension":
                if not sec.name:
                    raise ScenarioError("extension needs a name", sec.line)
                p = _lookup(scn.homs, sec.require("surjection"), sec.line, "hom")
                scn.extensions[sec.name] = Extension(p, name=sec.name, caps=caps)
            elif sec.kind == "functor":
                if not sec.name:
                    raise ScenarioError("functor needs a name", sec.line)
                scn.functors[sec.name] = functor_from_fields(sec.form, sec.fields, sec.line)
            elif sec.kind == "directive":
                scn.directives.append(sec)
        except (ScenarioError, CapExceededError):
            raise
        except (FlatlabError, ValueError) as exc:
            raise ScenarioError(str(exc), sec.line) from None
    return scn


# -- execution ----------------------------------------------------------------


class DirectiveResult:
    def __init__(self, kind: str, summary: str, verdict: str, expectation: str | None,
                 matched: bool | None, payload: dict):
        self.kind = kind
        self.summary = summary
        self.verdict = verdict
        self.expectation = expectation
        self.matched = matched  # None when no expectation clause
        self.payload = payload

    def to_dict(self) -> dict:
        return {
            "directive": self.kind,
            "summary": self.summary,
            "verdict": self.verdict,
            "expectation": self.expectation,
            "matched": self.matched,
            "details": self.payload,
        }


class RunResult:
    def __init__(self, exit_code: int, results: list[DirectiveResult]):
        self.exit_code = exit_code
        self.results = results

    def to_dict(self) -> dict:
        return {
            "directives": [r.to_dict() for r in self.results],
            "expectations_matched": all(
                r.matched is not False for r in self.results
            ),
            "exit_code": self.exit_code,
        }


def _test_map_from_hom(
    name: str, scn: Scenario, line: int, caps: Caps
) -> TestMap:
    hom = _lookup(scn.homs, name, line, "hom")
    if isinstance(hom, GroupHom):
        dom, cod = hom.domain, hom.codomain
        if dom.presentation is None or cod.presentation is None:
            raise ScenarioError(
                "certify/localize test map needs presented groups", line
            )
        words = scn.hom_words.get(name)
        if words is None:
            raise ScenarioError("test map hom must be given by words", line)
        return TestMap(
            dom.presentation, cod.presentation, words, name=name, caps=caps
        )
    if hom.codomain.rank:
        raise ScenarioError(
            "an abelian test map needs a finite codomain: the test map realizes "
            "it by coset enumeration, which cannot list an infinite group", line
        )
    images = tuple(Word(enumerate(col)) for col in hom.matrix.columns())
    return TestMap(
        _abelian_presentation(hom.domain, "x"), _abelian_presentation(hom.codomain, "y"),
        images, name=name, caps=caps,
    )


def _abelian_presentation(A: AbGroup, letter: str) -> Presentation:
    """A on its generators: one relator per relation column, and the
    pairwise commutators."""
    n = A.ngens
    names = tuple(f"{letter}{i + 1}" for i in range(n))
    rels = [Word(enumerate(col)) for col in A.relations.columns()]
    rels += [
        Word.commutator(Word.generator(i), Word.generator(j))
        for i in range(n) for j in range(i + 1, n)
    ]
    return Presentation(names, tuple(r for r in rels if not r.is_empty()))


def _iso_verdict(G, expect_group, caps: Caps) -> bool:
    if isinstance(G, PermGroup) and isinstance(expect_group, PermGroup):
        return is_isomorphic(G, expect_group, caps)
    if isinstance(expect_group, AbGroup):
        return _group_invariants(G, caps) == expect_group.canonical_invariants()
    return False


def _parse_invariants(text: str, line: int) -> tuple[int, tuple[int, ...]]:
    m = re.fullmatch(r"\(\s*(\d+)\s*;\s*(\[[0-9,\s]*\])\s*\)", text.strip())
    if not m:
        raise ScenarioError(f"expected (rank;[d1,..]), got {text!r}", line)
    return int(m.group(1)), tuple(_parse_int_list(m.group(2), line))


def _group_invariants(G, caps: Caps):
    """Canonical (rank, torsion) of an abelian group of either flavor; None
    for a non-abelian permutation group."""
    if isinstance(G, AbGroup):
        return G.canonical_invariants()
    if not G.is_abelian():
        return None
    return perm_to_abelian(G, caps).canonical_invariants()


def _shape_expectations(sec: Section, scn: Scenario, G, caps: Caps):
    """The expect_iso= and expect_invariants= clauses checked against G, as
    (verdict part, matched, details) triples."""
    checks = []
    iso_name = sec.get("expect_iso")
    if iso_name:
        target = _lookup(scn.groups, iso_name, sec.line, "group")
        ok = _iso_verdict(G, target, caps)
        checks.append(("iso", ok, {"iso_expected": iso_name, "iso_matched": ok}))
    inv_text = sec.get("expect_invariants")
    if inv_text:
        want = _parse_invariants(inv_text, sec.line)
        got = _group_invariants(G, caps)
        details = {"invariants_expected": str(want), "invariants_got": str(got)}
        checks.append(("invariants", want == got, details))
    return checks


def run_scenario(scn: Scenario, caps: Caps = DEFAULT_CAPS) -> RunResult:
    """Execute directives in order; exit 0 when every expectation matched,
    2 on any mismatch or cap exhaustion, 1 on execution error.  Each runner
    returns (summary, verdict, matched, details); a cap hit is the verdict
    cap-exceeded and an execution error ends the run."""
    results: list[DirectiveResult] = []
    for sec in scn.directives:
        runner = _RUNNERS.get(sec.form)
        if runner is None:
            raise ScenarioError(f"unknown directive {sec.form!r}", sec.line)
        try:
            summary, verdict, matched, details = runner(sec, scn, caps)
        except CapExceededError as exc:
            summary, verdict, matched = f"directive at line {sec.line}", "cap-exceeded", False
            details = {"error": str(exc)}
            if exc.partial is not None:
                details["partial"] = exc.partial
        except ScenarioError:
            raise
        except FlatlabError as exc:
            summary, verdict, matched = f"directive at line {sec.line}", "error", None
            details = {"error": str(exc)}
        results.append(
            DirectiveResult(sec.form, summary, verdict, sec.get("expect"), matched, details)
        )
        if verdict == "error":  # no runner returns this verdict
            return RunResult(1, results)
    mismatched = any(r.matched is False for r in results)
    return RunResult(2 if mismatched else 0, results)


def _expect_match(sec: Section, verdict: str) -> bool | None:
    """None when the directive has no expect= clause."""
    expectation = sec.get("expect")
    return None if expectation is None else expectation == verdict


def _run_check(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    F = _lookup(scn.functors, sec.require("functor"), sec.line, "functor")
    ext = _lookup(scn.extensions, sec.require("extension"), sec.line, "extension")
    rep = check_flatness(F, ext, caps)
    verdict = "flat" if rep.is_flat else "not-flat"
    summary = f"{F.describe()} on {ext.describe()}"
    return summary, verdict, _expect_match(sec, verdict), rep.to_dict()


def _run_pullback(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    ext = _lookup(scn.extensions, sec.require("extension"), sec.line, "extension")
    f = _lookup(scn.homs, sec.require("along"), sec.line, "hom")
    pulled = pullback_extension(ext, f, caps)
    new_name = sec.get("name")
    if new_name:
        scn.extensions[new_name] = pulled.extension
    payload: dict = {
        "pullback_total_invariants": str(_group_invariants(pulled.extension.total, caps)),
    }
    verdict_parts = []
    matched: bool | None = None
    fname = sec.get("functor")
    if fname:
        F = _lookup(scn.functors, fname, sec.line, "functor")
        rep = check_flatness(F, pulled.extension, caps)
        verdict = "flat" if rep.is_flat else "not-flat"
        verdict_parts.append(verdict)
        payload["flatness"] = rep.to_dict()
        matched = _expect_match(sec, verdict)
    for part, ok, details in _shape_expectations(sec, scn, pulled.extension.total, caps):
        payload.update(details)
        matched = ok if matched is None else (matched and ok)
        verdict_parts.append(f"{part}-{'ok' if ok else 'mismatch'}")
    summary = f"{ext.describe()} along {sec.require('along')}"
    return summary, ";".join(verdict_parts) or "computed", matched, payload


def _run_probe(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    F = _lookup(scn.functors, sec.require("functor"), sec.line, "functor")
    ext = _lookup(scn.extensions, sec.require("extension"), sec.line, "extension")
    max_order = int(sec.get("max_order", "8") or 8)
    allow = (sec.get("allow_nonflat", "false") or "false").lower() == "true"
    catalog = default_battery(max_order)
    probe = probe_conditional_flatness(F, ext, catalog, caps, allow_nonflat_base=allow)
    verdict = "all-flat" if probe.all_pullbacks_flat else "counterexample"
    summary = f"{F.describe()} on {ext.describe()} over catalog <= {max_order}"
    return summary, verdict, _expect_match(sec, verdict), probe.to_dict()


def _run_localize(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    F = _lookup(scn.functors, sec.require("functor"), sec.line, "functor")
    G = _lookup(scn.groups, sec.require("group"), sec.line, "group")
    L = apply(F, G, caps)
    if isinstance(L.result, PermGroup):
        desc = f"order {L.result.order(caps)}"
    else:
        desc = L.result.describe()
    payload = {
        "result": desc,
        "result_invariants": str(_group_invariants(L.result, caps)),
    }
    matched: bool | None = None
    verdict = "computed"
    for part, ok, details in _shape_expectations(sec, scn, L.result, caps):
        matched = ok if matched is None else (matched and ok)
        verdict = f"{part}-{'ok' if ok else 'mismatch'}"
        if "invariants_expected" in details:
            payload["invariants_expected"] = details["invariants_expected"]
    return f"{F.describe()} on {sec.require('group')}", verdict, matched, payload


def _run_certify(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    F = _lookup(scn.functors, sec.require("functor"), sec.line, "functor")
    phi = _test_map_from_hom(sec.require("phi"), scn, sec.line, caps)
    G = _lookup(scn.groups, sec.require("group"), sec.line, "group")
    E = _lookup(scn.groups, sec.require("local"), sec.line, "group")
    surj = _lookup(scn.homs, sec.require("surjection"), sec.line, "hom")
    cert = certify_prop44(phi, F, G, E, surj, caps)
    if not cert.all_hypotheses_hold():
        verdict = "hypothesis-failed"
    elif cert.pullback_local is not None and cert.pullback_local.is_local:
        verdict = "local"
    else:
        verdict = "not-local"
    summary = f"pullback locality certificate for {sec.require('group')}"
    return summary, verdict, _expect_match(sec, verdict), cert.to_dict()


def _run_reproduce(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    from .registry import reproduce  # only a reproduce directive loads the registry

    case = sec.require("case")
    rep = reproduce(case, caps)
    verdict = "pass" if rep.passed else "fail"
    return f"registry case {case}", verdict, _expect_match(sec, verdict), rep.to_dict()


def _run_search(sec: Section, scn: Scenario, caps: Caps) -> tuple:
    from .search import search_counterexamples  # only a search directive loads it

    F = _lookup(scn.functors, sec.require("functor"), sec.line, "functor")
    max_order = int(sec.require("max_order"))
    probe_max = int(sec.get("probe_max_order", "16") or 16)
    rep = search_counterexamples(F, max_order, probe_max, caps)
    verdict = "empty" if not rep.hits else "found"
    summary = f"{F.describe()} over catalog <= {max_order}"
    return summary, verdict, _expect_match(sec, verdict), rep.to_dict()


_RUNNERS = {
    "check": _run_check,
    "pullback": _run_pullback,
    "probe": _run_probe,
    "localize": _run_localize,
    "certify": _run_certify,
    "reproduce": _run_reproduce,
    "search": _run_search,
}
