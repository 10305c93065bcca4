"""The counterexample/theorem reproduction registry.

Each case is code, not data: it reconstructs its groups, functors and
extensions through the public API, compares every intermediate object
against the expected isomorphism class, and returns a structured report.
Case ids are the stable external contract of reproduce()/the CLI.
"""

from __future__ import annotations

from .abelian import AbGroup, AbHom, IntMatrix, ab_from_invariants
from .caps import DEFAULT_CAPS, Caps
from .catalog import (
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    product,
    quaternion,
    symmetric,
    trivial_group,
)
from .errors import UnknownCaseError
from .extensions import (
    Extension,
    certify_prop44,
    check_flatness,
    check_right_exactness,
    extension_from_normal_subgroup,
    extensions_from_group,
    probe_conditional_flatness,
    pullback_extension,
)
from .functors import (
    Abelianization,
    NilpotentQuotient,
    SpSubfunctor,
    Variety,
    apply,
    idempotency_check,
    is_local_wrt,
    standard_quasi_c4_c2,
)
from .permgroup import GroupHom, is_isomorphic
from .verbal import derived_subgroup
from .words import Word


class Assertion:
    def __init__(self, name: str, expected: str, actual: str):
        self.name = name
        self.expected = expected
        self.actual = actual

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


class CaseReport:
    def __init__(self, case_id: str, title: str):
        self.case_id = case_id
        self.title = title
        self.assertions: list[Assertion] = []
        self.reports: dict = {}

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def check(self, name: str, expected, actual) -> None:
        self.assertions.append(Assertion(name, str(expected), str(actual)))

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "title": self.title,
            "passed": self.passed,
            "assertions": [a.to_dict() for a in self.assertions],
            "reports": self.reports,
        }


def _case_ex_3_3(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "ex-3.3",
        "abelianization preserves a well-behaved extension under every pullback",
    )
    C2, C4 = cyclic(2), cyclic(4)
    E = product(C2, C4, name="C2xC4")
    N = E.subgroup_from_elements(
        {e for e in E.elements(caps) if all(e.images[i] == i for i in range(2, 6))},
        name="C2x1",
    )
    ext = extension_from_normal_subgroup(E, N, caps)
    base_rep = check_flatness(Abelianization(), ext, caps)
    rep.check("base extension abelianizes well", True, base_rep.is_flat)
    catalog = [trivial_group(), C2, cyclic(3), C4, elementary_abelian(2, 2), dihedral(8)]
    probe = probe_conditional_flatness(Abelianization(), ext, catalog, caps)
    rep.check("every pullback abelianizes well", True, probe.all_pullbacks_flat)
    rep.check("pullbacks checked > 10", True, len(probe.entries) > 10)
    rep.reports["probe"] = probe.to_dict()
    return rep


def _case_thm_3_6(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "thm-3.6-nilpotent",
        "variety reflections are right exact on every catalog extension",
    )
    functors = [
        Abelianization(),
        NilpotentQuotient(2),
        Variety((Word.generator(0) ** 2,)),
    ]
    total = 0
    failures = 0
    for G in (dihedral(8), quaternion(8), symmetric(3), symmetric(4), alternating(4)):
        for ext in extensions_from_group(G, caps):
            for F in functors:
                total += 1
                if not check_right_exactness(F, ext, caps).is_right_exact:
                    failures += 1
    rep.check("right-exactness failures", 0, failures)
    rep.check("cases checked > 50", True, total > 50)
    # the central extension of the dihedral group is right exact but NOT flat
    D8 = dihedral(8)
    ext = extension_from_normal_subgroup(D8, derived_subgroup(D8, caps), caps)
    flat = check_flatness(Abelianization(), ext, caps)
    rex = check_right_exactness(Abelianization(), ext, caps)
    rep.check("central dihedral extension right exact", True, rex.is_right_exact)
    rep.check("central dihedral extension flat", False, flat.is_flat)
    rep.reports["dihedral_flatness"] = flat.to_dict()
    return rep


def _case_cor_3_8(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "cor-3.8",
        "nilpotent-quotient reflections preserve flat extensions under pullback",
    )
    F = NilpotentQuotient(2)
    catalog = [trivial_group(), cyclic(2), cyclic(3), cyclic(4), elementary_abelian(2, 2)]
    checked = 0
    stable = True
    for G in (dihedral(8), quaternion(8), symmetric(3)):
        for ext in extensions_from_group(G, caps):
            if not check_flatness(F, ext, caps).is_flat:
                continue
            probe = probe_conditional_flatness(F, ext, catalog, caps)
            checked += len(probe.entries)
            if not probe.all_pullbacks_flat:
                stable = False
    rep.check("all pullbacks of flat extensions stay flat", True, stable)
    rep.check("pullbacks checked > 100", True, checked > 100)
    return rep


def _case_nonidempotent(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "nonidempotent-verbal-d8",
        "the commutator-verbal subgroup is not idempotent on the dihedral group",
    )
    D8 = dihedral(8)
    F = Variety((Word.lcs_word(1),))
    result = idempotency_check(F, D8, caps)
    rep.check("|WG|", 2, result.first_order)
    rep.check("|W(WG)|", 1, result.second_order)
    rep.check("idempotent", False, result.idempotent)
    rep.reports["idempotency"] = {
        "functor": result.functor,
        "first_order": result.first_order,
        "second_order": result.second_order,
        "idempotent": result.idempotent,
    }
    return rep


def _thm41_data():
    Z = ab_from_invariants(1, (), name="Z")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    red = AbHom(Z, Z2, IntMatrix([[1]]), name="reduction")
    phi_ab = AbHom(C4, Z2, IntMatrix([[1]]), name="phi")
    return Z, Z2, C4, red, phi_ab


def _case_thm_4_1(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "thm-4.1",
        "a quasi-variety epireflection that does not preserve a pulled-back "
        "extension of local groups",
    )
    phi, F = standard_quasi_c4_c2()
    Z, Z2, C4, red, phi_ab = _thm41_data()
    for X, expected in ((Z, True), (Z2, True), (C4, False)):
        loc = is_local_wrt(X, phi, caps)
        rep.check(f"{X.describe()} local", expected, loc.is_local)
    src = Extension(red, name="Z -> Z -> Z/2", caps=caps)
    src_rep = check_flatness(F, src, caps)
    rep.check("source extension flat", True, src_rep.is_flat)
    pulled = pullback_extension(src, phi_ab, caps)
    P = pulled.extension.total
    rep.check("pullback invariants", (1, (2,)), P.canonical_invariants())
    rep.check(
        "pullback local", True, is_local_wrt(P, phi, caps).is_local
    )
    pull_rep = check_flatness(F, pulled.extension, caps)
    rep.check("pulled-back extension flat", False, pull_rep.is_flat)
    rep.check("failure flag", "middle_exact", _failing_flag(pull_rep))
    rep.check("middle witness present", True, "middle" in pull_rep.witnesses)
    rep.reports["source"] = src_rep.to_dict()
    rep.reports["pullback"] = pull_rep.to_dict()
    return rep


def _failing_flag(fr) -> str:
    for flag in ("left_injective", "middle_exact", "right_surjective"):
        if not getattr(fr, flag):
            return flag
    return "none"


def _case_rem_4_2(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "rem-4.2",
        "the conditional law (if x^4 = 1 impose x^2 = 1) really is a reflection",
    )
    phi, F = standard_quasi_c4_c2()
    C4 = cyclic(4)
    L = apply(F, C4, caps)
    rep.check("L(C4) order", 2, L.result.order(caps))
    again = apply(F, L.result, caps)
    rep.check("idempotent on C4", True, again.result.order(caps) == L.result.order(caps))
    for G in (cyclic(8), dihedral(8), cyclic(4)):
        R = apply(F, G, caps).result
        violations = [
            g for g in R.elements(caps)
            if (g ** 4).is_identity() and not (g ** 2).is_identity()
        ]
        rep.check(f"reflection of {G.name} satisfies the law", 0, len(violations))
        rep.check(
            f"reflection of {G.name} is local", True,
            is_local_wrt(R, phi, caps).is_local,
        )
    return rep


def _case_prop_4_4(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "prop-4.4",
        "certified local-pullback construction on the integers-over-C4 data",
    )
    phi, F = standard_quasi_c4_c2()
    Z, Z2, C4, red, phi_ab = _thm41_data()
    cert = certify_prop44(phi, F, C4, Z, red, caps)
    for name in sorted(cert.hypotheses):
        rep.check(f"hypothesis {name}", True, cert.hypotheses[name])
    rep.check("pullback computed", "rank 1, torsion [2]", cert.pullback_description)
    rep.check("pullback local", True, cert.pullback_local.is_local if cert.pullback_local else None)
    rep.check("conclusion asserted", True, cert.conclusion_asserted)
    rep.check("source extension flat (reported separately)", True, cert.source_flatness.is_flat)
    rep.reports["certificate"] = cert.to_dict()
    return rep


def _case_prop_4_6(caps: Caps) -> CaseReport:
    rep = CaseReport(
        "prop-4.6",
        "the order-2-generated subgroup functor fails conditional flatness on "
        "the dihedral central extension",
    )
    D8 = dihedral(8)
    F = SpSubfunctor(2)
    S2D8 = apply(F, D8, caps).result
    rep.check("S2(D8) order", 8, S2D8.order(caps))
    Z = derived_subgroup(D8, caps)
    ext = extension_from_normal_subgroup(D8, Z, caps)
    base_rep = check_flatness(F, ext, caps)
    rep.check("central extension S2-flat", True, base_rep.is_flat)
    xbar = ext.proj.apply(D8.generators[0])
    C2 = cyclic(2)
    incl = GroupHom(C2, ext.base, (xbar,), caps=caps)
    pulled = pullback_extension(ext, incl, caps)
    rep.check("pullback total order", 4, pulled.extension.total.order(caps))
    rep.check("pullback total cyclic", True, is_isomorphic(pulled.extension.total, cyclic(4), caps))
    rep.check("pullback kernel order", 2, pulled.extension.kernel_group.order(caps))
    rep.check("pullback base order", 2, pulled.extension.base.order(caps))
    pull_rep = check_flatness(F, pulled.extension, caps)
    rep.check("pulled-back extension flat", False, pull_rep.is_flat)
    rep.check("failure flag", "right_surjective", _failing_flag(pull_rep))
    probe = probe_conditional_flatness(F, ext, [C2], caps)
    rep.check("probe over C2 finds a counterexample", True, len(probe.counterexamples()) == 1)
    rep.reports["base"] = base_rep.to_dict()
    rep.reports["pullback"] = pull_rep.to_dict()
    rep.reports["probe"] = probe.to_dict()
    return rep


CASES = {
    "ex-3.3": _case_ex_3_3,
    "thm-3.6-nilpotent": _case_thm_3_6,
    "cor-3.8": _case_cor_3_8,
    "nonidempotent-verbal-d8": _case_nonidempotent,
    "thm-4.1": _case_thm_4_1,
    "rem-4.2": _case_rem_4_2,
    "prop-4.4": _case_prop_4_4,
    "prop-4.6": _case_prop_4_6,
}


def case_ids() -> list[str]:
    return sorted(CASES)


def reproduce(case_id: str, caps: Caps = DEFAULT_CAPS) -> CaseReport:
    """Run a registry case; the report's ``passed`` reflects the comparison
    of every intermediate object against its expected isomorphism class."""
    if case_id not in CASES:
        raise UnknownCaseError(
            f"unknown case {case_id!r}; known: {', '.join(case_ids())}"
        )
    return CASES[case_id](caps)
