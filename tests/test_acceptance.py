"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and asserting its wall-clock budget.  Everything here is exact: the
tolerances are zero, the sweeps exhaustive over the pinned catalog battery.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from flatlab.abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_from_invariants,
    enumerate_ab_homs,
    n_torsion,
    smith_normal_form,
)
from flatlab.catalog import cyclic, default_battery, dihedral, elementary_abelian, symmetric
from flatlab.extensions import (
    Extension,
    check_flatness,
    check_right_exactness,
    certify_prop44,
    extensions_from_group,
    pullback_extension,
)
from flatlab.functors import (
    Abelianization,
    NilpotentQuotient,
    Nullification,
    SpSubfunctor,
    Variety,
    apply,
    is_acyclic,
    is_local_wrt,
    radical_subgroup,
    standard_quasi_c4_c2,
)
from flatlab.homs import enumerate_homs
from flatlab.permgroup import is_normal, normal_subgroups, quotient
from flatlab.registry import case_ids
from flatlab.search import search_counterexamples
from flatlab.verbal import verbal_subgroup
from flatlab.words import Word, parse_word

PHI, QUASI = standard_quasi_c4_c2()
VARIETY_FUNCTORS = (
    Abelianization(),
    NilpotentQuotient(2),
    NilpotentQuotient(3),
    Variety((parse_word("x1^2"),)),
)
NULLIFICATION_TARGETS = (
    cyclic(2),
    cyclic(3),
    elementary_abelian(2, 2),
    symmetric(3),
)


def _report(criterion: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, criterion
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def battery_extensions():
    exts = []
    for G in default_battery(64):
        exts.extend(extensions_from_group(G))
    return exts


@pytest.fixture(scope="module")
def pullback_table(battery_extensions):
    """Every pullback of every catalog extension along every homomorphism
    from every catalog group of order <= 16, computed once and shared."""
    table = []
    for ext in battery_extensions:
        pulled_list = []
        for X in default_battery(16):
            for f in enumerate_homs(X, ext.base):
                pulled_list.append((X, f, pullback_extension(ext, f)))
        table.append((ext, pulled_list))
    return table


def test_criterion_01_quasivariety_counterexample_reproduction():
    start = time.monotonic()
    Z = ab_from_invariants(1, (), name="Z")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    phi_leg = AbHom(C4, Z2, IntMatrix([[1]]))
    src = Extension(red, name="Z -> Z -> Z/2")
    ok = check_flatness(QUASI, src).is_flat
    pulled = pullback_extension(src, phi_leg)
    ok = ok and pulled.extension.total.canonical_invariants() == (1, (2,))
    rep = check_flatness(QUASI, pulled.extension)
    ok = ok and not rep.is_flat
    ok = ok and rep.left_injective and not rep.middle_exact and rep.right_surjective
    ok = ok and bool(rep.witnesses.get("middle"))
    _report("criterion 1 (pulled-back local extension loses middle exactness)",
            ok, time.monotonic() - start, 1.0)


def test_criterion_02_involution_subfunctor_reproduction():
    start = time.monotonic()
    from flatlab.permgroup import GroupHom, is_isomorphic

    D8 = dihedral(8)
    F = SpSubfunctor(2)
    ok = apply(F, D8).result.order() == 8
    ext = extensions_from_group(D8)[1]  # order-2 normal subgroup = the center
    assert ext.kernel_group.order() == 2
    ok = ok and check_flatness(F, ext).is_flat
    xbar = ext.proj.apply(D8.generators[0])
    incl = GroupHom(cyclic(2), ext.base, (xbar,))
    pulled = pullback_extension(ext, incl)
    ok = ok and pulled.extension.kernel_group.order() == 2
    ok = ok and is_isomorphic(pulled.extension.total, cyclic(4))
    ok = ok and pulled.extension.base.order() == 2
    rep = check_flatness(F, pulled.extension)
    ok = ok and not rep.is_flat
    ok = ok and rep.left_injective and rep.middle_exact and not rep.right_surjective
    _report("criterion 2 (involution subfunctor fails on the order-4 pullback)",
            ok, time.monotonic() - start, 1.0)


def test_criterion_03_right_exactness_suite(battery_extensions):
    start = time.monotonic()
    failures = 0
    total = 0
    for ext in battery_extensions:
        for F in VARIETY_FUNCTORS:
            total += 1
            if not check_right_exactness(F, ext).is_right_exact:
                failures += 1
    ok = failures == 0 and total == len(battery_extensions) * 4
    print(f"  right-exactness checks: {total}, failures: {failures}")
    _report("criterion 3 (variety functors right exact on the catalog)",
            ok, time.monotonic() - start, 120.0)


def test_criterion_04_conditional_flatness_suite(battery_extensions, pullback_table):
    start = time.monotonic()
    checked = 0
    failures = 0
    for ext, pulled_list in pullback_table:
        flat_functors = [F for F in VARIETY_FUNCTORS if check_flatness(F, ext).is_flat]
        if not flat_functors:
            continue
        for _, _, pulled in pulled_list:
            for F in flat_functors:
                checked += 1
                if not check_flatness(F, pulled.extension).is_flat:
                    failures += 1
    ok = failures == 0 and checked > 10_000
    print(f"  pullback flatness checks: {checked}, failures: {failures}")
    _report("criterion 4 (flat variety extensions stay flat under every pullback)",
            ok, time.monotonic() - start, 300.0)


def test_criterion_05_nullification_suite(battery_extensions, pullback_table):
    start = time.monotonic()
    functors = [Nullification(H.presentation) for H in NULLIFICATION_TARGETS]
    ok = True
    for F in functors:
        for G in default_battery(64):
            L = apply(F, G)
            L2 = apply(F, L.result)
            if L2.result.order() != L.result.order():
                ok = False
            if not is_acyclic(F, L.radical):
                ok = False
    checked = 0
    failures = 0
    for ext, pulled_list in pullback_table:
        flat_functors = [F for F in functors if check_flatness(F, ext).is_flat]
        if not flat_functors:
            continue
        for _, _, pulled in pulled_list:
            for F in flat_functors:
                checked += 1
                if not check_flatness(F, pulled.extension).is_flat:
                    failures += 1
    ok = ok and failures == 0 and checked > 10_000
    print(f"  nullification pullback checks: {checked}, failures: {failures}")
    _report("criterion 5 (nullifications idempotent, acyclic kernels, stable flatness)",
            ok, time.monotonic() - start, 300.0)


def _exact_at_the_kernel(ext) -> bool:
    """iota injective, and iota(K) = ker(proj) as code sets, the kernel
    read off the projection's map."""
    iota = ext.iota.code_map()
    killed = {e for e, g in ext.proj.code_map().items() if g == 0}
    return ext.iota.is_injective() and set(iota.values()) == killed


def test_checks_known_by_construction_would_pass(battery_extensions, pullback_table):
    # an extension tests neither that iota is injective, nor that iota(K) is
    # the kernel, nor that it is normal, a pullback does not test its
    # canonical map, nor that P -> X is onto, nor that iota's generators lie
    # in P, and a quotient hands its projection N as the kernel: each of
    # these checks, run here, passes
    for ext in battery_extensions:
        assert _exact_at_the_kernel(ext)
        assert is_normal(ext.iota.image(), ext.total)
    pulled_count = 0
    for _, pulled_list in pullback_table:
        for _, _, pulled in pulled_list:
            new, canonical = pulled.extension, pulled.canonical_kernel_map
            assert _exact_at_the_kernel(new)
            assert is_normal(new.iota.image(), new.total)
            assert new.proj.is_surjective()
            assert new.iota.domain.ambient() is new.total.ambient()
            assert new.total.code_set().issuperset(new.iota.domain.gen_codes())
            assert canonical.image().code_set() == new.kernel_group.code_set()
            assert canonical.is_injective()
            pulled_count += 1
    assert (len(battery_extensions), pulled_count) == (112, 12_696)
    for G in default_battery(64):
        for N in normal_subgroups(G):
            proj = quotient(G, N)[1]
            killed = {x for x, q in proj.code_map().items() if q == 0}
            assert proj.kernel().code_set() == killed


def test_criterion_06_non_idempotency():
    start = time.monotonic()
    D8 = dihedral(8)
    comm = (Word.lcs_word(1),)
    WG = verbal_subgroup(D8, comm)
    from flatlab.permgroup import PermGroup

    WWG = verbal_subgroup(PermGroup(WG.degree, WG.generators), comm)
    ok = WG.order() == 2 and WWG.order() == 1
    _report("criterion 6 (commutator-verbal subgroup is not idempotent)",
            ok, time.monotonic() - start, 1.0)


def test_criterion_07_certification():
    start = time.monotonic()
    Z = ab_from_invariants(1, (), name="Z")
    Z2 = ab_from_invariants(0, (2,), name="Z/2")
    C4 = AbGroup(1, IntMatrix([[4]]), name="C4")
    red = AbHom(Z, Z2, IntMatrix([[1]]))
    cert = certify_prop44(PHI, QUASI, C4, Z, red)
    ok = cert.all_hypotheses_hold()
    ok = ok and len(cert.hypotheses) >= 4
    ok = ok and cert.pullback_description == "rank 1, torsion [2]"
    ok = ok and cert.pullback_local is not None and cert.pullback_local.is_local
    ok = ok and cert.conclusion_asserted
    _report("criterion 7 (local-pullback certificate on the integers-over-C4 data)",
            ok, time.monotonic() - start, 1.0)


def test_criterion_08_oracle_suites():
    start = time.monotonic()
    rng = random.Random(1789)
    ok = True
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = IntMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        s = smith_normal_form(M)  # re-verifies U*M*V = D, unimodularity, chain
        if not (s.U.is_unimodular() and s.V.is_unimodular()):
            ok = False
        if s.U * M * s.V != s.D:
            ok = False
    ab_battery = [
        ab_from_invariants(0, (), name="0"),
        ab_from_invariants(1, (), name="Z"),
        ab_from_invariants(2, (), name="Z^2"),
        ab_from_invariants(0, (2,), name="Z/2"),
        ab_from_invariants(0, (3,), name="Z/3"),
        ab_from_invariants(0, (4,), name="Z/4"),
        ab_from_invariants(0, (6,), name="Z/6"),
        ab_from_invariants(0, (8,), name="Z/8"),
        ab_from_invariants(0, (9,), name="Z/9"),
        ab_from_invariants(0, (12,), name="Z/12"),
        ab_from_invariants(1, (2,), name="ZxZ/2"),
        ab_from_invariants(0, (2, 4), name="Z/2xZ/4"),
        ab_from_invariants(0, (2, 2), name="Z/2^2"),
        ab_from_invariants(0, (3, 9), name="Z/3xZ/9"),
        ab_from_invariants(1, (6,), name="ZxZ/6"),
    ]
    agreements = 0
    for X in ab_battery:
        for n in range(1, 13):
            torsion_count = n_torsion(X, n)[0].order()
            Cn = ab_from_invariants(0, (n,)) if n > 1 else ab_from_invariants(0, ())
            brute = len(enumerate_ab_homs(Cn, X))
            direct = sum(
                1
                for a in X.torsion_elements()
                if X.scale(n, a) == X.zero()
            )
            if torsion_count == brute == direct:
                agreements += 1
            else:
                ok = False
    ok = ok and agreements == len(ab_battery) * 12
    print(f"  SNF verifications: 500, hom-count agreements: {agreements}")
    _report("criterion 8 (normal-form and hom-count oracles, 100% agreement)",
            ok, time.monotonic() - start, 120.0)


def test_criterion_09_searches():
    start = time.monotonic()
    nil = search_counterexamples(NilpotentQuotient(2), 32, probe_max_order=16)
    ok = len(nil.hits) == 0 and not nil.cap_failures and nil.flat_extensions > 50
    s2 = search_counterexamples(SpSubfunctor(2), 8, probe_max_order=8)
    dihedral_hits = [
        h for h in s2.hits if h.source_group == "D8" and "D8" in h.extension
    ]
    ok = ok and len(dihedral_hits) > 0
    ok = ok and all(h.source_group == "D8" for h in s2.hits)
    print(
        f"  nilpotent search: {nil.pullbacks_checked} pullbacks, {len(nil.hits)} hits; "
        f"involution search: {s2.pullbacks_checked} pullbacks, {len(s2.hits)} hits"
    )
    _report("criterion 9 (searches: nilpotent quotient clean, involution functor finds the dihedral case)",
            ok, time.monotonic() - start, 300.0)


def test_criterion_10_determinism():
    start = time.monotonic()
    ok = True
    for case in case_ids():
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "flatlab.cli", "reproduce", case, "--format", "json"],
                capture_output=True,
                check=False,
            )
            if proc.returncode != 0:
                ok = False
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
        doc = json.loads(outputs[0])
        if not doc["passed"]:
            ok = False
    _report("criterion 10 (byte-identical machine reports across consecutive runs)",
            ok, time.monotonic() - start, 300.0)
