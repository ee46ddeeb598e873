"""Acceptance suite: every numbered criterion at its pinned tolerance.

Each test prints one PASS/FAIL line per record.  Two sub-clauses are
expected failures (``EXPECTED_RED``), reported as xfail when they fail; a
listed clause that passes fails its test: C6-energy and C7-leading, whose
windows the exact solution misses at p = 80 (the subleading asymptotic terms
are larger than the windows; the records carry the numbers).

C10-balance is a known red that fails its test outright.  It asks the
ellipse force-balance ratio |C grad R(x_p)| / (eps/p) to fall monotonically
in p, but the single spike sits at the centre by symmetry, where grad R
vanishes: the measured grad R is ~1.5e-15, the rounding of grad R = d_x0 H +
grad_y H (greens.robin_derivatives) there, so the ratios (2.44e-11,
6.07e-11, 1.38e-10) are rounding divided by eps/p and grow with p.  The
paper bounds the balance by O(eps/p^(2-delta)) and promises no monotone
decay.
Everything else must pass outright.
"""

import numpy as np
import pytest

from spikelab import verify

# each criterion runs through verify.run_criterion, which turns its
# UnderResolvedSpikeWarnings into record notes; one that escapes fails the test
pytestmark = [
    pytest.mark.acceptance,
    pytest.mark.filterwarnings("error::spikelab.lane_emden.UnderResolvedSpikeWarning"),
]

# clauses whose windows the exact solution provably misses at p = 80 (the
# verify records carry the numbers); strict xfail so an unexpected pass
# would itself flag the analysis as wrong
EXPECTED_RED = {
    "C6-energy": "true energy gap at p = 80 is ~6.8% (2 log p/p + (1 - 6 log 2)/p), window is 5%",
    "C7-leading": "-4 log(eps)/p = 1 + 7.16/p = 1.086 at p = 80, window is [0.97, 1.03]",
}


@pytest.fixture(scope="session")
def ctx():
    return verify.AcceptanceContext()


def _report(records):
    failed = []
    for r in records:
        state = "PASS" if r.passed else "FAIL"
        print(f"[{state}] {r.identifier}: {r.description} | measured: {r.measured}")
        if not r.passed:
            failed.append(r)
    return failed


def _assert_no_unexpected_pass(records):
    passing = [r.identifier for r in records if r.identifier in EXPECTED_RED and r.passed]
    assert not passing, f"expected-red clauses passed: {passing}"


def _assert_with_expectations(records):
    failed = _report(records)
    unexpected = [r for r in failed if r.identifier not in EXPECTED_RED]
    assert not unexpected, f"unexpected failures: {[r.identifier for r in unexpected]}"
    _assert_no_unexpected_pass(records)
    for r in failed:
        if r.identifier in EXPECTED_RED:
            pytest.xfail(f"{r.identifier}: {EXPECTED_RED[r.identifier]}")


def test_c01_universal_constants(ctx):
    records = verify.run_criterion(verify.criterion_1_universal_constants, ctx)
    assert not _report(records)


def test_c02_green_oracle(ctx):
    records = verify.run_criterion(verify.criterion_2_green_oracle, ctx)
    assert not _report(records)


def test_c03_kirchhoff_routh(ctx):
    records = verify.run_criterion(verify.criterion_3_kr_certification, ctx)
    assert not _report(records)


def test_c04_solver_vs_oracle(ctx):
    records = verify.run_criterion(verify.criterion_4_solver_vs_oracle, ctx)
    failed = _report(records)
    by_id = {r.identifier: r for r in records}
    assert by_id["C4-p10"].passed, "resolved-regime match must hold"
    unexpected = [r for r in failed if r.identifier not in EXPECTED_RED]
    assert not unexpected
    _assert_no_unexpected_pass(records)
    if failed:
        pytest.xfail("; ".join(f"{r.identifier}: {EXPECTED_RED[r.identifier]}" for r in failed))


def test_c05_peak_law(ctx):
    records = verify.run_criterion(verify.criterion_5_peak_law, ctx)
    assert not _report(records)


def test_c06_energy_and_mass(ctx):
    _assert_with_expectations(verify.run_criterion(verify.criterion_6_energy_mass, ctx))


def test_c07_eps_law(ctx):
    _assert_with_expectations(verify.run_criterion(verify.criterion_7_eps_law, ctx))


def test_c08_profile_correction(ctx):
    records = verify.run_criterion(verify.criterion_8_profile_correction, ctx)
    assert not _report(records)


def test_c09_pohozaev(ctx):
    records = (verify.run_criterion(verify.criterion_9_pform, ctx)
               + verify.run_criterion(verify.criterion_9_identities, ctx))
    assert not _report(records)


def test_c10_gradient_balance(ctx):
    records = verify.run_criterion(verify.criterion_10_gradient_balance, ctx)
    assert not _report(records)


def test_c11_spectrum(ctx):
    records = verify.run_criterion(verify.criterion_11_spectrum, ctx)
    assert not _report(records)


def test_c12_property_suites(ctx):
    records = verify.run_criterion(verify.criterion_12_property_suites, ctx)
    assert not _report(records)
