import json
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikelab import harness, lane_emden
from spikelab.harness import ConfigError, RunConfig, VerificationRecord, fit_rate
from spikelab.mesh import make_domain


def _under_resolved_at_p10():
    """The warning of a sweep that runs p = 10 on a grid coarser than its spike."""
    return pytest.warns(lane_emden.UnderResolvedSpikeWarning, match="at p = 10 ")


def test_fit_rate_exact_quadratic():
    p = np.array([10.0, 20, 30, 40, 60, 80])
    slope, intercept, r2 = fit_rate(p, 7.0 / p**2)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(7.0)


def test_fit_rate_linear():
    p = np.array([5.0, 10, 20, 40])
    slope, _, _ = fit_rate(p, 3.0 / p)
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_excludes_nonpositive():
    p = np.array([10.0, 20, 30, 40, 60])
    y = np.array([1e-2, 1e-3, 0.0, 1e-4, 1e-5])  # the zero is dropped
    slope, _, _ = fit_rate(p, y)
    assert slope < -2.0


def test_fit_rate_needs_four_points():
    with pytest.raises(ValueError):
        fit_rate([10, 20, 30], [1, 2, 3])


@settings(max_examples=20, deadline=None)
@given(
    slope=st.floats(-3, -0.5),
    amp=st.floats(0.1, 10),
)
def test_fit_rate_recovers_synthetic_law(slope, amp):
    p = np.array([10.0, 15, 20, 30, 40, 60, 80])
    got, intercept, r2 = fit_rate(p, amp * p**slope)
    assert got == pytest.approx(slope, abs=1e-9)
    assert r2 > 1 - 1e-12


def test_empty_p_list_invalid():
    cfg = RunConfig(p_list=[])
    with pytest.raises(ConfigError):
        cfg.validate()


def test_run_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="ascending"):
        RunConfig(p_list=[40.0, 20.0, 10.0]).validate()
    # the sweep solves on one mesh: a second h would be dropped silently
    with pytest.raises(ConfigError, match="h list"):
        RunConfig(h_list=[1.0 / 64, 1.0 / 128]).validate()
    # p_start bounds the p list from below; by default there is no bound
    with pytest.raises(ConfigError, match="below p_start = 10"):
        RunConfig(p_list=[8.0, 10.0], p_start=10.0).validate()
    RunConfig(p_list=[8.0, 10.0]).validate()


def test_record_roundtrip(tmp_path):
    rec = VerificationRecord(
        identifier="c1",
        description="unit mass",
        target=8 * np.pi,
        measured={"value": 25.1327},
        tolerance="rel 1e-8",
        passed=True,
        instrument="quadrature",
        fitted_rate=None,
        notes="",
    )
    out = harness.emit_reports([rec], str(tmp_path))
    with open(out[0]) as f:
        loaded = json.load(f)
    assert VerificationRecord(**loaded[0]) == rec
    # a numpy comparison is stored as a plain bool
    assert VerificationRecord("c2", "", None, {}, "", np.float64(1.0) < 2.0).passed is True


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        harness.emit_reports([], str(tmp_path))


def test_svg_well_formed():
    x = np.array([1.0, 2, 3, 4])
    svg = harness.svg_line_plot(
        [(x, x**2, "square"), (x, 1.0 / x, "inverse")],
        "demo <plot>", "p", "value", logy=True,
    )
    root = ET.fromstring(svg)  # parse checks single root + balanced tags
    assert root.tag.endswith("svg")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_branch_csv_columns():
    assert harness.BRANCH_COLUMNS == [
        "p", "j", "x_j", "y_j", "u_max_j", "eps_j", "C_j", "energy", "residual",
    ]


@pytest.mark.slow
def test_run_sweep_deterministic(tmp_path):
    # p = 10 lands on a mesh graded toward the spike (its ansatz fails on
    # the h = 1/32 grid), and every spike is resolved
    cfg = RunConfig(h_list=[1.0 / 32], p_list=[8.0, 10.0], p_start=8.0)
    out1 = harness.run_sweep(cfg)
    out2 = harness.run_sweep(cfg)
    assert [e.strategy for e in out1["branch"].entries] == ["ansatz", "graded"]
    csv1 = harness.branch_csv_text(out1["branch"])
    csv2 = harness.branch_csv_text(out2["branch"])
    assert csv1 == csv2
    for line in csv1.splitlines()[1:]:
        for cell in line.split(","):
            float(cell)
    r1 = json.dumps([asdict(r) for r in out1["records"]], sort_keys=True)
    r2 = json.dumps([asdict(r) for r in out2["records"]], sort_keys=True)
    assert r1 == r2
    paths = harness.emit_reports(out1["records"], str(tmp_path), branch=out1["branch"],
                                 plots=out1["plots"])
    names = {p.split("/")[-1] for p in paths}
    assert "checks.json" in names and "branch.csv" in names
    assert any(n.endswith(".svg") for n in names)


def test_sweep_diagnoses_every_spike_on_its_own_ball():
    """k = 2 on the annulus: the 8h circle would leave the domain, so each
    spike's Pohozaev circle takes theta = d, and the mirror-symmetric pair
    gives equal P residuals."""
    cfg = RunConfig(domain=make_domain("annulus", r_in=0.4, r_out=1.0), h_list=[1.0 / 24],
                    p_list=[10.0], p_start=10.0, start_points=[[0.68, 0.0], [-0.68, 0.0]])
    with _under_resolved_at_p10():
        out = harness.run_sweep(cfg)
    entry = out["branch"].entries[0]
    rec = {r.identifier: r for r in out["records"]}["sweep-diagnostics"]
    rows = rec.measured["entries"]
    assert [(r["p"], r["j"]) for r in rows] == [(10.0, 1), (10.0, 2)]
    assert entry.d < 8.0 / 24
    for r in rows:
        assert r["theta"] == entry.d
        assert not [k for k in r if k.endswith("_error")]
        assert np.all(np.isfinite(r["q_residuals"] + r["balance"] + [r["sup_v_minus_w0"]]))
    assert abs(rows[0]["p_residual"] - rows[1]["p_residual"]) <= 1e-12
    assert rec.passed


def test_sweep_diagnostics_fail_on_a_recorded_error(monkeypatch):
    def broken(entry):
        raise RuntimeError("no balance")

    monkeypatch.setattr(harness.pohozaev, "gradient_balance", broken)
    out = harness.run_sweep(RunConfig(h_list=[1.0 / 32], p_list=[8.0], p_start=8.0))
    rec = {r.identifier: r for r in out["records"]}["sweep-diagnostics"]
    assert rec.measured["entries"][0]["gradient_balance_error"] == "RuntimeError: no balance"
    assert not rec.passed and "no balance" in rec.notes


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SPIKELAB_THREADS", "2")
    assert harness.worker_count() == 2
    monkeypatch.setenv("SPIKELAB_THREADS", "junk")
    assert harness.worker_count() >= 1
