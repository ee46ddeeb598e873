import contextlib
import io
import json
import math

import numpy as np
import pytest

from spikelab import cli, harness, kirchhoff_routh, lane_emden, liouville
from spikelab.mesh import build_mesh


def _under_resolved_at_p10():
    """The warning of a command that runs p = 10 on a grid coarser than its spike."""
    return pytest.warns(lane_emden.UnderResolvedSpikeWarning, match="at p = 10 ")


def test_green_command(capsys):
    rc = cli.main(["green", "--domain", "disk,r=1", "--h", "1/32", "--source", "0.3,0.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["R"] == pytest.approx(0.0150100, abs=2e-4)
    assert len(out["grad_R"]) == 2 and len(out["hess_R"]) == 2
    # 0.1 from the boundary is 3.2h, deep enough for a source (grad R closed form)
    assert cli.main(["green", "--h", "1/32", "--source", "0.9,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["grad_R"] == pytest.approx([0.9 / (np.pi * 0.19), 0.0], abs=2e-2)


def test_h_takes_decimals_and_fractions_only(capsys):
    outs = []
    for h in ("1/32", "0.03125", "3.125e-2"):
        assert cli.main(["green", "--h", h, "--source", "0.3,0.0"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["mesh"]["h"] == 0.03125
    assert outs[0]["R"] == pytest.approx(0.015009992653501485, rel=1e-12)
    # an expression is a bad value, not code to run
    expr = "(1).__class__.__mro__[-1].__subclasses__().__len__() and 1/32"
    with pytest.raises(SystemExit) as exc:
        cli.main(["green", "--h", expr, "--source", "0.3,0.0"])
    assert exc.value.code == 2
    assert "--h" in capsys.readouterr().err


def test_kr_command(capsys):
    rc = cli.main(["kr", "--domain", "disk,r=1", "--h", "1/32", "--start", "0.3,0.2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["points"][0][0]) < 0.1
    assert out["classification"] == "minimum"
    assert out["nondeg_margin"] == pytest.approx(0.3183, rel=0.1)


def test_kr_takes_k_from_start_points(capsys):
    rc = cli.main(["kr", "--domain", "annulus,r_in=0.4,r_out=1", "--h", "1/24",
                   "--start", "0.68,0;-0.68,0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2
    assert len(out["points"]) == 2 and len(out["hess"]) == 4
    with pytest.raises(SystemExit):
        cli.main(["solve", "--k", "2", "--p", "10"])


def test_liouville_command(capsys, tmp_path):
    dump = tmp_path / "w0.csv"
    rc = cli.main(["liouville", "--verify", "--dump-w0", str(dump)])
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "r,w0,w0_prime"
    # one row per accepted step of the integration, the last at W0_R_MAX
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert len(rows) == liouville.solve_w0().r.size > 100
    assert rows[-1][0] == 1e3 and math.isfinite(rows[-1][2])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["mass"]["rel_err"] < 1e-10


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """`spikelab sweep` at h = 1/48, p 8 and 10: its report directory, exit
    code and printed lines."""
    out = tmp_path_factory.mktemp("sweep")
    # the p = 10 spike is narrower than the h = 1/48 cell, and the sweep says so
    with contextlib.redirect_stdout(io.StringIO()) as printed, _under_resolved_at_p10():
        rc = cli.main(["sweep", "--domain", "disk,r=1", "--h", "1/48", "--p", "8,10",
                       "--out", str(out)])
    return out, rc, printed.getvalue()


def test_sweep_writes_the_whole_report(swept):
    out, rc, printed = swept
    assert rc == 0
    assert "[PASS] peak-law:" in printed and "checks passed in" in printed
    # the branch the one-spike solve at the Kirchhoff-Routh point gives
    dom = cli.parse_domain("disk,r=1")
    msh = build_mesh(dom, 1.0 / 48)
    cfg = kirchhoff_routh.find_critical_point(msh, kirchhoff_routh.start_points(dom, None))
    with _under_resolved_at_p10():
        branch = lane_emden.continue_in_p(msh, cfg, [8.0, 10.0])
    assert (out / "branch.csv").read_text() == harness.branch_csv_text(branch)
    ids = [r["identifier"] for r in json.loads((out / "checks.json").read_text())]
    assert ids == ["kr-critical-point", "peak-law", "peak-law-rate", "sweep-diagnostics"]
    assert (out / "u_max_vs_p.svg").exists() and (out / "profile_correction.svg").exists()


def test_sweep_records_one_diagnostics_row_per_spike(swept):
    out = swept[0]
    branch = (out / "branch.csv").read_text().splitlines()
    assert branch[0] == "p,j,x_j,y_j,u_max_j,eps_j,C_j,energy,residual"
    for line in branch[1:]:
        for cell in line.split(","):
            float(cell)
    records = json.loads((out / "checks.json").read_text())
    rec = {r["identifier"]: r for r in records}["sweep-diagnostics"]
    rows = rec["measured"]["entries"]
    # one spike: one row per p, on the 8h circle (inside d = 0.25)
    assert [(r["p"], r["j"]) for r in rows] == [(8.0, 1), (10.0, 1)]
    assert rec["passed"] and not [k for r in rows for k in r if k.endswith("_error")]
    for r in rows:
        assert r["theta"] == 8 / 48
        assert len(r["q_residuals"]) == 2 and np.all(np.isfinite(r["q_residuals"]))
        assert np.isfinite(r["p_residual"]) and np.isfinite(r["sup_v_minus_w0"])


def test_sweep_row_is_the_one_spike_solve(swept):
    # `spikelab solve` is gone: the sweep's branch.csv row at p = 10 is the
    # solve it printed (u_max 1.857 at h = 1/48)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--domain", "disk,r=1", "--h", "1/48", "--p", "10"])
    assert exc.value.code == 2
    line = (swept[0] / "branch.csv").read_text().splitlines()[2]
    row = dict(zip(harness.BRANCH_COLUMNS, line.split(",")))
    assert float(row["p"]) == 10.0
    assert float(row["u_max_j"]) == pytest.approx(1.857, rel=2e-2)


def test_sweep_failures_print_their_error(tmp_path, monkeypatch, capsys):
    def no_landing(mesh, u0, p):
        raise lane_emden.NewtonDivergedError(f"no landing at p = {p:g}")

    # every solve fails, the graded fallback's too
    monkeypatch.setattr(lane_emden, "newton_solve", no_landing)
    assert cli.main(["sweep", "--h", "1/32", "--p", "10,20", "--out", str(tmp_path)]) == 1
    assert ("[FAIL] continuation: branch continuation over the p list\n"
            "       note: NewtonDivergedError: no landing at p = 10"
            in capsys.readouterr().out)

    def no_point(mesh, starts):
        raise kirchhoff_routh.NewtonDivergedError("no point")

    monkeypatch.setattr(kirchhoff_routh, "find_critical_point", no_point)
    assert cli.main(["sweep", "--h", "1/32", "--p", "10", "--out", str(tmp_path)]) == 1
    assert ("[FAIL] kr-critical-point: Kirchhoff-Routh search\n"
            "       note: NewtonDivergedError: no point" in capsys.readouterr().out)


@pytest.mark.parametrize("h", ["1/32", "1/24"])
def test_sweep_grades_a_first_p_whose_ansatz_fails(tmp_path, capsys, h):
    # the p = 10 ansatz solve fails on these disks and lands on a mesh graded
    # toward the spike, where the spike is resolved; p = 20 lands from its
    # ansatz on the sweep's mesh, under-resolved
    with pytest.warns(lane_emden.UnderResolvedSpikeWarning, match="at p = 20 "):
        assert cli.main(["sweep", "--h", h, "--p", "10,20", "--out", str(tmp_path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    records = {r["identifier"]: r for r in json.loads((tmp_path / "checks.json").read_text())}
    assert "continuation" not in records
    law = records["peak-law"]["measured"]
    assert law["p"] == [10.0, 20.0]
    assert law["strategy"] == ["graded", "ansatz"]
    # the Jacobian LUs of the p = 10 ansatz solve that failed first
    assert law["failed_factorizations"][0] >= 1 and law["failed_factorizations"][1] == 0
    assert law["resolved"] == [True, False]
    n_sweep = build_mesh(cli.parse_domain("disk,r=1"), cli.parse_h(h)).n_nodes
    assert law["nodes"][0] > n_sweep == law["nodes"][1]
    assert 1 <= law["factorizations"][0] <= 2
    # the diagnostics run on each entry's own mesh
    assert records["sweep-diagnostics"]["passed"]


def test_spectrum_takes_a_p_list_and_the_deleted_options_are_gone(capsys):
    # p = 10 is analysed on the graded mesh its solve landed on
    assert cli.main(["spectrum", "--domain", "disk,r=1", "--h", "1/32", "--p", "8,10"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [8.0, 10.0]
    assert all(len(r["eigenvalues"]) == 4 for r in rows)
    for argv in (["pohozaev", "--branch", "branch.csv"],
                 ["solve", "--p", "10", "--tol", "1e-8"],
                 ["spectrum", "--branch", "branch.csv"],
                 ["spectrum", "--eigen-tol", "1e-8"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_spectrum_takes_start_points(capsys):
    # the default start (0.12, 0.07) lies within 3h of the dumbbell's neck
    # and in the annulus's hole; --start puts the search where the spikes are
    argv = ["spectrum", "--domain", "dumbbell", "--h", "1/24", "--p", "10", "--start", "1.0,0.0"]
    with _under_resolved_at_p10():
        assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1
    with _under_resolved_at_p10():
        assert cli.main(["spectrum", "--domain", "annulus,r_in=0.4,r_out=1", "--h", "1/24",
                         "--p", "10", "--start", "0.68,0;-0.68,0"]) == 0
    rows = json.loads(capsys.readouterr().out)
    # k = 2: each mode is projected on the kernel at both spikes
    assert len(rows) == 1 and all(len(proj) == 2 for proj in rows[0]["projections"])
    # a point that is not an x,y pair is a bad value, as for --h
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--start", "0.68"])
    assert exc.value.code == 2 and "--start" in capsys.readouterr().err


def test_sweep_takes_k_from_start_points(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_sweep(cfg):
        seen.append(cfg)
        rec = harness.VerificationRecord("kr-critical-point", "search", None, {}, "completes",
                                         False, notes="not run")
        return {"records": [rec], "branch": None, "plots": {}}

    monkeypatch.setattr(harness, "run_sweep", fake_sweep)
    args = ["sweep", "--domain", "annulus,r_in=0.4,r_out=1", "--h", "1/24", "--p", "10",
            "--out", str(tmp_path)]
    assert cli.main(args + ["--start", "0.68,0;-0.68,0"]) == 1
    assert cli.main(args) == 1
    assert np.shape(seen[0].start_points) == (2, 2) and seen[1].start_points is None
    assert seen[0].domain.kind == "annulus" and seen[0].domain.params == {"r_in": 0.4, "r_out": 1.0}
    printed = capsys.readouterr().out
    assert "[FAIL] kr-critical-point: search\n       note: not run" in printed
    assert (tmp_path / "checks.json").exists()


def test_domain_parse_errors():
    with pytest.raises(Exception):
        cli.parse_domain("disk,r=-1")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--domain", "annulus,r_in=0.4,r_out=1", "--h", "1/24", "--p", "10"],
     "point [0.12 0.07] too close to the boundary"),
    (["kr", "--domain", "annulus,r_in=0.4,r_out=1", "--h", "1/24"],
     "point [0.12 0.07] too close to the boundary"),
    (["green", "--h", "1/32", "--source", "0.97,0"],
     "source [0.97 0.  ] is closer than 3.0h to the boundary"),
    (["green", "--h", "1/24", "--source", "0.9,0"],
     "source [0.9 0. ] is closer than 3.0h to the boundary"),
], ids=["spectrum-annulus", "kr-annulus", "green-source", "green-source-depth"])
def test_points_the_geometry_rejects_end_in_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"spikelab: error: {message}\n"
    assert captured.out == ""
