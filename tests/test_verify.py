import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np

from spikelab import harness, kirchhoff_routh, lane_emden, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_entry_ladder_solves_each_level_once(monkeypatch):
    calls = []
    solve = lane_emden.newton_solve

    def counting_solve(msh, u0, p, **kw):
        calls.append(msh.h)
        return solve(msh, u0, p, **kw)

    monkeypatch.setattr(lane_emden, "newton_solve", counting_solve)
    ctx = verify.AcceptanceContext()
    e128 = ctx.entry("disk", 128, 10.0)
    assert calls == [1.0 / 64, 1.0 / 128]
    assert e128.mesh.h == 1.0 / 128 and len(e128.spikes) == 1

    # the coarse level is the plain ansatz solve at the disk's centre
    msh = ctx.mesh("disk", 64)
    u, _ = solve(msh, lane_emden.ansatz(msh, kirchhoff_routh.psi_eval(msh, [(0.0, 0.0)]), 10.0),
                 10.0)
    assert np.array_equal(ctx.entry("disk", 64, 10.0).u, u)

    assert ctx.entry("disk", 128, 10.0) is e128
    assert len(calls) == 2


def test_release_drops_an_entry_with_its_mesh():
    ctx = verify.AcceptanceContext()
    ctx.entry("disk", 64, 10.0)
    ctx.oracle(20.0)
    ctx.release(("entry", "disk", 64, 10.0, False))
    assert set(ctx._cache) == {("kr", "disk"), ("oracle", 20.0)}


def test_quick_verify_writes_nothing_to_stderr(tmp_path):
    # C12's h = 1/32 sweep lands p = 10 on a mesh graded toward the spike, so
    # no spike is under-resolved; a warning would be a note, not stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "spikelab.cli", "verify", "--quick", "--out",
                          str(tmp_path)], capture_output=True, text=True, env=env)
    assert run.returncode == 1  # C6-energy and C7-leading, the expected reds
    assert run.stderr == ""
    notes = {r["identifier"]: r["notes"] for r in json.loads((tmp_path / "checks.json").read_text())}
    assert notes["C12-determinism"] == ""


def test_a_criterions_warnings_join_its_notes():
    def criterion(ctx):
        for _ in range(2):
            warnings.warn("a spike is narrower than the lattice cell",
                          lane_emden.UnderResolvedSpikeWarning)
        return [harness.VerificationRecord("X", "x", None, {}, "none", True, notes="kept")]

    with warnings.catch_warnings():
        warnings.simplefilter("error", lane_emden.UnderResolvedSpikeWarning)
        records = verify.run_criterion(criterion, None)
    # the same warning raised twice is one note
    assert records[0].notes == "kept; warning: a spike is narrower than the lattice cell"
