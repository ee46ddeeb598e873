"""Fast tests of the benchmark's own code: every output check passes on a right
output and fails on a wrong one, and the tracer counts what it claims.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import references  # noqa: E402
import spans  # noqa: E402
from spikelab import greens, kirchhoff_routh, lane_emden, linsolve, radial  # noqa: E402
from spikelab import mesh as mesh_mod  # noqa: E402


def _variants(good: dict, edits):
    for edit in edits:
        bad = copy.deepcopy(good)
        edit(bad)
        yield bad


# ----------------------------------------------------------------- sweep


SWEEP_REF = {"u_max_p10": 1.857447}
SWEEP_OUT = {
    "p_values": [10.0, 12.0, 14.0],
    "residuals": [3e-13, 4e-13, 2e-13],
    "spike_counts": [1, 1, 1],
    "spike_positions": [[1e-15, -2e-15], [0.0, 0.0], [0.0, 0.0]],
    "u_max_p10": 1.869755,
    "h": 1.0 / 64,
    "errors": [],
}


def test_sweep_check_passes_on_a_right_output():
    assert checks.check_sweep(SWEEP_OUT, SWEEP_REF) == []


@pytest.mark.parametrize("bad", list(_variants(SWEEP_OUT, [
    lambda o: o["p_values"].pop(),
    lambda o: o["residuals"].__setitem__(1, 1e-8),
    lambda o: o["spike_counts"].__setitem__(2, 2),
    lambda o: o["spike_positions"].__setitem__(0, [0.02, 0.0]),
    lambda o: o.__setitem__("u_max_p10", 1.857447 * 1.02),
    lambda o: o["errors"].append("continuation: StalledContinuationError"),
])))
def test_sweep_check_fails_on_a_wrong_output(bad):
    assert checks.check_sweep(bad, SWEEP_REF)


def test_newton_residual_flags_a_perturbed_field():
    msh = mesh_mod.build_mesh(mesh_mod.make_domain("disk", r=1.0), 1.0 / 16)
    cfg = kirchhoff_routh.psi_eval(msh, [(0.0, 0.0)])
    u, _ = lane_emden.newton_solve(msh, lane_emden.ansatz(msh, cfg, 5.0), 5.0)
    A = greens.laplacian_operator(msh)
    assert checks.newton_residual(msh, A, u, 5.0) <= checks.NEWTON_TOL
    u[len(u) // 2] += 1e-6
    assert checks.newton_residual(msh, A, u, 5.0) > checks.NEWTON_TOL


# ---------------------------------------------------------------- ladder


LADDER_REF = {"u_max": 1.706800}
LADDER_OUT = {
    "residuals": {64: 1e-13, 128: 2e-13},
    "u_max": {64: 1.706800 - 3.5e-3, 128: 1.706800 - 8.7e-4},
    "p_residual": {64: -2.47e-3, 128: -6.09e-4},
}


def test_ladder_check_passes_on_a_right_output():
    assert checks.check_ladder(LADDER_OUT, LADDER_REF) == []


@pytest.mark.parametrize("bad", list(_variants(LADDER_OUT, [
    lambda o: o["residuals"].__setitem__(128, 1e-6),
    lambda o: o["u_max"].__setitem__(128, 1.706800 + 4e-3),
    lambda o: o["p_residual"].__setitem__(128, -1.5e-3),
])))
def test_ladder_check_fails_on_a_wrong_output(bad):
    assert checks.check_ladder(bad, LADDER_REF)


# ---------------------------------------------------------------- radial


def _radial_out():
    keys = [(p, n) for p in (20.0, 40.0, 80.0) for n in (4000, 8000)]
    return {
        "morse": {k: 1 for k in keys},
        "mode1": {k: [0.1, 15.0] for k in keys},
        "margin": {k: 0.1 for k in keys},
        "p_spectrum": (20.0, 40.0, 80.0),
        "b": -1.4122,
        "B": 34.3916,
        "bubble_mass": 8 * math.pi,
    }


RADIAL_REF = {"bubble_mass": references.EIGHT_PI}


def test_radial_check_passes_on_a_right_output():
    assert checks.check_radial(_radial_out(), RADIAL_REF) == []


@pytest.mark.parametrize("bad", list(_variants(_radial_out(), [
    lambda o: o["morse"].__setitem__((40.0, 4000), 2),
    lambda o: o["mode1"].__setitem__((80.0, 8000), [-0.01, 15.0]),
    lambda o: o["margin"].__setitem__((20.0, 8000), 0.13),
    lambda o: o.__setitem__("B", 34.3916 * 0.8),
    lambda o: o.__setitem__("bubble_mass", 8 * math.pi * (1 + 1e-7)),
])))
def test_radial_check_fails_on_a_wrong_output(bad):
    assert checks.check_radial(bad, RADIAL_REF)


# ----------------------------------------------------------------- green


SOURCES = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, 0.2]])
GREEN_REF = {
    "robin": [references.disk_robin(q) for q in SOURCES],
    "kr_hessian": 1.0 / math.pi,
    "eigenvalues": [1.7546, 1.7546, 10.7361, 24.6419],
    "morse": 1,
}


def _green_out():
    exact = np.array(GREEN_REF["robin"])
    return {
        "robin": {n: (exact + 2e-4 * (64.0 / n) ** 2).tolist() for n in (64, 128, 256)},
        "kr_point": [1e-7, -1e-7],
        "kr_h": 1.0 / 128,
        "kr_hessian": [0.31835, 0.31835],
        "eigenvalues": [1.7529, 1.7529, 10.7235, 24.6412],
        "morse": 1,
        "newton_residual": 3e-13,
    }


def test_green_check_passes_on_a_right_output():
    assert checks.check_green(_green_out(), GREEN_REF) == []


def _shift(key, n, i, by):
    return lambda o: o[key][n].__setitem__(i, o[key][n][i] + by)


@pytest.mark.parametrize("bad", list(_variants(_green_out(), [
    _shift("robin", 256, 1, 1e-3),  # a wrong Robin value
    lambda o: o["robin"].__setitem__(64, o["robin"][256]),  # no convergence
    lambda o: o.__setitem__("kr_point", [0.02, 0.0]),
    lambda o: o.__setitem__("kr_hessian", [0.31835, 0.31835 * 1.05]),
    lambda o: o["eigenvalues"].__setitem__(2, 10.7235 * 1.03),  # a shifted eigenvalue
    lambda o: o["eigenvalues"].pop(),
    lambda o: o.__setitem__("morse", 0),
    lambda o: o.__setitem__("newton_residual", 1e-7),
])))
def test_green_check_fails_on_a_wrong_output(bad):
    assert checks.check_green(bad, GREEN_REF)


# ------------------------------------------------------------ references


def test_disk_robin_matches_the_program_closed_form():
    for q in SOURCES:
        assert references.disk_robin(q) == pytest.approx(greens.unit_disk_R(q), rel=1e-14, abs=1e-16)


def test_radial_shooting_matches_the_radial_oracle():
    assert references.DiskRadial(10.0).u_max == pytest.approx(radial.solve_radial(10.0).u0, rel=1e-10)


# ----------------------------------------------------------------- spans


def test_tracer_counts_lu_entry_points_where_callers_look_them_up():
    msh = mesh_mod.build_mesh(mesh_mod.make_domain("disk", r=1.0), 1.0 / 16)
    original = greens.assemble_laplacian
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for q in SOURCES:
            greens.regular_part(msh, q)  # one Laplacian LU, one solve per source
        linsolve.smallest_eigenpairs(greens.laplacian_operator(msh), m=1)
        # ARPACK's shift-invert factorizes through the splu bound in its own module
        spla.eigsh(greens.laplacian_operator(msh).to_scipy().tocsc(), k=1, sigma=0.0)
        tracer.active = False
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert greens.assemble_laplacian is original
    assert m["mesh.laplacian.s"] > 0  # greens' by-name import was rebound
    assert m["greens.regular_part.count"] == len(SOURCES)
    assert m["linsolve.lu.count"] >= 3 and m["linsolve.lu.fill_mnz"] > 0
    assert m["linsolve.lu_solve.count"] >= len(SOURCES) + 2
    assert m["linsolve.eigenpairs.count"] == 2
    assert m["greens.self_s"] < m["greens.total_s"]
    assert tracer.absent == []
