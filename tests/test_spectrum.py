import dataclasses

import numpy as np
import pytest

from spikelab import kirchhoff_routh as kr, lane_emden as le, liouville, radial, spectrum as sp
from spikelab.linsolve import smallest_eigenpairs
from spikelab.mesh import build_graded_mesh, build_mesh, make_domain


@pytest.fixture(scope="module")
def disk96():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 96)


@pytest.fixture(scope="module")
def entry_p6(disk96):
    cfg = kr.psi_eval(disk96, [(0.0, 0.0)])
    u, info = le.newton_solve(disk96, le.ansatz(disk96, cfg, 6.0), 6.0)
    return le.make_entry(disk96, u, 6.0, 1, 0.25, info["residual"])


def _Lp(mesh, u, p):
    return le.LaneEmdenProblem(mesh).jacobian(u, p)


def test_Lp_action_identity(disk96, entry_p6):
    # L_p u = -Δu - p u^p = (1-p) u^p on the solution
    p = 6.0
    Lp = _Lp(disk96, entry_p6.u, p)
    lhs = Lp @ entry_p6.u
    rhs = (1 - p) * np.maximum(entry_p6.u, 0.0) ** p
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-7 * scale


def test_laplacian_only_spectrum_positive(disk96):
    # u = 0 leaves -Δ alone, positive definite: no negative eigenvalue to count
    zero = le.BranchEntry(2.0, np.zeros(disk96.n_nodes), [], 0.0, 0.0, 0.25, disk96)
    rep = sp.bottom_spectrum(zero, 3, 1e-8)
    assert np.all(rep.eigenvalues > 0)
    assert rep.morse_index == 0


def test_spectrum_matches_radial_instrument(disk96, entry_p6):
    rep = sp.bottom_spectrum(entry_p6, 4, 2e-6)
    rad = radial.solve_radial(6.0)
    spec1d = radial.disk_spectrum(rad, m_max=3)
    lam1d = [lam for lam, _ in spec1d.eigenvalues_near_zero()]
    assert rep.morse_index == 1 == spec1d.morse_index
    assert np.allclose(np.sort(rep.eigenvalues), np.sort(lam1d), rtol=0.02)


def test_margin_h_stability(entry_p6):
    margins = {}
    for h in (1.0 / 64, 1.0 / 96):
        m = build_mesh(make_domain("disk", r=1.0), h)
        cfg = kr.psi_eval(m, [(0.0, 0.0)])
        u, info = le.newton_solve(m, le.ansatz(m, cfg, 6.0), 6.0)
        rep = sp.bottom_spectrum(le.make_entry(m, u, 6.0, 1, 0.25, info["residual"]), 4, 2e-6)
        margins[h] = rep.nondeg_margin
    assert margins[1.0 / 64] == pytest.approx(margins[1.0 / 96], rel=0.2)


def test_kernel_projection_self_fit(disk96):
    # sampling Z0 around a synthetic spike returns coefficients (1, 0, 0);
    # the scale must exceed a few h or the interpolant cannot carry the shape
    eps = 0.06
    center = np.zeros(2)
    rho = np.hypot(disk96.coords[:, 0], disk96.coords[:, 1])
    xi = liouville.Z0(rho / eps)
    spike = le.SpikeData(center, 1.0, eps, 0.0)
    out = sp.kernel_projection(disk96, xi, spike)
    assert out["a"] == pytest.approx(1.0, abs=2e-4)
    assert abs(out["b1"]) < 1e-6 and abs(out["b2"]) < 1e-6
    assert out["residual"] < 1e-4


def test_translation_modes_project_on_b(disk96, entry_p6):
    Lp = _Lp(disk96, entry_p6.u, 6.0)
    pairs = smallest_eigenpairs(Lp, m=2, tol=2e-6)
    for col in range(2):
        out = sp.kernel_projection(disk96, pairs.eigenvectors[:, col], entry_p6.spikes[0])
        assert abs(out["a"]) < 0.05 * np.hypot(out["b1"], out["b2"])


def test_projection_bounded(disk96, entry_p6):
    Lp = _Lp(disk96, entry_p6.u, 6.0)
    pairs = smallest_eigenpairs(Lp, m=4, tol=2e-6)
    for col in range(4):
        out = sp.kernel_projection(disk96, pairs.eigenvectors[:, col], entry_p6.spikes[0])
        assert max(abs(out["a"]), abs(out["b1"]), abs(out["b2"])) < 10.0


def test_spike_coefficients_locality(disk96, entry_p6):
    # a mode supported away from the spike contributes no A mass
    rho = np.hypot(disk96.coords[:, 0] - 0.6, disk96.coords[:, 1])
    xi = np.where(rho < 0.2, 1.0, 0.0)
    out = sp.spike_coefficients(disk96, xi, entry_p6.u, 6.0, entry_p6.spikes[0], entry_p6.d)
    assert abs(out["A"]) < 1e-8


def test_rayleigh_consistency(disk96, entry_p6):
    Lp = _Lp(disk96, entry_p6.u, 6.0)
    pairs = smallest_eigenpairs(Lp, m=3, tol=2e-6)
    for i in range(3):
        v = pairs.eigenvectors[:, i]
        rq = float(v @ (Lp @ v))
        assert rq == pytest.approx(pairs.eigenvalues[i], abs=10 * pairs.residuals[i] * max(1, abs(rq)))


def test_b_coefficient_consistency_along_sweep():
    # |B + 8 pi b| / |8 pi b| shrinks as p grows (radial instrument)
    gaps = []
    for p in (20.0, 80.0):
        rad = radial.solve_radial(p)
        lam, rg, xi = radial.mode1_eigenvalue(rad, index=1)
        kd = radial.mode1_kernel_data(rad, xi, rg)
        gaps.append(abs(kd["B"] + 8 * np.pi * kd["b"]) / abs(8 * np.pi * kd["b"]))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.05


def test_diagonal_dominance_note(disk96, entry_p6):
    # a strong enough potential flips matrix diagonals negative near the
    # peak; the report carries the flag and shift-invert still converges
    assert float(np.min(_Lp(disk96, entry_p6.u, 40.0).diagonal())) < 0
    rep = sp.bottom_spectrum(dataclasses.replace(entry_p6, p=40.0), 2, 2e-6)
    assert any("diagonal dominance" in n for n in rep.notes)
    assert np.all(np.isfinite(rep.eigenvalues))


def _disk_entry(mesh, p):
    u, info = le.newton_solve(mesh, le.ansatz(mesh, kr.psi_eval(mesh, [(0.0, 0.0)]), p), p)
    return le.make_entry(mesh, u, p, 1, le.default_spike_radius(mesh, np.zeros((1, 2))),
                         info["residual"])


def test_morse_index_is_the_inertia_on_uniform_and_graded_meshes():
    # uniform h = 1/64, p = 10: the concentrated mode alone is negative.  On
    # the graded h = 1/64, p = 20 mesh the translation pair is negative too
    # (-40.87, twice), far below the four eigenvalues nearest zero
    disk = make_domain("disk", r=1.0)
    uniform = _disk_entry(build_mesh(disk, 1.0 / 64), 10.0)
    graded = _disk_entry(build_graded_mesh(disk, 1.0 / 64, np.zeros(2),
                                           radial.solve_radial(20.0).eps0), 20.0)
    rep = sp.bottom_spectrum(uniform, 4, 2e-6)
    assert rep.morse_index == 1 and np.all(rep.eigenvalues > 0)
    rep = sp.bottom_spectrum(graded, 4, 2e-6)
    assert rep.morse_index == 3 and np.all(rep.eigenvalues > 0)
    assert rep.notes == []


def test_unresolved_spike_is_noted(entry_p6):
    # uniform h = 1/64 at p = 20: eps = 3.4e-3 against a 1.6e-2 cell
    with pytest.warns(le.UnderResolvedSpikeWarning, match="at p = 20 "):
        coarse = _disk_entry(build_mesh(make_domain("disk", r=1.0), 1.0 / 64), 20.0)
    rep = sp.bottom_spectrum(coarse, 4, 2e-6)
    noted = [n for n in rep.notes if "under-resolved" in n]
    assert len(noted) == 1 and "eps = 3.36e-03 below the lattice cell 1.56e-02" in noted[0]
    # the resolved p = 6 spike at h = 1/96 gets no note
    assert entry_p6.spikes[0].resolved
    assert sp.bottom_spectrum(entry_p6, 4, 2e-6).notes == []


def test_eigenvectors_are_unit_in_the_mesh_norm():
    # v = D^(-1/2) y for the symmetric form's orthonormal y: the pairs of J
    # are orthonormal in the mesh's inner product, and their residuals are
    # ||J v - lambda v|| in the mesh's L2 norm
    msh = build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 32, np.zeros(2), 0.02)
    entry = _disk_entry(msh, 6.0)
    rep = sp.bottom_spectrum(entry, 3, 1e-8)
    V = rep.eigenvectors
    assert np.allclose(V.T @ (msh.node_area[:, None] * V), np.eye(3), atol=1e-10)
    J = _Lp(msh, entry.u, 6.0)
    for lam, v, res in zip(rep.eigenvalues, V.T, rep.residuals):
        assert msh.norm(J @ v - lam * v) / max(1.0, abs(lam)) == pytest.approx(res, rel=1e-3, abs=1e-12)
