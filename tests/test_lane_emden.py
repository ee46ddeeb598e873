import math
import warnings

import numpy as np
import pytest

from spikelab import greens, kirchhoff_routh as kr, lane_emden as le, liouville
from spikelab.mesh import build_mesh, make_domain


@pytest.fixture(scope="module")
def disk64():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 64)


@pytest.fixture(scope="module")
def kr_disk(disk64):
    return kr.psi_eval(disk64, [(0.0, 0.0)])


@pytest.fixture(scope="module")
def solved_p10(disk64, kr_disk):
    u, info = le.newton_solve(disk64, le.ansatz(disk64, kr_disk, 10.0), 10.0)
    return u, info


def test_ansatz_peak_and_far_field(disk64, kr_disk):
    p = 12.0
    u0 = le.ansatz(disk64, kr_disk, p)
    assert np.all(u0 >= 0.0)
    k = disk64.node_of[disk64.nearest_lattice(0.0, 0.0)]
    assert u0[k] == pytest.approx(le.predicted_umax(p, 0.0), rel=1e-3)
    # far from the spike the ansatz follows (p C_p / p) G(0, .) with the
    # finite-p mass, which tends to the limit coefficient 8 pi sqrt(e)/p
    gd = greens.regular_part(disk64, (0.0, 0.0))
    rad = le.radial_oracle(p)
    pt = np.array([0.62, 0.11])
    gval = float(gd.green_values(pt[None, :])[0])
    far = le.predicted_umax(p, 0.0) * rad.mass() / p * gval
    assert float(disk64.interp(u0, pt[None, :])[0]) == pytest.approx(far, rel=1e-4)
    limit = 8 * np.pi * math.sqrt(math.e) / p * gval
    assert far == pytest.approx(limit, rel=0.35)


def test_newton_converges_quadratically(solved_p10):
    _, info = solved_p10
    h = info["residual_history"]
    assert h[-1] <= 1e-10
    # quadratic tail: the last contraction is much stronger than quadratic
    # would need to be for a linear method
    assert h[-1] <= 10 * h[-2] ** 2 / max(h[-3], 1e-30) or h[-1] < 1e-13


def test_newton_positive_interior(solved_p10):
    u, info = solved_p10
    assert info["min_value"] > 0.0
    assert float(np.max(u)) > 1.5


def test_umax_matches_oracle_at_p10(disk64, solved_p10):
    u, _ = solved_p10
    spikes = le.extract_spikes(disk64, u, 10.0, 1, 0.25)
    orc = le.radial_oracle(10.0)
    assert spikes[0].u_max == pytest.approx(orc.u0, rel=8e-3)
    assert np.hypot(*spikes[0].position) < disk64.h


def test_radius_scaling_sanity():
    # u_rho(x) = rho^(-2/(p-1)) u_1(x/rho) for the exact problem
    p = 8.0
    m1 = build_mesh(make_domain("disk", r=1.0), 1.0 / 48)
    m2 = build_mesh(make_domain("disk", r=0.8), 1.0 / 60)
    c1 = kr.psi_eval(m1, [(0.0, 0.0)])
    c2 = kr.psi_eval(m2, [(0.0, 0.0)])
    u1, _ = le.newton_solve(m1, le.ansatz(m1, c1, p), p)
    # the ansatz prediction is tuned to the unit disk; rescale it by hand
    scale = 0.8 ** (-2.0 / (p - 1.0))
    guess = np.maximum(u1[0], 0)  # placeholder to silence linters
    u0 = scale * m2.interp(u1, m2.coords * (1.0 / 0.8), fill=0.0)
    u2, _ = le.newton_solve(m2, u0, p)
    s1 = le.extract_spikes(m1, u1, p, 1, 0.2)[0]
    s2 = le.extract_spikes(m2, u2, p, 1, 0.16)[0]
    assert s2.u_max == pytest.approx(scale * s1.u_max, rel=2e-3)


def test_trivial_solution_flagged(disk64):
    with pytest.raises((le.TrivialSolutionError, le.NewtonDivergedError)):
        le.newton_solve(disk64, np.zeros(disk64.n_nodes), 10.0)


def test_p_guard(disk64):
    with pytest.raises(ValueError):
        le.newton_solve(disk64, np.ones(disk64.n_nodes), 0.5)


def test_jacobian_matches_directional_difference(disk64, solved_p10):
    u, _ = solved_p10
    p = 10.0
    A = greens.laplacian_operator(disk64).to_scipy()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(disk64.n_nodes)
    v /= np.linalg.norm(v)
    eps = 1e-6 * float(np.linalg.norm(u))
    F = lambda w: A @ w - np.maximum(w, 0.0) ** p
    fd = (F(u + eps * v) - F(u)) / eps
    Jv = A @ v - (p * np.maximum(u, 0.0) ** (p - 1.0)) * v
    assert np.linalg.norm(fd - Jv) / np.linalg.norm(Jv) <= 1e-5


def test_d_dp_matches_central_difference(disk64, solved_p10):
    u, _ = solved_p10
    p, dp = 10.0, 1e-4
    problem = le.LaneEmdenProblem(disk64)
    fd = (problem.residual(u, p + dp)[0] - problem.residual(u, p - dp)[0]) / (2.0 * dp)
    Fp = problem.d_dp(u, p)
    assert np.linalg.norm(fd - Fp) / np.linalg.norm(Fp) <= 1e-5


def test_extract_spikes_wrong_count(disk64, solved_p10):
    u, _ = solved_p10
    with pytest.raises(le.WrongPeakCountError):
        le.extract_spikes(disk64, u, 10.0, 2, 0.2)


def test_eps_is_derived_from_umax(disk64, solved_p10):
    u, _ = solved_p10
    s = le.extract_spikes(disk64, u, 10.0, 1, 0.25)[0]
    assert math.log(s.eps) == pytest.approx(le.log_eps(10.0, s.u_max), abs=1e-12)


def test_under_resolved_spike_warns(disk64, solved_p10):
    u, _ = solved_p10
    # at p = 10 the spike (eps ~ 1.9e-2) is wider than the h = 1/64 cell
    with warnings.catch_warnings():
        warnings.simplefilter("error", le.UnderResolvedSpikeWarning)
        s = le.extract_spikes(disk64, u, 10.0, 1, 0.25)[0]
    assert s.resolved and s.cell == pytest.approx(disk64.h, rel=1e-12)
    # read as a p = 20 solution, the same peak height implies eps ~ 6e-4 < h
    with pytest.warns(le.UnderResolvedSpikeWarning, match="narrower than the lattice cell"):
        s = le.extract_spikes(disk64, u, 20.0, 1, 0.25)[0]
    assert not s.resolved and s.eps < disk64.h


def test_peak_mass_approaches_limit(disk64, solved_p10):
    u, _ = solved_p10
    s = le.extract_spikes(disk64, u, 10.0, 1, 0.25)[0]
    orc = le.radial_oracle(10.0)
    assert s.C * 10.0 == pytest.approx(orc.peak_integral(0.25) * 10.0, rel=2e-2)
    # p C -> 8 pi sqrt(e) from below along p
    assert s.C * 10.0 < 8 * np.pi * math.sqrt(math.e)


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
def test_continuation_records_targets(disk64, kr_disk):
    br = le.continue_in_p(disk64, kr_disk, 10.0, 14.0, record_at=[10.0, 12.0, 14.0])
    assert br.p_values == [10.0, 12.0, 14.0]
    umax = [e.spikes[0].u_max for e in br.entries]
    assert umax[0] > umax[-1] or umax[0] < 2.0
    rows = br.csv_rows()
    assert {r["p"] for r in rows} == {10.0, 12.0, 14.0}


def test_rescale_profile_gauge(disk64, kr_disk, solved_p10):
    u, info = solved_p10
    entry = le.make_entry(disk64, u, 10.0, 1, 0.25, info["residual"])
    prof = liouville.solve_w0()
    rp = le.rescale_profile(entry, 0, 8.0, w0_profile=prof)
    assert np.max(np.abs(rp.w[0, :])) < 1e-12  # w(0) = 0 by construction
    assert np.max(np.abs(rp.v[0, :])) < 1e-10
    # -1 < w/p <= 0 pointwise
    assert np.all(rp.w <= 1e-12) and np.all(rp.w / 10.0 > -1.0)
    assert rp.k is not None and np.all(np.isfinite(rp.k))
    # the discrete gradient of w at the refined peak is near zero
    gw = (rp.w[1, :] - rp.w[0, :]) / (rp.radii[1] - rp.radii[0])
    assert np.max(np.abs(np.mean(gw))) < 0.1


def test_rescale_radius_guard(disk64, solved_p10):
    u, info = solved_p10
    entry = le.make_entry(disk64, u, 10.0, 1, 0.25, info["residual"])
    with pytest.raises(le.RadiusExceedsInnerRegionError):
        le.rescale_profile(entry, 0, 2.0 * entry.d / entry.spikes[0].eps)


def test_profile_first_order_correction(disk64, kr_disk, solved_p10):
    # sup over |y| <= 8 of |v - w0| is O(1/p)-small already at p = 10
    u, info = solved_p10
    entry = le.make_entry(disk64, u, 10.0, 1, 0.25, info["residual"])
    prof = liouville.solve_w0()
    rp = le.rescale_profile(entry, 0, 8.0, w0_profile=prof)
    sup = np.max(np.abs(rp.v - prof.w0(rp.radii)[:, None]))
    assert sup < 60.0 / 10.0
