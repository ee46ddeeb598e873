import math

import numpy as np
import pytest
import scipy.linalg

from spikelab import radial


@pytest.fixture(scope="module")
def rad20():
    return radial.solve_radial(20.0)


@pytest.fixture(scope="module")
def rad80():
    return radial.solve_radial(80.0)


def test_boundary_and_peak(rad20):
    assert float(rad20.u(1.0)) == 0.0
    assert float(rad20.u(0.0)) == pytest.approx(rad20.u0)
    assert rad20.eps0 * rad20.y_boundary == pytest.approx(1.0)


def test_monotone_decrease(rad20):
    r = np.linspace(0.0, 1.0, 200)
    u = rad20.u(r)
    assert np.all(np.diff(u) <= 1e-12)


def test_peak_heights_decrease_to_sqrt_e():
    vals = [radial.solve_radial(p).u0 for p in (10, 20, 40, 80)]
    assert all(np.diff(vals) < 0)
    # the height crosses sqrt(e) near p ~ 60: the 1/p term outweighs the
    # -log p/(p-1) term below that, and the approach is from below beyond
    assert all(v > math.sqrt(math.e) for v in vals[:3])
    assert vals[3] < math.sqrt(math.e)
    assert vals[-1] == pytest.approx(math.sqrt(math.e), rel=0.01)


def test_defining_relation(rad80):
    # eps = (p u0^(p-1))^(-1/2) reproduced from the stored pieces
    assert math.log(rad80.eps0) == pytest.approx(
        -0.5 * (math.log(80) + 79 * math.log(rad80.u0)), abs=1e-10
    )
    assert rad80.tail_active


def test_mass_deficit_tends_to_three():
    rhos = [radial.solve_radial(p).mass_deficit() for p in (20, 40, 80)]
    assert all(np.diff(rhos) > 0)
    assert 2.5 <= rhos[-1] <= 3.5


def test_energy_toward_8pie():
    es = [radial.solve_radial(p).energy() for p in (20, 40, 80)]
    target = 8 * np.pi * np.e
    assert all(np.diff(es) > 0)
    assert abs(es[-1] - target) / target < 0.1


def test_w_is_bounded_by_minus_p(rad20):
    y = np.geomspace(1e-3, rad20.y_boundary * 0.999, 500)
    w = rad20.w(y)
    assert np.all(w <= 0)
    assert np.all(w / rad20.p > -1.0 + 1e-12)


def test_decay_envelope(rad80):
    # w <= (4 - delta) log(1/|y|) + C with delta = 0.5
    y = np.geomspace(10.0, min(rad80.y_boundary, 1e6), 200)
    margin = rad80.w(y) + 3.5 * np.log(y)
    assert np.max(margin) < 10.0


def test_flux_follows_mass_deficit(rad20, rad80):
    # total flux = mass/(2 pi), so alpha = 4(1 - 3/p) + o(1/p)
    assert rad20.alpha < rad80.alpha < 4.0
    assert rad80.alpha == pytest.approx(4.0 * (1 - 3.0 / 80.0), rel=0.01)


def test_mode_counts_and_margins(rad20):
    spec = radial.disk_spectrum(rad20, m_max=3)
    assert spec.morse_index == 1
    near = spec.eigenvalues_near_zero()
    assert near[0][1] == 1  # translation pair is nearest zero
    assert near[0][0] > 0
    assert spec.margin() == pytest.approx(near[0][0])


def test_mode1_eigenvalue_scales_like_8_over_p():
    lams = []
    for p in (20.0, 40.0):
        r = radial.solve_radial(p)
        lam, _, _ = radial.mode1_eigenvalue(r, index=1)
        lams.append(lam)
    assert lams[0] == pytest.approx(2 * lams[1], rel=0.15)


def _negatives(rad, m, n=4000):
    return radial.pencil_eigenvalues(radial.mode_pencil(rad, m, n=n), "v", (-np.inf, 0.0))


def test_mode0_sturm_count(rad20):
    assert _negatives(rad20, 0).size == 1  # the concentrated ground mode only
    assert _negatives(rad20, 2).size == 0


def test_grid_refinement_stability(rad20):
    s1 = radial.disk_spectrum(rad20, m_max=2, n=3000)
    s2 = radial.disk_spectrum(rad20, m_max=2, n=6000)
    assert s1.margin() == pytest.approx(s2.margin(), rel=1e-4)


def test_finite_volume_modes_refine_at_p80(rad80):
    # every m = 0, 2, 3 eigenvalue, the ground mode near -2.4e18 included
    s1 = radial.disk_spectrum(rad80, m_max=3, n=4000)
    s2 = radial.disk_spectrum(rad80, m_max=3, n=8000)
    for m in (0, 2, 3):
        assert len(s1.modes[m][0]) == len(s2.modes[m][0])
        assert s1.modes[m][0] == pytest.approx(s2.modes[m][0], rel=1e-4)


def _staged_rk4(rad, t, lams):
    """The m = 1 RK4 integration written out stage by stage: g along the
    log-radial grid t (with half-steps) and the sign flips of g."""
    r = np.exp(t)
    phi2 = rad.u_prime(r) ** 2
    b = r * r * phi2
    dt = (t[-1] - t[0]) / ((len(t) - 1) // 2)
    g, F = np.ones_like(lams), np.zeros_like(lams)
    flips = np.zeros(lams.shape, dtype=int)
    path = [g]
    for i0 in range(0, len(t) - 1, 2):
        im, i1 = i0 + 1, i0 + 2
        k1g, k1f = F / phi2[i0], -lams * b[i0] * g
        g2, f2 = g + 0.5 * dt * k1g, F + 0.5 * dt * k1f
        k2g, k2f = f2 / phi2[im], -lams * b[im] * g2
        g3, f3 = g + 0.5 * dt * k2g, F + 0.5 * dt * k2f
        k3g, k3f = f3 / phi2[im], -lams * b[im] * g3
        g4, f4 = g + dt * k3g, F + dt * k3f
        k4g, k4f = f4 / phi2[i1], -lams * b[i1] * g4
        g_new = g + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        F = F + (dt / 6.0) * (k1f + 2 * k2f + 2 * k3f + k4f)
        flips += g * g_new < 0
        g = g_new
        path.append(g)
    return np.array(path), flips


@pytest.mark.parametrize("p", [20.0, 80.0])
@pytest.mark.parametrize("block", [7, radial._BLOCK])
def test_blocked_propagator_matches_staged_rk4(monkeypatch, p, block):
    monkeypatch.setattr(radial, "_BLOCK", block)
    rad = radial.solve_radial(p)
    sh = radial._Mode1Shooter(rad, n_steps=600)
    assert sh.n_steps > block and sh.n_steps % block != 0  # boundaries mid-run, a partial last block
    lams = np.geomspace(1e-6, 64.0, 24)
    g1, flips, path = sh.run(lams, keep_path=True)
    ref_path, ref_flips = _staged_rk4(rad, sh.t, lams)
    scale = np.max(np.abs(ref_path), axis=0)
    assert np.all(np.abs(g1 - ref_path[-1]) <= 1e-12 * scale)
    assert np.all(np.abs(path - ref_path) <= 1e-12 * scale)
    assert np.array_equal(flips, ref_flips)
    assert flips.max() >= 2  # the batch reaches past the second eigenvalue


def _one_step_run(sh, lams, keep_path=False):
    """The shooter advanced one RK4 step propagator per iteration: g(1), the
    sign flips of g and, with keep_path, g at every step."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    g = np.ones_like(lams)
    F = np.zeros_like(lams)
    flips = np.zeros(lams.shape, dtype=int)
    path = [g]
    for i in range(sh.n_steps):
        gg, gF, Fg, FF = sh.C0[:, i, None] + lams * (sh.C1[:, i, None] + lams * sh.C2[:, i, None])
        g_new, F = gg * g + gF * F, Fg * g + FF * F
        flips += g * g_new < 0
        g = g_new
        path.append(g)
    return g, flips, np.array(path) if keep_path else None


@pytest.mark.parametrize("p", [20.0, 80.0])
def test_composed_steps_match_the_one_step_shooter(monkeypatch, p):
    # the bracket scans and refinement grids _mode1_pairs shoots: the same
    # sign flips and signs of g(1) as one step per iteration, so the same
    # eigenvalues bit for bit, and the eigenfunctions to rounding
    rad = radial.solve_radial(p)
    grids = []
    run = radial._Mode1Shooter.run

    def recording_run(sh, lams, keep_path=False):
        if not keep_path:
            grids.append(np.array(lams))
        return run(sh, lams, keep_path)

    monkeypatch.setattr(radial._Mode1Shooter, "run", recording_run)
    composed = radial._mode1_pairs(rad, 2)
    assert [g.size for g in grids] == [96] + [2 * 17] * 4
    sh = rad.__dict__["_mode1_shooter"]
    for lams in grids:
        g1, flips, _ = run(sh, lams)
        ref_g1, ref_flips, _ = _one_step_run(sh, lams)
        assert np.array_equal(flips, ref_flips)
        assert np.array_equal(np.sign(g1), np.sign(ref_g1))
    monkeypatch.setattr(radial._Mode1Shooter, "run", _one_step_run)
    reference = radial._mode1_pairs(radial.solve_radial(p), 2)
    for (lam, rgrid, xi), (ref_lam, ref_rgrid, ref_xi) in zip(composed, reference):
        assert lam == ref_lam
        assert np.array_equal(rgrid, ref_rgrid)
        assert np.max(np.abs(xi - ref_xi)) <= 1e-13 * np.max(np.abs(ref_xi))


def test_disk_spectrum_shoots_mode1_once(monkeypatch):
    rad = radial.solve_radial(20.0)
    calls = []
    run = radial._Mode1Shooter.run

    def counting_run(sh, *args, **kwargs):
        calls.append(args)
        return run(sh, *args, **kwargs)

    monkeypatch.setattr(radial._Mode1Shooter, "run", counting_run)
    s1 = radial.disk_spectrum(rad, m_max=1, n=4000)
    # one bracket scan shared by both indices, then 4 refinements and one path
    # run, each carrying both indices
    assert len(calls) == 1 + 4 + 1
    assert len(rad.__dict__["_mode1_shooter"].scans) == 1
    assert [np.size(args[0]) for args in calls[1:]] == [2 * 17] * 4 + [2]
    s2 = radial.disk_spectrum(rad, m_max=1, n=2000)
    assert len(calls) == 6
    assert s2.modes[1][0] == s1.modes[1][0]
    assert all(not xi.flags.writeable for xi in s2.modes[1][1])


def _shoot_alone(rad, index):
    """Index refined alone on a fresh shooter: 4 rounds of a 17-point grid in
    its bracket, then one path run at the midpoint."""
    sh = radial._Mode1Shooter(rad)
    grid, k = sh.bracket(index)
    blo, bhi = (grid[k - 1] if k > 0 else 1e-9), grid[k]
    for _ in range(4):
        grid = np.linspace(blo, bhi, 17)
        g1 = sh.run(grid)[0]
        crossings = np.nonzero(g1[:-1] * g1[1:] < 0)[0]
        if crossings.size == 0:
            break
        blo, bhi = grid[crossings[0]], grid[crossings[0] + 1]
    lam = 0.5 * (blo + bhi)
    path = sh.run(np.array([lam]), keep_path=True)[2]
    return lam, sh.r, -rad.u_prime(sh.r) * path[:, 0]


@pytest.mark.parametrize("p", [20.0, 80.0])
def test_mode1_pairs_shot_together_equal_each_shot_alone(p):
    rad = radial.solve_radial(p)
    together = radial._mode1_pairs(rad, 2)
    for index in (1, 2):
        lam, rgrid, xi = _shoot_alone(rad, index)
        assert together[index - 1][0] == lam
        assert together[index - 1][1].tobytes() == rgrid.tobytes()
        assert together[index - 1][2].tobytes() == xi.tobytes()


def test_disk_spectrum_evaluates_the_profile_once_per_n(monkeypatch):
    rad = radial.solve_radial(20.0)
    calls = []
    w = radial.RadialSolution.w

    def counting_w(self, y):
        calls.append(np.size(y))
        return w(self, y)

    monkeypatch.setattr(radial.RadialSolution, "w", counting_w)
    radial.disk_spectrum(rad, m_max=3, n=3000)
    assert calls == [3000]  # one potential for the m = 0, 2, 3 pencils
    radial.disk_spectrum(rad, m_max=3, n=3000)
    assert calls == [3000]
    for m in (0, 2, 3):
        shared = radial.mode_pencil(rad, m, n=3000)
        alone = radial.mode_pencil(radial.solve_radial(20.0), m, n=3000)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, alone))


@pytest.mark.parametrize("m", [0, 2])
def test_sturm_count_is_exact_inertia(rad20, rad80, m):
    # LAPACK bisection on the scaled tridiagonal against dense eigh(K, M): the
    # lowest eight eigenvalues, the ground mode near -2.4e18 at p = 80 included
    for rad in (rad20, rad80):
        pencil = radial.mode_pencil(rad, m, n=300)
        d, e, mass = pencil
        K = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        lams = scipy.linalg.eigh(K, np.diag(mass), eigvals_only=True)
        low = radial.pencil_eigenvalues(pencil, "i", (0, 7))
        assert np.all(np.abs(low - lams[:8]) <= 1e-10 * np.abs(lams[:8]))
        assert _negatives(rad, m, n=300).size == np.count_nonzero(lams < 0)


def test_mode1_step_refinement():
    # n refines only m = 0, 2, 3; the m = 1 sector refines with the RK4 step
    vals = []
    for n_steps in (3000, 6000):
        rad = radial.solve_radial(20.0)
        rad.__dict__["_mode1_shooter"] = radial._Mode1Shooter(rad, n_steps=n_steps)
        vals.append([radial.mode1_eigenvalue(rad, index=k)[0] for k in (1, 2)])
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


def test_mode1_kernel_data(rad80):
    lam, rg, xi = radial.mode1_eigenvalue(rad80, index=1)
    kd = radial.mode1_kernel_data(rad80, xi, rg)
    assert kd["residual"] < 0.02
    assert abs(kd["B"] + 8 * np.pi * kd["b"]) < 0.05 * abs(8 * np.pi * kd["b"])


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        radial.solve_radial(1.0)
