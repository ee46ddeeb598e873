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


@pytest.mark.parametrize("p", [20.0, 80.0])
def test_profile_is_bit_identical_to_the_dense_output(p):
    # the bulk step-polynomial evaluation against OdeSolution: a geometric
    # grid, every step endpoint and y_far itself
    rad = radial.solve_radial(p)
    ts = rad._dense.sol.ts
    y = np.concatenate([np.geomspace(radial.Y_START, rad.y_far, 8001), ts, [rad.y_far]])
    ref = rad._dense.sol(y)
    assert rad.w(y).tobytes() == ref[0].tobytes()
    assert rad.w_prime(y).tobytes() == ref[1].tobytes()
    far = rad._dense.sol(rad.y_far)[0] - rad.alpha * np.log(2.0)  # the log tail from y_far
    assert rad.w(np.array([2.0 * rad.y_far]))[0] == far
    assert rad.mass(0.5 * rad.y_far) == 2.0 * np.pi * float(rad._dense.sol(0.5 * rad.y_far)[2])


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


def _index_bisection(d, e, first, last):
    """The first..last eigenvalues (0-based) of the tridiagonal (d, e), by
    index-selected bisection from its Gershgorin interval."""
    return scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(first, last),
                                             tol=radial.BISECTION_TOL)


def _scaled(pencil):
    """T = M^(-1/2) K M^(-1/2) of a mode_pencil: (diagonal, off-diagonal)."""
    d, e, mass = pencil
    return d / mass, e / np.sqrt(mass[:-1] * mass[1:])


ULP = np.finfo(float).eps


def _negatives(rad, m, n=4000):
    return radial.pencil_eigenvalues(radial.mode_pencil(rad, m, n=n), m)[0]


def test_mode0_sturm_count(rad20):
    assert _negatives(rad20, 0).size == 1  # the concentrated ground mode only
    assert _negatives(rad20, 2).size == 0


def test_grid_refinement_stability(rad20):
    s1 = radial.disk_spectrum(rad20, m_max=2, n=3000)
    s2 = radial.disk_spectrum(rad20, m_max=2, n=6000)
    assert s1.margin() == pytest.approx(s2.margin(), rel=1e-4)


def test_finite_volume_modes_refine_at_p80(rad80):
    # every eigenvalue of m = 0..3, the ground mode near -2.4e18 included
    s1 = radial.disk_spectrum(rad80, m_max=3, n=4000)
    s2 = radial.disk_spectrum(rad80, m_max=3, n=8000)
    for m in range(4):
        assert len(s1.modes[m][0]) == len(s2.modes[m][0])
        assert s1.modes[m][0] == pytest.approx(s2.modes[m][0], rel=1e-4)


def _staged_rk4(rad, t, lams):
    """The m = 1 sector xi = phi* g shot in t = log r with flux F = sigma g':
    dg/dt = F/phi*^2, dF/dt = -lam r^2 phi*^2 g from g = 1, F = 0, by RK4
    written out stage by stage along the log-radial grid t (with half-steps).
    Returns g at every step and the sign flips of g."""
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


def _shot_mode1_eigenvalues(rad, count, n_steps=3000):
    """The lowest count m = 1 eigenvalues by shooting: brackets from the sign
    flips of g on a scan, then 5 rounds of 16x shrink on the sign change of
    g(1), all indices in one batch."""
    t = np.linspace(math.log(rad.eps0 * radial.R_MIN_FACTOR), 0.0, 2 * n_steps + 1)
    scan = np.geomspace(1e-2, 64.0, 48)
    flips = _staged_rk4(rad, t, scan)[1]
    brackets = [(scan[k - 1], scan[k]) for k in (np.argmax(flips >= i) for i in range(1, count + 1))]
    for _ in range(5):
        grids = [np.linspace(lo, hi, 17) for lo, hi in brackets]
        g1 = _staged_rk4(rad, t, np.concatenate(grids))[0][-1].reshape(count, 17)
        brackets = []
        for grid, g in zip(grids, g1):
            k = np.nonzero(g[:-1] * g[1:] < 0)[0][0]
            brackets.append((grid[k], grid[k + 1]))
    return np.array([0.5 * (lo + hi) for lo, hi in brackets])


@pytest.mark.parametrize("p", [20.0, 80.0])
def test_mode1_pencil_matches_staged_rk4(p):
    # at n = 8000: the second eigenvalue at p = 80 is 3e-5 off at n = 4000
    rad = radial.solve_radial(p)
    pencil = radial.disk_spectrum(rad, m_max=1, n=8000).modes[1][0]
    assert pencil == pytest.approx(_shot_mode1_eigenvalues(rad, 2), rel=2e-5)


def _factorized_mode1_pencil(rad, n):
    """K and M of the factorized m = 1 sector -(sigma g')' = lam sigma g,
    sigma = r phi*^2, assembled as dense matrices on mode_pencil's grid."""
    nodes, edges, kappa, mass = radial._finite_volume_grid(rad, n)
    kappa = kappa * rad.u_prime(edges) ** 2
    K = np.diag(kappa[:-1] + kappa[1:]) - np.diag(kappa[1:-1], 1) - np.diag(kappa[1:-1], -1)
    return K, np.diag(mass * rad.u_prime(nodes[:-1]) ** 2)


@pytest.mark.parametrize("p", [20.0, 80.0])
def test_golub_kahan_values_are_the_factorized_pencil(p):
    rad = radial.solve_radial(p)
    n = 300
    K, M = _factorized_mode1_pencil(rad, n)
    off = radial._mode1_golub_kahan(rad, n)[0]
    C = np.diag(off[::2]) + np.diag(off[1::2], 1)
    C[np.arange(n), np.arange(n)] *= -1.0
    root_m = np.sqrt(np.diag(M))
    T = K / np.outer(root_m, root_m)
    assert np.all(np.abs(C.T @ C - T) <= 1e-12 * np.abs(T).max(axis=1, keepdims=True))
    low = scipy.linalg.eigvalsh_tridiagonal(np.zeros(2 * n), off, select="i", select_range=(n, n + 7),
                                            tol=radial.BISECTION_TOL) ** 2
    svd = np.sort(scipy.linalg.svdvals(C))[:8] ** 2
    assert np.all(np.abs(low - svd) <= 1e-13 * svd)
    if p == 20.0:
        # dense eigh(K, M) agrees where the translation eigenvalue is a mild
        # cancellation; at p = 80 it returns a negative value
        lams = scipy.linalg.eigh(K, M, eigvals_only=True)[:8]
        assert np.all(np.abs(low - lams) <= 1e-8 * lams)


@pytest.mark.parametrize("p", [3.0, 6.0])
def test_factorized_and_plain_mode1_pencils_agree_at_small_p(p):
    # at small p no cancellation spoils the plain form of the m = 1 sector
    rad = radial.solve_radial(p)
    plain = np.concatenate(radial.pencil_eigenvalues(radial.mode_pencil(rad, 1), 1))[:radial.PER_MODE]
    factorized = radial.disk_spectrum(rad, m_max=1).modes[1][0]
    assert factorized == pytest.approx(plain.tolist(), rel=1e-5)


def test_mode1_grid_refinement():
    # n refines the m = 1 sector like every other mode
    for p in (20.0, 80.0):
        rad = radial.solve_radial(p)
        lam4, lam8 = (radial.disk_spectrum(rad, m_max=1, n=n).modes[1][0][0] for n in (4000, 8000))
        assert 0 < abs(lam4 - lam8) <= 1e-5 * lam8


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
        low = _index_bisection(*_scaled(pencil), 0, 7)
        assert np.all(np.abs(low - lams[:8]) <= 1e-10 * np.abs(lams[:8]))
        windows = np.concatenate(radial.pencil_eigenvalues(pencil, m))
        assert np.all(np.abs(windows - low[:windows.size]) <= 4 * ULP * np.abs(low[:windows.size]))
        assert _negatives(rad, m, n=300).size == np.count_nonzero(lams < 0)


@pytest.mark.parametrize("n", [300, 4000])
@pytest.mark.parametrize("p", [6.0, 20.0, 80.0])
def test_windows_agree_with_index_selected_bisection(p, n):
    # the bracketed windows and bisection from the Gershgorin interval give
    # the same eigenvalues to 4 ulp and the same Sturm counts
    rad = radial.solve_radial(p)
    spec = radial.disk_spectrum(rad, m_max=3, n=n)
    morse = 0
    for m in range(4):
        vals = np.array(spec.modes[m][0])
        if m == 1:
            off = radial._mode1_golub_kahan(rad, n)[0]
            ref = _index_bisection(np.zeros(2 * n), off, n, n + radial.PER_MODE - 1) ** 2
            assert np.all(np.abs(vals - ref) <= 4 * ULP * ref)
            continue
        low = _index_bisection(*_scaled(radial.mode_pencil(rad, m, n=n)), 0, 7)
        neg = np.count_nonzero(low <= 0)
        morse += neg * (1 if m == 0 else 2)
        ref = low[: neg + radial.PER_MODE]
        k = np.argmin(np.abs(vals[:, None] - ref[None, :]), axis=1)
        assert np.all(np.abs(vals - ref[k]) <= 4 * ULP * np.abs(ref[k]))
        above = k[vals > 0]  # the lowest positives, in order
        assert above.tolist() == list(range(neg, neg + above.size))
    assert spec.morse_index == morse


@pytest.mark.parametrize("n", [300, 4000])
def test_floor_lies_below_every_eigenvalue(rad20, rad80, n):
    for rad in (rad20, rad80):
        for m in range(4):
            pencil = radial.mode_pencil(rad, m, n=n)
            floor = radial.pencil_floor(pencil)
            below = scipy.linalg.eigvalsh_tridiagonal(*_scaled(pencil), select="v", select_range=(-np.inf, floor),
                                                      tol=radial.BISECTION_TOL)
            assert below.size == 0 and floor < 0
    ground = _negatives(rad80, 0, n=n)[0]  # the concentrated mode, near -2.4e18
    assert radial.pencil_floor(radial.mode_pencil(rad80, 0, n=n)) < ground < -1e18


def test_a_first_bound_below_the_first_positive_still_finds_them(rad20):
    # the doubling windows, not the Bessel bound, guarantee the count
    n = 300
    d, e = _scaled(radial.mode_pencil(rad20, 2, n=n))
    ref = _index_bisection(d, e, 0, radial.PER_MODE - 1)
    low = radial._lowest_above_zero(d, e, radial.PER_MODE, n, 1e-3)
    assert np.all(np.abs(low - ref) <= 4 * ULP * ref)
    off = radial._mode1_golub_kahan(rad20, n)[0]
    sv, vec = radial._lowest_above_zero(np.zeros(2 * n), off, radial.PER_MODE, n, 1e-3, vectors=True)
    ref = _index_bisection(np.zeros(2 * n), off, n, n + radial.PER_MODE - 1)
    assert np.all(np.abs(sv - ref) <= 4 * ULP * ref)
    T = np.diag(off, 1) + np.diag(off, -1)
    assert vec.shape == (2 * n, radial.PER_MODE)
    assert np.all(np.abs(T @ vec - vec * sv) <= 1e-10 * np.abs(off).max())


def test_too_few_positives_returns_what_exists(rad80):
    # three eigenvalues 2 - sqrt 2, 2, 2 + sqrt 2, all above the first window
    low = radial._lowest_above_zero(np.full(3, 2.0), -np.ones(2), 5, 3, 0.1)
    assert low == pytest.approx([2 - math.sqrt(2), 2, 2 + math.sqrt(2)], rel=1e-15)
    # one node per mode: at p = 80 the m = 0 node is negative and no positive is left
    spec = radial.disk_spectrum(rad80, m_max=3, n=1)
    assert [len(spec.modes[m][0]) for m in range(4)] == [1, 1, 1, 1]
    assert spec.modes[0][0][0] < 0 and spec.morse_index == 1
    spec = radial.disk_spectrum(rad80, m_max=3, n=2)
    assert [len(spec.modes[m][0]) for m in range(4)] == [2, 2, 2, 2]


def test_mode1_kernel_data(rad80):
    lam, rg, xi = radial.mode1_eigenvalue(rad80, index=1)
    assert lam == pytest.approx(radial.disk_spectrum(rad80, m_max=1).modes[1][0][0], rel=1e-12)
    assert rg[-1] == 1.0 and xi[-1] == 0.0
    assert xi[0] == pytest.approx(-rad80.u_prime(rg[0]), rel=1e-12)  # g = 1 at the innermost node
    kd = radial.mode1_kernel_data(rad80, xi, rg)
    assert kd["b"] == pytest.approx(-1.4122, rel=1e-4)  # xi > 0 in the core fixes the sign
    assert kd["residual"] < 0.02
    assert abs(kd["B"] + 8 * np.pi * kd["b"]) < 0.05 * abs(8 * np.pi * kd["b"])


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        radial.solve_radial(1.0)
