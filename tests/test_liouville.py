import numpy as np
import pytest

from spikelab import liouville as lv

from closed_forms import Z0_prime, Z0_second


@pytest.fixture(scope="module")
def profile():
    return lv.solve_w0()


def _per_step_w0():
    """w0 and w0' by RK4 with the coefficients evaluated at each stage, on
    solve_w0's grid and series seed."""
    r = 1e-3
    y = np.array([r**6 / 1152.0 - 29.0 * r**8 / 147456.0,
                  6.0 * r**5 / 1152.0 - 29.0 * 8.0 * r**7 / 147456.0])

    def rhs(r, y):
        return np.array([y[1], lv._forcing(r) - lv.eU(r) * y[0] - y[1] / r])

    out = [y]
    while r < lv.W0_R_MAX:
        dr = min(lv.W0_BASE_STEP + lv.W0_STEP_GROWTH * r, lv.W0_R_MAX - r)
        k1 = rhs(r, y)
        k2 = rhs(r + 0.5 * dr, y + 0.5 * dr * k1)
        k3 = rhs(r + 0.5 * dr, y + 0.5 * dr * k2)
        k4 = rhs(r + dr, y + dr * k3)
        y = y + (dr / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        r += dr
        out.append(y)
    return np.array(out).T


def test_tabulated_coefficients_match_per_step_rk4(profile):
    ref_w, ref_wp = _per_step_w0()
    assert profile.r.size == ref_w.size
    assert np.all(np.abs(profile.w0_values - ref_w) <= 1e-14 * np.abs(ref_w))
    assert np.all(np.abs(profile.w0_prime_values - ref_wp) <= 1e-14 * np.abs(ref_wp))


def test_small_r_series(profile):
    assert profile.w0(0.1) == pytest.approx(0.1**6 / 1152.0, rel=5e-3)
    assert abs(profile.w0(profile.r[0])) < 1e-18 + profile.r[0] ** 6


def test_flux_constant(profile):
    assert profile.flux() == pytest.approx(12.0, rel=0.01)
    assert profile.boundary_flux_integral() == pytest.approx(24 * np.pi, rel=0.01)


def test_growth_bound(profile):
    # |w0| <= C (1+r)^0.9 with a single global constant
    ratio = np.abs(profile.w0_values) / (1 + profile.r) ** 0.9
    assert np.max(ratio) < 2.0


def test_ode_residual(profile):
    r = np.linspace(1.0, lv.W0_R_MAX / 2, 4000)
    resid = profile._w0p(r, 1) + profile.w0_prime(r) / r + lv.eU(r) * profile.w0(r) - lv._forcing(r)
    assert np.max(np.abs(resid)) < 1e-6


def test_rescaled_equation(profile):
    # wt(y) := w0(sqrt(8) y) solves wt'' + wt'/y + 8 e^{U(sqrt8 y)} wt = f
    # with f = 16 log^2(1+y^2)/(1+y^2)^2
    y = np.linspace(0.5, 40.0, 500)
    s = np.sqrt(8.0) * y
    wt = profile.w0(s)
    wtp = np.sqrt(8.0) * profile.w0_prime(s)
    wtpp = 8.0 * profile._w0p(s, 1)
    lhs = wtpp + wtp / y + 8.0 * lv.eU(s) * wt
    assert np.max(np.abs(lhs - lv.w0_forcing_rescaled(y))) < 8e-6


def test_universal_constants(profile):
    rec = lv.universal_constants(1e-12, profile=profile)
    assert rec["mass"]["measured"] == pytest.approx(8 * np.pi, rel=1e-10)
    assert rec["log_moment"]["measured"] == pytest.approx(12 * np.pi * np.log(2), rel=1e-10)
    assert rec["flux_integral"]["measured"] == pytest.approx(12.0, rel=1e-10)
    assert rec["w0_flux"]["rel_err"] < 0.01
    assert rec["w0_boundary_integral"]["rel_err"] < 0.01


def test_flux_vs_coefficient_consistency(profile):
    # the circle flux equals 2 pi times the rescaled forcing coefficient
    coeff = lv.universal_constants(profile=profile)["flux_integral"]["measured"]
    F = profile.boundary_flux_integral()
    assert F == pytest.approx(2 * np.pi * coeff, rel=5e-3)


def test_radial_flux_coefficient_paper_forcing(profile):
    # I3 at the default quadrature tolerance, the one `spikelab liouville` uses
    rec = lv.universal_constants(profile=profile)
    assert rec["flux_integral"]["measured"] == pytest.approx(12.0, rel=1e-9)


def test_kernel_identities_analytic():
    r = np.linspace(0.05, 50.0, 400)
    resid0 = Z0_second(r) + Z0_prime(r) / r + lv.eU(r) * lv.Z0(r)
    assert np.max(np.abs(resid0)) < 1e-8
    # translation component: g(r) = 1/(8+r^2), Laplacian of g(r) x_i is
    # (g'' + 3 g'/r) x_i
    g = lambda rr: 1.0 / (8.0 + rr * rr)
    gp = lambda rr: -2.0 * rr / (8.0 + rr * rr) ** 2
    gpp = lambda rr: (-2.0 * (8.0 + rr * rr) + 8.0 * rr * rr) / (8.0 + rr * rr) ** 3
    resid1 = gpp(r) + 3 * gp(r) / r + lv.eU(r) * g(r)
    assert np.max(np.abs(resid1)) < 1e-8


def test_normalization_quadrature():
    from scipy.integrate import quad

    val, _ = quad(lambda r: 2 * np.pi * r * lv.eU(r), 0, np.inf)
    assert val == pytest.approx(8 * np.pi, rel=1e-12)
    assert lv.U(0.0) == 0.0

