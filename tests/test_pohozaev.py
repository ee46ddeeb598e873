import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikelab import greens, kirchhoff_routh as kr, lane_emden as le, pohozaev as pz
from spikelab.mesh import GridMesh, build_mesh, make_domain

from closed_forms import unit_disk_grad_G, unit_disk_grad_R

INV_2PI = 1.0 / (2 * np.pi)


class SourceDerivativeField:
    """Central difference of G(x0, .) in the source: approximates the field
    y -> dG/dx0_h (x0, y)."""

    def __init__(self, mesh, x0, h_index, delta):
        e = np.zeros(2)
        e[h_index] = delta
        self._plus = greens.regular_part(mesh, np.asarray(x0) + e)
        self._minus = greens.regular_part(mesh, np.asarray(x0) - e)
        self.delta = delta

    def values(self, pts):
        return (self._plus.values(pts) - self._minus.values(pts)) / (2 * self.delta)

    def gradients(self, pts):
        return (self._plus.gradients(pts) - self._minus.gradients(pts)) / (
            2 * self.delta
        )


@pytest.fixture(scope="module")
def disk96():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 96)


@pytest.fixture(scope="module")
def green_center(disk96):
    return greens.regular_part(disk96, (0.0, 0.0))


@pytest.fixture(scope="module")
def solved_p8(disk96):
    cfg = kr.psi_eval(disk96, [(0.0, 0.0)])
    u, info = le.newton_solve(disk96, le.ansatz(disk96, cfg, 8.0), 8.0)
    return le.make_entry(disk96, u, 8.0, 1, 0.25, info["residual"])


def test_p_form_green_diagonal(disk96, green_center):
    h = disk96.h
    vals = [pz.circle_forms(green_center, green_center, (0, 0), t, mesh=disk96)[0]
            for t in (8 * h, 16 * h)]
    for v in vals:
        assert v == pytest.approx(-INV_2PI, abs=1e-3)
    assert abs(vals[0] - vals[1]) < 1e-3


def test_p_form_affine_cancellation(disk96):
    f = pz.NodeField(disk96, 0.7 * disk96.coords[:, 0] - 0.2 * disk96.coords[:, 1] + 0.3, fill=None)
    assert abs(pz.circle_forms(f, f, (0.1, 0.0), 0.2, mesh=disk96)[0]) < 1e-10


def test_p_form_green_source_derivative(disk96):
    # closed-form quadrature fixes the value at -(1/2) dR/dh for the
    # source-perturbation derivative field (the paper's Appendix derivation
    # differentiates the singular part in the other slot, flipping the sign
    # it prints); the magnitude |dR/dh|/2 is common to both conventions
    x0 = np.array([0.3, 0.0])
    G = greens.regular_part(disk96, x0)
    dG = SourceDerivativeField(disk96, x0, 0, 2 * disk96.h)
    val = pz.circle_forms(G, dG, x0, 8 * disk96.h, mesh=disk96)[0]
    target = -0.5 * unit_disk_grad_R(x0)[0]
    assert val == pytest.approx(target, rel=2e-3)


def test_q_form_green_diagonal_center(disk96, green_center):
    q = pz.circle_forms(green_center, green_center, (0, 0), 8 * disk96.h, mesh=disk96)[1]
    assert np.all(np.abs(q) < 1e-8)


def test_q_form_green_diagonal_off_center(disk96):
    x0 = np.array([0.3, 0.0])
    G = greens.regular_part(disk96, x0)
    got = pz.circle_forms(G, G, x0, 8 * disk96.h, mesh=disk96)[1][0]
    assert got == pytest.approx(-unit_disk_grad_R(x0)[0], rel=3e-3)


def test_q_form_green_source_derivative(disk96):
    # verified closed-form value: -(1/2) d2R/dx_i dx_h (-(1/2pi) delta at 0)
    x0 = np.array([0.0, 0.0])
    G = greens.regular_part(disk96, x0)
    dG = SourceDerivativeField(disk96, x0, 0, 2 * disk96.h)
    q11, q21 = pz.circle_forms(G, dG, x0, 8 * disk96.h, mesh=disk96)[1]
    assert q11 == pytest.approx(-0.5 / np.pi, rel=3e-3)  # -(1/2) * (1/pi)
    assert abs(q21) < 1e-6


def test_q_form_two_sources(disk96):
    x0 = np.array([0.3, 0.0])
    x1 = np.array([-0.4, 0.1])
    Gj = greens.regular_part(disk96, x0)
    Gm = greens.regular_part(disk96, x1)
    dg = unit_disk_grad_G(x1, x0)
    got = pz.circle_forms(Gm, Gj, x0, 8 * disk96.h, mesh=disk96)[1]
    for i in (0, 1):
        assert got[i] == pytest.approx(dg[i], abs=3e-4)


def test_zero_cases_vanish_with_theta(disk96):
    # probe centered away from both sources: values tend to zero with theta
    x1 = np.array([-0.4, 0.1])
    c = np.array([0.35, -0.2])
    Gm = greens.regular_part(disk96, x1)
    h = disk96.h
    vals = [abs(pz.circle_forms(Gm, Gm, c, t, mesh=disk96)[0]) for t in (16 * h, 8 * h, 4 * h)]
    assert vals[2] < vals[0] + 1e-6
    assert vals[2] < 2e-3


def _spreads(u, v, center, thetas, mesh):
    """max - min of P, Q_1 and Q_2 over the circles of radius theta."""
    forms = np.array([[P, *Q] for P, Q in (pz.circle_forms(u, v, center, t, mesh=mesh)
                                           for t in thetas)])
    return np.ptp(forms, axis=0)


def test_theta_independence_harmonic_pair(disk96):
    re_z2 = pz.NodeField(disk96, disk96.coords[:, 0] ** 2 - disk96.coords[:, 1] ** 2, fill=None)
    im_z2 = pz.NodeField(disk96, 2 * disk96.coords[:, 0] * disk96.coords[:, 1], fill=None)
    p_spread, q1_spread, _ = _spreads(re_z2, im_z2, (0.1, 0.05), [0.1, 0.2, 0.3], disk96)
    assert p_spread < 1e-10
    assert q1_spread < 1e-10


def test_theta_independence_green_pair(disk96, green_center):
    h = disk96.h
    p_spread = _spreads(green_center, green_center, (0.0, 0.0), [8 * h, 12 * h, 16 * h], disk96)[0]
    assert p_spread <= 1e-3


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_bilinearity(a, b):
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 24)
    c = (0.05, 0.0)
    f1 = pz.NodeField(m, m.coords[:, 0] ** 2 - m.coords[:, 1] ** 2, fill=None)
    f2 = pz.NodeField(m, m.coords[:, 0] * m.coords[:, 1], fill=None)
    combo = pz.NodeField(m, a * f1.node_values + b * f2.node_values, fill=None)
    tol = 1e-9 * (1 + abs(a) + abs(b))
    p_c, q_c = pz.circle_forms(combo, f1, c, 0.2)
    p_1, q_1 = pz.circle_forms(f1, f1, c, 0.2)
    p_2, q_2 = pz.circle_forms(f2, f1, c, 0.2)
    assert p_c == pytest.approx(a * p_1 + b * p_2, abs=tol)
    assert q_c == pytest.approx(a * q_1 + b * q_2, abs=tol)
    q_c2 = pz.circle_forms(f1, combo, c, 0.2)[1]  # linear in the second slot too
    assert q_c2 == pytest.approx(a * q_1 + b * pz.circle_forms(f1, f2, c, 0.2)[1], abs=tol)


def test_symmetry_in_arguments(disk96, green_center):
    f = pz.NodeField(disk96, disk96.coords[:, 0] ** 2 - disk96.coords[:, 1] ** 2, fill=None)
    c, t = (0.0, 0.0), 0.25
    p_fg, q_fg = pz.circle_forms(f, green_center, c, t)
    p_gf, q_gf = pz.circle_forms(green_center, f, c, t)
    assert p_fg == pytest.approx(p_gf, rel=1e-12)
    assert q_fg == pytest.approx(q_gf, rel=1e-12)


def test_quadrature_convergence_in_angles(monkeypatch, green_center):
    v2 = pz.circle_forms(green_center, green_center, (0, 0), 0.1)[0]
    monkeypatch.setattr(pz, "N_THETA", pz.N_THETA // 2)
    v1 = pz.circle_forms(green_center, green_center, (0, 0), 0.1)[0]
    assert abs(v1 - v2) < 1e-10


def test_circle_hits_boundary(disk96, green_center):
    with pytest.raises(pz.CircleHitsBoundaryError):
        pz.circle_forms(green_center, green_center, (0.9, 0.0), 0.3, mesh=disk96)


def test_pohozaev_residuals_decrease_with_h(solved_p8):
    reports = {}
    for h in (1.0 / 48, 1.0 / 96):
        m = build_mesh(make_domain("disk", r=1.0), h)
        cfg = kr.psi_eval(m, [(0.0, 0.0)])
        u, info = le.newton_solve(m, le.ansatz(m, cfg, 8.0), 8.0)
        e = le.make_entry(m, u, 8.0, 1, 0.25, info["residual"])
        rep = pz.pohozaev_residuals(m, e.u, 8.0, e.spikes[0].position, 0.125)
        reports[h] = max(abs(rep.p_residual), float(np.max(np.abs(rep.q_residuals))))
    assert reports[1.0 / 96] < reports[1.0 / 48]


def test_pohozaev_rhs_is_order_one_over_p(disk96, solved_p8):
    x = solved_p8.spikes[0].position
    rep = pz.pohozaev_residuals(disk96, solved_p8.u, 8.0, x, 0.125)
    f = pz.NodeField(disk96, solved_p8.u)
    p_rhs = pz.circle_forms(f, f, x, 0.125, mesh=disk96)[0] - rep.p_residual
    # both sides of the dilation identity carry the 1/(p+1) factor; the
    # numerator is the O(1) spike mass integral (~ 4 * 8 pi e / p)
    assert abs(p_rhs) + np.max(np.abs(rep.q_residuals)) < 30.0 / (8.0 + 1.0)


def test_one_gradient_interpolation_per_field(monkeypatch, disk96, solved_p8):
    calls = []
    interp_gradient = GridMesh.interp_gradient

    def counted(self, *args, **kw):
        calls.append(1)
        return interp_gradient(self, *args, **kw)

    monkeypatch.setattr(GridMesh, "interp_gradient", counted)
    x = solved_p8.spikes[0].position
    pz.pohozaev_residuals(disk96, solved_p8.u, 8.0, x, 0.125)
    assert len(calls) == 1
    calls.clear()
    xi = pz.NodeField(disk96, solved_p8.u * disk96.coords[:, 0])
    pz.circle_forms(xi, pz.NodeField(disk96, solved_p8.u), x, 0.125, mesh=disk96)
    assert len(calls) == 2


def test_gradient_balance_disk_symmetric(disk96, solved_p8):
    gb = pz.gradient_balance(solved_p8)
    assert len(gb.residuals) == 1
    assert np.hypot(*gb.residuals[0]) < 5e-4


def test_gradient_balance_makes_one_solve_per_spike(green_work):
    # spikes placed by hand on the h = 1/64 disk: the balance is C_j grad R(x_j)
    # - 2 sum_m C_m grad_y G(x_m, x_j), grad R read from the regular part
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 64)
    pts = np.array([[0.3, 0.17], [-0.2, -0.25]])
    C = [1.5, 0.5]
    spikes = [le.SpikeData(x, 1.0, 1e-3, c) for x, c in zip(pts, C)]
    gb = pz.gradient_balance(le.BranchEntry(8.0, np.zeros(m.n_nodes), spikes, 0.0, 0.0, 0.1, m))
    assert green_work == {"lu": 1, "solve": 2}
    for j, k in ((0, 1), (1, 0)):
        exact = C[j] * unit_disk_grad_R(pts[j]) - 2 * C[k] * unit_disk_grad_G(pts[k], pts[j])
        assert np.max(np.abs(gb.residuals[j] - exact)) < 1e-5
