import itertools

import numpy as np
import pytest

from spikelab import greens, kirchhoff_routh as kr
from spikelab.greens import unit_disk_R
from spikelab.mesh import build_mesh, make_domain

from closed_forms import unit_disk_G, unit_disk_grad_R


def psi_total(mesh, flat):
    """Psi_k at the flattened spike coordinates."""
    return kr.psi_eval(mesh, flat.reshape(-1, 2)).psi_total


def central_differences(f, x, delta):
    """Gradient and Hessian of f at x by central differences of step delta,
    the reference the field derivatives are checked against."""
    steps = delta * np.eye(x.size)
    fp = np.array([f(x + e) for e in steps])
    fm = np.array([f(x - e) for e in steps])
    hess = np.diag((fp - 2 * f(x) + fm) / delta**2)
    for i, j in itertools.combinations(range(x.size), 2):
        ei, ej = steps[i], steps[j]
        hess[i, j] = hess[j, i] = (
            f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * delta**2)
    return (fp - fm) / (2 * delta), hess


@pytest.fixture(scope="module")
def disk48():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 48)


def test_psi_single_spike_at_center(disk48):
    cfg = kr.psi_eval(disk48, [(0.0, 0.0)])
    assert abs(cfg.psi_total) < 1e-9


def test_psi_k1_equals_robin(disk48):
    pt = (0.35, -0.1)
    cfg = kr.psi_eval(disk48, [pt])
    assert cfg.psi_total == pytest.approx(greens.regular_part(disk48, pt).R_value)
    assert cfg.psi_parts[0] == cfg.psi_total


def test_psi_k2_closed_form(disk48):
    t = 0.4
    pts = np.array([[t, 0.0], [-t, 0.0]])
    cfg = kr.psi_eval(disk48, pts)
    a, b = pts
    expected = 2 * unit_disk_R(a) - 2 * unit_disk_G(a, b)
    assert cfg.psi_total == pytest.approx(expected, abs=2e-4)


def test_permutation_equivariance(disk48):
    pts = np.array([[0.4, 0.0], [-0.3, 0.2]])
    c1 = kr.psi_eval(disk48, pts)
    c2 = kr.psi_eval(disk48, pts[::-1])
    assert c1.psi_parts[0] == pytest.approx(c2.psi_parts[1], abs=1e-10)
    assert c1.psi_parts[1] == pytest.approx(c2.psi_parts[0], abs=1e-10)
    assert c1.psi_total == pytest.approx(c2.psi_total, abs=1e-10)


def test_coincident_points_rejected(disk48):
    with pytest.raises(kr.CoincidentPointsError):
        kr.psi_eval(disk48, [(0.1, 0.1), (0.1, 0.1 + disk48.h)])


def test_point_near_boundary_rejected(disk48):
    with pytest.raises(kr.PointNearBoundaryError):
        kr.psi_eval(disk48, [(0.99, 0.0)])


def test_find_critical_point_disk(disk48):
    cfg = kr.find_critical_point(disk48, [(0.3, 0.2)])
    assert np.hypot(*cfg.points[0]) < 2 * disk48.h
    assert cfg.classification == "minimum"
    assert cfg.nondeg_margin == pytest.approx(1 / np.pi, rel=0.03)
    assert np.allclose(cfg.hess, cfg.hess.T, atol=1e-3 * np.abs(cfg.hess).max())


def test_find_critical_point_ellipse():
    m = build_mesh(make_domain("ellipse", a=2.0, b=1.0), 1.0 / 24)
    cfg = kr.find_critical_point(m, [(0.5, 0.2)])
    assert np.hypot(*cfg.points[0]) < 2 * m.h
    assert cfg.nondeg_margin > 0


def test_search_makes_one_lu_and_at_most_four_solves(green_work):
    # C3's search: the step-2h stencil it replaces made 36 solves here
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 128)
    cfg = kr.find_critical_point(m, [(0.3, 0.2)])
    assert green_work["lu"] == 1 and green_work["solve"] <= 4
    again = kr.psi_derivatives(m, cfg.points)
    assert np.array_equal(cfg.grad, again.grad) and np.array_equal(cfg.hess, again.hess)
    assert np.hypot(*cfg.points[0]) < 1e-8
    assert np.max(np.abs(cfg.eigenvalues * np.pi - 1.0)) < 1e-10


def test_psi_eval_makes_one_solve_per_point(disk48, green_work):
    kr.psi_eval(disk48, [(0.0, 0.0)])
    assert green_work == {"lu": 1, "solve": 1}
    kr.psi_eval(disk48, [(0.4, 0.0), (-0.3, 0.2)])
    assert green_work == {"lu": 1, "solve": 3}


def test_k2_search_solves_each_source_once(monkeypatch, green_work):
    m = build_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), 1.0 / 24)
    sources = []
    solve = greens.robin_derivatives

    def counted(mesh, x0):
        sources.append(tuple(np.asarray(x0, dtype=float)))
        return solve(mesh, x0)

    monkeypatch.setattr(greens, "robin_derivatives", counted)
    cfg = kr.find_critical_point(m, [(0.68, 0.0), (-0.68, 0.0)])
    # one three-column solve per spike and point, no source twice
    assert len(sources) == len(set(sources)) == green_work["solve"]
    assert len(sources) % 2 == 0 and len(sources) >= 4
    again = kr.psi_derivatives(m, cfg.points)
    assert np.array_equal(cfg.grad, again.grad) and np.array_equal(cfg.hess, again.hess)


def test_symmetric_k2_iterates_stay_symmetric(monkeypatch):
    m = build_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), 1.0 / 24)
    seen = []
    derivatives = kr.psi_derivatives

    def recorded(mesh, points):
        seen.append(np.reshape(points, (-1, 2)))
        return derivatives(mesh, points)

    monkeypatch.setattr(kr, "psi_derivatives", recorded)
    kr.find_critical_point(m, [(0.68, 0.0), (-0.68, 0.0)])
    assert len(seen) >= 2
    for pts in seen:
        assert pts[0] == pytest.approx(-pts[1], abs=1e-7)


def test_fd_gradient_matches_difference_quotient(disk48):
    # the field gradient is the limit of the difference quotients of Psi,
    # which approach it at second order in their step
    pt = np.array([0.25, 0.1])
    grad = kr.psi_derivatives(disk48, [pt]).grad
    f = lambda flat: psi_total(disk48, flat)
    errs = [np.linalg.norm(central_differences(f, pt, d * disk48.h)[0] - grad) for d in (4, 2, 1)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 < coarse / fine < 4.5
    assert np.linalg.norm(grad - unit_disk_grad_R(pt)) < 5e-6


def test_k2_derivatives_match_the_disk_closed_form():
    # Psi_2 = R(a) + R(b) - 2 G(a, b) in closed form; its derivatives by
    # central differences of step 1e-4 are exact to about 1e-8
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 64)
    pts = np.array([[0.3, 0.1], [-0.2, 0.15]])
    cfg = kr.psi_derivatives(m, pts)
    psi = lambda v: unit_disk_R(v[:2]) + unit_disk_R(v[2:]) - 2 * unit_disk_G(v[:2], v[2:])
    grad, hess = central_differences(psi, pts.reshape(-1), 1e-4)
    assert cfg.psi_total == pytest.approx(psi(pts.reshape(-1)), abs=1e-6)
    assert np.max(np.abs(cfg.grad - grad)) < 5e-6
    assert np.max(np.abs(cfg.hess - hess)) < 1e-3
    # the mixed block holds the G(a, b) terms alone
    assert np.max(np.abs(cfg.hess[:2, 2:] - hess[:2, 2:])) < 2e-5


def test_k2_search_hessian_matches_a_psi_stencil():
    # the dumbbell's two-spike point, against a step-2h stencil of psi_eval
    # values (its own truncation error is about 5e-3 here)
    m = build_mesh(make_domain("dumbbell"), 1.0 / 32)
    cfg = kr.find_critical_point(m, [(1.0, 0.0), (-1.0, 0.0)])
    grad, hess = central_differences(lambda flat: psi_total(m, flat),
                                     cfg.points.reshape(-1), 2 * m.h)
    assert np.max(np.abs(grad)) < 1e-3
    assert np.max(np.abs(cfg.hess - hess)) < 1e-2
    assert cfg.eigenvalues == pytest.approx(np.linalg.eigvalsh(hess), rel=1e-2)


def test_nondegeneracy_margin_invariances(disk48):
    cfg = kr.find_critical_point(disk48, [(0.25, 0.15)])
    margin, eigs, cls = cfg.nondeg_margin, cfg.eigenvalues, cfg.classification
    # reflection conjugation leaves the spectrum unchanged
    refl = np.diag([-1.0, 1.0])
    hess_r = refl @ cfg.hess @ refl
    eigs_r = np.linalg.eigvalsh(0.5 * (hess_r + hess_r.T))
    assert np.allclose(np.sort(eigs), np.sort(eigs_r), atol=1e-12)
    assert margin == pytest.approx(np.min(np.abs(eigs)))
    assert cls == "minimum"


def test_relabeling_leaves_margin(disk48):
    pts = np.array([[0.45, 0.0], [-0.3, 0.2]])
    hess = kr.psi_derivatives(disk48, pts).hess
    hess_swapped = kr.psi_derivatives(disk48, pts[::-1]).hess
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    assert np.allclose(perm @ hess @ perm.T, hess_swapped, atol=1e-12)
    e1 = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    e2 = np.linalg.eigvalsh(0.5 * (hess_swapped + hess_swapped.T))
    assert np.allclose(e1, e2, atol=1e-12)
