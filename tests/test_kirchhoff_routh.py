import numpy as np
import pytest

from spikelab import greens, kirchhoff_routh as kr
from spikelab.greens import unit_disk_R
from spikelab.mesh import build_mesh, make_domain

from closed_forms import unit_disk_G, unit_disk_grad_R


def psi_total(mesh, flat):
    """Psi_k at the flattened spike coordinates."""
    return kr.psi_eval(mesh, flat.reshape(-1, 2)).psi_total


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


def test_search_solves_each_stencil_point_once(monkeypatch):
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 32)
    sources = []
    solve = greens.regular_part

    def counted(mesh, x0, *args, **kwargs):
        sources.append(tuple(np.asarray(x0, dtype=float)))
        return solve(mesh, x0, *args, **kwargs)

    monkeypatch.setattr(greens, "regular_part", counted)
    cfg = kr.find_critical_point(m, [(0.3, 0.2)])
    monkeypatch.undo()
    assert len(sources) == len(set(sources))
    # one Newton step's stencil per accepted trial, plus the start's
    assert len(sources) % 9 == 0 and len(sources) >= 18
    f = lambda flat: psi_total(m, flat)
    grad, hess = greens.central_differences(f, cfg.points.reshape(-1), 2 * m.h)
    assert np.array_equal(cfg.grad, grad)
    assert np.array_equal(cfg.hess, hess)


def test_k2_search_solves_each_source_once(monkeypatch):
    m = build_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), 1.0 / 24)
    sources = []
    solve = greens.regular_part

    def counted(mesh, x0, *args, **kwargs):
        sources.append(tuple(np.asarray(x0, dtype=float)))
        return solve(mesh, x0, *args, **kwargs)

    monkeypatch.setattr(greens, "regular_part", counted)
    cfg = kr.find_critical_point(m, [(0.68, 0.0), (-0.68, 0.0)])
    monkeypatch.undo()
    # a k = 2 stencil moves one or two spikes at a time, so its 33 points
    # need only 9 positions of each spike
    assert len(sources) == len(set(sources))
    assert len(sources) % 18 == 0 and len(sources) >= 36
    f = lambda flat: psi_total(m, flat)
    grad, hess = greens.central_differences(f, cfg.points.reshape(-1), 2 * m.h)
    assert np.array_equal(cfg.grad, grad)
    assert np.array_equal(cfg.hess, hess)


def test_symmetric_k2_iterates_stay_symmetric():
    m = build_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), 1.0 / 24)
    t = 0.68
    f = lambda flat: psi_total(m, flat)
    x = np.array([t, 0.0, -t, 0.0])
    delta = 2 * m.h
    for _ in range(3):
        grad, hess = greens.central_differences(f, x, delta)
        x = x + np.linalg.solve(hess, -grad)
        assert x[0] == pytest.approx(-x[2], abs=1e-7)
        assert x[1] == pytest.approx(-x[3], abs=1e-7)


def test_fd_gradient_matches_difference_quotient(disk48):
    pt = np.array([0.25, 0.1])
    f = lambda flat: psi_total(disk48, flat)
    d1, d2 = 2 * disk48.h, 4 * disk48.h
    g1, _ = greens.central_differences(f, pt, d1)
    g2, _ = greens.central_differences(f, pt, d2)
    exact = unit_disk_grad_R(pt)
    # both approximate the closed form at second order in delta
    assert np.linalg.norm(g1 - exact) < np.linalg.norm(g2 - exact) + 5e-5
    assert np.linalg.norm(g2 - exact) < 4 * d2**2


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
    pts = np.array([[0.45, 0.0], [-0.45, 0.0]])
    cfg = kr.psi_eval(disk48, pts)
    f = lambda flat: psi_total(disk48, flat)
    _, hess = greens.central_differences(f, pts.reshape(-1), 2 * disk48.h)
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    hess_p = perm @ hess @ perm.T
    e1 = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    e2 = np.linalg.eigvalsh(0.5 * (hess_p + hess_p.T))
    assert np.allclose(e1, e2, atol=1e-12)
