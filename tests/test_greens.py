import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from spikelab import greens, kirchhoff_routh, lane_emden, linsolve
from spikelab.greens import QueryAtSourceError, SourceNearBoundaryError, unit_disk_R
from spikelab.mesh import build_mesh, make_domain

from closed_forms import unit_disk_G, unit_disk_grad_R, unit_disk_hess_R


@pytest.fixture(scope="module")
def disk64():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 64)


def test_robin_at_center_is_zero(disk64):
    gd = greens.regular_part(disk64, (0.0, 0.0))
    assert abs(gd.R_value) < 1e-10


def test_robin_closed_form(disk64):
    gd = greens.regular_part(disk64, (0.5, 0.0))
    assert gd.R_value == pytest.approx(unit_disk_R(np.array([0.5, 0.0])), abs=3e-5)


def test_regular_part_max_on_boundary_ring(disk64):
    gd = greens.regular_part(disk64, (0.3, 0.2))
    ring = np.any(disk64.nbr < 0, axis=1)
    assert gd.H_field.max() <= gd.H_field[ring].max() + 1e-12


def test_green_eval_closed_form(disk64):
    gd = greens.regular_part(disk64, (0.0, 0.0))
    val, grad = greens.green_eval(gd, (0.5, 0.0))
    assert val == pytest.approx(-np.log(0.5) / (2 * np.pi), abs=1e-9)
    assert grad[0] == pytest.approx(-1.0 / (np.pi), rel=1e-6, abs=1e-6)


def test_log_singularity_structure(disk64):
    gd = greens.regular_part(disk64, (0.0, 0.0))
    for r in (0.05, 0.1, 0.2):
        val, _ = greens.green_eval(gd, (r, 0.0))
        assert abs(val + np.log(r) / (2 * np.pi)) < 0.05


def test_boundary_limit_small(disk64):
    gd = greens.regular_part(disk64, (0.0, 0.0))
    val, _ = greens.green_eval(gd, (0.98, 0.0))
    assert abs(val) < 5e-3


def test_positivity(disk64):
    gd = greens.regular_part(disk64, (0.4, -0.1))
    vals = gd.values(disk64.coords[:: 17])
    mask = np.hypot(*(disk64.coords[::17] - gd.source).T) > 2 * disk64.h
    assert np.min(vals[mask]) > -1e-6


def test_symmetry(disk64):
    x, y = np.array([0.3, 0.1]), np.array([-0.2, -0.4])
    gx = greens.regular_part(disk64, x)
    gy = greens.regular_part(disk64, y)
    gxy = float(gx.values(y[None, :])[0])
    gyx = float(gy.values(x[None, :])[0])
    assert abs(gxy - gyx) < 5 * disk64.h * abs(gxy)


def test_robin_derivatives_center(disk64):
    gd = greens.robin_derivatives(disk64, (0.0, 0.0))
    assert abs(gd.R_value) < 1e-10
    assert np.max(np.abs(gd.R_grad)) < 1e-12
    assert np.allclose(gd.R_hess, np.eye(2) / np.pi, atol=1e-12)


def test_robin_derivatives_off_center(disk64):
    x = np.array([0.3, 0.0])
    gd = greens.robin_derivatives(disk64, x)
    assert gd.R_value == pytest.approx(greens.regular_part(disk64, x).R_value, rel=1e-14)
    assert gd.R_grad == pytest.approx(unit_disk_grad_R(x), abs=2e-6)
    assert gd.R_hess == pytest.approx(unit_disk_hess_R(x), abs=2e-4)


@pytest.mark.parametrize("x", [(0.3, 0.17), (-0.51, 0.22)])
def test_robin_derivatives_match_the_disk_closed_form(disk64, x):
    # the step-2h stencil these fields replace was off by 1.4e-4 and 5.0e-4
    # in grad R and by 3.8e-4 and 1.7e-3 in Hess R at these two sources
    x = np.array(x)
    gd = greens.robin_derivatives(disk64, x)
    assert np.max(np.abs(gd.R_grad - unit_disk_grad_R(x))) < 2e-5
    assert np.max(np.abs(gd.R_hess - unit_disk_hess_R(x))) < 1e-3


def test_robin_gradient_antisymmetry(disk64):
    gp = greens.robin_derivatives(disk64, (0.25, 0.15)).R_grad
    gm = greens.robin_derivatives(disk64, (-0.25, -0.15)).R_grad
    assert np.allclose(gp, -gm, atol=1e-12)


def test_source_derivative_fields_are_the_regular_part_derivative(disk64):
    # the discrete H(x0, .) depends on x0 only through its boundary data, so
    # d/dx0_i of it is the solve with d/dx0_i S as data: a difference
    # quotient of regular parts at displaced sources agrees to its rounding
    x = np.array([0.3, 0.17])
    gd = greens.robin_derivatives(disk64, x)
    assert np.max(np.abs(gd.H_field - greens.regular_part(disk64, x).H_field)) < 1e-14
    delta = 1e-5
    for i, e in enumerate(np.eye(2) * delta):
        quotient = (greens.regular_part(disk64, x + e).H_field
                    - greens.regular_part(disk64, x - e).H_field) / (2 * delta)
        assert np.max(np.abs(quotient - gd.dH_fields[:, i])) < 1e-8


def test_robin_derivatives_make_one_three_column_solve(green_work):
    m = _disk(32)
    gd = greens.robin_derivatives(m, (0.3, 0.17))
    assert green_work == {"lu": 1, "solve": 1}
    assert gd.dH_fields.shape == (m.n_nodes, 2)


def test_robin_derivatives_reject_a_source_near_the_boundary(disk64):
    with pytest.raises(SourceNearBoundaryError):
        greens.robin_derivatives(disk64, (0.97, 0.0))


def test_oracle_convergence_order():
    errs = []
    hs = (1.0 / 32, 1.0 / 64, 1.0 / 128)
    pts = [np.array(p) for p in [(0.0, 0.0), (0.3, 0.2), (-0.45, 0.1), (0.1, -0.55)]]
    for h in hs:
        m = build_mesh(make_domain("disk", r=1.0), h)
        err = max(
            abs(greens.regular_part(m, p).R_value - unit_disk_R(p)) for p in pts
        )
        errs.append(err)
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 1.5


def test_source_near_boundary_rejected(disk64):
    with pytest.raises(SourceNearBoundaryError):
        greens.regular_part(disk64, (0.999, 0.0))
    with pytest.raises(SourceNearBoundaryError):
        greens.regular_part(disk64, (1.5, 0.0))


def test_query_at_source_rejected(disk64):
    gd = greens.regular_part(disk64, (0.2, 0.2))
    with pytest.raises(QueryAtSourceError):
        greens.green_eval(gd, (0.2, 0.2))


def test_closed_form_sanity():
    x = np.array([0.5, 0.0])
    assert unit_disk_R(x) == pytest.approx(-np.log(0.75) / (2 * np.pi))
    assert unit_disk_G(np.zeros(2), x) == pytest.approx(0.110318, abs=1e-6)
    assert unit_disk_grad_R(np.array([0.3, 0.0]))[0] == pytest.approx(0.104937, abs=1e-6)
    assert unit_disk_hess_R(np.zeros(2))[0, 0] == pytest.approx(1 / np.pi)


# ---- the one held Laplacian factor -----------------------------------------


class _Tracked:
    """A SuperLU object cannot be weakly referenced; this stand-in can."""

    def __init__(self, lu):
        self.solve = lu.solve


@pytest.fixture
def tracked(monkeypatch):
    """Route greens' factorizations through weakly referenced stand-ins;
    returns the weak references, one per factorization.  Each test builds
    its own meshes, so its first request always factorizes."""
    refs = []

    def factorize(A):
        lu = _Tracked(linsolve.factorize(A))
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(greens, "factorize", factorize)
    return refs


def _disk(n):
    return build_mesh(make_domain("disk", r=1.0), 1.0 / n)


def test_factorization_is_held_for_its_mesh(tracked):
    m = _disk(24)
    lu = greens.laplacian_factorization(m)
    assert greens.laplacian_factorization(m) is lu
    greens.regular_part(m, (0.3, 0.2))
    assert len(tracked) == 1


def test_a_second_mesh_frees_the_first_factor(tracked):
    m1, m2 = _disk(24), _disk(32)
    greens.laplacian_factorization(m1)
    greens.laplacian_factorization(m2)
    assert tracked[0]() is None and tracked[1]() is not None
    # m1 is alive and keeps its matrix; only the factor went
    assert "_lap_op" in m1.__dict__


def test_a_factor_handed_out_outlives_the_hold(tracked):
    m1, m2 = _disk(24), _disk(32)
    b = np.random.default_rng(3).random(m1.n_nodes)
    lu = greens.laplacian_factorization(m1)
    before = lu.solve(b)
    greens.laplacian_factorization(m2)
    assert tracked[0]() is lu
    assert np.array_equal(lu.solve(b), before)


def test_newton_frees_every_factor(tracked):
    m1, m2 = _disk(24), _disk(32)
    cfg = kirchhoff_routh.psi_eval(m2, [(0.0, 0.0)])  # holds m2's factor
    u0 = lane_emden.ansatz(m2, cfg, 6.0)  # on the regular part psi_eval solved
    assert len(tracked) == 1 and tracked[0]() is not None
    lane_emden.newton_solve(m2, u0, 6.0)
    # its own mesh's factor goes too, so no Jacobian LU sits beside it
    assert tracked[0]() is None
    greens.laplacian_factorization(m1)
    lane_emden.newton_solve(m2, u0, 6.0)
    assert tracked[1]() is None
    # a Green solve that follows on m2 factorizes its Laplacian again
    greens.regular_part(m2, (0.3, 0.2))
    assert len(tracked) == 3 and tracked[2]() is not None


def test_a_dropped_mesh_takes_its_factor_along(tracked):
    m = _disk(24)
    greens.laplacian_factorization(m)
    del m
    gc.collect()
    assert tracked[0]() is None


def test_robin_values_from_a_remade_factor_are_identical():
    m1, m2 = _disk(24), _disk(32)
    pts = [(0.0, 0.0), (0.3, 0.2), (-0.45, 0.1)]
    first = [greens.regular_part(m1, q).R_value for q in pts]
    greens.laplacian_factorization(m2)
    assert [greens.regular_part(m1, q).R_value for q in pts] == first


def test_concurrent_requests_get_their_own_meshs_factor(tracked, monkeypatch):
    # callers in several threads share the one hold; a slow factorization
    # lets every thread in while the first one factorizes
    stand_in = greens.factorize

    def slow(A):
        time.sleep(0.02)
        return stand_in(A)

    monkeypatch.setattr(greens, "factorize", slow)
    m1, m2 = _disk(16), _disk(24)
    rhs = {id(m): greens.laplacian_operator(m) @ np.ones(m.n_nodes) for m in (m1, m2)}
    got, errors = [], []

    def request(meshes):
        try:
            got.extend((m, greens.laplacian_factorization(m)) for m in meshes)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    def run(plans):
        threads = [threading.Thread(target=request, args=(meshes,)) for meshes in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run([[m1] * 3] * 4)
        assert len(tracked) == 1  # one mesh: one factorization
        run([[m1, m2, m1], [m2, m1, m2]] * 2)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(got) == 12 + 12
    for m, lu in got:
        assert np.allclose(lu.solve(rhs[id(m)]), 1.0, rtol=0, atol=1e-9)
