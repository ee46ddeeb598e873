import math
import warnings
import weakref

import numpy as np
import pytest

from spikelab import greens, harness, kirchhoff_routh as kr, lane_emden as le, liouville, radial
from spikelab.linsolve import factorize
from spikelab.mesh import build_graded_mesh, build_mesh, make_domain


def _under_resolved(p: int):
    """The warning of a solve at p whose spike is narrower than the grid's cell."""
    return pytest.warns(le.UnderResolvedSpikeWarning, match=f"at p = {p} ")


def node_at(mesh, x, y) -> int:
    """Index of the mesh node nearest (x, y)."""
    return int(np.argmin(np.hypot(mesh.coords[:, 0] - x, mesh.coords[:, 1] - y)))


@pytest.fixture(scope="module")
def disk64():
    return build_mesh(make_domain("disk", r=1.0), 1.0 / 64)


@pytest.fixture(scope="module")
def kr_disk(disk64):
    return kr.psi_eval(disk64, [(0.0, 0.0)])


@pytest.fixture(scope="module")
def graded20():
    # the C9 ladder's first level: h = 1/64, lines graded toward the centre
    # down to about 16 h eps(20), so the p = 20 spike is resolved
    m = build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 64, (0.0, 0.0),
                          radial.solve_radial(20.0).eps0)
    return m, kr.psi_eval(m, [(0.0, 0.0)])


@pytest.fixture(scope="module")
def ellipse64():
    # the acceptance ellipse (a = 2, b = 1), whose Kirchhoff-Routh point is
    # its centre by symmetry (the search from (0.25, 0.12) ends within 1e-9
    # of it); psi there is -0.0306
    m = build_mesh(make_domain("ellipse", a=2.0, b=1.0), 1.0 / 64)
    return m, kr.psi_eval(m, [(0.0, 0.0)])


@pytest.fixture(scope="module")
def solved_p10(disk64, kr_disk):
    u, info = le.newton_solve(disk64, le.ansatz(disk64, kr_disk, 10.0), 10.0)
    return u, info


def test_ansatz_peak_and_far_field(disk64, kr_disk):
    p = 12.0
    u0 = le.ansatz(disk64, kr_disk, p)
    assert np.all(u0 >= 0.0)
    k = node_at(disk64, 0.0, 0.0)
    # eps(12) is narrower than the h = 1/64 cell, so the height stays the
    # asymptotic formula's
    assert u0[k] == le.predicted_umax(p, 0.0)
    # far from the spike the ansatz follows (p C_p / p) G(0, .) with the
    # finite-p mass, which tends to the limit coefficient 8 pi sqrt(e)/p
    gd = greens.regular_part(disk64, (0.0, 0.0))
    rad = radial.solve_radial(p)
    pt = np.array([0.62, 0.11])
    gval = float(gd.values(pt[None, :])[0])
    far = le.predicted_umax(p, 0.0) * rad.mass() / p * gval
    assert float(disk64.interp(u0, pt[None, :])[0]) == pytest.approx(far, rel=1e-4)
    limit = 8 * np.pi * math.sqrt(math.e) / p * gval
    assert far == pytest.approx(limit, rel=0.35)


@pytest.mark.parametrize("case, p, psi, psi_tol", [("graded20", 20.0, 0.0, 0.0),
                                                   ("ellipse64", 10.0, -0.0306, 1e-4)])
def test_ansatz_anchors_a_resolved_peak_on_the_oracle(case, p, psi, psi_tol, request):
    # where the cell at the spike is no wider than eps, the peak is the
    # oracle's u0(p) plus the first-order Kirchhoff-Routh term (on the disk
    # psi is 0, so the peak is u0(p) itself)
    m, cfg = request.getfixturevalue(case)
    assert cfg.psi_parts[0] == pytest.approx(psi, abs=psi_tol)
    k = node_at(m, 0.0, 0.0)
    assert np.array_equal(m.coords[k], [0.0, 0.0])
    u0 = le.ansatz(m, cfg, p)
    u_max = radial.solve_radial(p).u0 + le.SQRT_E * 4.0 * math.pi * float(cfg.psi_parts[0]) / p
    assert u0[k] == u_max
    assert math.exp(le.log_eps(p, u_max)) >= m.cell_size(0.0, 0.0)


@pytest.mark.parametrize("case, p", [("graded20", 20.0), ("ellipse64", 10.0)])
def test_resolved_ansatz_solve_takes_two_factorizations(case, p, request, monkeypatch):
    # from the asymptotic formula's height (1.3% high at p = 20, and u^p
    # makes that 30%) these solves took 9 and 13 factorizations
    m, cfg = request.getfixturevalue(case)
    u0 = le.ansatz(m, cfg, p)
    calls = _patch_factorize(monkeypatch)
    _, info = le.newton_solve(m, u0, p)
    assert len(calls) == info["factorizations"] <= 2
    assert info["residual"] <= 1e-10


def test_newton_converges_quadratically(disk64, solved_p10):
    # true Newton steps, a fresh Jacobian LU each, from a 1% peak-shaped
    # perturbation of the p = 10 solution: the error squares at every step
    # (newton_solve itself takes chord steps once it is close)
    u_star, _ = solved_p10
    p = 10.0
    problem = le.LaneEmdenProblem(disk64)
    u = u_star * (1.0 + 1e-2 * u_star)
    errors = []
    for _ in range(4):
        errors.append(float(np.max(np.abs(u - u_star))))
        u = u + factorize(problem.jacobian(u, p)).solve(-problem.residual(u, p)[0])
    assert errors[-1] <= 1e-7
    for e0, e1 in zip(errors, errors[1:]):
        assert e1 <= 20.0 * e0**2


def _patch_factorize(monkeypatch, wrap=lambda lu: lu) -> list[int]:
    """Route lane_emden's factorizations through a recorder; returns the list
    of factored matrix sizes, and wrap sees each factor on its way out."""
    calls = []

    def counted(A, *args, **kwargs):
        calls.append(A.shape[0])
        return wrap(factorize(A, *args, **kwargs))

    monkeypatch.setattr(le, "factorize", counted)
    return calls


def test_newton_reuses_its_factor(disk64, kr_disk, solved_p10, monkeypatch):
    u0 = le.ansatz(disk64, kr_disk, 10.0)
    calls = _patch_factorize(monkeypatch)
    u, info = le.newton_solve(disk64, u0, 10.0)
    assert np.array_equal(u, solved_p10[0])
    assert len(calls) == info["factorizations"] < info["iterations"]


def test_graded_ladder_level_takes_one_factorization(monkeypatch):
    # the C9 ladder at p = 20: the h = 1/32 solution interpolated to h = 1/64
    # lies close enough that the first factor serves the whole solve
    p = 20.0
    eps = radial.solve_radial(p).eps0
    disk = make_domain("disk", r=1.0)
    coarse = build_graded_mesh(disk, 1.0 / 32, (0.0, 0.0), eps)
    uc, _ = le.newton_solve(coarse, le.ansatz(coarse, kr.psi_eval(coarse, [(0.0, 0.0)]), p), p)
    fine = build_graded_mesh(disk, 1.0 / 64, (0.0, 0.0), eps)
    guess = coarse.interp(uc, fine.coords, fill=0.0)
    calls = _patch_factorize(monkeypatch)
    _, info = le.newton_solve(fine, guess, p)
    # a fresh factor every iteration made 4 here
    assert len(calls) == info["factorizations"] == 1
    assert info["residual"] <= 1e-10


def test_newton_frees_its_factor_when_it_fails(disk64, kr_disk, monkeypatch):
    alive = []

    class Tracked:
        """A SuperLU object cannot be weakly referenced; this stand-in can."""

        def __init__(self, lu):
            self.solve = lu.solve

    def tracked(lu):
        lu = Tracked(lu)
        alive.append(weakref.ref(lu))
        return lu

    u0 = le.ansatz(disk64, kr_disk, 14.0)
    _patch_factorize(monkeypatch, tracked)
    # on the uniform h = 1/64 grid p = 14 lies beyond a fold of the discrete
    # branch, so the ansatz solve fails (continue_in_p then grades the mesh)
    with pytest.raises(le.NewtonDivergedError) as caught:
        le.newton_solve(disk64, u0, 14.0)
    # the kept exception's traceback holds newton_solve's frame
    assert caught.value.__traceback__ is not None
    assert alive and all(ref() is None for ref in alive)


def test_newton_positive_interior(solved_p10):
    u, info = solved_p10
    assert info["min_value"] > 0.0
    assert float(np.max(u)) > 1.5


def test_umax_matches_oracle_at_p10(disk64, solved_p10):
    u, _ = solved_p10
    spikes = le.extract_spikes(disk64, u, 10.0, 1, 0.25)
    orc = radial.solve_radial(10.0)
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
    A = greens.laplacian_operator(disk64)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(disk64.n_nodes)
    v /= np.linalg.norm(v)
    eps = 1e-6 * float(np.linalg.norm(u))
    F = lambda w: A @ w - np.maximum(w, 0.0) ** p
    fd = (F(u + eps * v) - F(u)) / eps
    Jv = A @ v - (p * np.maximum(u, 0.0) ** (p - 1.0)) * v
    assert np.linalg.norm(fd - Jv) / np.linalg.norm(Jv) <= 1e-5


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
    orc = radial.solve_radial(10.0)
    # the oracle's C_p: the integral of u^p over the ball of radius 0.25
    C_p = orc.u0 / orc.p * orc.mass(0.25 / orc.eps0)
    assert s.C * 10.0 == pytest.approx(C_p * 10.0, rel=2e-2)
    # p C -> 8 pi sqrt(e) from below along p
    assert s.C * 10.0 < 8 * np.pi * math.sqrt(math.e)


@pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64])
def test_energy_is_the_dirichlet_form(h):
    # u = 1 - |x|^2 vanishes on the unit circle and has int |grad u|^2 = 2 pi
    m = build_mesh(make_domain("disk", r=1.0), h)
    x, y = m.coords.T
    energy = le.energy_functional(m, 1.0 - x * x - y * y, 1.0)
    assert energy == pytest.approx(2.0 * np.pi, abs=3.0 * h * h)


def test_energy_matches_oracle_at_p10(disk64, solved_p10):
    u, _ = solved_p10
    oracle = radial.solve_radial(10.0).energy()
    assert le.energy_functional(disk64, u, 10.0) == pytest.approx(oracle, abs=0.25)


def _graded_like_the_fallback(mesh, cfg, p):
    """The mesh continue_in_p grades for p: the sweep's h, toward the spike
    points, with the eps of the oracle heights."""
    eps = [math.exp(le.log_eps(p, u)) for u in le.oracle_heights(cfg, radial.solve_radial(p))]
    return build_graded_mesh(mesh.domain, mesh.h, cfg.points, eps)


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
def test_continuation_records_targets(disk64, kr_disk):
    # p = 14 lies beyond the uniform h = 1/64 grid's fold cascade; it lands
    # from its ansatz on a mesh graded toward the spike, where it is resolved
    with _under_resolved(12):
        br = le.continue_in_p(disk64, kr_disk, [14.0, 10.0, 12.0])
    assert br.p_values == [10.0, 12.0, 14.0] and br.mesh is disk64
    assert [e.strategy for e in br.entries] == ["ansatz", "ansatz", "graded"]
    # the p = 14 ansatz solve spent 3 Jacobian LUs before it failed
    assert [e.failed_factorizations for e in br.entries] == [0, 0, 3]
    assert [e.spikes[0].resolved for e in br.entries] == [True, False, True]
    assert br.entries[0].mesh is br.entries[1].mesh is disk64
    graded = br.entries[2].mesh
    assert np.array_equal(graded.xs, _graded_like_the_fallback(disk64, kr_disk, 14.0).xs)
    assert graded.n_nodes > disk64.n_nodes
    for e in br.entries:
        assert e.residual <= le.NEWTON_TOL and 1 <= e.factorizations <= 8
        assert np.hypot(*e.spikes[0].position) < disk64.h
    # the resolved peak is the oracle's
    orc = radial.solve_radial(14.0)
    assert br.entries[2].spikes[0].u_max == pytest.approx(orc.u0, rel=2e-3)
    rows = harness.branch_csv_text(br).splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [10.0, 12.0, 14.0]


def test_continuation_grades_only_where_the_ansatz_fails(disk64, kr_disk, monkeypatch):
    # p = 12 lands from its ansatz on the sweep's mesh: one solve, no graded mesh
    calls, graded = [], []
    solve = le.newton_solve

    def counted(mesh, u0, p):
        calls.append(p)
        return solve(mesh, u0, p)

    monkeypatch.setattr(le, "newton_solve", counted)
    monkeypatch.setattr(le, "build_graded_mesh", lambda *args: graded.append(args))
    with _under_resolved(12):
        br = le.continue_in_p(disk64, kr_disk, [12.0])
    assert calls == [12.0] and not graded
    assert br.p_values == [12.0] and br.entries[0].strategy == "ansatz"


def test_graded_fallback_lands_p10_on_the_h32_disk(monkeypatch):
    # on the h = 1/32 disk the p = 10 ansatz solve fails; the graded re-solve
    # lands from its ansatz in one Jacobian LU and resolves the spike
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 32)
    cfg = kr.psi_eval(m, [(0.0, 0.0)])
    calls = _patch_factorize(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", le.UnderResolvedSpikeWarning)
        br = le.continue_in_p(m, cfg, [10.0])
    monkeypatch.undo()
    e = br.entries[0]
    assert e.strategy == "graded" and e.spikes[0].resolved
    # the failed attempt on the h = 1/32 grid takes the others
    assert e.factorizations == 1 and e.failed_factorizations == len(calls) - 1 <= 11
    # graded toward the centre with eps0(10): the disk's Psi is R(0) = 0
    orc = radial.solve_radial(10.0)
    eps = math.exp(le.log_eps(10.0, le.oracle_heights(cfg, orc)[0]))
    assert eps == pytest.approx(orc.eps0, rel=1e-4)
    assert np.array_equal(e.mesh.ys, _graded_like_the_fallback(m, cfg, 10.0).ys)
    assert e.residual <= le.NEWTON_TOL
    assert len(e.spikes) == 1 and np.hypot(*e.spikes[0].position) < m.h
    assert e.spikes[0].u_max == pytest.approx(orc.u0, rel=2e-3)


def test_graded_p10_lands_alone_as_after_p8():
    # each p is solved from its own ansatz: on the h = 1/32 disk the graded
    # p = 10 solve lands the same whether or not p = 8 is listed before it
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 32)
    cfg = kr.psi_eval(m, [(0.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", le.UnderResolvedSpikeWarning)
        alone = le.continue_in_p(m, cfg, [10.0])
        listed = le.continue_in_p(m, cfg, [8.0, 10.0])
    assert alone.p_values == [10.0] and listed.p_values == [8.0, 10.0]
    assert [e.strategy for e in listed.entries] == ["ansatz", "graded"]
    assert alone.entries[0].strategy == "graded"
    assert np.array_equal(alone.entries[0].mesh.xs, listed.entries[1].mesh.xs)
    assert np.array_equal(alone.entries[0].mesh.ys, listed.entries[1].mesh.ys)
    assert np.array_equal(alone.entries[0].u, listed.entries[1].u)
    assert alone.entries[0].factorizations == listed.entries[1].factorizations


def test_two_spike_fallback_grades_toward_both_points():
    # on the h = 1/24 annulus the k = 2 ansatz solve fails at p = 20; a mesh
    # graded toward both points lands it with both spikes resolved
    m = build_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), 1.0 / 24)
    cfg = kr.psi_eval(m, [(0.68, 0.0), (-0.68, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", le.UnderResolvedSpikeWarning)
        e = le.continue_in_p(m, cfg, [20.0]).entries[0]
    assert e.strategy == "graded" and all(s.resolved for s in e.spikes)
    assert np.array_equal(e.mesh.xs, _graded_like_the_fallback(m, cfg, 20.0).xs)
    for s, a in zip(e.spikes, [(-0.68, 0.0), (0.68, 0.0)]):
        assert np.hypot(*(s.position - a)) < m.h
        assert s.cell < 0.1 * m.h
    assert e.residual <= le.NEWTON_TOL


def test_ansatz_reuses_the_regular_parts_psi_eval_solved(disk64, kr_disk, monkeypatch):
    assert [gd.mesh for gd in kr_disk.regular_parts] == [disk64]
    solve, solved_on = greens.regular_part, []

    def counted(mesh, x0):
        solved_on.append(mesh)
        return solve(mesh, x0)

    monkeypatch.setattr(greens, "regular_part", counted)
    le.ansatz(disk64, kr_disk, 12.0)
    assert solved_on == []
    # on another mesh the far field needs that mesh's regular part
    other = build_mesh(make_domain("disk", r=1.0), 1.0 / 48)
    le.ansatz(other, kr_disk, 12.0)
    assert solved_on == [other]


def test_rescale_profile_gauge(disk64, kr_disk, solved_p10):
    u, info = solved_p10
    entry = le.make_entry(disk64, u, 10.0, 1, 0.25, info["residual"])
    rp = le.rescale_profile(entry, 0, 8.0)
    assert np.max(np.abs(rp.w[0, :])) < 1e-12  # w(0) = 0 by construction
    assert np.max(np.abs(rp.v[0, :])) < 1e-10
    # -1 < w/p <= 0 pointwise
    assert np.all(rp.w <= 1e-12) and np.all(rp.w / 10.0 > -1.0)
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
    rp = le.rescale_profile(entry, 0, 8.0)
    sup = np.max(np.abs(rp.v - prof.w0(rp.radii)[:, None]))
    assert sup < 60.0 / 10.0
