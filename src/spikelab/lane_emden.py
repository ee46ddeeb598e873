"""Newton solves and p-continuation for -Δu = u^p with zero Dirichlet data,
spike extraction, peak rescaling, and the radial oracle for the unit disk.

Solutions are represented on the Shortley-Weller mesh; the nonlinearity is
evaluated on the positive part u_+ so the Jacobian -Δ - p u_+^(p-1) keeps its
closed form while Newton trial steps may briefly undershoot zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import greens, liouville
from .kirchhoff_routh import NewtonDivergedError, SpikeConfig
from .linsolve import SparseOperator
from .mesh import GridMesh
from .radial import RadialSolution, solve_radial

SQRT_E = math.sqrt(math.e)
EIGHT_PI = 8.0 * math.pi


class TrivialSolutionError(RuntimeError):
    pass


class WrongPeakCountError(RuntimeError):
    pass


class StalledContinuationError(RuntimeError):
    pass


class RadiusExceedsInnerRegionError(ValueError):
    pass


class UnderResolvedSpikeWarning(RuntimeWarning):
    """A spike is narrower than the lattice cell at its peak, so its height,
    scale and mass are set by the grid rather than by the solution."""


def predicted_eps(p: float, psi_j: float) -> float:
    """Spike scale consistent with the predicted height: (p u^(p-1))^(-1/2).

    Asymptotically e^(-p/4) e^(-(2 pi psi + 3 log2/2 + 3/4)); using the
    refined height keeps the pair (height, scale) on the defining relation,
    which matters for Newton basins at moderate p.
    """
    um = predicted_umax(p, psi_j)
    return math.exp(-0.5 * (math.log(p) + (p - 1.0) * math.log(um)))


def predicted_umax(p: float, psi_j: float) -> float:
    """Peak height prediction sqrt(e) (1 - log p/(p-1) + (4 pi psi + 3 log2 + 2)/p)."""
    return SQRT_E * (
        1.0 - math.log(p) / (p - 1.0) + (4.0 * math.pi * psi_j + 3.0 * math.log(2.0) + 2.0) / p
    )


def ansatz(mesh: GridMesh, cfg: SpikeConfig, p: float) -> np.ndarray:
    """Initial field: bubbles of predicted scale at the spike points, blended
    beyond radius p*eps into the Green far field (8 pi sqrt(e)/p) sum G.

    The bubble carries the universal rescaled profile w from the radial
    oracle rather than its p -> infinity limit U: at moderate p the limit
    profile is rough enough to throw Newton out of its basin, while the
    universal profile is the exact local structure at every p (and the two
    agree to O(1/p)).
    """
    pts = mesh.coords
    rad = solve_radial(p)
    far = np.zeros(mesh.n_nodes)
    gds = [greens.regular_part(mesh, a) for a in cfg.points]
    heights = [predicted_umax(p, float(cfg.psi_parts[j])) for j in range(cfg.k)]
    for gd, height in zip(gds, heights):
        dist = np.maximum(np.hypot(pts[:, 0] - gd.source[0], pts[:, 1] - gd.source[1]), 1e-12)
        # p C_p = height * I_p is the finite-p far-field mass; it tends to
        # 8 pi sqrt(e) but overshoots by 30% at p ~ 8 if used as the limit
        coeff = height * rad.mass() / p
        far += coeff * (-np.log(dist) / (2.0 * np.pi) - gd.H_field)
    # the log blows up at nodes on top of a source; the bubble owns that
    # region, so capping at the bubble height is harmless
    far = np.clip(far, 0.0, SQRT_E)

    u0 = far.copy()
    for j, a in enumerate(cfg.points):
        height = heights[j]
        psi_j = float(cfg.psi_parts[j])
        eps_hat = predicted_eps(p, psi_j)
        rho = np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
        y = np.minimum(rho / eps_hat, rad.y_boundary)
        bubble = height * np.maximum(0.0, 1.0 + rad.w(y) / p)
        r_blend = p * eps_hat
        s = np.clip((rho - r_blend) / max(r_blend, 1e-300), 0.0, 1.0)
        chi = s * s * (3.0 - 2.0 * s)
        u0 = np.maximum(u0, (1.0 - chi) * bubble + chi * far)
    return u0


class LaneEmdenProblem:
    """F(u, p) = -Δ_h u - u_+^p on a mesh, with its Jacobian in u and its
    derivative in p.  The Laplacian is the mesh's cached one; p is an
    argument of every method because continuation moves it."""

    def __init__(self, mesh: GridMesh):
        self.A = greens.laplacian_operator(mesh)
        self.Asp = self.A.to_scipy()

    def residual(self, u: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(F(u, p), u_+^p); an overflowing power reads inf."""
        with np.errstate(over="ignore"):
            upow = np.maximum(u, 0.0) ** p
        return self.Asp @ u - upow, upow

    @staticmethod
    def potential(u: np.ndarray, p: float) -> np.ndarray:
        """p u_+^(p-1), the weight of the linearized operator -Δ - p u_+^(p-1)."""
        with np.errstate(over="ignore"):
            return p * np.maximum(u, 0.0) ** (p - 1.0)

    def jacobian(self, u: np.ndarray, p: float) -> SparseOperator:
        """dF/du = -Δ_h - diag(p u_+^(p-1))."""
        return self.A.plus_diagonal(-self.potential(u, p))

    def d_dp(self, u: np.ndarray, p: float) -> np.ndarray:
        """dF/dp = -u_+^p log u_+, zero where u <= 0."""
        up = np.maximum(u, 0.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return -np.where(up > 0.0, up**p * np.log(up), 0.0)


def _residual_norm(mesh: GridMesh, res: np.ndarray, rhs_scale: float) -> float:
    return mesh.norm(res) / (1.0 + rhs_scale)


def newton_solve(
    mesh: GridMesh,
    u0: np.ndarray,
    p: float,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[np.ndarray, dict]:
    """Damped Newton on F(u) = -Δ_h u - (u_+)^p; returns (u, info).

    info carries the residual history (the tail exhibits the quadratic
    contraction of Newton) and the final scaled residual.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    problem = LaneEmdenProblem(mesh)

    u = np.asarray(u0, dtype=float).copy()
    res, upow = problem.residual(u, p)
    # damping decisions use the plain discrete L2 norm of F (a fixed merit
    # function); the u-scaled residual is only the stopping measure.  A trial
    # that overflows has an infinite merit and is rejected as non-finite
    with np.errstate(over="ignore"):
        merit = mesh.norm(res)
    rn = _residual_norm(mesh, res, mesh.norm(upow))
    history = [rn]
    for _ in range(max_iter):
        if not np.isfinite(rn):
            raise NewtonDivergedError("non-finite residual in Newton iteration")
        if rn <= tol:
            break
        lu = problem.jacobian(u, p).factorized()
        step = lu.solve(-res)
        del lu  # free the factor before the next one is built
        accepted = False
        for alpha in tuple(0.5**i for i in range(11)):
            trial = u + alpha * step
            t_res, t_upow = problem.residual(trial, p)
            with np.errstate(over="ignore"):
                t_merit = mesh.norm(t_res)
            if np.isfinite(t_merit) and t_merit < merit:
                u, upow, res, merit = trial, t_upow, t_res, t_merit
                rn = _residual_norm(mesh, res, mesh.norm(upow))
                accepted = True
                break
        if not accepted:
            raise NewtonDivergedError(f"damping failed at residual {rn:.3e}")
        history.append(rn)
    else:
        raise NewtonDivergedError(f"Newton did not reach tol={tol:.1e} (at {rn:.3e})")

    if float(np.max(u)) < 0.5:
        raise TrivialSolutionError("Newton collapsed to the zero solution")
    return u, {"residual_history": history, "residual": rn, "iterations": len(history) - 1,
               "min_value": float(np.min(u))}


@dataclass
class SpikeData:
    position: np.ndarray
    u_max: float
    eps: float
    C: float
    cell: float = 0.0  # longer side of the lattice cell at the peak

    @property
    def resolved(self) -> bool:
        """Whether the lattice cell at the peak is no wider than eps."""
        return self.eps >= self.cell


@dataclass
class BranchEntry:
    p: float
    u: np.ndarray
    spikes: list[SpikeData]
    energy: float
    residual: float
    d: float
    mesh: GridMesh = field(repr=False, default=None)


@dataclass
class SolutionBranch:
    mesh: GridMesh
    k: int
    entries: list[BranchEntry] = field(default_factory=list)

    def at_p(self, p: float) -> BranchEntry:
        for e in self.entries:
            if abs(e.p - p) < 1e-9:
                return e
        raise KeyError(f"no branch entry at p={p}")

    @property
    def p_values(self) -> list[float]:
        return [e.p for e in self.entries]

    def csv_rows(self) -> list[dict]:
        rows = []
        for e in self.entries:
            for j, s in enumerate(e.spikes):
                rows.append(
                    {
                        "p": e.p,
                        "j": j + 1,
                        "x_j": s.position[0],
                        "y_j": s.position[1],
                        "u_max_j": s.u_max,
                        "eps_j": s.eps,
                        "C_j": s.C,
                        "energy": e.energy,
                        "residual": e.residual,
                    }
                )
        return rows


def log_eps(p: float, u_max: float) -> float:
    """log eps = -(log p + (p-1) log u_max)/2, stable for any p."""
    return -0.5 * (math.log(p) + (p - 1.0) * math.log(u_max))


def extract_spikes(mesh: GridMesh, u: np.ndarray, p: float, k: int, d: float) -> list[SpikeData]:
    """Locate the k peaks (biquadratic sub-grid refinement), their heights,
    scales eps_j, and local masses C_j = integral of u^p over B_d by the
    mesh's ball quadrature (partial cells weighted by covered fraction).

    Warns with ``UnderResolvedSpikeWarning`` when a spike is narrower than
    the lattice cell at its peak (``SpikeData.resolved`` is then False).
    """
    is_max = np.ones(mesh.n_nodes, dtype=bool)
    for dd in range(4):
        nb = mesh.nbr[:, dd]
        has = nb >= 0
        is_max[has] &= u[has] >= u[nb[has]]
    cand = np.nonzero(is_max & (u >= 0.3 * float(np.max(u))))[0]
    cand = cand[np.argsort(-u[cand])]
    chosen: list[int] = []
    for c in cand:
        if all(np.hypot(*(mesh.coords[c] - mesh.coords[o])) > 4 * mesh.h for o in chosen):
            chosen.append(c)
    if len(chosen) != k:
        raise WrongPeakCountError(f"found {len(chosen)} significant peaks, expected {k}")

    spikes = []
    for c in chosen:
        pos, u_max = mesh.refine_stationary(u, mesh.coords[c])
        if u_max < u[c]:
            pos, u_max = mesh.coords[c].copy(), float(u[c])
        eps = math.exp(log_eps(p, u_max))
        idx, wts = mesh.ball_weights(pos, d)
        C = float(wts @ u[idx] ** p)
        spikes.append(SpikeData(pos, u_max, eps, C, mesh.cell_size(pos[0], pos[1])))
    spikes.sort(key=lambda s: (s.position[0], s.position[1]))
    coarse = [s for s in spikes if not s.resolved]
    if coarse:
        worst = min(coarse, key=lambda s: s.eps / s.cell)
        warnings.warn(
            f"{len(coarse)} of {k} spikes at p = {p:g} are narrower than the lattice "
            f"cell at their peak (eps = {worst.eps:.2e}, cell = {worst.cell:.2e}); "
            "their height, scale and mass are set by the grid",
            UnderResolvedSpikeWarning, stacklevel=2,
        )
    return spikes


def energy_functional(mesh: GridMesh, u: np.ndarray, p: float) -> float:
    gx, gy = mesh.nodal_gradient(u)
    return p * float(np.sum(mesh.node_area * (gx * gx + gy * gy)))


def default_spike_radius(mesh: GridMesh, points: np.ndarray) -> float:
    """d = min(0.25, separation/3, boundary distance/3)."""
    d = 0.25
    pts = np.atleast_2d(points)
    for j in range(len(pts)):
        d = min(d, mesh.boundary_distance(pts[j, 0], pts[j, 1]) / 3.0)
        for m in range(j + 1, len(pts)):
            d = min(d, np.hypot(*(pts[j] - pts[m])) / 3.0)
    return d


def make_entry(mesh: GridMesh, u: np.ndarray, p: float, k: int, d: float, residual: float) -> BranchEntry:
    spikes = extract_spikes(mesh, u, p, k, d)
    return BranchEntry(p, u, spikes, energy_functional(mesh, u, p), residual, d, mesh)


def _natural_march(mesh, u, p, target, psi1, tol, dp_init=2.0):
    """Plain p-stepping with the halving/doubling policy; raises on stall."""
    dp = dp_init
    floor_hits = 0
    successes = 0
    info = None
    while p < target - 1e-12:
        p_next = min(p + dp, target)
        ratio = predicted_umax(p_next, psi1) / predicted_umax(p, psi1)
        try:
            u_next, info = newton_solve(mesh, u * ratio, p_next, tol=tol)
        except (NewtonDivergedError, TrivialSolutionError):
            successes = 0
            if dp <= 0.25 + 1e-12:
                floor_hits += 1
                if floor_hits >= 3:
                    raise StalledContinuationError(f"continuation stalled near p={p}")
            dp = max(dp / 2.0, 0.25)
            continue
        floor_hits = 0
        successes += 1
        if successes >= 3:
            dp = min(dp * 2.0, 8.0)
            successes = 0
        p, u = p_next, u_next
    return u, p, info


def _arclength_march(mesh, u, p, target, tol, ds_init=0.5, max_steps=2000):
    """Pseudo-arclength continuation of (u, p) until a fixed-p solve at
    ``target`` succeeds.

    The under-resolved discrete branch folds in p while the peak sharpens
    grid cell by grid cell, so plain p-stepping hits turning points where no
    nearby solution exists at the incremented p.  Arclength steps follow the
    fold cascade; whenever a step crosses the target exponent a plain Newton
    solve is attempted there.  Inner products weight the field by the node
    areas (the discrete L2 product) so the p-component is commensurable.
    """
    problem = LaneEmdenProblem(mesh)
    area = mesh.node_area

    def dot(a, b):
        return float((area * a) @ b)

    def jac_parts(uv, pv):
        return problem.jacobian(uv, pv).factorized(), problem.d_dp(uv, pv)

    def solved_tangent(uv, pv, prev):
        lu, fp = jac_parts(uv, pv)
        y = lu.solve(-fp)
        nrm = math.sqrt(dot(y, y) + 1.0)
        tu, tp = y / nrm, 1.0 / nrm
        if prev is not None and (dot(prev[0], tu) + prev[1] * tp) < 0.0:
            tu, tp = -tu, -tp
        return tu, tp

    tau = solved_tangent(u, p, (np.zeros_like(u), 1.0))
    u_prev, p_prev = None, None
    ds = ds_init
    for _ in range(max_steps):
        u0, p0 = u, p
        uv = u0 + ds * tau[0]
        pv = p0 + ds * tau[1]
        # modified-Newton corrector: the Jacobian is factorized at the
        # predictor and reused; near folds (slow contraction) it is refreshed
        # at the current iterate, restoring the full Newton corrector.  A
        # factor is dropped before the next one is built, so only one is resident
        lu, fp = jac_parts(uv, pv)
        b = lu.solve(fp)
        denom = tau[1] - dot(tau[0], b)
        ok = False
        refreshes = 0
        rn_prev = np.inf
        it = 0
        while it < 24 and denom != 0.0 and np.isfinite(denom):
            it += 1
            res, upow = problem.residual(uv, pv)
            with np.errstate(over="ignore"):
                rn = _residual_norm(mesh, res, mesh.norm(upow))
            nres = dot(tau[0], uv - u0) + tau[1] * (pv - p0) - ds
            if rn <= tol and abs(nres) <= 1e-10 * max(1.0, ds):
                ok = True
                break
            if rn > 0.5 * rn_prev and refreshes < 3 and np.isfinite(rn):
                lu = None
                lu, fp = jac_parts(uv, pv)
                b = lu.solve(fp)
                denom = tau[1] - dot(tau[0], b)
                refreshes += 1
                if denom == 0.0 or not np.isfinite(denom):
                    break
            rn_prev = rn
            a = lu.solve(res)
            dp = (dot(tau[0], a) - nres) / denom
            uv = uv + (-a - dp * b)
            pv = pv + dp
            if not np.isfinite(pv) or pv <= 1.0:
                break
        lu = None
        if not ok:
            ds *= 0.5
            if ds < 1e-5:
                raise StalledContinuationError(f"arclength continuation stalled near p={p0:.3f}")
            continue
        u_prev, p_prev = u0, p0
        u, p = uv, pv
        if (p0 - target) * (p - target) <= 0.0:
            # the step straddles the target exponent: try to land exactly
            w = 0.0 if p == p0 else (target - p0) / (p - p0)
            try:
                ut, info = newton_solve(mesh, u0 + w * (u - u0), target, tol=tol)
                return ut, info
            except (NewtonDivergedError, TrivialSolutionError):
                pass  # fold tangency; keep following the curve
        # secant tangent is one factorization cheaper than the solve-based one
        du = u - u_prev
        dp = p - p_prev
        nrm = math.sqrt(dot(du, du) + dp * dp)
        tau = (du / nrm, dp / nrm)
        ds = min(ds * 1.4, 4.0)
    raise StalledContinuationError(f"arclength continuation did not reach p={target}")


def continue_in_p(
    mesh: GridMesh,
    cfg: SpikeConfig,
    p_start: float,
    p_end: float,
    record_at: list[float] | None = None,
    tol: float = 1e-10,
    dp_init: float = 2.0,
) -> SolutionBranch:
    """March the branch from p_start to p_end and record entries.

    Plain p-steps (halving on failure, doubling after 3 successes, with
    0.25 <= dp <= 8) are used while they work; when they stall at the
    under-resolution fold cascade the marcher switches to pseudo-arclength
    until the next recording exponent is reached.  Entries are recorded at
    every point of ``record_at`` (default: every natural step).
    """
    if p_start < 5:
        raise ValueError("continuation starts at p >= 5")
    targets = sorted(set(record_at)) if record_at else None
    d = default_spike_radius(mesh, cfg.points)
    psi1 = float(cfg.psi_parts[0])

    branch = SolutionBranch(mesh, cfg.k)
    u, info = newton_solve(mesh, ansatz(mesh, cfg, p_start), p_start, tol=tol)
    p = p_start

    def record(pv, uv, rv):
        if targets is None or any(abs(pv - t) < 1e-9 for t in targets):
            branch.entries.append(make_entry(mesh, uv, pv, cfg.k, d, rv))

    record(p, u, info["residual"])
    waypoints = [t for t in (targets or [])] or []
    ahead = [t for t in waypoints if t > p + 1e-9] or []
    stops = ahead + ([] if (ahead and abs(ahead[-1] - p_end) < 1e-9) else [p_end])
    for stop in stops:
        try:
            u, p, info = _natural_march(mesh, u, p, stop, psi1, tol, dp_init=dp_init)
            rv = info["residual"] if info else 0.0
        except StalledContinuationError:
            # past the under-resolution transition a fresh ansatz lands on
            # the same branch directly (checked against the fold cascade);
            # inside the transition it fails and arclength takes over
            try:
                u, info = newton_solve(mesh, ansatz(mesh, cfg, stop), stop, tol=tol)
                p = stop
            except (NewtonDivergedError, TrivialSolutionError):
                u, info = _arclength_march(mesh, u, p, stop, tol)
                p = stop
            rv = info["residual"]
        record(p, u, rv)
    return branch


@dataclass
class RescaledProfile:
    j: int
    radii: np.ndarray
    angles: np.ndarray
    w: np.ndarray  # (n_r, n_theta)
    v: np.ndarray
    k: np.ndarray | None


def rescale_profile(
    entry: BranchEntry,
    j: int,
    radius: float,
    n_r: int = 40,
    n_theta: int = 32,
    w0_profile: liouville.LiouvilleProfile | None = None,
) -> RescaledProfile:
    """Sample w = p (u(x_j + eps y) - u_max)/u_max on a polar grid of |y| <=
    radius, with v = p(w - U) and, when a w0 table is supplied,
    k = p(v - w0)."""
    s = entry.spikes[j]
    if radius > entry.d / s.eps:
        raise RadiusExceedsInnerRegionError(
            f"radius {radius} exceeds inner region {entry.d / s.eps:.3g}"
        )
    mesh = entry.mesh
    radii = np.linspace(0.0, radius, n_r)
    angles = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    w = np.empty((n_r, n_theta))
    for it, th in enumerate(angles):
        pts = np.column_stack(
            [s.position[0] + s.eps * radii * math.cos(th), s.position[1] + s.eps * radii * math.sin(th)]
        )
        uu = mesh.interp(entry.u, pts, fill=0.0)
        w[:, it] = entry.p * (uu - s.u_max) / s.u_max
    v = entry.p * (w - liouville.U(radii)[:, None])
    kk = None
    if w0_profile is not None:
        kk = entry.p * (v - w0_profile.w0(radii)[:, None])
    return RescaledProfile(j, radii, angles, w, v, kk)


def radial_oracle(p: float, tol: float = 1e-12) -> RadialSolution:
    """Independent unit-disk oracle (rescaled shooting; see radial module)."""
    return solve_radial(p, tol=tol)
