"""Newton solves and p-continuation for -Δu = u^p with zero Dirichlet data,
spike extraction and peak rescaling.

Solutions are represented on the mesh nodes, with the Gibou-Fedkiw Laplacian
(``mesh.assemble_laplacian``), so D J is symmetric for every Jacobian J
(D = ``node_area``); the nonlinearity is evaluated on the positive part u_+
so the Jacobian -Δ - p u_+^(p-1) keeps its closed form while Newton trial
steps may briefly undershoot zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import greens, liouville
from .kirchhoff_routh import NewtonDivergedError, SpikeConfig
from .linsolve import SparseOperator, factorize
from .mesh import GridMesh
from .radial import SPIKE_BALL_RADIUS, solve_radial

SQRT_E = math.sqrt(math.e)
EIGHT_PI = 8.0 * math.pi
# Newton's stopping test: the scaled residual ||F|| / (1 + ||u_+^p||), for
# every solve and the arclength corrector alike
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
# a chord step, on a factor of an earlier iterate, must shrink the residual at
# least by this factor (newton_solve and the arclength corrector alike)
CHORD_CONTRACTION = 0.5


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


def predicted_umax(p: float, psi_j: float) -> float:
    """Peak height prediction sqrt(e) (1 - log p/(p-1) + (4 pi psi + 3 log2 + 2)/p)."""
    return SQRT_E * (
        1.0 - math.log(p) / (p - 1.0) + (4.0 * math.pi * psi_j + 3.0 * math.log(2.0) + 2.0) / p
    )


def log_eps(p: float, u_max: float) -> float:
    """log eps = -(log p + (p-1) log u_max)/2, stable for any p."""
    return -0.5 * (math.log(p) + (p - 1.0) * math.log(u_max))


def ansatz(mesh: GridMesh, cfg: SpikeConfig, p: float) -> np.ndarray:
    """Initial field: bubbles of predicted scale at the spike points, blended
    beyond radius p*eps into the Green far field (8 pi sqrt(e)/p) sum G.

    A spike's height is the radial oracle's u0(p) plus the first-order
    Kirchhoff-Routh term sqrt(e) 4 pi psi_j / p where the lattice cell at x_j
    is no wider than the eps that height gives (the rule of
    SpikeData.resolved), and predicted_umax(p, psi_j) where it is wider.  An
    under-resolved discrete peak is set by the grid, not by u0(p), and
    Newton from the oracle height can land on another discrete solution
    there.  Each bubble's scale is eps = (p height^(p-1))^(-1/2), so the pair
    (height, scale) stays on the defining relation, which matters for Newton
    basins at moderate p.

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
    heights = []
    for a, psi_j in zip(cfg.points, cfg.psi_parts):
        height = rad.u0 + SQRT_E * 4.0 * math.pi * float(psi_j) / p
        if math.exp(log_eps(p, height)) < mesh.cell_size(a[0], a[1]):
            height = predicted_umax(p, float(psi_j))
        heights.append(height)
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
    for a, height in zip(cfg.points, heights):
        eps_hat = math.exp(log_eps(p, height))
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
    argument of every method because continuation moves it.  A Laplacian
    factor that ``greens`` holds for another mesh is freed, so Newton, the
    arclength march and the spectrum factorize beside the mesh's own factor
    at most."""

    def __init__(self, mesh: GridMesh):
        greens.release_factorization(keep=mesh)
        self.A = greens.laplacian_operator(mesh)
        # every Laplacian column stores its diagonal; these are its positions
        cols = np.repeat(np.arange(self.A.shape[1], dtype=self.A.indices.dtype), np.diff(self.A.indptr))
        self._diag = np.flatnonzero(self.A.indices == cols)

    def residual(self, u: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(F(u, p), u_+^p); an overflowing power reads inf."""
        with np.errstate(over="ignore"):
            upow = np.maximum(u, 0.0) ** p
        return self.A @ u - upow, upow

    @staticmethod
    def potential(u: np.ndarray, p: float) -> np.ndarray:
        """p u_+^(p-1), the weight of the linearized operator -Δ - p u_+^(p-1)."""
        with np.errstate(over="ignore"):
            return p * np.maximum(u, 0.0) ** (p - 1.0)

    def jacobian(self, u: np.ndarray, p: float) -> SparseOperator:
        """dF/du = -Δ_h - diag(p u_+^(p-1)), a CSC matrix like the Laplacian,
        so ``factorize`` passes it to SuperLU without a copy.  It shares the
        Laplacian's index arrays and owns only its values."""
        data = self.A.data.copy()
        data[self._diag] -= self.potential(u, p)
        return SparseOperator((data, self.A.indices, self.A.indptr), shape=self.A.shape)

    def d_dp(self, u: np.ndarray, p: float) -> np.ndarray:
        """dF/dp = -u_+^p log u_+, zero where u <= 0."""
        up = np.maximum(u, 0.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return -np.where(up > 0.0, up**p * np.log(up), 0.0)


def _residual_norm(mesh: GridMesh, res: np.ndarray, rhs_scale: float) -> float:
    return mesh.norm(res) / (1.0 + rhs_scale)


def newton_solve(mesh: GridMesh, u0: np.ndarray, p: float) -> tuple[np.ndarray, dict]:
    """Damped Newton on F(u) = -Δ_h u - (u_+)^p to NEWTON_TOL in at most
    NEWTON_MAX_ITER iterations; returns (u, info).

    A full (undamped) Newton step keeps its Jacobian factor, and the next
    iteration first tries an undamped chord step on it (the chord method of
    Kelley 1995; Deuflhard 2004's simplified Newton).  The chord step is taken
    only if it leaves F finite and shrinks ||F|| by at least
    CHORD_CONTRACTION; otherwise the factor is dropped, the Jacobian is
    factorized at the current iterate and a damped Newton step follows.  A
    damped step drops its factor.  Chord steps count as iterations.

    info carries the residual history (quadratic contraction on Newton
    steps, at least CHORD_CONTRACTION on chord steps), the final scaled
    residual, the iterations and the Jacobian factorizations.
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
    factorizations = 0
    lu = None  # the factor of the last full Newton step
    try:
        for _ in range(NEWTON_MAX_ITER):
            if not np.isfinite(rn):
                raise NewtonDivergedError("non-finite residual in Newton iteration")
            if rn <= NEWTON_TOL:
                break
            if lu is not None:
                trial = u + lu.solve(-res)
                t_res, t_upow = problem.residual(trial, p)
                with np.errstate(over="ignore"):
                    t_merit = mesh.norm(t_res)
                if np.isfinite(t_merit) and t_merit <= CHORD_CONTRACTION * merit:
                    u, upow, res, merit = trial, t_upow, t_res, t_merit
                    rn = _residual_norm(mesh, res, mesh.norm(upow))
                    history.append(rn)
                    continue
                lu = None  # free the stale factor before the next one is built
            lu = factorize(problem.jacobian(u, p))
            factorizations += 1
            step = lu.solve(-res)
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
            if alpha < 1.0:
                lu = None
            history.append(rn)
        else:
            raise NewtonDivergedError(f"Newton did not reach tol={NEWTON_TOL:.1e} (at {rn:.3e})")
    finally:
        # a caught exception's traceback keeps this frame, and with it any
        # factor, alive for as long as the handler runs
        lu = None

    if float(np.max(u)) < 0.5:
        raise TrivialSolutionError("Newton collapsed to the zero solution")
    return u, {"residual_history": history, "residual": rn, "iterations": len(history) - 1,
               "factorizations": factorizations, "min_value": float(np.min(u))}


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
    # how continue_in_p reached this entry: "ansatz" or "arclength", and what
    # the arclength march cost (MARCH_COUNTS; all zero for an ansatz entry)
    strategy: str | None = None
    march: dict = field(default_factory=dict)


@dataclass
class SolutionBranch:
    mesh: GridMesh
    k: int
    entries: list[BranchEntry] = field(default_factory=list)

    @property
    def p_values(self) -> list[float]:
        return [e.p for e in self.entries]


def extract_spikes(mesh: GridMesh, u: np.ndarray, p: float, k: int, d: float) -> list[SpikeData]:
    """Locate the k peaks (biquadratic sub-grid refinement), their heights,
    scales eps_j, and local masses C_j = integral of u^p over B_d by the
    mesh's ball quadrature (each dual cell weighted by its area in the ball).

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
    """d = min(SPIKE_BALL_RADIUS, separation/3, boundary distance/3)."""
    d = SPIKE_BALL_RADIUS
    pts = np.atleast_2d(points)
    for j in range(len(pts)):
        d = min(d, mesh.boundary_distance(pts[j, 0], pts[j, 1]) / 3.0)
        for m in range(j + 1, len(pts)):
            d = min(d, np.hypot(*(pts[j] - pts[m])) / 3.0)
    return d


def make_entry(mesh: GridMesh, u: np.ndarray, p: float, k: int, d: float, residual: float,
               strategy: str | None = None, march: dict | None = None) -> BranchEntry:
    spikes = extract_spikes(mesh, u, p, k, d)
    return BranchEntry(p, u, spikes, energy_functional(mesh, u, p), residual, d, mesh, strategy,
                       march or {})


ARCLENGTH_DS = 0.5  # first arclength step
ARCLENGTH_MAX_STEPS = 2000
MARCH_COUNTS = ("accepted_steps", "rejected_steps", "factorizations")


def _arclength_march(mesh, u, p, target):
    """Pseudo-arclength continuation of (u, p) until a fixed-p solve at
    ``target`` succeeds.

    The under-resolved discrete branch folds in p while the peak sharpens
    grid cell by grid cell, so the solution at ``target`` may lie beyond
    turning points where no nearby solution exists.  Arclength steps follow the
    fold cascade; whenever a step crosses the target exponent a plain Newton
    solve is attempted there.  Inner products weight the field by the node
    areas (the discrete L2 product) so the p-component is commensurable.

    The corrector is a chord iteration on one Jacobian factor, with step
    control after Allgower & Georg (2003, section 6.1): a step is rejected
    (and ds halved) as soon as the corrector residual is non-finite or grows,
    or when contraction is slow (the residual falls by less than half) a
    second time; the first slow iteration refreshes the factor at the current
    iterate instead.  The tangent solve at the start and each accepted step
    hand their factor on to the next step's chord iteration (dF/dp is taken at
    the new predictor); a rejected step's retry factorizes afresh at its
    predictor.  Returns the landing Newton solve's (u, info) and the march's
    own counts: accepted steps, rejected steps and factorizations
    (MARCH_COUNTS; the landing solve's factorizations are in its info).
    """
    problem = LaneEmdenProblem(mesh)
    area = mesh.node_area
    counts = dict.fromkeys(MARCH_COUNTS, 0)

    def dot(a, b):
        return float((area * a) @ b)

    def factorize_at(uv, pv):
        counts["factorizations"] += 1
        return factorize(problem.jacobian(uv, pv))

    lu = factorize_at(u, p)  # the chord factor
    y = lu.solve(-problem.d_dp(u, p))
    nrm = math.sqrt(dot(y, y) + 1.0)
    tau = (y / nrm, 1.0 / nrm)
    u_prev, p_prev = None, None
    ds = ARCLENGTH_DS
    for _ in range(ARCLENGTH_MAX_STEPS):
        u0, p0 = u, p
        uv = u0 + ds * tau[0]
        pv = p0 + ds * tau[1]
        if lu is None:
            lu = factorize_at(uv, pv)
        b = lu.solve(problem.d_dp(uv, pv))
        denom = tau[1] - dot(tau[0], b)
        ok = refreshed = False
        rn_prev = np.inf
        it = 0
        while it < 24 and denom != 0.0 and np.isfinite(denom):
            it += 1
            res, upow = problem.residual(uv, pv)
            with np.errstate(over="ignore"):
                rn = _residual_norm(mesh, res, mesh.norm(upow))
            nres = dot(tau[0], uv - u0) + tau[1] * (pv - p0) - ds
            if rn <= NEWTON_TOL and abs(nres) <= 1e-10 * max(1.0, ds):
                ok = True
                break
            slow = rn > CHORD_CONTRACTION * rn_prev
            if not (np.isfinite(rn) and rn <= rn_prev) or (slow and refreshed):
                break  # diverging, or still slow on a fresh factor
            if slow:
                # drop the old factor before the new one is built, so only
                # one is resident
                lu = None
                lu = factorize_at(uv, pv)
                b = lu.solve(problem.d_dp(uv, pv))
                denom = tau[1] - dot(tau[0], b)
                refreshed = True
                if denom == 0.0 or not np.isfinite(denom):
                    break
            rn_prev = rn
            a = lu.solve(res)
            dp = (dot(tau[0], a) - nres) / denom
            uv = uv + (-a - dp * b)
            pv = pv + dp
            if not np.isfinite(pv) or pv <= 1.0:
                break
        if not ok:
            lu = None
            counts["rejected_steps"] += 1
            ds *= 0.5
            if ds < 1e-5:
                raise StalledContinuationError(f"arclength continuation stalled near p={p0:.3f}")
            continue
        counts["accepted_steps"] += 1
        u_prev, p_prev = u0, p0
        u, p = uv, pv
        if (p0 - target) * (p - target) <= 0.0:
            # the step straddles the target exponent: try to land exactly
            lu = None  # Newton builds its own factors
            w = 0.0 if p == p0 else (target - p0) / (p - p0)
            try:
                ut, info = newton_solve(mesh, u0 + w * (u - u0), target)
                return ut, info, counts
            except (NewtonDivergedError, TrivialSolutionError):
                pass  # fold tangency; keep following the curve
        # secant tangent is one factorization cheaper than the solve-based one
        du = u - u_prev
        dp = p - p_prev
        nrm = math.sqrt(dot(du, du) + dp * dp)
        tau = (du / nrm, dp / nrm)
        ds = min(ds * 1.4, 4.0)
    raise StalledContinuationError(f"arclength continuation did not reach p={target}")


def continue_in_p(mesh: GridMesh, cfg: SpikeConfig, p_start: float,
                  p_list: list[float]) -> SolutionBranch:
    """Record the branch at every p >= p_start of ``p_list``.

    For large p only one solution concentrates at a non-degenerate
    Kirchhoff-Routh point, so each recorded p is Newton-solved from its own
    spike ansatz (strategy "ansatz").  Where the grid does not resolve the
    peak the discrete branch folds cell by cell and that solve can fail;
    pseudo-arclength then follows the branch from the last solution to p
    (strategy "arclength").  A march to the first recorded p starts from an
    ansatz solve at p_start, which is made only then.  Each entry's
    ``march`` holds that march's accepted steps, rejected steps and
    factorizations (zeros for "ansatz").
    """
    if p_start < 5:
        raise ValueError("continuation starts at p >= 5")
    d = default_spike_radius(mesh, cfg.points)
    branch = SolutionBranch(mesh, cfg.k)
    u, p = None, p_start  # the last solution and its p
    for target in sorted(t for t in set(p_list) if t > p_start - 1e-9):
        try:
            u, info = newton_solve(mesh, ansatz(mesh, cfg, target), target)
            strategy, march = "ansatz", dict.fromkeys(MARCH_COUNTS, 0)
        except (NewtonDivergedError, TrivialSolutionError):
            if target <= p_start + 1e-9:
                raise  # no branch below p_start to march from
            if u is None:
                u, _ = newton_solve(mesh, ansatz(mesh, cfg, p_start), p_start)
            u, info, march = _arclength_march(mesh, u, p, target)
            strategy = "arclength"
        p = target
        branch.entries.append(make_entry(mesh, u, p, cfg.k, d, info["residual"], strategy, march))
    return branch


# the polar grid rescale_profile samples
PROFILE_N_R = 40
PROFILE_N_THETA = 32


@dataclass
class RescaledProfile:
    j: int
    radii: np.ndarray
    angles: np.ndarray
    w: np.ndarray  # (PROFILE_N_R, PROFILE_N_THETA)
    v: np.ndarray


def rescale_profile(entry: BranchEntry, j: int, radius: float) -> RescaledProfile:
    """Sample w = p (u(x_j + eps y) - u_max)/u_max on a polar grid of |y| <=
    radius, with v = p(w - U)."""
    s = entry.spikes[j]
    if radius > entry.d / s.eps:
        raise RadiusExceedsInnerRegionError(
            f"radius {radius} exceeds inner region {entry.d / s.eps:.3g}"
        )
    mesh = entry.mesh
    radii = np.linspace(0.0, radius, PROFILE_N_R)
    angles = np.linspace(0.0, 2 * np.pi, PROFILE_N_THETA, endpoint=False)
    w = np.empty((PROFILE_N_R, PROFILE_N_THETA))
    for it, th in enumerate(angles):
        pts = np.column_stack(
            [s.position[0] + s.eps * radii * math.cos(th), s.position[1] + s.eps * radii * math.sin(th)]
        )
        uu = mesh.interp(entry.u, pts, fill=0.0)
        w[:, it] = entry.p * (uu - s.u_max) / s.u_max
    v = entry.p * (w - liouville.U(radii)[:, None])
    return RescaledProfile(j, radii, angles, w, v)
