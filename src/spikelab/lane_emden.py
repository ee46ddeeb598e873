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
from .mesh import GridMesh, build_graded_mesh
from .radial import SPIKE_BALL_RADIUS, RadialSolution, solve_radial

SQRT_E = math.sqrt(math.e)
EIGHT_PI = 8.0 * math.pi
# Newton's stopping test: the scaled residual ||F|| / (1 + ||u_+^p||)
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
# a chord step, on a factor of an earlier iterate, must shrink the residual by
# more than this factor
CHORD_CONTRACTION = 0.5


class TrivialSolutionError(NewtonDivergedError):
    """Newton landed on the zero solution."""


class WrongPeakCountError(RuntimeError):
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


def oracle_heights(cfg: SpikeConfig, rad: RadialSolution) -> list[float]:
    """Each spike's peak height at p = rad.p where the grid resolves it: the
    radial oracle's u0(p) plus the first-order Kirchhoff-Routh term
    sqrt(e) 4 pi psi_j / p."""
    return [rad.u0 + SQRT_E * 4.0 * math.pi * float(psi_j) / rad.p for psi_j in cfg.psi_parts]


def ansatz(mesh: GridMesh, cfg: SpikeConfig, p: float) -> np.ndarray:
    """Initial field: bubbles of predicted scale at the spike points, blended
    beyond radius p*eps into the Green far field (8 pi sqrt(e)/p) sum G.

    A spike's height is its ``oracle_heights`` value where the lattice cell
    at x_j is no wider than the eps that height gives (the rule of
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
    agree to O(1/p)).  The far field takes each H(a_j, .) from the fields
    ``psi_eval`` solved when they are this mesh's, and solves it here
    (``greens.regular_part``) otherwise.
    """
    pts = mesh.coords
    rad = solve_radial(p)
    far = np.zeros(mesh.n_nodes)
    gds = cfg.regular_parts
    if gds[0].mesh is not mesh:
        gds = [greens.regular_part(mesh, a) for a in cfg.points]
    heights = []
    for a, psi_j, height in zip(cfg.points, cfg.psi_parts, oracle_heights(cfg, rad)):
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
    """F(u, p) = -Δ_h u - u_+^p on a mesh, with its Jacobian in u.
    The Laplacian is the mesh's cached one; p is an argument of every
    method.  The Laplacian factor that ``greens`` holds is freed, this
    mesh's included, so a Jacobian LU of Newton or the spectrum never sits
    beside a Laplacian LU; Green solves that follow on this mesh factorize
    its Laplacian again."""

    def __init__(self, mesh: GridMesh):
        greens.release_factorization()
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


def _residual_norm(mesh: GridMesh, res: np.ndarray, rhs_scale: float) -> float:
    return mesh.norm(res) / (1.0 + rhs_scale)


def newton_solve(mesh: GridMesh, u0: np.ndarray, p: float) -> tuple[np.ndarray, dict]:
    """Damped Newton on F(u) = -Δ_h u - (u_+)^p to NEWTON_TOL in at most
    NEWTON_MAX_ITER iterations; returns (u, info).

    A full (undamped) Newton step keeps its Jacobian factor, and the next
    iteration first tries an undamped chord step on it (the chord method of
    Kelley 1995; Deuflhard 2004's simplified Newton).  The chord step is taken
    only if it leaves F finite and shrinks ||F|| by more than
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

    def take(trial: np.ndarray, bound: float) -> bool:
        """Make ``trial`` the iterate if its merit is finite and below ``bound``."""
        nonlocal u, upow, res, merit, rn
        t_res, t_upow = problem.residual(trial, p)
        with np.errstate(over="ignore"):
            t_merit = mesh.norm(t_res)
        if not (np.isfinite(t_merit) and t_merit < bound):
            return False
        u, upow, res, merit = trial, t_upow, t_res, t_merit
        rn = _residual_norm(mesh, res, mesh.norm(upow))
        return True

    try:
        for _ in range(NEWTON_MAX_ITER):
            if not np.isfinite(rn):
                raise NewtonDivergedError("non-finite residual in Newton iteration", factorizations)
            if rn <= NEWTON_TOL:
                break
            if lu is not None:
                if take(u + lu.solve(-res), CHORD_CONTRACTION * merit):
                    history.append(rn)
                    continue
                lu = None  # free the stale factor before the next one is built
            lu = factorize(problem.jacobian(u, p))
            factorizations += 1
            step = lu.solve(-res)
            for alpha in tuple(0.5**i for i in range(11)):
                if take(u + alpha * step, merit):
                    break
            else:
                raise NewtonDivergedError(f"damping failed at residual {rn:.3e}", factorizations)
            if alpha < 1.0:
                lu = None
            history.append(rn)
        else:
            raise NewtonDivergedError(f"Newton did not reach tol={NEWTON_TOL:.1e} (at {rn:.3e})",
                                      factorizations)
    finally:
        # a caught exception's traceback keeps this frame, and with it any
        # factor, alive for as long as the handler runs
        lu = None

    if float(np.max(u)) < 0.5:
        raise TrivialSolutionError("Newton collapsed to the zero solution", factorizations)
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
    # how continue_in_p reached this entry, "ansatz" (on the sweep's mesh) or
    # "graded" (on a mesh graded toward the spikes), and the Jacobian LUs of the
    # solve that landed it and of the ansatz solve that failed before a graded one
    strategy: str | None = None
    factorizations: int = 0
    failed_factorizations: int = 0


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
    """p times the discrete Dirichlet form u^T D (-Δ_h) u (D = ``node_area``),
    the integral of |grad u|^2 for u vanishing on the boundary."""
    return p * float(u @ (mesh.node_area * (greens.laplacian_operator(mesh) @ u)))


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
               strategy: str | None = None, factorizations: int = 0,
               failed_factorizations: int = 0) -> BranchEntry:
    spikes = extract_spikes(mesh, u, p, k, d)
    return BranchEntry(p, u, spikes, energy_functional(mesh, u, p), residual, d, mesh, strategy,
                       factorizations, failed_factorizations)


def continue_in_p(mesh: GridMesh, cfg: SpikeConfig, p_list: list[float]) -> SolutionBranch:
    """Record the branch at every p of ``p_list``.

    For large p only one solution concentrates at a non-degenerate
    Kirchhoff-Routh point, so each recorded p is Newton-solved from its own
    spike ansatz on ``mesh`` (strategy "ansatz").  Where ``mesh`` does not
    resolve the spike, its discrete branch folds cell by cell and that solve
    can fail.  The p is then solved from its ansatz again, on a mesh of the
    same h graded toward the spike points down to cells of about 16 h eps_j,
    with eps_j from the ``oracle_heights`` (strategy "graded"); the entry
    keeps that mesh.  Each entry records the Jacobian factorizations of the
    solve that landed it, and those the failed ansatz solve spent.
    """
    d = default_spike_radius(mesh, cfg.points)
    branch = SolutionBranch(mesh, cfg.k)
    for p in sorted(set(p_list)):
        grid, strategy, failed = mesh, "ansatz", 0
        try:
            u, info = newton_solve(grid, ansatz(grid, cfg, p), p)
        except NewtonDivergedError as exc:
            failed = exc.factorizations
            eps = [math.exp(log_eps(p, height)) for height in oracle_heights(cfg, solve_radial(p))]
            grid, strategy = build_graded_mesh(mesh.domain, mesh.h, cfg.points, eps), "graded"
            u, info = newton_solve(grid, ansatz(grid, cfg, p), p)
        branch.entries.append(make_entry(grid, u, p, cfg.k, d, info["residual"], strategy,
                                         info["factorizations"], failed))
    return branch


def _arclength_march(*args):
    """Gone: where the ansatz solve fails, ``continue_in_p`` solves p again
    on a spike-graded mesh.  The name stays only because the benchmark's
    tracer (perfbench/spans.py) looks it up and its tests ask that every
    name it traces exists."""
    raise NotImplementedError("p-continuation has no arclength march; see continue_in_p")


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
    rho = s.eps * radii[:, None]
    pts = np.column_stack([(s.position[0] + rho * np.cos(angles)).ravel(),
                           (s.position[1] + rho * np.sin(angles)).ravel()])
    uu = mesh.interp(entry.u, pts, fill=0.0).reshape(PROFILE_N_R, PROFILE_N_THETA)
    w = entry.p * (uu - s.u_max) / s.u_max
    v = entry.p * (w - liouville.U(radii)[:, None])
    return RescaledProfile(j, radii, angles, w, v)
