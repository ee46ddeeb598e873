"""Kirchhoff-Routh function of spike configurations: evaluation, damped-Newton
critical point search, and Hessian-based non-degeneracy certification.

Psi_k(a) = sum_j [ R(a_j) - sum_{m != j} G(a_j, a_m) ];  its gradient and
Hessian come from ``greens.central_differences`` over Green re-solves.
``greens`` holds one Laplacian factor, that of the mesh it solved on last,
so a search factorizes its mesh's Laplacian at most once (not at all when
that factor is already held), and each re-solve is a triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greens
from .mesh import GridMesh

MIN_SEPARATION_FACTOR = 4.0  # in units of h; G interpolation degrades closer
# the search stops at |grad Psi_k| <= KR_TOL, within KR_MAX_ITER Newton steps
KR_TOL = 1e-7
KR_MAX_ITER = 40


class CoincidentPointsError(ValueError):
    pass


class PointNearBoundaryError(ValueError):
    pass


class NewtonDivergedError(RuntimeError):
    pass


@dataclass
class SpikeConfig:
    """Candidate concentration points with Kirchhoff-Routh data."""

    k: int
    points: np.ndarray  # (k, 2)
    psi_parts: np.ndarray  # (k,)
    psi_total: float
    # the regular parts H(a_j, .) psi_eval solved, one per point, on its mesh
    regular_parts: list[greens.GreenData]
    grad: np.ndarray | None = None  # (2k,)
    hess: np.ndarray | None = None  # (2k, 2k)
    nondeg_margin: float | None = None
    eigenvalues: np.ndarray | None = None
    classification: str | None = None


def _check_points(mesh: GridMesh, points: np.ndarray) -> None:
    k = points.shape[0]
    for j in range(k):
        for m in range(j + 1, k):
            if np.hypot(*(points[j] - points[m])) <= MIN_SEPARATION_FACTOR * mesh.h:
                raise CoincidentPointsError(
                    f"points {j} and {m} are closer than {MIN_SEPARATION_FACTOR}h"
                )
    for j in range(k):
        try:
            depth = mesh.boundary_distance(points[j, 0], points[j, 1])
            depth_ok = depth >= greens.MIN_DEPTH * mesh.h
        except ValueError:
            depth_ok = False
        if not (bool(mesh.domain.inside(points[j, 0], points[j, 1])) and depth_ok):
            raise PointNearBoundaryError(f"point {points[j]} too close to the boundary")


def psi_eval(mesh: GridMesh, points, *, _solved: dict | None = None) -> SpikeConfig:
    """Evaluate Psi_{k,j} and Psi_k at the given interior points (values
    only); the configuration keeps the regular parts it solved.

    ``_solved`` maps a source (as a tuple) to its regular part; a search
    shares one such dict across a stencil so that each source is solved once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_points(mesh, points)
    k = points.shape[0]
    solved = {} if _solved is None else _solved
    gds = []
    for a in points:
        key = tuple(a)
        if key not in solved:
            solved[key] = greens.regular_part(mesh, a)
        gds.append(solved[key])
    parts = np.empty(k)
    for j in range(k):
        interaction = 0.0
        for m in range(k):
            if m != j:
                interaction += float(gds[j].values(points[m][None, :])[0])
        parts[j] = gds[j].R_value - interaction
    return SpikeConfig(k=k, points=points, psi_parts=parts, psi_total=float(parts.sum()),
                       regular_parts=gds)


def start_points(domain, points) -> np.ndarray:
    """Where the search starts, (k, 2): the given x,y points, one per spike.
    Without points (None) one spike starts at the domain's centre moved by
    (0.12, 0.07), off the symmetry axes of the disk and the ellipse."""
    if points is None:
        cx, cy = domain.center()
        return np.array([[cx + 0.12, cy + 0.07]])
    return np.asarray(points, dtype=float).reshape(-1, 2)


def find_critical_point(mesh: GridMesh, initial) -> SpikeConfig:
    """Damped Newton on grad Psi_k to KR_TOL.  Steps are halved (down to
    1/8) until the gradient norm decreases; the returned configuration
    carries gradient, Hessian and the non-degeneracy margin at the critical
    point.

    Gradient and Hessian come from one central-difference stencil of step 2h
    at the start and at each trial point, so no stencil point is solved twice.
    A stencil point moves one or two spikes and leaves the others where they
    are, so within one stencil each source's regular part is solved once.
    """
    delta = 2.0 * mesh.h

    def stencil(flat: np.ndarray) -> SpikeConfig:
        solved = {}
        psi = lambda x: psi_eval(mesh, x.reshape(-1, 2), _solved=solved).psi_total
        cfg = psi_eval(mesh, flat.reshape(-1, 2), _solved=solved)
        cfg.grad, cfg.hess = greens.central_differences(psi, flat, delta, cfg.psi_total)
        return cfg

    cfg = stencil(np.asarray(initial, dtype=float).reshape(-1))
    for _ in range(KR_MAX_ITER):
        gnorm = float(np.linalg.norm(cfg.grad))
        if gnorm <= KR_TOL:
            break
        x = cfg.points.reshape(-1)
        try:
            step = np.linalg.solve(cfg.hess, -cfg.grad)
        except np.linalg.LinAlgError:
            step = -cfg.grad
        for alpha in (1.0, 0.5, 0.25, 0.125):
            trial = x + alpha * step
            try:
                _check_points(mesh, trial.reshape(-1, 2))
            except (CoincidentPointsError, PointNearBoundaryError):
                continue
            trial_cfg = stencil(trial)
            if np.linalg.norm(trial_cfg.grad) < gnorm:
                cfg = trial_cfg
                break
        else:
            raise NewtonDivergedError(
                f"no damping step reduced |grad Psi| (stuck at {gnorm:.3e})"
            )
    else:
        raise NewtonDivergedError(f"Newton did not reach tol={KR_TOL} in {KR_MAX_ITER} iterations")

    _fill_nondegeneracy(cfg)
    return cfg


def _fill_nondegeneracy(cfg: SpikeConfig) -> None:
    sym = 0.5 * (cfg.hess + cfg.hess.T)
    eigs = np.linalg.eigvalsh(sym)
    cfg.eigenvalues = eigs
    cfg.nondeg_margin = float(np.min(np.abs(eigs)))
    if np.all(eigs > 0):
        cfg.classification = "minimum"
    elif np.all(eigs < 0):
        cfg.classification = "maximum"
    else:
        cfg.classification = "saddle"
