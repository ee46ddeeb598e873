"""Kirchhoff-Routh function of spike configurations: evaluation, damped-Newton
critical point search, and Hessian-based non-degeneracy certification.

Psi_k(a) = sum_j [ R(a_j) - sum_{m != j} G(a_j, a_m) ];  derivatives are taken
by nested finite differences over Green re-solves (the mesh Laplacian is
factorized once, so each re-solve is a cheap triangular solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import greens
from .mesh import GridMesh

MIN_SEPARATION_FACTOR = 4.0  # in units of h; G interpolation degrades closer
HESSIAN_SINGULAR_MARGIN = 1e-6


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
    grad: np.ndarray | None = None  # (2k,)
    hess: np.ndarray | None = None  # (2k, 2k)
    nondeg_margin: float | None = None
    eigenvalues: np.ndarray | None = None
    classification: str | None = None
    hessian_singular: bool = False
    history: list = field(default_factory=list)


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
            depth_ok = mesh.boundary_distance(points[j, 0], points[j, 1]) >= 3.0 * mesh.h
        except ValueError:
            depth_ok = False
        if not (bool(mesh.domain.inside(points[j, 0], points[j, 1])) and depth_ok):
            raise PointNearBoundaryError(f"point {points[j]} too close to the boundary")


def psi_eval(mesh: GridMesh, points) -> SpikeConfig:
    """Evaluate Psi_{k,j} and Psi_k at the given interior points (values only)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_points(mesh, points)
    k = points.shape[0]
    gds = [greens.regular_part(mesh, points[j]) for j in range(k)]
    parts = np.empty(k)
    for j in range(k):
        interaction = 0.0
        for m in range(k):
            if m != j:
                interaction += float(gds[j].green_values(points[m][None, :])[0])
        parts[j] = gds[j].R_value - interaction
    return SpikeConfig(k=k, points=points, psi_parts=parts, psi_total=float(parts.sum()))


def _psi_total(mesh: GridMesh, flat: np.ndarray) -> float:
    return psi_eval(mesh, flat.reshape(-1, 2)).psi_total


def _fd_gradient(f, x0: np.ndarray, delta: float) -> np.ndarray:
    g = np.empty(x0.size)
    for i in range(x0.size):
        e = np.zeros(x0.size)
        e[i] = delta
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * delta)
    return g


def _fd_hessian(f, x0: np.ndarray, delta: float, f0: float | None = None) -> np.ndarray:
    d = x0.size
    if f0 is None:
        f0 = f(x0)
    H = np.empty((d, d))
    fp = np.empty(d)
    fm = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = delta
        fp[i] = f(x0 + e)
        fm[i] = f(x0 - e)
        H[i, i] = (fp[i] - 2 * f0 + fm[i]) / delta**2
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = delta
            ej[j] = delta
            H[i, j] = H[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4 * delta**2)
    return H


def find_critical_point(
    mesh: GridMesh,
    initial,
    tol: float = 1e-7,
    max_iter: int = 40,
    delta: float | None = None,
) -> SpikeConfig:
    """Damped Newton on grad Psi_k.  Steps are halved (down to 1/8) until the
    gradient norm decreases; the returned configuration carries gradient,
    Hessian and the non-degeneracy margin at the critical point."""
    x = np.atleast_2d(np.asarray(initial, dtype=float)).reshape(-1).copy()
    if delta is None:
        delta = 2.0 * mesh.h
    f = lambda flat: _psi_total(mesh, flat)
    history = []
    grad = _fd_gradient(f, x, delta)
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        history.append({"iter": it, "points": x.reshape(-1, 2).tolist(), "grad_norm": gnorm})
        if gnorm <= tol:
            break
        hess = _fd_hessian(f, x, delta)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        accepted = False
        for alpha in (1.0, 0.5, 0.25, 0.125):
            trial = x + alpha * step
            try:
                _check_points(mesh, trial.reshape(-1, 2))
            except (CoincidentPointsError, PointNearBoundaryError):
                continue
            trial_grad = _fd_gradient(f, trial, delta)
            if np.linalg.norm(trial_grad) < gnorm:
                x, grad = trial, trial_grad
                accepted = True
                break
        if not accepted:
            raise NewtonDivergedError(
                f"no damping step reduced |grad Psi| (stuck at {gnorm:.3e})"
            )
    else:
        raise NewtonDivergedError(f"Newton did not reach tol={tol} in {max_iter} iterations")

    cfg = psi_eval(mesh, x.reshape(-1, 2))
    cfg.grad = grad
    cfg.hess = _fd_hessian(f, x, delta)
    cfg.history = history
    _fill_nondegeneracy(cfg)
    return cfg


def _fill_nondegeneracy(cfg: SpikeConfig) -> None:
    sym = 0.5 * (cfg.hess + cfg.hess.T)
    eigs = np.linalg.eigvalsh(sym)
    cfg.eigenvalues = eigs
    cfg.nondeg_margin = float(np.min(np.abs(eigs)))
    cfg.hessian_singular = cfg.nondeg_margin < HESSIAN_SINGULAR_MARGIN
    if np.all(eigs > 0):
        cfg.classification = "minimum"
    elif np.all(eigs < 0):
        cfg.classification = "maximum"
    else:
        cfg.classification = "saddle"


def nondegeneracy_check(cfg: SpikeConfig) -> tuple[float, np.ndarray, str]:
    """Margin (min |eigenvalue|), eigenvalue list, and min/max/saddle class of
    the 2k x 2k Hessian at a critical point."""
    if cfg.hess is None:
        raise ValueError("configuration has no Hessian; run find_critical_point")
    _fill_nondegeneracy(cfg)
    return cfg.nondeg_margin, cfg.eigenvalues, cfg.classification
