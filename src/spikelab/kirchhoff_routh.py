"""Kirchhoff-Routh function of spike configurations: evaluation, damped-Newton
critical point search, and Hessian-based non-degeneracy certification.

Psi_k(a) = sum_j [ R(a_j) - sum_{m != j} G(a_j, a_m) ];  its gradient and
Hessian come from the fields ``greens.robin_derivatives`` solves at each
a_j, one three-column triangular solve per spike and point.  ``greens``
holds one Laplacian factor, that of the mesh it solved on last, so a search
factorizes its mesh's Laplacian at most once (not at all when that factor
is already held).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

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
    """A Newton iteration stopped short after ``factorizations`` Jacobian LUs."""

    def __init__(self, message: str, factorizations: int = 0):
        super().__init__(message)
        self.factorizations = factorizations


@dataclass
class SpikeConfig:
    """Candidate concentration points with Kirchhoff-Routh data."""

    k: int
    points: np.ndarray  # (k, 2)
    psi_parts: np.ndarray  # (k,)
    psi_total: float
    # the regular parts H(a_j, .) solved for it, one per point, on its mesh
    regular_parts: list[greens.GreenData]
    grad: np.ndarray | None = None  # (2k,)
    hess: np.ndarray | None = None  # (2k, 2k)
    nondeg_margin: float | None = None
    eigenvalues: np.ndarray | None = None
    classification: str | None = None


def _spike_points(mesh: GridMesh, points) -> np.ndarray:
    """The points as a (k, 2) float array, checked to lie apart and inside."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    for j, m in itertools.combinations(range(len(points)), 2):
        if np.hypot(*(points[j] - points[m])) <= MIN_SEPARATION_FACTOR * mesh.h:
            raise CoincidentPointsError(f"points {j} and {m} are closer than {MIN_SEPARATION_FACTOR}h")
    for a in points:
        try:
            greens.source_point(mesh, a)
        except ValueError:
            raise PointNearBoundaryError(f"point {a} too close to the boundary") from None
    return points


def psi_eval(mesh: GridMesh, points) -> SpikeConfig:
    """Evaluate Psi_{k,j} and Psi_k at the given interior points (values
    only); the configuration keeps the regular parts it solved."""
    points = _spike_points(mesh, points)
    k = len(points)
    gds = [greens.regular_part(mesh, a) for a in points]
    parts = np.array([gds[j].R_value - sum(float(gds[j].values(points[m][None, :])[0])
                                           for m in range(k) if m != j) for j in range(k)])
    return SpikeConfig(k=k, points=points, psi_parts=parts, psi_total=float(parts.sum()),
                       regular_parts=gds)


def psi_derivatives(mesh: GridMesh, points) -> SpikeConfig:
    """Psi_{k,j} and Psi_k with the gradient and Hessian of Psi_k.

    With S(x0, y) = s(y - x0), the pair (j, m) reads the fields of a_j at
    a_m (d = a_m - a_j): G(a_j, a_m) = s(d) - H, d/dx0 G = -grad s - dH and
    grad_y G = grad s - grad_y H.  Hessian block (j, m) takes Hess s + D,
    D_il = d/dy_l dH_i, and block (m, m) takes -2 (Hess s - Hess_y H), for
    d^2/dy^2 G(a_j, a_m) and, by H's symmetry, d^2/dx0^2 G(a_m, a_j).
    """
    points = _spike_points(mesh, points)
    k = len(points)
    gds = [greens.robin_derivatives(mesh, a) for a in points]
    parts = np.array([gd.R_value for gd in gds])
    grad = np.concatenate([gd.R_grad for gd in gds])
    hess = block_diag(*[gd.R_hess for gd in gds])
    for j, m in itertools.permutations(range(k), 2):
        gd, sj, sm = gds[j], slice(2 * j, 2 * j + 2), slice(2 * m, 2 * m + 2)
        d = points[m] - points[j]
        r2 = float(d @ d)
        grad_s = -d / (greens.TWO_PI * r2)
        hess_s = (2.0 * np.outer(d, d) - r2 * np.eye(2)) / (greens.TWO_PI * r2 * r2)
        H, grad_H, hess_H = mesh.patch_derivatives(gd.H_field, points[m])
        dH = [mesh.patch_derivatives(gd.dH_fields[:, i], points[m]) for i in (0, 1)]
        mixed = hess_s + np.array([g for _, g, _ in dH])
        parts[j] -= -0.5 * np.log(r2) / greens.TWO_PI - H
        grad[sj] += grad_s + np.array([v for v, _, _ in dH])
        grad[sm] += grad_H - grad_s
        hess[sj, sm] += mixed
        hess[sm, sj] += mixed.T
        hess[sm, sm] -= 2.0 * (hess_s - hess_H)
    return SpikeConfig(k=k, points=points, psi_parts=parts, psi_total=float(parts.sum()),
                       regular_parts=gds, grad=grad, hess=hess)


def start_points(domain, points) -> np.ndarray:
    """Where the search starts, (k, 2): the given x,y points, one per spike.
    Without points (None) one spike starts at the domain's centre moved by
    (0.12, 0.07), off the symmetry axes of the disk and the ellipse."""
    if points is None:
        cx, cy = domain.center()
        return np.array([[cx + 0.12, cy + 0.07]])
    return np.asarray(points, dtype=float).reshape(-1, 2)


def find_critical_point(mesh: GridMesh, initial) -> SpikeConfig:
    """Damped Newton on grad Psi_k to KR_TOL, with gradient and Hessian from
    ``psi_derivatives`` at the start and at each trial point.  Steps are
    halved (down to 1/8) until the gradient norm decreases; the returned
    configuration carries gradient, Hessian, the Hessian's eigenvalues, their
    least modulus (the non-degeneracy margin) and the point's classification.
    """
    cfg = psi_derivatives(mesh, initial)
    for _ in range(KR_MAX_ITER):
        gnorm = float(np.linalg.norm(cfg.grad))
        if gnorm <= KR_TOL:
            break
        try:
            step = np.linalg.solve(cfg.hess, -cfg.grad)
        except np.linalg.LinAlgError:
            step = -cfg.grad
        for alpha in (1.0, 0.5, 0.25, 0.125):
            try:
                trial = psi_derivatives(mesh, cfg.points.reshape(-1) + alpha * step)
            except (CoincidentPointsError, PointNearBoundaryError):
                continue
            if np.linalg.norm(trial.grad) < gnorm:
                cfg = trial
                break
        else:
            raise NewtonDivergedError(f"no damping step reduced |grad Psi| (stuck at {gnorm:.3e})")
    else:
        raise NewtonDivergedError(f"Newton did not reach tol={KR_TOL} in {KR_MAX_ITER} iterations")
    # psi_derivatives builds the Hessian symmetric
    eigs = np.linalg.eigvalsh(cfg.hess)
    cfg.eigenvalues, cfg.nondeg_margin = eigs, float(np.min(np.abs(eigs)))
    cfg.classification = ("minimum" if np.all(eigs > 0) else "maximum" if np.all(eigs < 0)
                          else "saddle")
    return cfg
