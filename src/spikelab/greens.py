"""Green function G = S - H on a meshed domain: regular part by a harmonic
solve with log Dirichlet data, Robin function and its derivatives by
source-perturbation central differences (the one stencil the
Kirchhoff-Routh search also uses).

The unit disk's Robin function has the closed form R(x) = -(1/2pi)
log(1 - |x|^2) (image charges), against which C2 checks the solves.

The module holds one Laplacian factor at a time, that of the mesh whose Green
solves ran last: a factor is the largest object a mesh can keep alive (13.66M
L+U nonzeros, about 150 MB, on the h = 1/256 disk), and a caller that still
holds a finished mesh should not also hold its LU.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linsolve import SparseOperator, factorize
from .mesh import GridMesh, assemble_laplacian, dirichlet_rhs

TWO_PI = 2.0 * np.pi
# least depth of a source inside the domain, in units of h: closer, the log
# data on the boundary is no longer smooth on the mesh
MIN_DEPTH = 3.0


class SourceNearBoundaryError(ValueError):
    pass


class StencilLeavesDomainError(ValueError):
    pass


class QueryAtSourceError(ValueError):
    pass


def fundamental(x0: np.ndarray, x, y):
    """S(x0, (x,y)) = -(1/2pi) log |x0 - (x,y)|."""
    return -np.log(np.hypot(x - x0[0], y - x0[1])) / TWO_PI


def laplacian_operator(mesh: GridMesh) -> SparseOperator:
    """Gibou-Fedkiw -Δ for the mesh (``mesh.assemble_laplacian``), assembled
    once and cached on it: the one copy of the matrix, in the CSC form its
    factorization reads.  The matrix lives as long as its mesh; its LU does
    not (``laplacian_factorization``)."""
    op = mesh.__dict__.get("_lap_op")
    if op is None:
        op = assemble_laplacian(mesh)
        mesh.__dict__["_lap_op"] = op
    return op


# the one held Laplacian factor, as (weak reference to its mesh, LU), or None
_held = None
# re-entrant: a mesh may die, and its callback run, inside a locked section
_held_lock = threading.RLock()


def _forget(mesh_ref: weakref.ref) -> None:
    """A dying mesh takes its held factor with it."""
    global _held
    with _held_lock:
        if _held is not None and _held[0] is mesh_ref:
            _held = None


def release_factorization(keep: GridMesh | None = None) -> None:
    """Free the held Laplacian factor unless it belongs to ``keep``."""
    global _held
    with _held_lock:
        if _held is not None and _held[0]() is not keep:
            _held = None


def laplacian_factorization(mesh: GridMesh):
    """Sparse LU of the mesh Laplacian (one factorization, many sources).

    The module holds one such factor: the mesh's own when it is held, else
    the held one is freed first and the mesh's Laplacian factorized in its
    place.  The hold is weak on the mesh, so a mesh that dies frees its
    factor.  A factor already returned stays valid after the hold moves on;
    it lives as long as its caller keeps it.
    """
    global _held
    with _held_lock:
        release_factorization(keep=mesh)  # before the new factor is built
        if _held is None:
            _held = (weakref.ref(mesh, _forget), factorize(laplacian_operator(mesh)))
        return _held[1]


@dataclass
class GreenData:
    """Regular part H(x0, .) as a node field plus Robin data at the source;
    a field of ``pohozaev.circle_forms`` (values and gradients of G(x0, .))."""

    mesh: GridMesh
    source: np.ndarray
    H_field: np.ndarray
    R_value: float

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return fundamental(self.source, pts[:, 0], pts[:, 1]) - self.mesh.interp(self.H_field, pts)

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - self.source
        r2 = np.sum(d * d, axis=1)
        grad_S = -d / (TWO_PI * r2[:, None])
        return grad_S - self.mesh.interp_gradient(self.H_field, pts)


def regular_part(mesh: GridMesh, x0) -> GreenData:
    """Solve ΔH = 0 with H = S(x0, .) on the boundary; fill R(x0) by interpolation.

    The source must sit at least MIN_DEPTH h inside the domain.
    """
    x0 = np.asarray(x0, dtype=float)
    if not bool(mesh.domain.inside(x0[0], x0[1])):
        raise SourceNearBoundaryError(f"source {x0} is not inside the domain")
    if mesh.boundary_distance(x0[0], x0[1]) < MIN_DEPTH * mesh.h:
        raise SourceNearBoundaryError(f"source {x0} is closer than {MIN_DEPTH}h to the boundary")
    b = dirichlet_rhs(mesh, lambda x, y: fundamental(x0, x, y))
    H = laplacian_factorization(mesh).solve(b)
    R = float(mesh.interp(H, x0[None, :])[0])
    return GreenData(mesh, x0, H, R)


def central_differences(f, x0: np.ndarray, delta: float, f0: float | None = None):
    """Gradient and Hessian of f at x0 by central differences of step delta.

    f is evaluated once at each of the 1 + 2d + 2d(d-1) stencil points: x0
    (skipped when its value f0 is given), x0 +- delta e_i and
    x0 +- delta e_i +- delta e_j for i < j.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if f0 is None:
        f0 = f(x0)
    steps = delta * np.eye(d)
    fp = np.array([f(x0 + e) for e in steps])
    fm = np.array([f(x0 - e) for e in steps])
    grad = (fp - fm) / (2 * delta)
    hess = np.diag((fp - 2 * f0 + fm) / delta**2)
    for i in range(d):
        for j in range(i + 1, d):
            ei, ej = steps[i], steps[j]
            hess[i, j] = hess[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4 * delta**2)
    return grad, hess


def robin_derivatives(mesh: GridMesh, x0, R0: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the Robin function at x0: central differences
    of step 2h over 9 solves of the regular part (8 when R0 = R(x0) is given)."""
    x0 = np.asarray(x0, dtype=float)
    delta = 2.0 * mesh.h
    for s in product((-1, 0, 1), repeat=2):
        p = x0 + delta * np.array(s)
        if s != (0, 0) and (mesh.boundary_distance(p[0], p[1]) < MIN_DEPTH * mesh.h
                            or not bool(mesh.domain.inside(*p))):
            raise StencilLeavesDomainError(f"Robin FD stencil point {p} leaves the domain")
    return central_differences(lambda x: regular_part(mesh, x).R_value, x0, delta, R0)


def green_eval(gd: GreenData, y) -> tuple[float, np.ndarray]:
    """Value and gradient (w.r.t. the field point) of G(x0, .) at y."""
    y = np.asarray(y, dtype=float)
    if np.hypot(*(y - gd.source)) < 1e-12:
        raise QueryAtSourceError("Green function evaluated at its source")
    val = float(gd.values(y[None, :])[0])
    grad = gd.gradients(y[None, :])[0]
    return val, grad


# ---- closed-form unit disk -----------------------------------------------


def unit_disk_R(x) -> float:
    r2 = float(np.dot(x, x))
    return -np.log(1.0 - r2) / TWO_PI
