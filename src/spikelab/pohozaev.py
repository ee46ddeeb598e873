"""Circle quadratic forms P and Q, their theta-independence for harmonic
inputs, Pohozaev identity residuals on solved fields, and the gradient
balance of spike configurations.

P(u,v) = -2 theta * int <grad u, nu><grad v, nu> + theta * int <grad u, grad v>
Q_i(u,v) = -int (dv/dnu du/dx_i + du/dnu dv/dx_i) + int <grad u, grad v> nu_i

with all integrals over the circle of radius theta (arc measure).
``circle_forms`` returns the pair (P, Q) for one circle, Q as the 2-vector
(Q_1, Q_2); every identity here is built on it.  Fields are anything
exposing values(pts) and gradients(pts); node fields interpolate the mesh
(gradients by central differences then bilinear interpolation), Green
fields combine the analytic singular part with the interpolated regular part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greens
from .lane_emden import BranchEntry
from .mesh import GridMesh


class CircleHitsBoundaryError(ValueError):
    pass


@dataclass
class NodeField:
    mesh: GridMesh
    node_values: np.ndarray
    fill: float | None = 0.0  # 0 is right for fields vanishing on the boundary

    def values(self, pts):
        return self.mesh.interp(self.node_values, pts, fill=self.fill)

    def gradients(self, pts):
        return self.mesh.interp_gradient(self.node_values, pts, fill=self.fill)


@dataclass
class GreenField:
    gd: greens.GreenData

    def values(self, pts):
        return self.gd.green_values(pts)

    def gradients(self, pts):
        return self.gd.green_gradients(pts)


@dataclass
class CircleProbe:
    """Uniform angular samples on the circle of radius theta about a center.

    Trapezoid quadrature on the periodic samples integrates trigonometric
    polynomials of degree < n_theta/2 exactly.
    """

    center: np.ndarray
    theta: float
    n_theta: int = 256

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.n_theta < 64:
            raise ValueError("need at least 64 angular samples")
        ang = np.linspace(0.0, 2 * np.pi, self.n_theta, endpoint=False)
        self.normals = np.column_stack([np.cos(ang), np.sin(ang)])
        self.points = self.center + self.theta * self.normals

    def check_inside(self, mesh: GridMesh) -> None:
        phi = mesh.domain.levelset(self.points[:, 0], self.points[:, 1])
        if np.any(phi >= 0):
            raise CircleHitsBoundaryError(
                f"probe circle (r={self.theta}) leaves the domain"
            )

    def integrate(self, samples: np.ndarray) -> float:
        # arc measure: d sigma = theta * d phi
        return float(np.mean(samples) * 2 * np.pi * self.theta)


def circle_forms(u, v, center, theta: float, n_theta: int = 256,
                 mesh: GridMesh | None = None) -> tuple[float, np.ndarray]:
    """(P(u,v), (Q_1(u,v), Q_2(u,v))) on one probe circle.  Each field's
    gradients are sampled once, and only once in total when ``v is u``."""
    probe = CircleProbe(center, theta, n_theta)
    if mesh is not None:
        probe.check_inside(mesh)
    gu = u.gradients(probe.points)
    gv = gu if v is u else v.gradients(probe.points)
    gun = np.sum(gu * probe.normals, axis=1)
    gvn = np.sum(gv * probe.normals, axis=1)
    dot = np.sum(gu * gv, axis=1)
    P = -2.0 * theta * probe.integrate(gun * gvn) + theta * probe.integrate(dot)
    Q = np.array([probe.integrate(-gvn * gu[:, i] - gun * gv[:, i] + dot * probe.normals[:, i])
                  for i in (0, 1)])
    return P, Q


def theta_independence(u, v, center, thetas, mesh: GridMesh | None = None, tol: float = 1e-6) -> dict:
    """Spread (max - min) of P and both Q components over the theta list.

    When node fields are supplied, their discrete harmonicity on the spanned
    annulus is checked and a warning string is attached if it fails.
    """
    thetas = list(thetas)
    forms = [circle_forms(u, v, center, t, mesh=mesh) for t in thetas]
    ps = [P for P, _ in forms]
    q1 = [float(Q[0]) for _, Q in forms]
    q2 = [float(Q[1]) for _, Q in forms]
    out = {
        "p_values": ps,
        "q1_values": q1,
        "q2_values": q2,
        "p_spread": max(ps) - min(ps),
        "q1_spread": max(q1) - min(q1),
        "q2_spread": max(q2) - min(q2),
        "warning": None,
    }
    for f in (u, v):
        if isinstance(f, NodeField) and mesh is not None:
            A = greens.laplacian_operator(mesh)
            res = A @ f.node_values
            c = np.asarray(center, dtype=float)
            rho = np.hypot(mesh.coords[:, 0] - c[0], mesh.coords[:, 1] - c[1])
            ring = (rho >= 0.5 * min(thetas)) & (rho <= 1.5 * max(thetas))
            ring &= np.all(mesh.nbr >= 0, axis=1)  # skip rows with boundary data
            rn = mesh.norm(np.where(ring, res, 0.0))
            if rn > tol:
                out["warning"] = f"inputs not discrete-harmonic on the annulus (residual {rn:.2e})"
    return out


@dataclass
class PohozaevReport:
    center: np.ndarray
    theta: float
    q_residuals: np.ndarray  # per coordinate, Eq. Q(u,u) identity
    p_residual: float
    rhs_scale: float


def _ball_sum(mesh: GridMesh, values: np.ndarray, center, radius: float) -> float:
    idx, wts = mesh.ball_weights(center, radius)
    return float(wts @ values[idx])


def pohozaev_residuals(mesh: GridMesh, u: np.ndarray, p: float, center, theta: float,
                       n_theta: int = 256) -> PohozaevReport:
    """LHS - RHS of the two local Pohozaev identities for a solved field:

    Q_i(u,u) = 2/(p+1) * circle integral of u^(p+1) nu_i
    P(u,u)   = 2 theta/(p+1) * circle integral of u^(p+1) - 4/(p+1) * ball integral
    """
    f = NodeField(mesh, u)
    p_lhs, q_lhs = circle_forms(f, f, center, theta, n_theta, mesh=mesh)
    probe = CircleProbe(center, theta, n_theta)
    upp = np.maximum(f.values(probe.points), 0.0) ** (p + 1.0)
    q_res = q_lhs - np.array([2.0 / (p + 1.0) * probe.integrate(upp * probe.normals[:, i])
                              for i in (0, 1)])
    ball = _ball_sum(mesh, np.maximum(u, 0.0) ** (p + 1.0), center, theta)
    p_rhs = 2.0 * theta / (p + 1.0) * probe.integrate(upp) - 4.0 / (p + 1.0) * ball
    return PohozaevReport(
        np.asarray(center, dtype=float),
        theta,
        q_res,
        p_lhs - p_rhs,
        abs(p_rhs) + float(np.max(np.abs(q_res))) + 1e-300,
    )


def linearized_residuals(mesh: GridMesh, u: np.ndarray, p: float, xi: np.ndarray,
                         center, theta: float, n_theta: int = 256) -> dict:
    """Residuals of the eigenfunction variants:
    Q_i(xi,u) = circle integral of u^p xi nu_i
    P(xi,u)   = theta * circle integral of u^p xi - 2 * ball integral of u^p xi
    """
    fu = NodeField(mesh, u)
    fxi = NodeField(mesh, xi)
    p_lhs, q_lhs = circle_forms(fxi, fu, center, theta, n_theta, mesh=mesh)
    probe = CircleProbe(center, theta, n_theta)
    upxi = np.maximum(fu.values(probe.points), 0.0) ** p * fxi.values(probe.points)
    out = {f"q{i + 1}_residual": q_lhs[i] - probe.integrate(upxi * probe.normals[:, i])
           for i in (0, 1)}
    ball = _ball_sum(mesh, np.maximum(u, 0.0) ** p * xi, center, theta)
    out["p_residual"] = p_lhs - (theta * probe.integrate(upxi) - 2.0 * ball)
    return out


@dataclass
class GradientBalance:
    residuals: list  # per spike, 2-vector of the balance left side
    ratios: list  # |residual| / (eps_p / p)
    eps_p: float


def gradient_balance(entry: BranchEntry) -> GradientBalance:
    """Left side of the spike force balance, per spike j and component i:

        C_j dR(x_j)/dx_i - 2 sum_{m != j} C_m D_{x_i} G(x_m, x_j)

    which the asymptotics drive to O(eps_p / p^(2-delta)).
    """
    mesh = entry.mesh
    gds = [greens.regular_part(mesh, s.position) for s in entry.spikes]
    grads = [greens.robin_derivatives(mesh, gd.source, gd.R_value)[0] for gd in gds]
    residuals = []
    for j, sj in enumerate(entry.spikes):
        bal = sj.C * grads[j].copy()
        for m, sm in enumerate(entry.spikes):
            if m == j:
                continue
            _, dg = greens.green_eval(gds[m], sj.position)
            bal -= 2.0 * sm.C * dg
        residuals.append(bal)
    eps_p = max(s.eps for s in entry.spikes)
    ratios = [float(np.hypot(*r)) / (eps_p / entry.p) for r in residuals]
    return GradientBalance(residuals, ratios, eps_p)
