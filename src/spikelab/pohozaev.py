"""Circle quadratic forms P and Q, Pohozaev identity residuals on solved
fields, and the gradient balance of spike configurations.

P(u,v) = -2 theta * int <grad u, nu><grad v, nu> + theta * int <grad u, grad v>
Q_i(u,v) = -int (dv/dnu du/dx_i + du/dnu dv/dx_i) + int <grad u, grad v> nu_i

with all integrals over the circle of radius theta (arc measure).
``circle_forms`` returns the pair (P, Q) for one circle, Q as the 2-vector
(Q_1, Q_2); every identity here is built on it.  Fields are anything
exposing values(pts) and gradients(pts); a node field reads both from the
mesh's biquadratic patch (``GridMesh.interp`` and ``interp_gradient``), and
a ``greens.GreenData`` combines the analytic singular part with the patch of
the regular part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greens
from .lane_emden import BranchEntry
from .mesh import GridMesh


N_THETA = 256  # angular samples on a probe circle


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
class CircleProbe:
    """Uniform angular samples on the circle of radius theta about a center.

    Trapezoid quadrature on the N_THETA periodic samples integrates
    trigonometric polynomials of degree < N_THETA/2 exactly.
    """

    center: np.ndarray
    theta: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        ang = np.linspace(0.0, 2 * np.pi, N_THETA, endpoint=False)
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


def circle_forms(u, v, center, theta: float,
                 mesh: GridMesh | None = None) -> tuple[float, np.ndarray]:
    """(P(u,v), (Q_1(u,v), Q_2(u,v))) on one probe circle.  Each field's
    gradients are sampled once, and only once in total when ``v is u``."""
    probe = CircleProbe(center, theta)
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


@dataclass
class PohozaevReport:
    q_residuals: np.ndarray  # per coordinate, Eq. Q(u,u) identity
    p_residual: float


def _ball_sum(mesh: GridMesh, values: np.ndarray, center, radius: float) -> float:
    idx, wts = mesh.ball_weights(center, radius)
    return float(wts @ values[idx])


def pohozaev_residuals(mesh: GridMesh, u: np.ndarray, p: float, center,
                       theta: float) -> PohozaevReport:
    """LHS - RHS of the two local Pohozaev identities for a solved field:

    Q_i(u,u) = 2/(p+1) * circle integral of u^(p+1) nu_i
    P(u,u)   = 2 theta/(p+1) * circle integral of u^(p+1) - 4/(p+1) * ball integral
    """
    f = NodeField(mesh, u)
    p_lhs, q_lhs = circle_forms(f, f, center, theta, mesh=mesh)
    probe = CircleProbe(center, theta)
    upp = np.maximum(f.values(probe.points), 0.0) ** (p + 1.0)
    q_res = q_lhs - np.array([2.0 / (p + 1.0) * probe.integrate(upp * probe.normals[:, i])
                              for i in (0, 1)])
    ball = _ball_sum(mesh, np.maximum(u, 0.0) ** (p + 1.0), center, theta)
    p_rhs = 2.0 * theta / (p + 1.0) * probe.integrate(upp) - 4.0 / (p + 1.0) * ball
    return PohozaevReport(q_res, p_lhs - p_rhs)


@dataclass
class GradientBalance:
    residuals: list  # per spike, 2-vector of the balance left side
    ratios: list  # |residual| / (eps_p / p), eps_p the widest spike's eps


def gradient_balance(entry: BranchEntry) -> GradientBalance:
    """Left side of the spike force balance, per spike j and component i:

        C_j dR(x_j)/dx_i - 2 sum_{m != j} C_m D_{x_i} G(x_m, x_j)

    which the asymptotics drive to O(eps_p / p^(2-delta)).  grad R(x_j) is
    ``greens.robin_derivatives``' R_grad, the one the Kirchhoff-Routh search
    reads, and grad_y G(x_m, .) is read from the regular part that solve
    gives at x_m.
    """
    gds = [greens.robin_derivatives(entry.mesh, s.position) for s in entry.spikes]
    residuals = [sj.C * gj.R_grad
                 - 2.0 * sum(sm.C * greens.green_eval(gm, sj.position)[1]
                             for sm, gm in zip(entry.spikes, gds) if gm is not gj)
                 for sj, gj in zip(entry.spikes, gds)]
    eps_p = max(s.eps for s in entry.spikes)
    ratios = [float(np.hypot(*r)) / (eps_p / entry.p) for r in residuals]
    return GradientBalance(residuals, ratios)
