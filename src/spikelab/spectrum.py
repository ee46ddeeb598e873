"""Bottom spectrum of the linearized operator -Δ - p u^(p-1): assembly,
eigenvalues nearest zero, Morse index, and the kernel structure of rescaled
near-null eigenfunctions.

The rescaled limit kernel is spanned by Z0 = (8-|y|^2)/(8+|y|^2) and the
translation derivatives dU/dy_i = -4 y_i/(8+|y|^2); projections are reported
in that basis (a on Z0, b_i on dU/dy_i), the normalization for which the
spike-coefficient limits A -> 16 pi a and B_i -> -8 pi b_i hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import liouville
from .lane_emden import BranchEntry, LaneEmdenProblem, SpikeData
from .linsolve import SparseOperator, smallest_eigenpairs
from .mesh import GridMesh


@dataclass
class SpectrumReport:
    p: float
    eigenvalues: np.ndarray  # modes nearest zero, ascending
    residuals: np.ndarray
    morse_index: int
    nondeg_margin: float
    giants: list  # strongly negative concentrated modes (one per spike)
    notes: list = field(default_factory=list)
    projections: list = field(default_factory=list)  # per analysed mode
    coefficients: list = field(default_factory=list)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)  # columns, as eigenvalues


def assemble_Lp(mesh: GridMesh, u_p: np.ndarray, p: float) -> SparseOperator:
    """Discrete -Δ minus the diagonal p u_+^(p-1): the Jacobian of the
    Lane-Emden residual at u_p."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return LaneEmdenProblem(mesh).jacobian(u_p, p)


def _rayleigh_iterate(Lp: SparseOperator, v0: np.ndarray, iters: int = 6) -> float:
    """Rayleigh-quotient iteration from a concentrated seed; converges to the
    eigenvalue whose eigenvector the seed overlaps most (the giant)."""
    Asp = Lp.to_scipy()
    v = v0 / np.linalg.norm(v0)
    sigma = float(v @ (Asp @ v))
    for _ in range(iters):
        try:
            lu = Lp.factorized(sigma * (1.0 + 1e-12))
        except RuntimeError:
            break
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            break
        v = w / nw
        new_sigma = float(v @ (Asp @ v))
        if abs(new_sigma - sigma) <= 1e-12 * max(1.0, abs(new_sigma)):
            sigma = new_sigma
            break
        sigma = new_sigma
    return sigma


def bottom_spectrum(
    Lp: SparseOperator,
    m: int = 4,
    tol: float = 1e-8,
    mesh: GridMesh | None = None,
    spikes: list[SpikeData] | None = None,
) -> SpectrumReport:
    """m eigenvalues nearest zero plus the Morse count.

    The concentrated negative modes (one per spike, eigenvalue of order
    -1/eps^2) sit far from zero and are hunted separately with
    Rayleigh-quotient iteration seeded by bubble bumps at the spikes; the
    Morse index combines them with any negatives among the near-zero modes.
    """
    pairs = smallest_eigenpairs(Lp, m=m, sigma=0.0, tol=tol)
    notes = []
    dmin = float(np.min(Lp.diagonal()))
    if dmin < 0:
        notes.append(f"diagonal dominance lost near peaks (min diagonal {dmin:.3e})")

    giants: list[float] = []
    if mesh is not None and spikes is not None:
        for s in spikes:
            rho = np.hypot(mesh.coords[:, 0] - s.position[0], mesh.coords[:, 1] - s.position[1])
            width = max(s.eps, mesh.h)
            seed = np.exp(liouville.U(rho / width))
            lam = _rayleigh_iterate(Lp, seed)
            if lam < 0 and all(abs(lam - g) > 1e-6 * abs(lam) for g in giants):
                giants.append(lam)
    near_negatives = int(np.sum(pairs.eigenvalues < 0))
    # a giant that converged into the near-zero batch would be double counted
    giants = [g for g in giants if all(abs(g - lv) > 1e-9 * max(1, abs(g)) for lv in pairs.eigenvalues)]
    morse = len(giants) + near_negatives
    return SpectrumReport(
        p=float("nan"),
        eigenvalues=pairs.eigenvalues,
        residuals=pairs.residuals,
        morse_index=morse,
        nondeg_margin=float(np.min(np.abs(pairs.eigenvalues))),
        giants=giants,
        notes=notes,
        eigenvectors=pairs.eigenvectors,
    )


def kernel_projection(
    mesh: GridMesh,
    xi: np.ndarray,
    spike: SpikeData,
    R: float = 10.0,
    n_r: int = 24,
    n_theta: int = 16,
) -> dict:
    """Weighted least-squares fit of the rescaled eigenfunction against the
    kernel basis {Z0, dU/dy_1, dU/dy_2} on |y| <= R under the bubble weight.

    Returns coefficients (a, b1, b2), the weighted L2 misfit, and the sup
    norm used for the || ||_inf = 1 normalization.
    """
    sup = float(np.max(np.abs(xi)))
    radii = np.linspace(R / n_r, R, n_r)
    angles = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    ys = np.array([[r * math.cos(t), r * math.sin(t)] for r in radii for t in angles])
    pts = spike.position[None, :] + spike.eps * ys
    vals = mesh.interp(xi, pts, fill=0.0) / sup
    w = liouville.eU(np.hypot(ys[:, 0], ys[:, 1])) * np.repeat(radii, n_theta)
    basis = np.column_stack(
        [
            liouville.Z0_xy(ys[:, 0], ys[:, 1]),
            liouville.dU_translation(1, ys[:, 0], ys[:, 1]),
            liouville.dU_translation(2, ys[:, 0], ys[:, 1]),
        ]
    )
    W = w[:, None]
    gram = basis.T @ (W * basis)
    rhs = basis.T @ (w * vals)
    coef = np.linalg.solve(gram, rhs)
    misfit = vals - basis @ coef
    resid = math.sqrt(float(np.sum(w * misfit**2) / np.sum(w)))
    return {"a": float(coef[0]), "b1": float(coef[1]), "b2": float(coef[2]),
            "residual": resid, "sup": sup}


def spike_coefficients(
    mesh: GridMesh,
    xi: np.ndarray,
    u_p: np.ndarray,
    p: float,
    spike: SpikeData,
    d: float,
) -> dict:
    """Node-sum quadrature of A = p int u^(p-1) xi and
    B_i = (p/eps) int (x_i - x_{j,i}) u^(p-1) xi over the spike ball."""
    sup = float(np.max(np.abs(xi)))
    idx, wts = mesh.ball_weights(spike.position, d)
    wgt = wts * LaneEmdenProblem.potential(u_p[idx], p) * xi[idx] / sup
    A = float(np.sum(wgt))
    B = (wgt @ (mesh.coords[idx] - spike.position)) / spike.eps
    return {"A": A, "B1": float(B[0]), "B2": float(B[1])}


def analyse_entry(
    entry: BranchEntry,
    m: int = 4,
    tol: float = 1e-8,
    R: float = 10.0,
) -> SpectrumReport:
    """Full spectrum report for a branch entry: near-zero modes, Morse count,
    kernel projections and spike coefficients of each near-null mode."""
    mesh = entry.mesh
    Lp = assemble_Lp(mesh, entry.u, entry.p)
    rep = bottom_spectrum(Lp, m=m, tol=tol, mesh=mesh, spikes=entry.spikes)
    rep.p = entry.p
    for xi in rep.eigenvectors.T:
        projs = []
        coefs = []
        for j, s in enumerate(entry.spikes):
            projs.append(kernel_projection(mesh, xi, s, R=R))
            coefs.append(spike_coefficients(mesh, xi, entry.u, entry.p, s, entry.d))
        rep.projections.append(projs)
        rep.coefficients.append(coefs)
    return rep
