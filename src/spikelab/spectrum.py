"""Bottom spectrum of the linearized operator -Δ - p u^(p-1) (the Jacobian
``LaneEmdenProblem.jacobian``): eigenvalues nearest zero, Morse index, and the
kernel structure of rescaled near-null eigenfunctions.

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
from .linsolve import SparseOperator, factorize, smallest_eigenpairs
from .mesh import GridMesh

EIGEN_TOL = 1e-8  # analyse_entry's eigensolver tolerance; the giant-mode hunt's residual
RAYLEIGH_ITERS = 10  # most Rayleigh-quotient steps of a giant-mode hunt
# the polar grid, n_r radii by n_theta angles over |y| <= KERNEL_FIT_RADIUS,
# on which kernel_projection samples an eigenfunction
KERNEL_N_R = 24
KERNEL_N_THETA = 16


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


def _rayleigh_quotient(Lp: SparseOperator, v: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient sigma of the unit vector v and the eigen-residual
    |Lp v - sigma v| / |sigma|."""
    Lv = Lp @ v
    sigma = float(v @ Lv)
    return sigma, float(np.linalg.norm(Lv - sigma * v)) / max(abs(sigma), np.finfo(float).tiny)


def _rayleigh_iterate(Lp: SparseOperator, v0: np.ndarray) -> tuple[float, float]:
    """Rayleigh-quotient iteration from a concentrated seed; converges to the
    eigenvalue whose eigenvector the seed overlaps most (the giant).

    Stops once the eigen-residual |Lp v - sigma v| / |sigma| is at most
    EIGEN_TOL; returns sigma and that residual.
    """
    v = v0 / np.linalg.norm(v0)
    sigma, resid = _rayleigh_quotient(Lp, v)
    for _ in range(RAYLEIGH_ITERS):
        if resid <= EIGEN_TOL:
            break
        try:
            lu = factorize(Lp, sigma * (1.0 + 1e-12))
        except RuntimeError:
            break
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            break
        v = w / nw
        sigma, resid = _rayleigh_quotient(Lp, v)
    return sigma, resid


def bottom_spectrum(entry: BranchEntry, m: int, tol: float) -> SpectrumReport:
    """The m eigenvalues nearest zero of the entry's Jacobian, to tol, plus
    the Morse count.

    The concentrated negative modes (one per spike, eigenvalue of order
    -1/eps^2) sit far from zero and are hunted separately with
    Rayleigh-quotient iteration seeded by bubble bumps at the spikes; the
    Morse index combines them with any negatives among the near-zero modes.
    """
    mesh = entry.mesh
    Lp = LaneEmdenProblem(mesh).jacobian(entry.u, entry.p)
    pairs = smallest_eigenpairs(Lp, m=m, sigma=0.0, tol=tol)
    notes = []
    dmin = float(np.min(Lp.diagonal()))
    if dmin < 0:
        notes.append(f"diagonal dominance lost near peaks (min diagonal {dmin:.3e})")

    giants: list[float] = []
    for s in entry.spikes:
        rho = np.hypot(mesh.coords[:, 0] - s.position[0], mesh.coords[:, 1] - s.position[1])
        width = max(s.eps, mesh.h)
        seed = np.exp(liouville.U(rho / width))
        lam, resid = _rayleigh_iterate(Lp, seed)
        if not resid <= EIGEN_TOL:
            notes.append(f"giant-mode hunt at {s.position.tolist()} stopped at eigen-residual "
                         f"{resid:.1e} (eigenvalue {lam:.6e})")
        if lam < 0 and all(abs(lam - g) > 1e-6 * abs(lam) for g in giants):
            giants.append(lam)
    near_negatives = int(np.sum(pairs.eigenvalues < 0))
    # a giant that converged into the near-zero batch would be double counted
    giants = [g for g in giants if all(abs(g - lv) > 1e-9 * max(1, abs(g)) for lv in pairs.eigenvalues)]
    morse = len(giants) + near_negatives
    return SpectrumReport(
        p=entry.p,
        eigenvalues=pairs.eigenvalues,
        residuals=pairs.residuals,
        morse_index=morse,
        nondeg_margin=float(np.min(np.abs(pairs.eigenvalues))),
        giants=giants,
        notes=notes,
        eigenvectors=pairs.eigenvectors,
    )


def kernel_projection(mesh: GridMesh, xi: np.ndarray, spike: SpikeData) -> dict:
    """Weighted least-squares fit of the rescaled eigenfunction against the
    kernel basis {Z0, dU/dy_1, dU/dy_2} on |y| <= KERNEL_FIT_RADIUS under the
    bubble weight.

    Returns coefficients (a, b1, b2), the weighted L2 misfit, and the sup
    norm used for the || ||_inf = 1 normalization.
    """
    sup = float(np.max(np.abs(xi)))
    R = liouville.KERNEL_FIT_RADIUS
    radii = np.linspace(R / KERNEL_N_R, R, KERNEL_N_R)
    angles = np.linspace(0.0, 2 * np.pi, KERNEL_N_THETA, endpoint=False)
    ys = np.array([[r * math.cos(t), r * math.sin(t)] for r in radii for t in angles])
    pts = spike.position[None, :] + spike.eps * ys
    vals = mesh.interp(xi, pts, fill=0.0) / sup
    w = liouville.eU(np.hypot(ys[:, 0], ys[:, 1])) * np.repeat(radii, KERNEL_N_THETA)
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


def analyse_entry(entry: BranchEntry, m: int = 4) -> SpectrumReport:
    """Full spectrum report for a branch entry: the m near-zero modes (to
    EIGEN_TOL), Morse count, kernel projections and spike coefficients of
    each near-null mode."""
    mesh = entry.mesh
    rep = bottom_spectrum(entry, m, EIGEN_TOL)
    for xi in rep.eigenvectors.T:
        projs = []
        coefs = []
        for j, s in enumerate(entry.spikes):
            projs.append(kernel_projection(mesh, xi, s))
            coefs.append(spike_coefficients(mesh, xi, entry.u, entry.p, s, entry.d))
        rep.projections.append(projs)
        rep.coefficients.append(coefs)
    return rep
