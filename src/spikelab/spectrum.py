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
from .linsolve import smallest_eigenpairs
from .mesh import GridMesh

EIGEN_TOL = 1e-8  # analyse_entry's eigensolver tolerance, on residuals in the mesh's L2 norm
# the polar grid, n_r radii by n_theta angles over |y| <= KERNEL_FIT_RADIUS,
# on which kernel_projection samples an eigenfunction
KERNEL_N_R = 24
KERNEL_N_THETA = 16


@dataclass
class SpectrumReport:
    p: float
    eigenvalues: np.ndarray  # modes nearest zero, ascending
    residuals: np.ndarray
    morse_index: int | None  # the Jacobian's inertia; None where the LU could not give it
    nondeg_margin: float
    notes: list = field(default_factory=list)
    projections: list = field(default_factory=list)  # per analysed mode
    coefficients: list = field(default_factory=list)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)  # columns, as eigenvalues


def bottom_spectrum(entry: BranchEntry, m: int, tol: float) -> SpectrumReport:
    """The m eigenvalues nearest zero of the entry's Jacobian J, to tol, and
    its Morse index.

    D J is symmetric (D = ``mesh.node_area``, the Gibou-Fedkiw Laplacian), so
    J is similar to S = D^(1/2) J D^(-1/2), which is symmetric.  S is built
    once, in one data array on J's index arrays, and ``smallest_eigenpairs``
    solves it: its eigenvectors y map back as v = D^(-1/2) y, of unit L2 norm
    on the mesh, and the residuals are those of J v = lambda v in that norm.
    The Morse index is S's inertia, the count of every negative eigenvalue
    (the concentrated ones of order -1/eps^2 included); it is None, with a
    note, where the LU took an off-diagonal pivot.  Each spike narrower than
    the lattice cell at its peak (``SpikeData.resolved`` False) gets a note:
    the grid, not the spike, sets the modes concentrated there.
    """
    mesh = entry.mesh
    S = LaneEmdenProblem(mesh).jacobian(entry.u, entry.p)
    notes = []
    dmin = float(np.min(S.diagonal()))
    if dmin < 0:
        notes.append(f"diagonal dominance lost near peaks (min diagonal {dmin:.3e})")
    for spike in entry.spikes:
        if not spike.resolved:
            x, y = spike.position
            notes.append(f"spike at ({x:.3f}, {y:.3f}) under-resolved: eps = {spike.eps:.2e} "
                         f"below the lattice cell {spike.cell:.2e} at its peak, so the grid "
                         "sets the modes concentrated there")
    # the Jacobian's values are this call's own copy, so S is scaled in place
    root = np.sqrt(mesh.node_area)
    S.data *= root[S.indices]
    S.data /= np.repeat(root, np.diff(S.indptr))
    pairs = smallest_eigenpairs(S, m=m, tol=tol)
    if pairs.negatives is None:
        notes.append("the LU of the symmetric Jacobian took an off-diagonal pivot, "
                     "so its diagonal gives no Morse index")
    pairs.eigenvectors /= root[:, None]
    return SpectrumReport(
        p=entry.p,
        eigenvalues=pairs.eigenvalues,
        residuals=pairs.residuals,
        morse_index=pairs.negatives,
        nondeg_margin=float(np.min(np.abs(pairs.eigenvalues))),
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
