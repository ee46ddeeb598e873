"""The sparse LU of a scipy matrix (``factorize``, which holds the pivot rule
of the solves), and the few eigenpairs nearest zero of a symmetric matrix by
ARPACK shift-invert on its diagonally pivoted LU, with its inertia."""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MMAP_THRESHOLD = 4 << 20  # bytes; heap blocks this large get their own mapping
DIAG_PIVOT_THRESH = 0.1  # a diagonal pivot within this factor of its column's largest entry is kept
PANEL_SIZE = 2  # columns SuperLU updates together; its dense scratch grows with n times this


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no glibc.

    glibc raises its mmap threshold to the size of each mapped block it frees
    (up to 32 MB), so after the first factorizations SuperLU's buffers are
    carved from the brk heap, and how much of that heap stays resident depends
    on its fragmentation, which moves with the hash seed and the address
    layout: the h = 1/64 disk sweep peaked anywhere between 157 and 205 MB.
    With fixed thresholds every block of MMAP_THRESHOLD or more is mapped on
    its own and unmapped when freed, and that peak repeats to within 1 MB.
    Smaller blocks stay on the heap, where reuse saves page faults; at 8 MB
    the sweep's peak moved again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return (bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
            and bool(mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)))


pin_malloc_thresholds()


class SolverError(RuntimeError):
    pass


class NoConvergenceError(SolverError):
    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved residual {achieved:.3e})")
        self.achieved = achieved


class SparseOperator(sp.csc_matrix):
    """A plain ``scipy.sparse.csc_matrix``, the column form SuperLU factorizes.

    The mesh Laplacian is built as one, once per mesh.  A Jacobian (the
    Laplacian's index arrays with its own values) and its symmetric form in
    ``spectrum.bottom_spectrum`` are one again, so ``splu`` gets every
    operator of the program as it is, without a second copy.  ``to_scipy``
    is kept only because the benchmark's checks
    (``perfbench/test_checks.py``) call it on ``greens.laplacian_operator``.
    """

    def to_scipy(self) -> sp.csc_matrix:
        return self


def factorize(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of A for linear solves.

    Every operator here has the symmetric sparsity of a five-point
    stencil, so the columns are ordered by minimum degree on A^T + A.
    SuperLU's symmetric mode keeps that ordering on the rows too and
    takes the diagonal as pivot whenever |a_jj| >= DIAG_PIVOT_THRESH
    times the largest entry of its column, pivoting as usual otherwise.
    Row swaps on the diagonally dominant spike rows of a Lane-Emden
    Jacobian would spoil the predicted fill: on the graded p = 20
    Jacobian at 30,533 nodes partial pivoting needs 2.9M LU nonzeros,
    this rule 1.42M (X. S. Li, ACM TOMS 31, 2005).

    SuperLU updates PANEL_SIZE = 2 columns at a time, where its default is
    20.  A panel's dense scratch space is about 16 bytes times n times the
    width (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal.
    Appl. 20, 1999), and the supernodes of a five-point stencil are too
    small for a wide panel to pay.  With the same fill and pivots, the
    memory an LU holds above its finished factor fell from 17 MB to about
    0 on the 51,429-node disk Laplacian and from 68 to 12 MB on the
    205,857-node one, and the LU of the 122,029-node graded p = 20
    Jacobian took 356-360 ms where it took 434-473 (2 cores, one BLAS
    thread).  A width of 1 peaks up to 3 MB lower but is about 7% slower on
    the 487,901-node graded Jacobian (3.4 s against 3.2).
    """
    return _superlu(A, DIAG_PIVOT_THRESH)


def _superlu(A: sp.spmatrix, diag_pivot_thresh: float) -> spla.SuperLU:
    """The one place a SuperLU factor is made: minimum degree on A^T + A,
    symmetric mode, PANEL_SIZE columns per panel.  A CSC matrix, such as
    every ``SparseOperator``, reaches ``splu`` itself; ``tocsc`` copies only
    another format."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                     panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))


@dataclass
class EigenPairs:
    """Eigenvalues ascending; eigenvectors column-stacked, orthonormal.

    residuals[i] = ||A v_i - lambda_i v_i|| / max(1, |lambda_i|).
    negatives is the count of A's negative eigenvalues, nearest zero or not
    (its inertia), or None where the LU took an off-diagonal pivot.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    negatives: int | None


def smallest_eigenpairs(A: sp.spmatrix, m: int = 1, tol: float = 1e-8) -> EigenPairs:
    """The m eigenpairs nearest zero of the symmetric matrix A, by ARPACK
    shift-invert (scipy ``eigsh``), and A's inertia.

    A is factorized once, in SuperLU's symmetric mode with diagonal pivots
    only (threshold 0).  When every pivot is diagonal (perm_r == perm_c),
    P A P^T = L U with U = diag(U) L^T, so A is congruent to diag(U) and the
    count of negative entries on U's diagonal is the count of A's negative
    eigenvalues (Sylvester's law of inertia).  A zero diagonal entry forces an
    off-diagonal pivot, and then no count is read.  Raises
    ``NoConvergenceError`` when a pair's residual exceeds tol.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = A.shape[0]
    lu = _superlu(A, 0.0)
    OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = spla.eigsh(A, k=m, sigma=0.0, OPinv=OPinv, v0=v0, tol=0.0)
    # reading U copies L and U beside the factor, so it waits for ARPACK to finish
    negatives = None
    if np.array_equal(lu.perm_r, lu.perm_c):
        negatives = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    resid = np.linalg.norm(A @ vecs - vecs * vals, axis=0) / np.maximum(1.0, np.abs(vals))
    worst = float(np.max(resid))
    if not worst <= tol:
        raise NoConvergenceError(f"eigenpairs nearest zero missed tol={tol:.1e}", worst)
    return EigenPairs(vals, vecs, resid, negatives)
