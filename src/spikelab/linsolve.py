"""Sparse CSR operators and the few eigenpairs nearest a target by ARPACK
shift-invert on the operator's one sparse LU."""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MMAP_THRESHOLD = 4 << 20  # bytes; heap blocks this large get their own mapping


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


class ShiftBreakdownError(SolverError):
    """The shift is numerically indistinguishable from an eigenvalue."""


@dataclass
class SparseOperator:
    """Row-compressed sparse matrix with an explicit diagonal on every row."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseOperator":
        rows = np.concatenate([np.asarray(rows, dtype=int), np.arange(n)])
        cols = np.concatenate([np.asarray(cols, dtype=int), np.arange(n)])
        vals = np.concatenate([np.asarray(vals, dtype=float), np.zeros(n)])
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        return cls(n, m.indptr, m.indices, m.data)

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.to_scipy() @ x

    def diagonal(self) -> np.ndarray:
        return self.to_scipy().diagonal()

    def plus_diagonal(self, d: np.ndarray) -> "SparseOperator":
        m = self.to_scipy() + sp.diags(np.asarray(d, dtype=float))
        m = m.tocsr()
        return SparseOperator(self.n, m.indptr, m.indices, m.data)

    def factorized(self, sigma: float = 0.0):
        """Sparse LU of (A - sigma I); returns an object with .solve(b).

        Every operator here has the symmetric sparsity of a five-point
        stencil, so the columns are ordered by minimum degree on A^T + A.
        """
        m = self.to_scipy().tocsc()
        if sigma != 0.0:
            m = (m - sigma * sp.identity(self.n, format="csc")).tocsc()
        return spla.splu(m, permc_spec="MMD_AT_PLUS_A")


@dataclass
class EigenPairs:
    """Eigenvalues ascending; eigenvectors column-stacked with unit L2 norm.

    residuals[i] = ||A v_i - lambda_i v_i|| / max(1, |lambda_i|).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


def smallest_eigenpairs(
    A: SparseOperator,
    m: int = 1,
    sigma: float = 0.0,
    tol: float = 1e-8,
) -> EigenPairs:
    """m eigenpairs nearest sigma by ARPACK shift-invert (scipy ``eigs``).

    (A - sigma I) is factorized once by ``SparseOperator.factorized``; when
    sigma is exactly an eigenvalue the shift is nudged.  The operator may be
    mildly nonsymmetric (cut-cell Laplacians), so the Arnoldi variant runs.
    ARPACK needs m < n - 1; above that the dense eigenproblem is solved.
    Raises ``NoConvergenceError`` when a pair's residual exceeds tol.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    m = min(m, A.n)
    Asp = A.to_scipy()
    if m >= A.n - 1:
        vals, vecs = la.eig(Asp.toarray())
        keep = np.argsort(np.abs(vals - sigma))[:m]
        vals, vecs = vals[keep], vecs[:, keep]
    else:
        lu = None
        shift = sigma
        for attempt in range(4):
            try:
                lu = A.factorized(shift)
                break
            except RuntimeError:
                scale = max(abs(sigma), float(np.max(np.abs(A.diagonal()))), 1.0)
                shift = sigma + (10.0 ** (attempt - 8)) * scale
        if lu is None:
            raise ShiftBreakdownError(f"factorization of (A - {sigma} I) failed")
        OPinv = spla.LinearOperator((A.n, A.n), matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(A.n)
        vals, vecs = spla.eigs(Asp, k=m, sigma=shift, OPinv=OPinv, v0=v0, tol=0.0)

    order = np.argsort(vals.real)
    vals, vecs = vals.real[order], vecs[:, order]
    # the eigenvector of a real eigenvalue is a real vector times a phase
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = (vecs * (np.abs(peak) / peak)).real
    vecs /= np.linalg.norm(vecs, axis=0)
    # a multiple eigenvalue comes back as an arbitrary basis of its
    # eigenspace; eigenvalues equal to within tol share one orthonormal basis
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol * max(1.0, abs(vals[i])):
            if i - start > 1:
                vecs[:, start:i] = np.linalg.qr(vecs[:, start:i])[0]
            start = i
    resid = np.linalg.norm(Asp @ vecs - vecs * vals, axis=0) / np.maximum(1.0, np.abs(vals))
    worst = float(np.max(resid))
    if not worst <= tol:
        raise NoConvergenceError(f"eigenpairs near sigma={sigma:.3e} missed tol={tol:.1e}", worst)
    return EigenPairs(vals, vecs, resid)
