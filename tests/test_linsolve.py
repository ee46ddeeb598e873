import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from spikelab import greens, kirchhoff_routh, lane_emden, linsolve
from spikelab.linsolve import NoConvergenceError, SparseOperator, factorize
from spikelab.mesh import assemble_laplacian, build_graded_mesh, build_mesh, make_domain


def square_interior_laplacian(n):
    """Classical 5-point -Δ on the interior of the unit square, n x n nodes."""
    h = 1.0 / (n + 1)
    rows, cols, vals = [], [], []
    idx = lambda i, j: i * n + j
    for i in range(n):
        for j in range(n):
            rows.append(idx(i, j))
            cols.append(idx(i, j))
            vals.append(4.0 / h**2)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    rows.append(idx(i, j))
                    cols.append(idx(ii, jj))
                    vals.append(-1.0 / h**2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


def test_duplicate_entries_are_summed():
    # a SparseOperator is a csc_matrix and accepts its COO constructor
    A = SparseOperator(([1.0, 2.0, 5.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2))
    assert np.allclose(A.diagonal(), [3.0, 5.0])
    assert A.has_canonical_format and A.nnz == 2 and A.format == "csc"
    assert A.to_scipy() is A


def test_factorize_hands_splu_the_callers_matrix(monkeypatch):
    # the Laplacian and the Jacobians are CSC already: no second copy of
    # the matrix may sit beside the LU while SuperLU runs
    seen = []
    splu = linsolve.spla.splu

    def spy(A, **kw):
        seen.append(A)
        return splu(A, **kw)

    monkeypatch.setattr(linsolve.spla, "splu", spy)
    msh = build_mesh(make_domain("disk", r=1.0), 1.0 / 16)
    A = greens.laplacian_operator(msh)
    J = lane_emden.LaneEmdenProblem(msh).jacobian(np.full(msh.n_nodes, 0.5), 3.0)
    factorize(A)
    factorize(J)
    assert seen[0] is A and seen[1] is J


def test_jacobian_shares_the_laplacian_structure():
    # J owns only its values: the index arrays are the Laplacian's, the
    # values those of A - diag(p u_+^(p-1)), and factorizing J leaves A alone
    msh = build_mesh(make_domain("disk", r=1.0), 1.0 / 32)
    problem = lane_emden.LaneEmdenProblem(msh)
    A = problem.A
    saved = [a.copy() for a in (A.data, A.indices, A.indptr)]
    u = np.random.default_rng(2).uniform(-0.5, 1.5, msh.n_nodes)
    J = problem.jacobian(u, 5.0)
    assert np.shares_memory(J.indices, A.indices) and np.shares_memory(J.indptr, A.indptr)
    ref = A + sp.diags(-problem.potential(u, 5.0))
    assert ref.format == "csc" and ref.nnz == J.nnz
    assert all(a.tobytes() == b.tobytes() for a, b in
               zip((J.data, J.indices, J.indptr), (ref.data, ref.indices, ref.indptr)))
    factorize(J)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((A.data, A.indices, A.indptr), saved))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.floats(-2, 2), st.floats(-2, 2))
def test_matvec_linearity(n, alpha, beta):
    A = square_interior_laplacian(n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n * n)
    y = rng.standard_normal(n * n)
    left = A @ (alpha * x + beta * y)
    right = alpha * (A @ x) + beta * (A @ y)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-9)


def test_diagonal_matrix_eigenpairs():
    A = sp.diags([1.0, 2.0, 3.0], format="csr")
    ep = linsolve.smallest_eigenpairs(A, m=2, tol=1e-12)
    assert np.allclose(ep.eigenvalues, [1.0, 2.0])
    for k, col in enumerate(ep.eigenvectors.T):
        assert abs(abs(col[k]) - 1.0) < 1e-8


def test_disk_smallest_eigenvalue():
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 24)
    A = assemble_laplacian(m)
    ep = linsolve.smallest_eigenpairs(A, m=1, tol=1e-10)
    assert ep.eigenvalues[0] == pytest.approx(2.404825557695773**2, rel=0.02)
    assert np.all(ep.residuals <= 1e-10)


def test_deflation_orthogonality_symmetric():
    A = square_interior_laplacian(10)
    ep = linsolve.smallest_eigenpairs(A, m=4, tol=1e-10)
    V = ep.eigenvectors
    gram = V.T @ V - np.eye(4)
    assert np.max(np.abs(gram)) < 1e-8
    assert np.all(np.diff(ep.eigenvalues) >= -1e-12)


def test_inertia_counts_every_negative_eigenvalue():
    # -Δ - 800 on the 20 x 20 square has 64 negative eigenvalues, from -780.3
    # to the pair at -4.78 nearest zero; the inertia counts every one of them
    n = 20
    A = (square_interior_laplacian(n) - 800.0 * sp.identity(n * n)).tocsc()
    exact = np.linalg.eigvalsh(A.toarray())
    ep = linsolve.smallest_eigenpairs(A, m=2, tol=1e-10)
    assert ep.negatives == np.count_nonzero(exact < 0) == 64
    assert np.allclose(ep.eigenvalues, np.sort(exact[np.argsort(np.abs(exact))[:2]]), rtol=1e-10)


def test_inertia_is_read_only_from_diagonal_pivots():
    # a zero diagonal entry forces an off-diagonal pivot: the pairs still
    # come, but U's diagonal is no inertia
    A = sp.csc_matrix(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]]))
    ep = linsolve.smallest_eigenpairs(A, m=2, tol=1e-10)
    assert np.allclose(ep.eigenvalues, [-1.0, 1.0])
    assert ep.negatives is None


def test_residual_guard_reports_achieved():
    A = square_interior_laplacian(6)
    with pytest.raises(NoConvergenceError) as err:
        linsolve.smallest_eigenpairs(A, m=2, tol=1e-300)
    assert 0.0 < err.value.achieved < 1e-8


def backward_error(M, x, b):
    """Normwise relative backward error ||Mx - b|| / (||M|| ||x|| + ||b||), max norms."""
    r = M @ x - b
    return np.max(np.abs(r)) / (spla.norm(M, np.inf) * np.max(np.abs(x)) + np.max(np.abs(b)))


def test_tiny_diagonal_is_not_taken_as_pivot():
    # ones beside a diagonal of 1e-13: keeping every diagonal pivot (threshold
    # 0) gives a backward error near 2e-5, so the threshold must act here
    n = 400
    i = np.arange(n - 1)
    A = sp.diags([np.ones(n - 1), np.full(n, 1e-13), np.ones(n - 1)], [-1, 0, 1], format="csr")
    b = np.random.default_rng(0).standard_normal(n)
    assert backward_error(A, factorize(A).solve(b), b) <= 1e-12


def test_spike_jacobian_keeps_predicted_fill():
    # the p = 20 spike makes the Jacobian's spike rows diagonally dominant;
    # keeping those diagonal pivots roughly halves the fill of partial pivoting
    eps20 = 1.39e-3
    msh = build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 64, (0.0, 0.0), eps20)
    u = lane_emden.ansatz(msh, kirchhoff_routh.psi_eval(msh, [(0.0, 0.0)]), 20.0)
    J = lane_emden.LaneEmdenProblem(msh).jacobian(u, 20.0)
    b = np.random.default_rng(1).standard_normal(J.shape[0])
    lu = factorize(J)
    assert backward_error(J, lu.solve(b), b) <= 1e-10
    assert lu.nnz < spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A").nnz


_FREED_BLOCK_RSS = """
import numpy as np
from spikelab import linsolve  # pins the thresholds on import

def rss_kb():
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS"):
            return int(line.split()[1])

big = np.ones(3 << 20)  # 24 MB: unpinned, freeing it lifts the mmap threshold to 24 MB
del big
before = rss_kb()
block = np.ones(2 << 20)  # 16 MB, touched
del block
print(rss_kb() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_freed_large_block_leaves_resident_set():
    # the peak resident set must not depend on heap fragmentation: a large
    # block freed after a larger one goes back to the system at once
    src = str(Path(linsolve.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FREED_BLOCK_RSS], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert int(out.stdout) < 1024


_LU_SCRATCH_RSS = """
from spikelab import greens, linsolve
from spikelab.mesh import build_mesh, make_domain

def status_kb(key):
    for line in open("/proc/self/status"):
        if line.startswith(key):
            return int(line.split()[1])

A = greens.laplacian_operator(build_mesh(make_domain("disk", r=1.0), 1.0 / 128))
lu = linsolve.factorize(A)
print(status_kb("VmHWM") - status_kb("VmRSS"))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_lu_scratch_space_stays_small():
    # the peak while SuperLU runs may exceed the finished factor by a few MB
    # only: the h = 1/128 disk Laplacian (51,429 nodes) peaks 17 MB above it
    # with SuperLU's default 20-column panels and about 0 with PANEL_SIZE.
    # VmHWM is the peak of this process's own image; ru_maxrss would start
    # from the resident set of the test process that spawned it
    src = str(Path(linsolve.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _LU_SCRATCH_RSS], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert int(out.stdout) <= 4096
