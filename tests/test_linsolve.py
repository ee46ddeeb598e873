import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikelab import linsolve
from spikelab.linsolve import NoConvergenceError, SparseOperator
from spikelab.mesh import assemble_laplacian, build_mesh, make_domain


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
    return SparseOperator.from_coo(n * n, rows, cols, vals)


def test_duplicate_entries_are_summed():
    A = SparseOperator.from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert np.allclose(A.diagonal(), [3.0, 5.0])


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
    A = SparseOperator.from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    ep = linsolve.smallest_eigenpairs(A, m=2, sigma=0.0, tol=1e-12)
    assert np.allclose(ep.eigenvalues, [1.0, 2.0])
    for k, col in enumerate(ep.eigenvectors.T):
        assert abs(abs(col[k]) - 1.0) < 1e-8


def test_disk_smallest_eigenvalue():
    m = build_mesh(make_domain("disk", r=1.0), 1.0 / 24)
    A = assemble_laplacian(m)
    ep = linsolve.smallest_eigenpairs(A, m=1, sigma=0.0, tol=1e-10)
    assert ep.eigenvalues[0] == pytest.approx(2.404825557695773**2, rel=0.02)
    assert np.all(ep.residuals <= 1e-10)


def test_deflation_orthogonality_symmetric():
    A = square_interior_laplacian(10)
    ep = linsolve.smallest_eigenpairs(A, m=4, sigma=0.0, tol=1e-10)
    V = ep.eigenvectors
    gram = V.T @ V - np.eye(4)
    assert np.max(np.abs(gram)) < 1e-8
    assert np.all(np.diff(ep.eigenvalues) >= -1e-12)


def test_shift_retry_on_exact_eigenvalue():
    A = SparseOperator.from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    ep = linsolve.smallest_eigenpairs(A, m=1, sigma=1.0, tol=1e-10)
    assert ep.eigenvalues[0] == pytest.approx(1.0)


def test_residual_guard_reports_achieved():
    A = square_interior_laplacian(6)
    with pytest.raises(NoConvergenceError) as err:
        linsolve.smallest_eigenpairs(A, m=2, sigma=0.0, tol=1e-300)
    assert 0.0 < err.value.achieved < 1e-8


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
