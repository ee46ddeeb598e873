"""Closed forms the tests check the program against: the unit disk's Green
function and Robin derivatives (image charges), the derivatives of the
radial kernel element Z0 of the Liouville bubble, and a reference assembly
of the mesh Laplacian from COO triplets."""

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * np.pi


def unit_disk_G(x, y) -> float:
    """G(x,y) = -(1/2pi) log(|x-y| / (|x| |x* - y|)) with x* = x/|x|^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.hypot(*x)
    d = np.hypot(*(x - y))
    if rx < 1e-14:
        return float(-np.log(np.hypot(*y)) / TWO_PI)
    xstar = x / rx**2
    return float(-np.log(d / (rx * np.hypot(*(xstar - y)))) / TWO_PI)


def unit_disk_grad_G(x, y) -> np.ndarray:
    """Gradient of G(x, .) at y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    g = -d / (TWO_PI * (d @ d))
    rx = np.hypot(*x)
    if rx < 1e-14:
        return g
    xstar = x / rx**2
    ds = y - xstar
    return g + ds / (TWO_PI * (ds @ ds))


def unit_disk_grad_R(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    return x / (np.pi * (1.0 - r2))


def unit_disk_hess_R(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    eye = np.eye(2)
    return (eye / (1.0 - r2) + 2.0 * np.outer(x, x) / (1.0 - r2) ** 2) / np.pi


def Z0_prime(r):
    r = np.asarray(r, dtype=float)
    return -32.0 * r / (8.0 + r * r) ** 2


def Z0_second(r):
    r = np.asarray(r, dtype=float)
    return -32.0 * (8.0 - 3.0 * r * r) / (8.0 + r * r) ** 3


def coo_laplacian(mesh) -> sp.csc_matrix:
    """The Shortley-Weller -Δ of ``mesh.assemble_laplacian``, assembled row
    by row from (row, column, value) triplets: the diagonal
    2/(aE aW) + 2/(aN aS) and -2/(a (a + a_opposite)) toward each neighbour."""
    n = mesh.n_nodes
    a = mesh.arms
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [2.0 / (a[:, 0] * a[:, 1]) + 2.0 / (a[:, 2] * a[:, 3])]
    for d, opp in enumerate((1, 0, 3, 2)):
        ao = a[:, d]
        coef = -2.0 / (ao * (ao + a[:, opp]))
        mask = mesh.nbr[:, d] >= 0
        rows.append(np.nonzero(mask)[0])
        cols.append(mesh.nbr[mask, d])
        vals.append(coef[mask])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsc()
