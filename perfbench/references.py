"""Correctness references computed apart from spikelab.

Each function here solves its problem anew with numpy/scipy and the
closed forms of the unit disk, so a wrong answer in the program cannot leak
into the reference it is checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

EIGHT_PI = 8.0 * math.pi


def disk_robin(x: np.ndarray) -> float:
    """Robin function of the unit disk, R(x) = -log(1 - |x|^2) / (2 pi)."""
    return -math.log1p(-float(x[0] ** 2 + x[1] ** 2)) / (2.0 * math.pi)


def disk_robin_hessian_eigenvalue() -> float:
    """R(x) = |x|^2/(2 pi) + O(|x|^4) at the centre: both Hessian eigenvalues are 1/pi."""
    return 1.0 / math.pi


class DiskRadial:
    """Positive radial solution of -u'' - u'/r = u^p on the unit disk, u(1) = 0.

    w'' + w'/r + w^p = 0, w(0) = 1, is shot to its first zero rho0; then
    u(r) = rho0^(2/(p-1)) w(rho0 r) solves the disk problem, so the peak
    height is rho0^(2/(p-1)).
    """

    def __init__(self, p: float):
        self.p = p
        r0 = 1e-6  # start off the axis on the Taylor series w = 1 - r^2/4
        y0 = [1.0 - r0 * r0 / 4.0, -r0 / 2.0]

        def rhs(r, y):
            return [y[1], -y[1] / r - np.maximum(y[0], 0.0) ** p]

        def zero(r, y):
            return y[0]

        zero.terminal = True
        zero.direction = -1
        sol = solve_ivp(rhs, (r0, 1e12), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                        events=zero, dense_output=True)
        if sol.status != 1:
            raise RuntimeError(f"radial shooting found no zero at p = {p}")
        self.rho0 = float(sol.t_events[0][0])
        self._sol = sol
        self.u_max = self.rho0 ** (2.0 / (p - 1.0))

    def u(self, r: np.ndarray) -> np.ndarray:
        rho = np.clip(np.asarray(r, dtype=float) * self.rho0, 1e-6, self.rho0)
        return self.u_max * np.maximum(self._sol.sol(rho)[0], 0.0)


def disk_bottom_spectrum(p: float, count: int = 4, m_max: int = 6, n: int = 20000):
    """Eigenvalues nearest zero of -Δ - p u^(p-1) on the unit disk, by mode.

    Each angular mode m is a Sturm-Liouville problem
    -(r f')' + (m^2/r) f - r p u^(p-1) f = lam r f on (0, 1), f(1) = 0,
    discretized by finite volumes on n uniform cells (second order).  Modes
    m >= 1 count twice (cos and sin).  Returns the ``count`` eigenvalues
    nearest zero in ascending order, and the Morse index.
    """
    rad = DiskRadial(p)
    h = 1.0 / n
    rc = (np.arange(n) + 0.5) * h  # cell centres
    rf = np.arange(1, n + 1) * h  # upper faces; the face at r = 0 carries no flux
    V = p * rad.u(rc) ** (p - 1.0)
    mass = rc * h
    lams_all = []
    morse = 0
    for m in range(m_max + 1):
        diag = (np.concatenate([[0.0], rf[:-1]]) + rf) / h + (m * m / rc) * h - V * mass
        diag[-1] += rf[-1] / h  # ghost value -f_n: f = 0 on the face r = 1
        off = -rf[:-1] / h
        s = 1.0 / np.sqrt(mass)
        lams = eigh_tridiagonal(diag * s * s, off * s[:-1] * s[1:], eigvals_only=True,
                                select="i", select_range=(0, 5))
        mult = 1 if m == 0 else 2
        morse += mult * int(np.sum(lams < 0))
        lams_all.extend(float(v) for v in lams for _ in range(mult))
    return sorted(sorted(lams_all, key=abs)[:count]), morse
