"""The limit bubble of Lane-Emden spikes: profile U, the linearized kernel
basis, the radial 1/p correction w0, and the universal constants attached to
them.

U(r) = -2 log(1 + r^2/8) solves -ΔU = e^U with total mass 8 pi.  The
correction w0 solves

    w'' + w'/r + e^U w = (U^2 / 2) e^U,   w(0) = w'(0) = 0,

integrated outward by DOP853 (``solve_ivp``, as the radial oracle is) from a
series seed at r = 1e-3 (the forcing vanishes to fourth order at the origin,
so the series start keeps full order).  The value gauge w(0) = 0 removes the
radial kernel direction since Z0(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

EIGHT_PI = 8.0 * np.pi
# radius, in the rescaled variable y, of the disk |y| <= R on which
# eigenfunctions are fitted against the kernel basis (2-D and radial alike)
KERNEL_FIT_RADIUS = 10.0
# w0 is integrated out to W0_R_MAX, where its flux r w0'(r) is read
W0_R_MAX = 1e3
W0_TOL = 1e-12  # relative tolerance of the DOP853 integration


class QuadratureError(RuntimeError):
    pass


def U(r):
    return -2.0 * np.log1p(np.asarray(r, dtype=float) ** 2 / 8.0)


def eU(r):
    return (1.0 + np.asarray(r, dtype=float) ** 2 / 8.0) ** -2


def Z0(r):
    r = np.asarray(r, dtype=float)
    return (8.0 - r * r) / (8.0 + r * r)


def Z_translation(i: int, x1, x2):
    """Z_i(x) = x_i / (8 + |x|^2), i in {1, 2}."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    denom = 8.0 + x1 * x1 + x2 * x2
    return (x1 if i == 1 else x2) / denom


def dU_translation(i: int, x1, x2):
    """dU/dx_i = -4 x_i / (8 + |x|^2) = -4 Z_i; the kernel element in the
    normalization for which the spike-coefficient limits hold."""
    return -4.0 * Z_translation(i, x1, x2)


def Z0_xy(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return Z0(np.hypot(x1, x2))


@dataclass
class LiouvilleProfile:
    """w0 on [r0, W0_R_MAX]: the integrator's accepted steps and its dense
    output, which ``w0`` and ``w0_prime`` evaluate."""

    r: np.ndarray
    w0_values: np.ndarray
    w0_prime_values: np.ndarray
    _dense: object  # solve_ivp's OdeSolution over [r0, W0_R_MAX]

    def w0(self, r):
        return self._dense(np.asarray(r, dtype=float))[0]

    def w0_prime(self, r):
        return self._dense(np.asarray(r, dtype=float))[1]

    def flux(self) -> float:
        """r * w0'(r) at r = W0_R_MAX; tends to 12 as r grows."""
        return float(W0_R_MAX * self.w0_prime_values[-1])

    def boundary_flux_integral(self) -> float:
        """Circle integral of the normal derivative, 2 pi r w0'(r) -> 24 pi,
        at r = W0_R_MAX."""
        return float(2.0 * np.pi * W0_R_MAX * self.w0_prime_values[-1])


def solve_w0() -> LiouvilleProfile:
    """Integrate the w0 equation outward to W0_R_MAX with DOP853 at W0_TOL."""

    def rhs(r, s):
        w, wp = s
        e = (1.0 + r * r / 8.0) ** -2
        u = -2.0 * math.log1p(r * r / 8.0)
        return (wp, 0.5 * u * u * e - e * w - wp / r)

    r0 = 1e-3
    # series: w = r^6/1152 - 29 r^8/147456 + O(r^10)
    s0 = (
        r0**6 / 1152.0 - 29.0 * r0**8 / 147456.0,
        6.0 * r0**5 / 1152.0 - 29.0 * 8.0 * r0**7 / 147456.0,
    )
    sol = solve_ivp(rhs, (r0, W0_R_MAX), s0, method="DOP853",
                    rtol=W0_TOL, atol=W0_TOL * 1e-2, dense_output=True)
    if not (sol.success and np.all(np.isfinite(sol.y[:, -1]))):
        raise AssertionError(f"w0 integration failed: {sol.message}")
    return LiouvilleProfile(sol.t, sol.y[0], sol.y[1], sol.sol)


def _quad(f, a, b, tol):
    val, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=400)
    if not np.isfinite(val) or err > max(10 * tol, 1e-8 * abs(val)):
        raise QuadratureError(f"quadrature error estimate {err:.2e} above tolerance")
    return val


def w0_forcing_rescaled(t):
    """Forcing of the sqrt(8)-rescaled w0 equation: 16 log^2(1+t^2)/(1+t^2)^2."""
    t = np.asarray(t, dtype=float)
    return 16.0 * np.log1p(t * t) ** 2 / (1.0 + t * t) ** 2


def universal_constants(tol: float = 1e-10, *, profile: LiouvilleProfile) -> dict:
    """Evaluate the bubble constants and return measured/target pairs.

    M1 = total bubble mass (8 pi); M2 = log-moment (12 pi log 2);
    I3 = the rescaled-forcing flux integral (12), the integral of
    t (t^2-1)/(t^2+1) f(t) over (0, inf): the coefficient c with dw/dr ~ c/r
    for Δw + 8 e^{U(sqrt(8) y)} w = f(|y|); w0_flux = r w0'(r) at
    W0_R_MAX (12) and w0_boundary_integral = 2 pi r w0'(r) (24 pi) from the
    given w0 profile.
    """
    if tol < 1e-14:
        raise ValueError("tol below double-precision quadrature range")
    m1 = _quad(lambda r: 2 * np.pi * r * eU(r), 0.0, np.inf, tol)
    m2 = _quad(lambda r: 2 * np.pi * r * np.log(r) * eU(r), 0.0, np.inf, tol)
    i3 = _quad(lambda t: t * (t * t - 1.0) / (t * t + 1.0) * w0_forcing_rescaled(t),
               0.0, np.inf, tol)
    flux = profile.flux()
    record = {
        "mass": {"measured": m1, "target": EIGHT_PI},
        "log_moment": {"measured": m2, "target": 12.0 * np.pi * np.log(2.0)},
        "flux_integral": {"measured": i3, "target": 12.0},
        "w0_flux": {"measured": flux, "target": 12.0},
        "w0_boundary_integral": {
            "measured": profile.boundary_flux_integral(),
            "target": 24.0 * np.pi,
        },
    }
    for entry in record.values():
        entry["rel_err"] = abs(entry["measured"] - entry["target"]) / abs(entry["target"])
    return record
