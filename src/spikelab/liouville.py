"""The limit bubble of Lane-Emden spikes: profile U, the linearized kernel
basis, the radial 1/p correction w0, and the universal constants attached to
them.

U(r) = -2 log(1 + r^2/8) solves -ΔU = e^U with total mass 8 pi.  The
correction w0 solves

    w'' + w'/r + e^U w = (U^2 / 2) e^U,   w(0) = w'(0) = 0,

integrated outward by classical RK4 from a series seed (the forcing vanishes
to fourth order at the origin, so the series start keeps full order).  The
value gauge w(0) = 0 removes the radial kernel direction since Z0(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

EIGHT_PI = 8.0 * np.pi
# radius, in the rescaled variable y, of the disk |y| <= R on which
# eigenfunctions are fitted against the kernel basis (2-D and radial alike)
KERNEL_FIT_RADIUS = 10.0
# the w0 table: RK4 out to W0_R_MAX, where its flux r w0'(r) is read, on steps
# W0_BASE_STEP + W0_STEP_GROWTH r
W0_R_MAX = 1e3
W0_BASE_STEP = 2e-3
W0_STEP_GROWTH = 4e-3


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


def _forcing(r):
    u = U(r)
    return 0.5 * u * u * eU(r)


@dataclass
class LiouvilleProfile:
    """Radial table of w0 on [r0, W0_R_MAX] with cubic interpolation."""

    r: np.ndarray
    w0_values: np.ndarray
    w0_prime_values: np.ndarray

    def __post_init__(self):
        self._w0 = CubicSpline(self.r, self.w0_values)
        self._w0p = CubicSpline(self.r, self.w0_prime_values)

    def w0(self, r):
        return self._w0(np.asarray(r, dtype=float))

    def w0_prime(self, r):
        return self._w0p(np.asarray(r, dtype=float))

    def flux(self) -> float:
        """r * w0'(r) at r = W0_R_MAX; tends to 12 as r grows."""
        return float(W0_R_MAX * self.w0_prime(W0_R_MAX))

    def boundary_flux_integral(self) -> float:
        """Circle integral of the normal derivative, 2 pi r w0'(r) -> 24 pi,
        at r = W0_R_MAX."""
        return float(2.0 * np.pi * W0_R_MAX * self.w0_prime(W0_R_MAX))


def solve_w0() -> LiouvilleProfile:
    """Integrate the w0 equation outward to W0_R_MAX with RK4 on a graded step.

    Steps grow proportionally to r (the solution is logarithmic at infinity),
    capped so the bubble core near r ~ sqrt(8) stays finely resolved.  The
    step grid does not depend on the solution, so e^U and the forcing are
    tabulated once at every stage point (step start, midpoint and end) and
    the pair (w0, w0') is stepped in plain floats.
    """
    r0 = 1e-3
    # series: w = r^6/1152 - 29 r^8/147456 + O(r^10)
    w = r0**6 / 1152.0 - 29.0 * r0**8 / 147456.0
    wp = 6.0 * r0**5 / 1152.0 - 29.0 * 8.0 * r0**7 / 147456.0

    rs = [r0]
    drs = []
    while rs[-1] < W0_R_MAX:
        drs.append(min(W0_BASE_STEP + W0_STEP_GROWTH * rs[-1], W0_R_MAX - rs[-1]))
        rs.append(rs[-1] + drs[-1])
    # r, e^U and the forcing at every RK4 stage point: step start, midpoint, end
    start = np.array(rs[:-1])
    dr = np.array(drs)
    stages = np.stack([start, start + 0.5 * dr, start + dr])
    table = np.concatenate([stages, eU(stages), _forcing(stages)]).tolist()
    ws = [w]
    wps = [wp]
    for h, r_0, r_m, r_1, e_0, e_m, e_1, f_0, f_m, f_1 in zip(drs, *table):
        # w'' = f - e w - w'/r, stage by stage
        k1w, k1p = wp, f_0 - e_0 * w - wp / r_0
        k2w = wp + 0.5 * h * k1p
        k2p = f_m - e_m * (w + 0.5 * h * k1w) - k2w / r_m
        k3w = wp + 0.5 * h * k2p
        k3p = f_m - e_m * (w + 0.5 * h * k2w) - k3w / r_m
        k4w = wp + h * k3p
        k4p = f_1 - e_1 * (w + h * k3w) - k4w / r_1
        w = w + (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
        wp = wp + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        ws.append(w)
        wps.append(wp)
    if not (math.isfinite(w) and math.isfinite(wp)):
        raise AssertionError("w0 integration produced non-finite values")
    return LiouvilleProfile(np.array(rs), np.array(ws), np.array(wps))


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
