"""High-precision radial instruments for the unit disk.

The radial Lane-Emden solution is integrated in rescaled peak variables:
with u(r) = u0 (1 + w(y)/p), y = r/eps0, eps0 = (p u0^(p-1))^(-1/2), the
profile solves the universal initial-value problem

    w'' + w'/y + (1 + w/p)_+^p = 0,   w(0) = w'(0) = 0,

independent of u0.  The zero of u fixes the boundary radius y_b (directly, or
through the flux-frozen logarithmic tail when y_b is astronomically large),
and u(1) = 0 then pins u0 = (y_b^2/p)^(1/(p-1)) by scale invariance.  This
resolves spike scales like eps ~ e^(-p/4) exactly, far below what any 2-D
grid can represent.

The same profile feeds a one-dimensional eigensolver for the linearized
operator -Δ - p u^(p-1) decomposed into angular Fourier modes, every mode
on one geometric finite-volume grid of n nodes that refines them all.
LAPACK bisection on the tridiagonal forms gives exact negative-eigenvalue
counts for m = 0, 2, 3; the translation sector m = 1, whose near-null
eigenvalue is a near-cancellation, is bisected in factorized form, on the
Golub-Kahan tridiagonal of its bidiagonal factor.  Every bisection searches
a bounded value window: the negatives from below a Gershgorin floor up to
zero, the lowest positives from zero up to a Bessel ceiling j_(m,k)^2 (the
Dirichlet disk's eigenvalue, an upper bound by min-max since V >= 0),
doubled until enough are found.  The graded tridiagonals' own Gershgorin
interval is ~1e30 wide, and bisecting from it costs ~150 halvings per O(1)
eigenvalue against ~55 from a window; the relative accuracy is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.special import jn_zeros

from . import liouville


class BracketFailureError(RuntimeError):
    pass


Y_START = 1e-4
Y_CAP = 4e6
RADIAL_TOL = 1e-12  # relative tolerance of the DOP853 integration
# the spike ball B_d: the mass deficit's radius, and the cap of the 2-D
# solver's spike radius (lane_emden.default_spike_radius)
SPIKE_BALL_RADIUS = 0.25


class _DensePolynomials:
    """DOP853's dense output of one ``solve_ivp`` run, evaluated in bulk.

    ``OdeSolution`` hands each run of query points in one step to that
    step's interpolant in a Python loop (about 200 steps at p = 80).  Here
    every point finds its step with one ``searchsorted``, on the same side
    ``OdeSolution`` takes for an ascending run, and all the step
    polynomials are evaluated together, each in the interpolant's own
    operation order, so every value is bit-identical to ``OdeSolution``'s.
    """

    def __init__(self, sol):
        steps = sol.interpolants
        self.ts = sol.ts
        self.t_old = np.array([s.t_old for s in steps])
        self.h = np.array([s.h for s in steps])
        self.y_old = np.array([s.y_old for s in steps])  # (steps, states)
        self.coef = np.array([s.F[::-1] for s in steps])  # (steps, power, states), highest first

    def __call__(self, t, k: int) -> np.ndarray:
        """State component k at the points t, which lie in [ts[0], ts[-1]]."""
        step = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self.h.size - 1)
        x = (t - self.t_old[step]) / self.h[step]
        x1 = 1 - x
        y = np.zeros(x.shape)
        for i, c in enumerate(self.coef[step, :, k].T):
            y += c
            y *= x1 if i % 2 else x
        y += self.y_old[step, k]
        return y


@dataclass
class RadialSolution:
    """Unit-disk radial solution in rescaled peak variables."""

    p: float
    u0: float
    eps0: float
    y_boundary: float  # u = 0 at y_b = 1/eps0
    y_far: float  # last integrated y; beyond it w' = -alpha/y exactly
    alpha: float  # frozen flux -y w'(y) at y_far
    tail_active: bool
    _dense: object  # solve_ivp dense output over [Y_START, y_far]

    # cumulative integrals at y_far: mass int (1+w/p)^p y dy, energy int w'^2 y dy
    mass_cum: float
    energy_cum: float
    _poly: _DensePolynomials = field(init=False, repr=False)

    def __post_init__(self):
        self._poly = _DensePolynomials(self._dense.sol)

    def w(self, y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        small = y < Y_START
        mid = (~small) & (y <= self.y_far)
        far = y > self.y_far
        out[small] = -y[small] ** 2 / 4.0 + y[small] ** 4 / 64.0
        if np.any(mid):
            out[mid] = self._poly(y[mid], 0)
        if np.any(far):
            wf = float(self._poly(self.y_far, 0))
            out[far] = wf - self.alpha * np.log(y[far] / self.y_far)
        return out

    def w_prime(self, y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        small = y < Y_START
        mid = (~small) & (y <= self.y_far)
        far = y > self.y_far
        out[small] = -y[small] / 2.0 + y[small] ** 3 / 16.0
        if np.any(mid):
            out[mid] = self._poly(y[mid], 1)
        if np.any(far):
            out[far] = -self.alpha / y[far]
        return out

    def u(self, r):
        """Solution values on [0, 1]; exactly u0 at 0 and 0 at r = 1."""
        r = np.asarray(r, dtype=float)
        y = np.minimum(r / self.eps0, self.y_boundary)
        return self.u0 * np.maximum(1.0 + self.w(y) / self.p, 0.0)

    def u_prime(self, r):
        r = np.asarray(r, dtype=float)
        y = r / self.eps0
        return self.u0 * self.w_prime(np.minimum(y, self.y_boundary)) / (self.p * self.eps0)

    def mass(self, y_upper: float | None = None) -> float:
        """2 pi * integral of (1 + w/p)^p y dy up to y_upper (default: all)."""
        if y_upper is None or y_upper >= self.y_far:
            return 2.0 * np.pi * self.mass_cum  # tail mass is below integration tolerance
        return 2.0 * np.pi * float(self._poly(y_upper, 2))

    def energy(self) -> float:
        """p * integral of |grad u|^2 over the unit disk."""
        e = self.energy_cum
        if self.tail_active:
            e += self.alpha**2 * math.log(self.y_boundary / self.y_far)
        return 2.0 * np.pi * self.u0**2 * e / self.p

    def mass_deficit(self) -> float:
        """rho_p = p (1 - I_p / 8 pi) with I_p the mass in B_d, d =
        SPIKE_BALL_RADIUS; tends to 3."""
        return self.p * (1.0 - self.mass(SPIKE_BALL_RADIUS / self.eps0) / (8.0 * np.pi))


def solve_radial(p: float) -> RadialSolution:
    """Radial oracle for the unit disk at exponent p (> 1)."""
    if p <= 1:
        raise ValueError("p must exceed 1")

    def rhs(y, s):
        w, v, _, _ = s
        base = max(1.0 + w / p, 0.0)
        f = base**p
        return (v, -f - v / y, f * y, v * v * y)

    def hit_zero(y, s):
        return s[0] + p

    hit_zero.terminal = True
    hit_zero.direction = -1.0

    y0 = Y_START
    s0 = (
        -(y0**2) / 4.0 + y0**4 / 64.0,
        -y0 / 2.0 + y0**3 / 16.0,
        y0 * y0 / 2.0,  # mass integral of y dy from 0 (integrand ~ 1 near 0)
        y0**4 / 16.0,  # int (y/2)^2 y dy
    )
    sol = solve_ivp(
        rhs,
        (y0, Y_CAP),
        s0,
        method="DOP853",
        rtol=RADIAL_TOL,
        atol=RADIAL_TOL * 1e-2,
        events=hit_zero,
        dense_output=True,
    )
    if not sol.success:
        raise BracketFailureError(f"radial integration failed: {sol.message}")
    if sol.t_events[0].size:
        y_b = float(sol.t_events[0][0])
        y_far = y_b
        tail = False
        alpha = -y_b * float(sol.sol(y_b)[1])
    else:
        y_far = float(sol.t[-1])
        wf, vf = (float(sol.sol(y_far)[0]), float(sol.sol(y_far)[1]))
        alpha = -y_far * vf
        if alpha <= 0:
            raise BracketFailureError("flux did not freeze; cannot place the boundary")
        y_b = y_far * math.exp((p + wf) / alpha)
        tail = True

    log_u0 = (2.0 * math.log(y_b) - math.log(p)) / (p - 1.0)
    u0 = math.exp(log_u0)
    eps0 = 1.0 / y_b
    wend = sol.sol(y_far)
    return RadialSolution(
        p=p,
        u0=u0,
        eps0=eps0,
        y_boundary=y_b,
        y_far=y_far,
        alpha=alpha,
        tail_active=tail,
        _dense=sol,
        mass_cum=float(wend[2]),
        energy_cum=float(wend[3]),
    )


# ---- linearized operator on the disk, per angular Fourier mode -----------

R_MIN_FACTOR = 1e-3  # innermost pencil node, in units of eps0
PENCIL_NODES = 4000  # finite-volume nodes on (0, 1) unless a caller refines
PER_MODE = 2  # eigenvalues nearest zero that disk_spectrum reports per mode
NEAR_ZERO_COUNT = 4  # eigenvalues, with multiplicity, that the margin is taken over
# LAPACK bisection tolerance: the scaled tridiagonals are graded (|T| ~ 1e30 at
# p = 80), so the default eps*|T|_1 is absolute and swamps the O(1) modes,
# while underflow keeps bisection relatively accurate
BISECTION_TOL = 2 * np.finfo(float).tiny


def _finite_volume_grid(rad: RadialSolution, n: int):
    """n + 1 geometric nodes from eps0 * R_MIN_FACTOR to the Dirichlet boundary
    r = 1, the n + 1 cell edges, the edge conductances edge/spacing (zero
    flux through r = 0) and the n cell masses r * width."""
    r_min = max(rad.eps0 * R_MIN_FACTOR, 1e-14)
    nodes = np.geomspace(r_min, 1.0, n + 1)
    r = nodes[:-1]
    edges = np.empty(n + 1)
    edges[1:-1] = 0.5 * (nodes[1:-1] + nodes[:-2])
    edges[0] = 0.0
    edges[-1] = 0.5 * (1.0 + nodes[-2])
    kappa = np.empty(n + 1)
    kappa[0] = 0.0
    kappa[1:-1] = edges[1:-1] / np.diff(r)
    kappa[-1] = edges[-1] / (1.0 - r[-1])
    return nodes, edges, kappa, r * (edges[1:] - edges[:-1])


def mode_pencil(rad: RadialSolution, m: int, n: int = PENCIL_NODES):
    """Finite-volume form K xi = lambda M xi of -d2/dr2 - (1/r)d/dr + m^2/r^2 - V(r)
    on (0, 1), on n geometric nodes: (diagonal of K, off-diagonal of K, diagonal of M).

    Its eigenvalues converge at second order in n.  The form is adequate for
    eigenvalues that are not the result of near-cancellation between the
    gradient and potential energies: the giant negative mode and the
    domain-scale modes of m = 0, 2, 3.  The translation sector m = 1, whose
    near-null eigenvalue is a ~1e-9 relative cancellation at large p, is
    solved in factorized form on the same grid instead (_mode1_golub_kahan);
    this form puts it 1.6% off at p = 20.

    V(r) does not depend on m: the profile is evaluated once per
    (solution, n) and the potential cached on the solution.
    """
    nodes, _, kappa, mass = _finite_volume_grid(rad, n)
    r = nodes[:-1]
    potentials = rad.__dict__.setdefault("_pencil_potentials", {})  # n -> V on the nodes
    if n not in potentials:
        y = r / rad.eps0
        lw = (rad.p - 1.0) * np.log1p(rad.w(y) / rad.p)
        potentials[n] = np.exp(lw) / rad.eps0**2
    pot = (m * m / (r * r) - potentials[n]) * mass
    return kappa[:-1] + kappa[1:] + pot, -kappa[1:-1], mass


def pencil_floor(pencil) -> float:
    """A value strictly below every eigenvalue of the pencil (d, e, mass):
    twice its Gershgorin floor min_i (d_i - |e_(i-1)| - |e_i|) / mass_i, the
    floor of M^(-1) K's discs, which is at most min(m^2/r^2 - V), and at most
    -2, so that (floor, 0] is a window.  The factor 2 keeps it below under
    the rounding of the rows' cancellation."""
    d, e, mass = pencil
    rows = d.copy()
    rows[:-1] -= np.abs(e)
    rows[1:] -= np.abs(e)
    return 2.0 * min(float(np.min(rows / mass)), -1.0)


def _lowest_above_zero(d, e, count: int, available: int, bound: float, vectors: bool = False):
    """The lowest count eigenvalues above zero of the symmetric tridiagonal
    (d, e), or all of them where only available < count exist, ascending
    (with their eigenvectors as columns when vectors is set), by LAPACK
    bisection (dstebz, and dstein for the vectors) on the windows
    (0, bound], (bound, 2 bound], (2 bound, 4 bound], ... until enough are
    found.  A bound at or above the count-th of them takes one window; the
    doubling, not the bound, guarantees the result."""
    def size(part):
        return (part[0] if vectors else part).size

    parts, lo, hi = [], 0.0, bound
    while lo < math.inf:
        parts.append(eigh_tridiagonal(d, e, eigvals_only=not vectors, select="v",
                                      select_range=(lo, hi), tol=BISECTION_TOL))
        if sum(map(size, parts)) >= min(count, available):
            break
        lo, hi = hi, 2.0 * hi
    if not vectors:
        return np.concatenate(parts)[:count]
    return (np.concatenate([w for w, _ in parts])[:count],
            np.hstack([v for _, v in parts])[:, :count])


def pencil_eigenvalues(pencil, m: int):
    """The eigenvalues at or below zero of the mode-m pencil (d, e, mass)
    from mode_pencil, and its lowest PER_MODE above zero: (negatives,
    positives), each ascending.

    LAPACK bisection (dstebz) on the symmetric tridiagonal
    T = M^(-1/2) K M^(-1/2), whose Sturm counts give the exact inertia: the
    negatives from the window (pencil_floor, 0], the positives from
    (0, b], (b, 2b], (2b, 4b], ... with b = j_(m, neg + PER_MODE)^2, the
    Dirichlet disk's eigenvalue above the PER_MODE-th positive one.
    """
    d, e, mass = pencil
    diag, off = d / mass, e / np.sqrt(mass[:-1] * mass[1:])
    neg = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                           select_range=(pencil_floor(pencil), 0.0), tol=BISECTION_TOL)
    bound = jn_zeros(m, neg.size + PER_MODE)[-1] ** 2
    return neg, _lowest_above_zero(diag, off, PER_MODE, d.size - neg.size, bound)


def _mode1_golub_kahan(rad: RadialSolution, n: int):
    """The m = 1 sector in factorized form on mode_pencil's grid: the
    off-diagonal of its Golub-Kahan tridiagonal, the nodes, phi* on the
    nodes and the square roots of mode_pencil's cell masses.

    phi* = -u'(r) solves the m = 1 equation exactly (differentiate the radial
    Lane-Emden equation) and is positive on (0, 1], so xi = phi* g turns the
    sector into -(sigma g')' = lam sigma g with sigma = r phi*^2 > 0.  With
    zero flux through r = 0 and g(1) = 0 its finite-volume form factors as
    K = D^T diag(kappa) D, D the forward difference, so M^(-1/2) K M^(-1/2)
    = C^T C with C upper bidiagonal: diagonal -sqrt(kappa_(k+1) / m_k),
    superdiagonal sqrt(kappa_(k+1) / m_(k+1)).  The eigenvalues are the
    squares of C's singular values, which are the positive eigenvalues of
    the zero-diagonal tridiagonal whose off-diagonal interleaves the
    absolute diagonal and superdiagonal; bisection on it finds them to high
    relative accuracy (Demmel & Kahan 1990).  Bisection on C^T C itself does
    not: its rows sum to zero and the Sturm pivots cancel.
    """
    nodes, edges, kappa, mass = _finite_volume_grid(rad, n)
    phi = -rad.u_prime(nodes[:-1])
    root_mass = np.sqrt(mass)
    root_kappa = np.sqrt(kappa[1:]) * -rad.u_prime(edges[1:])
    root_m = root_mass * phi
    off = np.empty(2 * n - 1)
    off[::2] = root_kappa / root_m
    off[1::2] = root_kappa[:-1] / root_m[1:]
    return off, nodes, phi, root_mass


def mode1_eigenvalue(rad: RadialSolution, index: int = 1):
    """index-th eigenvalue (1-based) of the disk m = 1 sector on PENCIL_NODES
    nodes, with its eigenfunction xi = phi* g on the nodes of (0, 1], scaled
    to g = 1 at the innermost node (so xi > 0 in the core) and zero at r = 1:
    (lam, nodes, xi).

    The factorized form is positive definite for every p (the sector never
    contributes to the Morse index on the disk); the returned eigenvalues are
    therefore positive, the near-null translation mode being index = 1.
    """
    n = PENCIL_NODES
    off, nodes, phi, root_mass = _mode1_golub_kahan(rad, n)
    sv, vec = _lowest_above_zero(np.zeros(2 * n), off, index, n, jn_zeros(1, index)[-1], vectors=True)
    x = vec[::2, -1]  # the right singular vector of |C|; C's alternates its signs
    x[1::2] *= -1.0
    g = x / (root_mass * phi)
    return float(sv[-1]) ** 2, nodes, np.append(phi * g / g[0], 0.0)


@dataclass
class DiskSpectrum:
    """Bottom spectrum of the linearized disk operator, resolved per mode."""

    p: float
    modes: dict  # m -> (eigenvalues,): the eigenvalue list is modes[m][0]
    morse_index: int

    def eigenvalues_near_zero(self) -> list[tuple[float, int]]:
        """The NEAR_ZERO_COUNT (eigenvalue, m) pairs nearest zero, repeated
        for m >= 1 multiplicity."""
        items = []
        for m, (vals,) in self.modes.items():
            for lam in vals:
                items.append((lam, m))
                if m >= 1:
                    items.append((lam, m))
        items.sort(key=lambda t: abs(t[0]))
        return items[:NEAR_ZERO_COUNT]

    def margin(self) -> float:
        return min(abs(lam) for lam, _ in self.eigenvalues_near_zero())


def disk_spectrum(rad: RadialSolution, m_max: int = 3, n: int = PENCIL_NODES) -> DiskSpectrum:
    """Eigenvalues nearest zero for modes m = 0..m_max and the Morse index,
    every mode on the same n-node grid and by the same LAPACK bisection,
    each search in a bounded value window.

    m = 0 and m >= 2 use the finite-volume pencil (their eigenvalues are
    cancellation-free on the scale-free geometric grid): its negative
    eigenvalues, bisected from below its Gershgorin floor up to zero, give
    the Morse count, and the lowest of them, the concentrated ground mode,
    is reported ahead of the PER_MODE eigenvalues nearest zero, taken from
    the negatives and the lowest positives, which are bisected from zero up
    to a Bessel ceiling (pencil_eigenvalues); their pencils share one
    potential per (solution, n).  m = 1 uses the factorized form, positive
    definite on the disk for every p: its lowest PER_MODE eigenvalues, whose
    square roots are bisected from zero up to j_(1, PER_MODE).
    """
    modes = {}
    morse = 0
    for m in range(m_max + 1):
        if m == 1:
            off = _mode1_golub_kahan(rad, n)[0]
            sv = _lowest_above_zero(np.zeros(2 * n), off, PER_MODE, n, jn_zeros(1, PER_MODE)[-1])
            modes[m] = ((sv**2).tolist(),)
            continue
        neg, above = pencil_eigenvalues(mode_pencil(rad, m, n=n), m)
        morse += neg.size * (1 if m == 0 else 2)
        first = max(neg.size - PER_MODE, 0)
        window = np.concatenate([neg[first:], above])
        keep = np.sort(np.argsort(np.abs(window), kind="stable")[:PER_MODE])
        vals = window[keep].tolist()
        if neg.size and first + keep[0] > 0:  # the ground mode, unless already kept
            vals.insert(0, float(neg[0]))
        modes[m] = (vals,)
    return DiskSpectrum(rad.p, modes, morse)


# ---- kernel projections and spike coefficients from the 1-D instrument ----


def mode1_kernel_data(rad: RadialSolution, xi: np.ndarray, r_grid: np.ndarray):
    """Fit f(s) = xi(eps0 s) against dU/dr(s) = -4s/(8+s^2) on s <=
    liouville.KERNEL_FIT_RADIUS under the bubble weight, for an m = 1
    eigenfunction given on r_grid (2-D field xi(r) cos(theta)); returns (b,
    residual, sup_norm_used).

    Also computes B = (p/eps) * integral of x_1 u^(p-1) xi(r) cos^2(theta):
    returns them as a dict.
    """
    sup = float(np.max(np.abs(xi)))
    xi = xi / sup
    s = np.linspace(1e-3, liouville.KERNEL_FIT_RADIUS, 400)
    f = np.interp(s * rad.eps0, r_grid, xi)
    basis = -4.0 * s / (8.0 + s * s)  # radial factor of dU/dx_i at angle 0
    wgt = liouville.eU(s) * s  # radial measure with bubble weight
    b = float(np.sum(wgt * f * basis) / np.sum(wgt * basis * basis))
    resid = math.sqrt(float(np.sum(wgt * (f - b * basis) ** 2) / np.sum(wgt)))
    # B_1 = (p/eps) int x_1 u^{p-1} xi cos(theta) dx; angular integral gives pi
    y = r_grid / rad.eps0
    with np.errstate(divide="ignore"):
        lw = (rad.p - 1.0) * np.log1p(rad.w(y) / rad.p)  # -inf at u = 0 is fine
    upm1 = np.exp(lw + (rad.p - 1.0) * math.log(rad.u0))
    integrand = r_grid * upm1 * xi * r_grid  # x_1 = r cos(theta); r dr measure
    B = np.pi * rad.p / rad.eps0 * np.trapezoid(integrand, r_grid)
    return {"b": b, "residual": resid, "B": B, "sup": sup}
