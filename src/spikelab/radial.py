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
operator -Δ - p u^(p-1) decomposed into angular Fourier modes: LAPACK
bisection on the finite-volume tridiagonal forms gives exact negative-eigenvalue
counts, and the translation sector m = 1 is shot in factorized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal

from . import liouville


class BracketFailureError(RuntimeError):
    pass


Y_START = 1e-4
Y_CAP = 4e6
RADIAL_TOL = 1e-12  # relative tolerance of the DOP853 integration
# the spike ball B_d: the mass deficit's radius, and the cap of the 2-D
# solver's spike radius (lane_emden.default_spike_radius)
SPIKE_BALL_RADIUS = 0.25


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

    def w(self, y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        small = y < Y_START
        mid = (~small) & (y <= self.y_far)
        far = y > self.y_far
        out[small] = -y[small] ** 2 / 4.0 + y[small] ** 4 / 64.0
        if np.any(mid):
            out[mid] = self._dense.sol(y[mid])[0]
        if np.any(far):
            wf = float(self._dense.sol(self.y_far)[0])
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
            out[mid] = self._dense.sol(y[mid])[1]
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
        m = float(self._dense.sol(y_upper)[2])
        return 2.0 * np.pi * m

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
PER_MODE = 2  # eigenvalues nearest zero that disk_spectrum reports per mode
NEAR_ZERO_COUNT = 4  # eigenvalues, with multiplicity, that the margin is taken over


def mode_pencil(rad: RadialSolution, m: int, n: int = 4000):
    """Finite-volume form K xi = lambda M xi of -d2/dr2 - (1/r)d/dr + m^2/r^2 - V(r)
    on (0, 1), on n geometric nodes: (diagonal of K, off-diagonal of K, diagonal of M).

    Adequate for eigenvalues that are not the result of near-cancellation
    between the gradient and potential energies (the giant negative mode and
    the domain-scale modes).  The translation sector m = 1, whose near-null
    eigenvalue is a ~1e-9 relative cancellation at large p, is shot in
    factorized form instead (_Mode1Shooter).

    V(r) does not depend on m: the profile is evaluated once per
    (solution, n) and the potential cached on the solution.
    """
    r_min = max(rad.eps0 * R_MIN_FACTOR, 1e-14)
    nodes = np.geomspace(r_min, 1.0, n + 1)  # last node is the Dirichlet boundary
    r = nodes[:-1]
    edges = np.empty(n + 1)
    edges[1:-1] = 0.5 * (nodes[1:-1] + nodes[:-2])
    edges[0] = 0.0
    edges[-1] = 0.5 * (1.0 + nodes[-2])
    kappa = np.empty(n + 1)  # edge conductances
    kappa[0] = 0.0  # zero flux through r = 0 (regularity; m >= 1 is pinned by m^2/r^2)
    kappa[1:-1] = edges[1:-1] / np.diff(r)
    kappa[-1] = edges[-1] / (1.0 - r[-1])
    mass = r * (edges[1:] - edges[:-1])
    potentials = rad.__dict__.setdefault("_pencil_potentials", {})  # n -> V on the nodes
    if n not in potentials:
        y = r / rad.eps0
        lw = (rad.p - 1.0) * np.log1p(rad.w(y) / rad.p)
        potentials[n] = np.exp(lw) / rad.eps0**2
    pot = (m * m / (r * r) - potentials[n]) * mass
    return kappa[:-1] + kappa[1:] + pot, -kappa[1:-1], mass


def pencil_eigenvalues(pencil, select: str = "a", select_range=None) -> np.ndarray:
    """Eigenvalues of the pencil (d, e, mass) from mode_pencil, chosen as by
    scipy.linalg.eigvalsh_tridiagonal's select and select_range, ascending.

    LAPACK bisection (dstebz) on the symmetric tridiagonal
    T = M^(-1/2) K M^(-1/2), whose Sturm counts give the exact inertia.
    """
    d, e, mass = pencil
    # T is graded (|T| ~ 1e30 at p = 80): the default tolerance eps*|T|_1 is absolute
    # and swamps the O(1) modes, while underflow keeps bisection relatively accurate
    return eigvalsh_tridiagonal(
        d / mass, e / np.sqrt(mass[:-1] * mass[1:]), select=select,
        select_range=select_range, tol=2 * np.finfo(float).tiny,
    )


_LAM_HI = 64.0  # top of the first m = 1 bracket scan, quadrupled until it holds the mode
_BLOCK = 256  # RK4 steps whose propagators are evaluated together (all at once: ~20 MB)
_GROUP = 8  # consecutive step propagators composed into one; a power of two
_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]  # as (gg, gF, Fg, FF) rows


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Products later @ earlier of 2x2 matrices stored as (gg, gF, Fg, FF)
    rows along the first axis, elementwise over the other axes."""
    a, b, c, d = later
    e, f, g, h = earlier
    return np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


class _Mode1Shooter:
    """Batched fixed-step RK4 shooter for the factorized m = 1 sector.

    phi* = -u'(r) solves the m = 1 equation exactly (differentiate the radial
    Lane-Emden equation) and is positive on (0, 1], so xi = phi* g turns the
    sector into -(sigma g')' = lam rho g with sigma = rho = r phi*^2 > 0.
    Integrated in t = log r with flux F = sigma g': dg/dt = F/phi*^2,
    dF/dt = -lam r^2 phi*^2 g.  The huge phi*^2 in the spike core merely
    freezes g there, so the dynamics stay O(1) across all scales and a fixed
    logarithmic step suffices; the rhs is linear in the state, so trial
    eigenvalues integrate as one vectorized batch.

    Linearity also makes each RK4 step a 2x2 matrix quadratic in lam,
    P_i(lam) = C0_i + lam C1_i + lam^2 C2_i, whose coefficients are built once.
    A run evaluates the propagators _BLOCK steps at a time, composes each
    _GROUP consecutive ones by pairwise doubling and advances the lam batch
    one group per iteration; the single-step propagators then recover g
    inside every group, all groups at once, so the sign flips of g are still
    counted at every step.
    The shooter is cached on its RadialSolution and keeps its bracket scans
    and eigenpairs, so each (solution, index) is shot once.  Every index
    takes its bracket from the shared scans, and the indices requested
    together are refined in the same batched runs (_mode1_pairs).
    """

    def __init__(self, rad: RadialSolution, n_steps: int = 6000):
        t0 = math.log(max(rad.eps0 * 1e-3, 1e-14))
        self.t = np.linspace(t0, 0.0, 2 * n_steps + 1)  # includes half-steps
        r = np.exp(self.t)
        phi2 = rad.u_prime(r) ** 2
        a = 1.0 / phi2  # dg/dt = a F
        b = r * r * phi2  # dF/dt = -lam b g
        a0, am, a1 = a[:-1:2], a[1::2], a[2::2]  # step start, midpoint, end
        b0, bm, b1 = b[:-1:2], b[1::2], b[2::2]
        h = (0.0 - t0) / n_steps
        # rows: (g <- g, g <- F, F <- g, F <- F) entries of P_i
        self.C0 = np.zeros((4, n_steps))
        self.C0[0] = self.C0[3] = 1.0
        self.C0[1] = h / 6.0 * (a0 + 4.0 * am + a1)
        self.C1 = np.stack([
            -h * h / 6.0 * (am * (b0 + bm) + a1 * bm),
            -h**3 / 12.0 * am * bm * (a0 + a1),
            -h / 6.0 * (b0 + 4.0 * bm + b1),
            -h * h / 6.0 * (bm * (a0 + am) + b1 * am),
        ])
        self.C2 = np.stack([
            h**4 / 24.0 * a1 * bm * am * b0,
            np.zeros(n_steps),
            h**3 / 12.0 * am * bm * (b0 + b1),
            h**4 / 24.0 * b1 * am * bm * a0,
        ])
        self.n_steps = n_steps
        self.r = np.exp(self.t[::2])
        self.r.setflags(write=False)
        self.scans = []  # (grid, flips) of the bracket scans, lam_hi ascending
        self.pairs = {}  # index -> (lam, r, xi)

    def run(self, lams: np.ndarray, keep_path: bool = False):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        g = np.ones_like(lams)
        F = np.zeros_like(lams)
        flips = np.zeros(lams.shape, dtype=int)
        path = np.empty((self.n_steps + 1, lams.size)) if keep_path else None
        n_groups = -(-_BLOCK // _GROUP)
        buf = np.empty((4, n_groups * _GROUP, lams.size))  # one block's step propagators
        gs = np.empty((n_groups * _GROUP + 1, lams.size))  # g across one block of steps
        g0, F0 = np.empty((2, n_groups, lams.size))  # the state at each group's start
        for start in range(0, self.n_steps, _BLOCK):
            stop = min(start + _BLOCK, self.n_steps)
            n, s = stop - start, slice(start, stop)
            groups = -(-n // _GROUP)
            # C0 + lam (C1 + lam C2) in place; identity steps fill the last group
            P = buf[:, :n]
            np.multiply(self.C2[:, s, None], lams, out=P)
            P += self.C1[:, s, None]
            P *= lams
            P += self.C0[:, s, None]
            buf[:, n : groups * _GROUP] = _IDENTITY
            P = buf[:, : groups * _GROUP].reshape(4, groups, _GROUP, lams.size)  # entry, group, step, lam
            M = P
            while M.shape[2] > 1:  # pairwise doubling: 2, 4, ..., _GROUP steps
                M = _compose(M[:, :, 1::2], M[:, :, ::2])
            # steps[k, j]: g after step j + 1 of group k; a group's last state is
            # the composed one, which starts the next group
            steps = gs[1 : groups * _GROUP + 1].reshape(groups, _GROUP, lams.size)
            gs[0] = g
            for k, (gg, gF, Fg, FF) in enumerate(zip(*M[:, :, 0])):
                g0[k], F0[k] = g, F
                g, F = gg * g + gF * F, Fg * g + FF * F
            steps[:-1, -1] = g0[1:groups]
            steps[-1, -1] = g
            gk, Fk = g0[:groups], F0[:groups]
            for j in range(_GROUP - 1):
                gg, gF, Fg, FF = P[:, :, j]
                gk, Fk = gg * gk + gF * Fk, Fg * gk + FF * Fk
                steps[:, j] = gk
            blk = gs[: n + 1]
            flips += np.count_nonzero(blk[:-1] * blk[1:] < 0, axis=0)
            if keep_path:
                path[start : stop + 1] = blk
        return g, flips, path

    def bracket(self, index: int):
        """First scan grid holding index sign flips of g, and the first grid
        point that does; scans are shared by every index."""
        k = 0
        while True:
            if k == len(self.scans):
                lam_hi = _LAM_HI * 4.0**k
                if lam_hi > 1e7:
                    raise BracketFailureError("mode-1 eigenvalue bracket not found")
                grid = np.geomspace(1e-6, lam_hi, 96)
                self.scans.append((grid, self.run(grid)[1]))
            grid, flips = self.scans[k]
            above = np.nonzero(flips >= index)[0]
            if above.size:
                return grid, above[0]
            k += 1


def mode1_eigenvalue(rad: RadialSolution, index: int = 1):
    """index-th eigenvalue (1-based) of the disk m = 1 sector by shooting,
    with the eigenfunction xi = phi* g on a log radial grid.

    The factorized form is positive definite for every p (the sector never
    contributes to the Morse index on the disk); the returned eigenvalues are
    therefore positive, the near-null translation mode being index = 1.
    Reads the per-solution cache of _mode1_pairs, which shoots the indices
    not yet cached up to index together; the returned arrays are shared and
    read-only.
    """
    return _mode1_pairs(rad, index)[-1]


def _mode1_pairs(rad: RadialSolution, count: int):
    """Eigenpairs (lam, r, xi) of indices 1..count of the m = 1 sector, each
    computed once per solution.

    The indices not yet cached take their brackets from the shared scans and
    are refined together: each round stacks the 17-point grids of every index
    still refining into one shooter run, and one more run keeps the paths at
    all the midpoints.  Every lam column is integrated elementwise, so a pair
    is bit-identical to the same index shot alone.
    """
    sh = rad.__dict__.get("_mode1_shooter")
    if sh is None:
        sh = rad.__dict__["_mode1_shooter"] = _Mode1Shooter(rad)
    todo = [i for i in range(1, count + 1) if i not in sh.pairs]
    if todo:
        brackets = {}
        for i in todo:
            grid, k = sh.bracket(i)
            brackets[i] = (grid[k - 1] if k > 0 else 1e-9, grid[k])
        # interval refinement on each index's single sign change of g(1); 4 rounds
        # of 16x shrink leave the midpoint within ~1e-6 relative, and an index
        # whose grid shows no sign change keeps its bracket from then on
        refining = todo
        for _ in range(4):
            grids = [np.linspace(*brackets[i], 17) for i in refining]
            g1 = sh.run(np.concatenate(grids))[0].reshape(len(refining), 17)
            crossed = []
            for i, grid, g in zip(refining, grids, g1):
                crossings = np.nonzero(g[:-1] * g[1:] < 0)[0]
                if crossings.size:
                    brackets[i] = (grid[crossings[0]], grid[crossings[0] + 1])
                    crossed.append(i)
            refining = crossed
            if not refining:
                break
        lams = [0.5 * (blo + bhi) for blo, bhi in (brackets[i] for i in todo)]
        _, _, path = sh.run(np.array(lams), keep_path=True)
        phi = -rad.u_prime(sh.r)
        for j, (i, lam) in enumerate(zip(todo, lams)):
            xi = phi * path[:, j]
            xi.setflags(write=False)
            sh.pairs[i] = (lam, sh.r, xi)
    return [sh.pairs[i] for i in range(1, count + 1)]


@dataclass
class DiskSpectrum:
    """Bottom spectrum of the linearized disk operator, resolved per mode."""

    p: float
    # m -> (eigenvalues, eigenvectors, radial grids); the finite-volume modes
    # m != 1 carry eigenvalues only, with None for the other two
    modes: dict
    morse_index: int

    def eigenvalues_near_zero(self) -> list[tuple[float, int]]:
        """The NEAR_ZERO_COUNT (eigenvalue, m) pairs nearest zero, repeated
        for m >= 1 multiplicity."""
        items = []
        for m, (vals, _, _) in self.modes.items():
            for lam in vals:
                items.append((lam, m))
                if m >= 1:
                    items.append((lam, m))
        items.sort(key=lambda t: abs(t[0]))
        return items[:NEAR_ZERO_COUNT]

    def margin(self) -> float:
        return min(abs(lam) for lam, _ in self.eigenvalues_near_zero())


def disk_spectrum(rad: RadialSolution, m_max: int = 3, n: int = 4000) -> DiskSpectrum:
    """Eigenvalues nearest zero for modes m = 0..m_max and the Morse index.

    m = 0 and m >= 2 use the finite-volume pencil (their eigenvalues are
    cancellation-free on the scale-free geometric grid): its negative
    eigenvalues give the Morse count, and the lowest of them, the
    concentrated ground mode, is reported ahead of the PER_MODE eigenvalues
    nearest zero; their pencils share one potential per (solution, n).
    m = 1 uses factorized shooting, positive definite on the disk for every
    p: its PER_MODE pairs are shot together, once per solution, and do not
    depend on n.
    """
    modes = {}
    morse = 0
    for m in range(m_max + 1):
        if m == 1:
            lams, grids, xis = zip(*_mode1_pairs(rad, PER_MODE))
            modes[m] = (list(lams), list(xis), list(grids))
            continue
        pencil = mode_pencil(rad, m, n=n)
        neg = pencil_eigenvalues(pencil, "v", (-np.inf, 0.0))
        morse += neg.size * (1 if m == 0 else 2)
        first = max(neg.size - PER_MODE, 0)
        window = pencil_eigenvalues(pencil, "i", (first, min(neg.size + PER_MODE, n) - 1))
        keep = np.sort(np.argsort(np.abs(window), kind="stable")[:PER_MODE])
        vals = window[keep].tolist()
        if neg.size and first + keep[0] > 0:  # the ground mode, unless already kept
            vals.insert(0, float(neg[0]))
        modes[m] = (vals, None, None)
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
