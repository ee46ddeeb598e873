"""Level-set domains and Gibou-Fedkiw finite-difference meshes.

A domain is the region where a level-set function is negative.  The mesh is
the set of points of a tensor-product lattice inside the domain; at lattice
edges that cross the boundary the arm is shortened to the zero crossing (found
by bisection), which is how Dirichlet data enters the 5-point Laplacian.  The
lattice lines are uniform (``build_mesh``) or graded toward the spikes
(``build_graded_mesh``); the unequal-arm stencil serves both, and its
area-weighted form is symmetric on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linsolve import SparseOperator


class InvalidParamsError(ValueError):
    """Shape parameters violate geometric constraints."""


class TooCoarseError(ValueError):
    """Grid spacing leaves fewer than 9 interior nodes."""


# arm directions, index order is fixed everywhere: E, W, N, S
DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=int)
_OPP = [1, 0, 3, 2]
# the rows of column c in ascending order, as directions from c (None for c
# itself): nodes are numbered x-major, so W < S < c < N < E
_COLUMN_ORDER = (1, 3, None, 2, 0)

ARM_TOL = 1e-12  # bisection tolerance, in units of the lattice spacing


@dataclass(frozen=True)
class DomainSpec:
    """Planar domain given by a level set (negative inside, zero on the boundary)."""

    kind: str
    levelset: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bbox: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
    params: dict = field(default_factory=dict)

    def inside(self, x, y):
        return self.levelset(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) < 0.0

    def center(self) -> tuple[float, float]:
        xmin, xmax, ymin, ymax = self.bbox
        return 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)


def _smooth_min(a, b, k):
    # polynomial smooth min, C^1 in both arguments; k is the blend radius
    h = np.clip(0.5 + 0.5 * (b - a) / k, 0.0, 1.0)
    return b * (1.0 - h) + a * h - k * h * (1.0 - h)


def make_domain(kind: str, **params) -> DomainSpec:
    """Build one of the named domains: disk | ellipse | smoothed-rectangle |
    annulus | dumbbell.

    Raises InvalidParamsError when the shape parameters are geometrically
    inconsistent (non-positive radii, annulus inner >= outer, ...).
    """
    kind = kind.replace("_", "-")
    if kind == "disk":
        r = float(params.get("r", 1.0))
        cx, cy = params.get("center", (0.0, 0.0))
        if r <= 0:
            raise InvalidParamsError("disk radius must be positive")
        pad = 0.04 * r

        def levelset(x, y):
            return (x - cx) ** 2 + (y - cy) ** 2 - r * r

        bbox = (cx - r - pad, cx + r + pad, cy - r - pad, cy + r + pad)
        return DomainSpec("disk", levelset, bbox, {"r": r, "center": (cx, cy)})

    if kind == "ellipse":
        a = float(params.get("a", 2.0))
        b = float(params.get("b", 1.0))
        if a <= 0 or b <= 0:
            raise InvalidParamsError("ellipse semi-axes must be positive")
        pad = 0.04 * max(a, b)

        def levelset(x, y):
            return (x / a) ** 2 + (y / b) ** 2 - 1.0

        bbox = (-a - pad, a + pad, -b - pad, b + pad)
        return DomainSpec("ellipse", levelset, bbox, {"a": a, "b": b})

    if kind == "annulus":
        r_in = float(params.get("r_in", 0.5))
        r_out = float(params.get("r_out", 1.0))
        if not (0 < r_in < r_out):
            raise InvalidParamsError("annulus needs 0 < r_in < r_out")
        pad = 0.04 * r_out

        def levelset(x, y):
            rho2 = x * x + y * y
            return np.maximum(r_in * r_in - rho2, rho2 - r_out * r_out)

        bbox = (-r_out - pad, r_out + pad, -r_out - pad, r_out + pad)
        return DomainSpec("annulus", levelset, bbox, {"r_in": r_in, "r_out": r_out})

    if kind == "smoothed-rectangle":
        hx = float(params.get("hx", 1.0))
        hy = float(params.get("hy", 1.0))
        rho = float(params.get("rho", 0.2 * min(params.get("hx", 1.0), params.get("hy", 1.0))))
        if hx <= 0 or hy <= 0 or not (0 < rho <= min(hx, hy)):
            raise InvalidParamsError("smoothed-rectangle needs hx, hy > 0 and 0 < rho <= min(hx, hy)")
        pad = 0.04 * max(hx, hy)

        def levelset(x, y):
            # rounded-box signed distance; corners are arcs of radius rho
            qx = np.abs(x) - (hx - rho)
            qy = np.abs(y) - (hy - rho)
            outer = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
            inner = np.minimum(np.maximum(qx, qy), 0.0)
            return outer + inner - rho

        bbox = (-hx - pad, hx + pad, -hy - pad, hy + pad)
        return DomainSpec("smoothed-rectangle", levelset, bbox, {"hx": hx, "hy": hy, "rho": rho})

    if kind == "dumbbell":
        r = float(params.get("r", 0.6))
        sep = float(params.get("sep", 1.0))  # disk centers at (+-sep, 0)
        neck = float(params.get("neck", 0.3))  # full neck width
        if r <= 0 or sep <= 0 or not (0 < neck < 2 * r):
            raise InvalidParamsError("dumbbell needs r > 0, sep > 0, 0 < neck < 2r")
        blend = 0.2 * neck

        def levelset(x, y):
            d_left = np.hypot(x + sep, y) - r
            d_right = np.hypot(x - sep, y) - r
            # capsule along the segment between the centers
            d_neck = np.hypot(np.maximum(np.abs(x) - sep, 0.0), y) - 0.5 * neck
            return _smooth_min(_smooth_min(d_left, d_right, blend), d_neck, blend)

        pad = 0.04 * (sep + r)
        bbox = (-sep - r - pad, sep + r + pad, -r - pad, r + pad)
        return DomainSpec("dumbbell", levelset, bbox, {"r": r, "sep": sep, "neck": neck})

    raise InvalidParamsError(f"unknown domain kind: {kind!r}")


def _arm_units(lines: np.ndarray, i0: int, x: float) -> tuple[float, float, float]:
    """(r, b, t) for the lines i0-1 < i0 < i0+1: b is the right arm, r the left
    arm over b (1 on uniform lines) and t = (x - lines[i0])/b."""
    b = lines[i0 + 1] - lines[i0]
    return (lines[i0] - lines[i0 - 1]) / b, b, (x - lines[i0]) / b


def _quad_weights(r: float, t: float) -> np.ndarray:
    """Quadratic Lagrange weights of the nodes at -r, 0, 1, evaluated at t.

    On equal arms (r = 1) they reduce term by term to t(t-1)/2, 1 - t^2,
    t(t+1)/2.
    """
    return np.array([t * (t - 1.0) / (r * (r + 1.0)), 1.0 + t * (1.0 - r) / r - t * t / r,
                     t * (t + r) / (1.0 + r)])


def _quad_derivatives(r: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second t-derivatives of ``_quad_weights``."""
    dw = np.array([(2.0 * t - 1.0) / (r * (r + 1.0)), (1.0 - r) / r - 2.0 * t / r,
                   (2.0 * t + r) / (1.0 + r)])
    return dw, np.array([2.0 / (r * (r + 1.0)), -2.0 / r, 2.0 / (1.0 + r)])


def _patch_form(a: np.ndarray, blocks: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T block b per block, for weights a and b of shape (3, n), or (3,)
    for one block: the one contraction every patch read makes."""
    return np.einsum("ik,kij,jk->k", a.reshape(3, -1), blocks, b.reshape(3, -1))


def _patch_derivatives(blocks: np.ndarray, rx, xi, ry, eta):
    """Values, gradients and Hessians at (xi, eta) of the biquadratic patches
    through stacked 3x3 blocks of node values, in units of the right and upper
    arms (``_arm_units``); rx, xi, ry and eta hold one entry per block."""
    wx, wy = _quad_weights(rx, xi), _quad_weights(ry, eta)
    (dwx, ddwx), (dwy, ddwy) = _quad_derivatives(rx, xi), _quad_derivatives(ry, eta)
    gxy = _patch_form(dwx, blocks, dwy)
    return (_patch_form(wx, blocks, wy),
            np.column_stack([_patch_form(dwx, blocks, wy), _patch_form(wx, blocks, dwy)]),
            np.stack([_patch_form(ddwx, blocks, wy), gxy, gxy, _patch_form(wx, blocks, ddwy)],
                     axis=1).reshape(-1, 2, 2))


def _line_position(lines: np.ndarray, x):
    """Fractional line index of x: k + t for x = lines[k] + t (lines[k+1] - lines[k]),
    extrapolated from the end cells beyond the lattice."""
    x = np.asarray(x, dtype=float)
    k = np.clip(np.searchsorted(lines, x, side="right") - 1, 0, len(lines) - 2)
    return k + (x - lines[k]) / (lines[k + 1] - lines[k])


def _nearest_line(lines: np.ndarray, x):
    """Index of the line nearest x, kept one line away from either end."""
    return np.clip(np.rint(_line_position(lines, x)), 1, len(lines) - 2).astype(int)


def _cell_of(lines: np.ndarray, x):
    """Index of the lower line of the lattice cell holding x (end cells beyond it)."""
    return np.clip(np.floor(_line_position(lines, x)), 0, len(lines) - 2).astype(int)


def _blocks(arr: np.ndarray, i: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """The size x size sub-arrays arr[i[k]:i[k]+size, j[k]:j[k]+size], stacked."""
    off = np.arange(size)
    return arr[i[:, None, None] + off[:, None], j[:, None, None] + off]


def _dual_widths(lines: np.ndarray) -> np.ndarray:
    """Width of each line's dual cell: half the spacing on either side."""
    gaps = np.diff(lines)
    return 0.5 * (np.concatenate([gaps[:1], gaps]) + np.concatenate([gaps, gaps[-1:]]))


def _disk_corner_area(x: np.ndarray, y: np.ndarray, r: float) -> np.ndarray:
    """Signed area of the disk |z| <= r inside the rectangle with corners 0
    and (x, y), odd in x and in y; the area of a rectangle [x0, x1] x [y0, y1]
    within the disk is the alternating sum over its four corners."""
    ax, ay = np.minimum(np.abs(x), r), np.minimum(np.abs(y), r)
    # below the abscissa where the circle falls under height ay, the strip is
    # a rectangle of height ay; beyond it, the area under the arc
    xc = np.minimum(ax, np.sqrt(r * r - ay * ay))

    def under_arc(t):  # integral of sqrt(r^2 - s^2) over [0, t]
        return 0.5 * (t * np.sqrt(r * r - t * t) + r * r * np.arcsin(t / r))

    return np.sign(x) * np.sign(y) * (ay * xc + under_arc(ax) - under_arc(xc))


@dataclass
class GridMesh:
    """Interior nodes of a tensor-product lattice with per-arm boundary fractions.

    The lattice lines ``xs`` and ``ys`` are increasing but need not be evenly
    spaced.  ``h`` is the nominal spacing: the spacing itself on a uniform
    lattice, the step of the grading coordinate on a graded one.
    ``nbr[i, d]`` is the node index of the neighbour of node ``i`` in direction
    ``d`` (order E, W, N, S) or -1 when that arm crosses the boundary;
    ``arms[i, d]`` is the arm length (the lattice spacing for an uncut arm),
    so a cut arm meets the boundary at ``coords[i] + arms[i, d]*dir``.
    """

    domain: DomainSpec
    h: float
    xs: np.ndarray  # lattice x coordinates
    ys: np.ndarray  # lattice y coordinates
    node_of: np.ndarray  # (len(xs), len(ys)) int32 -> node index or -1
    ij: np.ndarray  # (n, 2) int32 lattice indices per node
    coords: np.ndarray  # (n, 2)
    nbr: np.ndarray  # (n, 4) int32
    arms: np.ndarray  # (n, 4) float

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def dual_widths(self, nodes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Width along x and along y of each node's dual cell (h on a uniform lattice)."""
        return _dual_widths(self.xs)[self.ij[nodes, 0]], _dual_widths(self.ys)[self.ij[nodes, 1]]

    @cached_property
    def node_area(self) -> np.ndarray:
        """Area of each node's dual cell (h^2 on a uniform lattice)."""
        wx, wy = self.dual_widths()
        return wx * wy

    def norm(self, values: np.ndarray) -> float:
        """Discrete L2 norm, sqrt(sum of area * value^2)."""
        return float(np.linalg.norm(np.sqrt(self.node_area) * values))

    def line_stats(self) -> dict:
        """Smallest lattice spacing and largest ratio of neighbouring spacings."""
        gaps = [np.diff(self.xs), np.diff(self.ys)]
        growth = max(float(np.max(np.maximum(g[1:] / g[:-1], g[:-1] / g[1:]))) for g in gaps)
        return {"min_cell": float(min(np.min(g) for g in gaps)), "max_growth": growth}

    def summary(self) -> dict:
        return {
            "kind": self.domain.kind,
            "h": self.h,
            "n_nodes": int(self.n_nodes),
            "bbox": list(self.domain.bbox),
        }

    def cell_size(self, x: float, y: float) -> float:
        """Longer side of the lattice cell holding (x, y)."""
        i, j = int(_cell_of(self.xs, x)), int(_cell_of(self.ys, y))
        return float(max(self.xs[i + 1] - self.xs[i], self.ys[j + 1] - self.ys[j]))

    @cached_property
    def crossings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cut arms, as (node, direction) index arrays, and the points
        where they meet the boundary."""
        cut_i, cut_d = np.nonzero(self.nbr < 0)
        return cut_i, cut_d, self.coords[cut_i] + self.arms[cut_i, cut_d, None] * DIRS[cut_d]

    def boundary_distance(self, x, y) -> float:
        """Crude distance-to-boundary estimate from cut-arm crossings."""
        pts = self.crossings[2]
        return float(np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))

    def ball_weights(self, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature of the disk B(center, radius) on node values.

        Each node carries the exact area of its dual cell (a rectangle)
        within the disk.  Returns (node indices, weights).
        """
        c = np.asarray(center, dtype=float)
        reach = radius + max(float(np.max(np.diff(self.xs))), float(np.max(np.diff(self.ys))))
        rel = self.coords - c
        near = np.nonzero(np.hypot(rel[:, 0], rel[:, 1]) <= reach)[0]
        lo, hi = [], []
        for axis, lines in ((0, self.xs), (1, self.ys)):
            k = self.ij[near, axis]
            lo.append(rel[near, axis] - 0.5 * (lines[k] - lines[k - 1]))
            hi.append(rel[near, axis] + 0.5 * (lines[k + 1] - lines[k]))
        area = (_disk_corner_area(hi[0], hi[1], radius) - _disk_corner_area(lo[0], hi[1], radius)
                - _disk_corner_area(hi[0], lo[1], radius) + _disk_corner_area(lo[0], lo[1], radius))
        keep = area > 0
        return near[keep], area[keep]

    # ---- point reads of node fields ----------------------------------

    def _patches(self, values: np.ndarray, pts: np.ndarray, fill: float | None):
        """The biquadratic patch every point read uses: per point the 3x3
        block of the nearest node, shifted by ``_interior_block`` when it
        touches exterior nodes and ``fill`` is None; otherwise ``fill``
        stands for exterior values.  Returns the stacked blocks of node
        values and ``_arm_units`` along x and along y."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ic = _nearest_line(self.xs, pts[:, 0])
        jc = _nearest_line(self.ys, pts[:, 1])
        nodes = _blocks(self.node_of, ic - 1, jc - 1, 3)
        if fill is None:
            for k in np.nonzero((nodes < 0).any(axis=(1, 2)))[0]:
                ic[k], jc[k] = self._interior_block(pts[k], ic[k], jc[k])
                nodes[k] = self.node_of[ic[k] - 1 : ic[k] + 2, jc[k] - 1 : jc[k] + 2]
        blocks = values[nodes]
        if fill is not None:
            blocks[nodes < 0] = fill
        return blocks, _arm_units(self.xs, ic, pts[:, 0]), _arm_units(self.ys, jc, pts[:, 1])

    def _interior_block(self, pt, i0: int, j0: int) -> tuple[int, int]:
        """Centre of the first 3x3 block within one line of (i0, j0) that
        touches no exterior node."""
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i0 + di, j0 + dj
                if 1 <= ii < len(self.xs) - 1 and 1 <= jj < len(self.ys) - 1:
                    if not (self.node_of[ii - 1 : ii + 2, jj - 1 : jj + 2] < 0).any():
                        return ii, jj
        raise ValueError(f"interpolation stencil at ({pt[0]:.4g},{pt[1]:.4g}) touches the exterior")

    def interp(self, values: np.ndarray, pts: np.ndarray, fill: float | None = None) -> np.ndarray:
        """Values at arbitrary points of the biquadratic patch (``_patches``).
        ``fill`` substitutes exterior values (0 is appropriate for fields
        vanishing on the boundary); with ``fill=None`` a point with no
        interior block within one line raises."""
        blocks, (rx, _, tx), (ry, _, ty) = self._patches(values, pts, fill)
        return _patch_form(_quad_weights(rx, tx), blocks, _quad_weights(ry, ty))

    def interp_gradient(self, values: np.ndarray, pts: np.ndarray, fill: float | None = None) -> np.ndarray:
        """Gradients at arbitrary points, (n, 2), of the patch ``interp`` reads."""
        blocks, (rx, bx, xi), (ry, by, eta) = self._patches(values, pts, fill)
        return _patch_derivatives(blocks, rx, xi, ry, eta)[1] * (1.0 / np.column_stack([bx, by]))

    def patch_derivatives(self, values: np.ndarray, pt) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian at pt of the patch ``interp`` reads
        there with ``fill=None``."""
        blocks, (rx, bx, xi), (ry, by, eta) = self._patches(values, pt, None)
        val, g, H = _patch_derivatives(blocks, rx, xi, ry, eta)
        scale = np.array([1.0 / bx[0], 1.0 / by[0]])
        return float(val[0]), g[0] * scale, H[0] * np.outer(scale, scale)

    def refine_stationary(self, values: np.ndarray, start):
        """Stationary point of the local biquadratic patch around ``start``.

        Newton on the interpolant of the 3x3 block of the nearest node;
        the shift is clamped to half the arm on each side so the patch
        stays the one the plain ``interp`` would select.  Returns
        (point, value).
        """
        x0, y0 = float(start[0]), float(start[1])
        i0, j0 = int(_nearest_line(self.xs, x0)), int(_nearest_line(self.ys, y0))
        nodes = self.node_of[i0 - 1 : i0 + 2, j0 - 1 : j0 + 2]
        if (nodes < 0).any():
            return np.array([x0, y0]), float(values[self.node_of[i0, j0]])
        block = values[nodes][None]
        # Newton runs in the units of the right and upper arms
        rx, bx, xi = _arm_units(self.xs, i0, x0)
        ry, by, eta = _arm_units(self.ys, j0, y0)
        lim_x, lim_y = (-0.5 * rx, 0.5), (-0.5 * ry, 0.5)
        for _ in range(4):
            _, (g,), (H,) = _patch_derivatives(block, rx, xi, ry, eta)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            xi = min(max(xi + step[0], lim_x[0]), lim_x[1])
            eta = min(max(eta + step[1], lim_y[0]), lim_y[1])
            if np.hypot(*step) < 1e-12:
                break
        pt = np.array([self.xs[i0] + xi * bx, self.ys[j0] + eta * by])
        return pt, float(_patch_derivatives(block, rx, xi, ry, eta)[0][0])


def _bisect_arms(domain: DomainSpec, starts: np.ndarray, dirs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized bisection for the zero crossing along [start, start + length*dir].

    Assumes levelset(start) < 0 <= levelset(start + length*dir); returns
    fractions in (0, 1] accurate to ARM_TOL.
    """
    lo = np.zeros(starts.shape[0])
    hi = np.ones(starts.shape[0])
    # 2^-45 < 1e-12, add margin
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        p = starts + mid[:, None] * lengths[:, None] * dirs
        inside = domain.levelset(p[:, 0], p[:, 1]) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return hi


def build_mesh(domain: DomainSpec, h: float) -> GridMesh:
    """Mesh the domain with uniform spacing h; lattice is centered on the bbox center."""
    if h <= 0:
        raise ValueError("h must be positive")
    xmin, xmax, ymin, ymax = domain.bbox
    cx, cy = domain.center()
    mx = int(math.ceil((xmax - cx) / h)) + 1
    my = int(math.ceil((ymax - cy) / h)) + 1
    xs = cx + h * np.arange(-mx, mx + 1)
    ys = cy + h * np.arange(-my, my + 1)
    return mesh_on_lines(domain, xs, ys, h)


GRADE_SCALE = 1.0 / 16.0  # length scale of the log part of the grading map


def graded_lines(lo: float, hi: float, centers, h: float, eps) -> np.ndarray:
    """Lattice lines over [lo, hi], one beyond each end, crowding toward each
    of the coordinates ``centers`` (one scale ``eps``, or one per centre).

    The lines sit at steps h of the grading coordinate
    xi(x) = (x - c_0) + s sum_c asinh((x - c)/eps_c) with s = GRADE_SCALE,
    one term per distinct centre c (with the least eps of the centres there)
    and c_0 the lowest; stretchings with several attraction points are
    Vinokur's (J. Comput. Phys. 50, 1983).  The spacing is at most about
    h eps_c/s at a centre and tends to h far from every centre.  Every
    spacing shrinks with h and the ratio of neighbouring spacings tends to
    1, so the five-point scheme stays second order (Manteuffel & White,
    Math. Comp. 47, 1986).  A single centre is itself a line and the lines
    are mirror-symmetric about it.
    """
    cs = np.atleast_1d(np.asarray(centers, dtype=float))
    es = np.broadcast_to(np.asarray(eps, dtype=float), cs.shape)
    if h <= 0 or np.any(es <= 0):
        raise ValueError("h and eps must be positive")
    uniq = np.unique(cs)
    terms = [(c - uniq[0], es[cs == c].min()) for c in uniq]

    def xi(z):  # z = x - c_0
        return z + GRADE_SCALE * sum(np.arcsinh((z - o) / e) for o, e in terms)

    k = np.arange(math.floor(xi(lo - uniq[0]) / h) - 1, math.ceil(xi(hi - uniq[0]) / h) + 2)
    if len(uniq) == 1:
        # xi is odd and increasing with xi(z) >= z on z >= 0, so the root
        # for |k h| lies in [0, |k h|]
        sign, target = np.sign(k), np.abs(k * h)
        a, b = np.zeros_like(target), target.copy()
    else:
        # xi' >= 1, so each line lies within 2h of [lo, hi]
        sign, target = 1.0, k * h
        a, b = np.full_like(target, lo - uniq[0] - 2 * h), np.full_like(target, hi - uniq[0] + 2 * h)
    for _ in range(64):
        mid = 0.5 * (a + b)
        below = xi(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return uniq[0] + sign * 0.5 * (a + b)


def build_graded_mesh(domain: DomainSpec, h: float, centers, eps) -> GridMesh:
    """Mesh whose lines are graded toward every point of ``centers`` (one
    x,y point or a (k, 2) array) down to cells of about 16 h eps there
    (``eps`` one scale, or one per point; see ``graded_lines``); ``h`` is
    the grading-coordinate step."""
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    eps = np.broadcast_to(np.asarray(eps, dtype=float), len(pts))
    xmin, xmax, ymin, ymax = domain.bbox
    xs = graded_lines(xmin, xmax, pts[:, 0], h, eps)
    ys = graded_lines(ymin, ymax, pts[:, 1], h, eps)
    return mesh_on_lines(domain, xs, ys, h)


def mesh_on_lines(domain: DomainSpec, xs: np.ndarray, ys: np.ndarray, h: float) -> GridMesh:
    """Mesh the domain on the tensor lattice of the increasing lines xs, ys.

    The outermost lines must lie outside the domain; ``h`` is recorded as the
    nominal spacing.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("lattice lines must be strictly increasing")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = domain.levelset(X, Y) < 0.0
    if inside[[0, -1], :].any() or inside[:, [0, -1]].any():
        raise ValueError("level set is negative on the outermost lattice line; enlarge the bbox")

    node_of = np.full(inside.shape, -1, dtype=np.int32)
    ii, jj = np.nonzero(inside)
    n = len(ii)
    if n < 9:
        raise TooCoarseError(f"only {n} interior nodes at h={h}; need at least 9")
    node_of[ii, jj] = np.arange(n, dtype=np.int32)
    ij = np.column_stack([ii, jj]).astype(np.int32)
    coords = np.column_stack([xs[ii], ys[jj]])
    dx, dy = np.diff(xs), np.diff(ys)
    # the lattice spacing per arm; a cut arm is shortened below to its crossing
    arms = np.column_stack([dx[ii], dx[ii - 1], dy[jj], dy[jj - 1]])

    nbr = np.empty((n, 4), dtype=np.int32)
    for d, (di, dj) in enumerate(DIRS):
        nbr[:, d] = node_of[ii + di, jj + dj]

    cut_i, cut_d = np.nonzero(nbr < 0)
    if len(cut_i):
        starts = coords[cut_i]
        dirs = DIRS[cut_d].astype(float)
        lengths = arms[cut_i, cut_d]
        ends = starts + lengths[:, None] * dirs
        phi_start = domain.levelset(starts[:, 0], starts[:, 1])
        phi_end = domain.levelset(ends[:, 0], ends[:, 1])
        # rounding of start + spacing versus the lattice coordinate can flip
        # the sign by one ulp right on the zero set; those arms are full arms
        grazing = phi_end < 0
        if np.any(phi_end < -1e-9 * (1.0 + np.abs(phi_start))):
            bad = int(np.argmin(phi_end))
            raise ValueError(
                "level set is negative beyond the lattice at "
                f"{ends[bad]}; enlarge the bbox"
            )
        todo = ~grazing
        fr = np.ones(len(cut_i))
        if np.any(todo):
            fr[todo] = _bisect_arms(domain, starts[todo], dirs[todo], lengths[todo])
        arms[cut_i, cut_d] = np.maximum(fr, ARM_TOL) * lengths

    return GridMesh(domain, h, xs, ys, node_of, ij, coords, nbr, arms)


def assemble_laplacian(mesh: GridMesh) -> SparseOperator:
    """Gibou-Fedkiw discrete -Δ with zero Dirichlet data folded in.

    Each arm of length a carries the flux (u_i - u_j)/a, a cut arm the flux
    (u_i - u_Γ)/a to its boundary crossing, and each axis' flux difference is
    divided by the node's lattice dual width w (``GridMesh.dual_widths``),
    not by the mean of the two arms: the row is (1/aE + 1/aW)/wx +
    (1/aN + 1/aS)/wy on the diagonal and -1/(a w) toward each neighbour.  A
    cut arm contributes only to the diagonal (its data enters through
    ``dirichlet_rhs``); where no arm is cut, w is the mean of the arms and the
    row is the Shortley-Weller row, exact on quadratics.  The entry of D A
    (D = ``node_area``) between two neighbours is the dual width across their
    arm over the arm, the same from either end, so D A is symmetric
    (Gibou, Fedkiw, Cheng & Kang, J. Comput. Phys. 176, 2002); the scheme
    converges at second order in the max norm.

    The matrix is written straight into compressed columns with int32
    indices, the form ``factorize`` hands to SuperLU.  Column c holds the
    rows ``_COLUMN_ORDER`` lists; the entry in the row of c's neighbour r
    is r's coefficient toward c.
    """
    n = mesh.n_nodes
    a, nbr = mesh.arms, mesh.nbr
    wx, wy = mesh.dual_widths()
    w = (wx, wx, wy, wy)  # by arm direction
    present = nbr >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1) + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    slot = indptr[:-1].copy()  # the next free position in each column
    for d in _COLUMN_ORDER:
        if d is None:
            indices[slot] = np.arange(n, dtype=np.int32)
            data[slot] = (1.0 / a[:, 0] + 1.0 / a[:, 1]) / wx + (1.0 / a[:, 2] + 1.0 / a[:, 3]) / wy
            slot += 1
            continue
        has = present[:, d]
        rows = nbr[has, d]
        pos = slot[has]
        indices[pos] = rows
        data[pos] = -1.0 / (a[rows, _OPP[d]] * w[d][rows])  # the arm from r back to c
        slot[has] += 1
    return SparseOperator((data, indices, indptr), shape=(n, n))


def dirichlet_rhs(mesh: GridMesh, data: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Right-hand side carrying Dirichlet values at the cut-arm crossings:
    g/(a w) for each cut arm of length a at a node of dual width w across it.

    Solving ``assemble_laplacian(mesh) @ u = f + dirichlet_rhs(mesh, g)``
    discretizes -Δu = f with u = g on the boundary.
    """
    b = np.zeros(mesh.n_nodes)
    cut_i, cut_d, pts = mesh.crossings
    if len(cut_i) == 0:
        return b
    g = np.asarray(data(pts[:, 0], pts[:, 1]), dtype=float)
    wx, wy = mesh.dual_widths(cut_i)
    np.add.at(b, cut_i, g / (mesh.arms[cut_i, cut_d] * np.where(cut_d < 2, wx, wy)))
    return b
