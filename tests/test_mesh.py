import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import bisect

from closed_forms import coo_laplacian
from spikelab import greens, linsolve
from spikelab.mesh import (
    DIRS,
    GRADE_SCALE,
    InvalidParamsError,
    TooCoarseError,
    assemble_laplacian,
    build_graded_mesh,
    build_mesh,
    dirichlet_rhs,
    graded_lines,
    make_domain,
    mesh_on_lines,
)
from spikelab.pohozaev import _ball_sum

J01_SQUARED = 2.404825557695773**2


def node_at(mesh, x, y) -> int:
    """Index of the mesh node nearest (x, y)."""
    return int(np.argmin(np.hypot(mesh.coords[:, 0] - x, mesh.coords[:, 1] - y)))


def test_disk_levelset_values():
    d = make_domain("disk", r=1.0)
    assert d.levelset(0.0, 0.0) == pytest.approx(-1.0)
    assert d.levelset(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_ellipse_boundary_point():
    d = make_domain("ellipse", a=2.0, b=1.0)
    assert d.levelset(2.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert d.levelset(0.0, 0.0) < 0


def test_annulus_membership():
    d = make_domain("annulus", r_in=0.5, r_out=1.0)
    assert d.levelset(0.75, 0.0) < 0
    assert d.levelset(0.0, 0.0) > 0


def test_dumbbell_is_connected_blob():
    d = make_domain("dumbbell", r=0.6, sep=1.0, neck=0.3)
    assert d.levelset(1.0, 0.0) < 0
    assert d.levelset(0.0, 0.0) < 0  # the neck
    assert d.levelset(0.0, 0.5) > 0


@pytest.mark.parametrize(
    "kind,params",
    [
        ("disk", {"r": -1.0}),
        ("ellipse", {"a": 0.0, "b": 1.0}),
        ("annulus", {"r_in": 1.0, "r_out": 0.5}),
        ("dumbbell", {"r": 0.5, "sep": 1.0, "neck": 2.0}),
        ("smoothed-rectangle", {"hx": 1.0, "hy": 1.0, "rho": 5.0}),
        ("no-such-shape", {}),
    ],
)
def test_invalid_params_raise(kind, params):
    with pytest.raises(InvalidParamsError):
        make_domain(kind, **params)


def test_disk_arms_match_bisection_oracle():
    d = make_domain("disk", r=1.0)
    m = build_mesh(d, 0.5)
    # independent oracle: scipy bisection on the level set along each cut arm
    cut_i, cut_d = np.nonzero(m.nbr < 0)
    assert len(cut_i) > 0
    for i, dd in zip(cut_i, cut_d):
        x0, y0 = m.coords[i]
        dx, dy = DIRS[dd]

        def phi(t):
            return d.levelset(x0 + t * 0.5 * dx, y0 + t * 0.5 * dy)

        t_star = bisect(phi, 0.0, 1.0, xtol=1e-14) if phi(1.0) > 0 else 1.0
        assert m.arms[i, dd] / 0.5 == pytest.approx(t_star, abs=1e-12)


def test_node_at_origin_has_full_arms():
    m = build_mesh(make_domain("disk", r=1.0), 0.5)
    k = node_at(m, 0.0, 0.0)
    assert np.all(m.nbr[k] >= 0)
    assert np.all(m.arms[k] == 0.5)


def test_interior_count_approximates_area():
    m = build_mesh(make_domain("disk", r=1.0), 0.1)
    expected = np.pi / 0.1**2
    assert abs(m.n_nodes - expected) / expected < 0.05


def test_square_side_two_lattice_geometry():
    # rho = 0.25 keeps the axis boundary binary-exact at |x| = 1, so the unit
    # lattice has exactly one interior node; build_mesh honors the >= 9 node
    # contract, so the single-node case raises and the geometry is checked at
    # h = 1/2 where the same crossings sit exactly at full arms
    d = make_domain("smoothed-rectangle", hx=1.0, hy=1.0, rho=0.25)
    xs = np.array([-1.0, 0.0, 1.0])
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = d.levelset(X, Y) < 0
    assert inside.sum() == 1 and inside[1, 1]
    with pytest.raises(TooCoarseError):
        build_mesh(d, 1.0)
    m = build_mesh(d, 0.5)
    k = node_at(m, 0.0, 0.0)
    assert np.all(m.arms[k] == 0.5)
    edge = node_at(m, 0.5, 0.0)
    assert m.nbr[edge, 0] == -1 and m.arms[edge, 0] == pytest.approx(0.5)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["disk", "ellipse", "annulus"]),
    h=st.sampled_from([0.11, 0.07, 0.05]),
)
def test_arm_crossings_lie_on_zero_set(kind, h):
    params = {"disk": {"r": 1.0}, "ellipse": {"a": 1.4, "b": 0.9}, "annulus": {"r_in": 0.45, "r_out": 1.0}}
    d = make_domain(kind, **params[kind])
    m = build_mesh(d, h)
    cut_i, cut_d = np.nonzero(m.nbr < 0)
    pts = m.coords[cut_i] + m.arms[cut_i, cut_d, None] * DIRS[cut_d]
    phi = d.levelset(pts[:, 0], pts[:, 1])
    # |phi| at the crossing is bounded by the levelset slope times the arm tol
    assert np.max(np.abs(phi)) < 1e-10


def test_full_stencil_weights():
    m = build_mesh(make_domain("disk", r=1.0), 0.25)
    A = assemble_laplacian(m)
    k = node_at(m, 0.0, 0.0)
    row = A.getrow(k)
    h2 = 0.25**2
    assert row[0, k] == pytest.approx(4.0 / h2)
    for d in range(4):
        assert row[0, m.nbr[k, d]] == pytest.approx(-1.0 / h2)


@pytest.mark.parametrize("mesh_of", [
    lambda: build_mesh(make_domain("disk", r=1.0), 1.0 / 32),
    lambda: build_mesh(make_domain("annulus", r_in=0.5, r_out=1.0), 1.0 / 32),
    lambda: build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 32, (0.2, -0.1), 1e-2),
], ids=["disk", "annulus", "graded"])
def test_laplacian_is_the_coo_assembly_in_csc(mesh_of):
    m = mesh_of()
    for arr in (m.node_of, m.ij, m.nbr):
        assert arr.dtype == np.int32
    A = assemble_laplacian(m)
    ref = coo_laplacian(m)
    assert isinstance(A, linsolve.SparseOperator) and A.format == "csc"
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
    assert A.has_canonical_format and np.all(A.data != 0.0)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def test_polynomial_exactness():
    m = build_mesh(make_domain("disk", r=1.0), 0.1)
    A = assemble_laplacian(m)
    f = m.coords[:, 0] ** 2 + m.coords[:, 1] ** 2
    Af = A @ f
    full = np.all(m.nbr >= 0, axis=1)
    assert np.max(np.abs(Af[full] + 4.0)) < 1e-10


def _max_errors(domain, f, g, exact):
    """Max-norm error of the solve of -Δu = f, u = g on the boundary, at h = 1/20 ... 1/160."""
    errs = []
    for h in (1.0 / 20, 1.0 / 40, 1.0 / 80, 1.0 / 160):
        m = build_mesh(domain, h)
        x, y = m.coords[:, 0], m.coords[:, 1]
        u = greens.laplacian_factorization(m).solve(f(x, y) + dirichlet_rhs(m, g))
        errs.append(np.max(np.abs(u - exact(x, y))))
    return np.array(errs)


def test_poisson_solve_converges_at_second_order():
    # -Δu = 4 with zero data has u* = 1 - |x|^2 on the unit disk; the cut
    # rows are first order locally, the solve second order in the max norm
    # (orders 1.81, 2.08, 1.96)
    errs = _max_errors(make_domain("disk", r=1.0), lambda x, y: np.full(x.shape, 4.0),
                       lambda x, y: np.zeros_like(x), lambda x, y: 1.0 - x * x - y * y)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders > 1.75) and np.log2(errs[0] / errs[-1]) / 3 > 1.9
    assert errs[-1] < 1e-5


def test_discrete_maximum_principle():
    m = build_mesh(make_domain("ellipse", a=1.3, b=0.8), 0.05)
    rng = np.random.default_rng(7)
    f = rng.random(m.n_nodes)
    u = greens.laplacian_factorization(m).solve(f)
    assert np.min(u) >= -1e-12


def test_disk_eigenvalue_converges_to_bessel_zero():
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        m = build_mesh(make_domain("disk", r=1.0), h)
        A = assemble_laplacian(m)
        ep = linsolve.smallest_eigenpairs(A, m=1, tol=1e-10)
        errs.append(abs(ep.eigenvalues[0] - J01_SQUARED))
    assert errs[1] < errs[0]
    assert errs[1] < 0.03


def test_dirichlet_rhs_harmonic_solve():
    # harmonic data x^2 - y^2 on an ellipse: the solve converges at second
    # order in the max norm (orders 1.89, 1.94, 1.97)
    def harmonic(x, y):
        return x * x - y * y

    errs = _max_errors(make_domain("ellipse", a=1.3, b=0.8), lambda x, y: np.zeros_like(x),
                       harmonic, harmonic)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders > 1.85)
    assert errs[-1] < 1e-5


def test_boundary_crossings_are_tabled_once():
    # every cut arm, once, and its crossing on the circle; boundary_distance
    # and dirichlet_rhs read the same table
    m = build_mesh(make_domain("disk", r=1.0), 0.05)
    cut_i, cut_d, pts = m.crossings
    assert m.crossings is m.crossings
    assert cut_i.size == np.count_nonzero(m.nbr < 0)
    assert np.all(m.nbr[cut_i, cut_d] < 0)
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-10)
    assert m.boundary_distance(0.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert dirichlet_rhs(m, lambda x, y: np.ones_like(x)).sum() > 0


def test_too_coarse_raises():
    with pytest.raises(TooCoarseError):
        build_mesh(make_domain("disk", r=1.0), 0.9)


def test_mesh_summary_fields():
    m = build_mesh(make_domain("disk", r=1.0), 0.2)
    s = m.summary()
    assert s["kind"] == "disk" and s["n_nodes"] == m.n_nodes and s["h"] == 0.2
    assert len(s["bbox"]) == 4


# ---- lattices on arbitrary lines -------------------------------------------

EPS20 = 1.39e-3  # spike scale of the disk solution at p = 20


@pytest.fixture(scope="module")
def graded():
    # the coarsest mesh of the graded Pohozaev ladder
    return build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 64, (0.0, 0.0), EPS20)


def _quadratic(x, y):
    return 0.7 * x * x - 1.3 * x * y + 0.4 * y * y + 0.2 * x - 0.5 * y + 0.1


def test_uniform_node_counts_unchanged():
    # the disk lattices of the acceptance ladder, as counted before lines
    # could be graded
    disk = make_domain("disk", r=1.0)
    assert build_mesh(disk, 1.0 / 64).n_nodes == 12849
    assert build_mesh(disk, 1.0 / 256).n_nodes == 205857


def _conic_arms(m, conics):
    """Arm lengths from the closed-form crossings of each arm with the
    boundary conics (x/a)^2 + (y/b)^2 = 1, given as (a, b) pairs."""
    spacing = np.column_stack([np.diff(m.xs)[m.ij[:, 0]], np.diff(m.xs)[m.ij[:, 0] - 1],
                               np.diff(m.ys)[m.ij[:, 1]], np.diff(m.ys)[m.ij[:, 1] - 1]])
    arms = spacing.copy()
    x, y = m.coords.T
    for d, (dx, dy) in enumerate(DIRS):
        for a, b in conics:
            # (x + t dx)^2/a^2 + (y + t dy)^2/b^2 = 1 along the arm
            qa = dx * dx / a**2 + dy * dy / b**2
            qb = 2 * (x * dx / a**2 + y * dy / b**2)
            qc = (x / a) ** 2 + (y / b) ** 2 - 1
            disc = np.sqrt(np.maximum(qb * qb - 4 * qa * qc, 0.0))
            for t in ((-qb - disc) / (2 * qa), (-qb + disc) / (2 * qa)):
                hit = (t > 0) & (t < arms[:, d])
                arms[hit, d] = t[hit]
    return arms


@pytest.mark.parametrize(
    "kind,params,h,conics",
    [("disk", {"r": 1.0}, 1.0 / 16, [(1.0, 1.0)]),
     ("ellipse", {"a": 2.0, "b": 1.0}, 1.0 / 16, [(2.0, 1.0)]),
     ("annulus", {"r_in": 0.45, "r_out": 1.0}, 0.07, [(0.45, 0.45), (1.0, 1.0)])],
)
def test_uniform_lines_reproduce_build_mesh(kind, params, h, conics):
    d = make_domain(kind, **params)
    m = build_mesh(d, h)
    cx, cy = d.center()
    # the lines are the lattice centred on the bbox, reaching one step past
    # the first line at or beyond each side
    mx = int(np.ceil((d.bbox[1] - cx) / h)) + 1
    my = int(np.ceil((d.bbox[3] - cy) / h)) + 1
    xs = cx + h * np.arange(-mx, mx + 1)
    ys = cy + h * np.arange(-my, my + 1)
    assert np.array_equal(m.xs, xs) and np.array_equal(m.ys, ys)
    # the node set is the lattice inside the level set
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.array_equal(m.node_of >= 0, d.levelset(X, Y) < 0)
    # neighbours are the adjacent lattice nodes; an arm the boundary cuts has none
    end = m.ij[:, None, :] + DIRS[None, :, :]
    assert np.array_equal(m.nbr, m.node_of[end[..., 0], end[..., 1]])
    arms = _conic_arms(m, conics)
    assert np.all(m.nbr[arms < h * (1 - 1e-9)] < 0)
    # every arm ends at the lattice neighbour or at the closed-form boundary crossing
    assert np.max(np.abs(m.arms - arms)) < 1e-11 * h
    assert np.allclose(m.node_area, h * h, rtol=1e-14, atol=0.0)


def test_graded_arms_meet_the_circle(graded):
    arms = _conic_arms(graded, [(1.0, 1.0)])
    assert np.max(np.abs(graded.arms - arms) / arms) < 1e-11


def test_graded_lines_shape():
    for h in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        xs = graded_lines(-1.04, 1.04, 0.0, h, EPS20)
        gaps = np.diff(xs)
        k0 = int(np.argmin(np.abs(xs)))
        assert xs[k0] == 0.0  # the grading centre is a line
        assert np.allclose(xs, -xs[::-1], rtol=0, atol=1e-15)
        assert xs[0] < -1.04 and xs[-1] > 1.04
        # spacing h/(1 + 1/(16 sqrt(eps^2 + x^2))): about 16 h eps at the
        # centre, close to h at the ends
        assert gaps.min() == pytest.approx(h / (1 + 1 / (16 * EPS20)), rel=0.01)
        assert gaps.max() < h and gaps.max() > 0.9 * h
    growth = [np.max(np.maximum(g[1:] / g[:-1], g[:-1] / g[1:]))
              for g in (np.diff(graded_lines(-1.04, 1.04, 0.0, h, EPS20)) for h in (1 / 64, 1 / 128, 1 / 256))]
    assert growth[0] > growth[1] > growth[2] and growth[2] < 1.06


def _mirrored_lines(lo, hi, center, h, eps):
    """The single-centre construction: lines at steps h of
    xi(z) = z + s asinh(z/eps), z = x - center, each solved for |k h| on
    [0, |k h|] and mirrored about the centre."""
    def xi(z):
        return z + GRADE_SCALE * np.arcsinh(z / eps)

    k = np.arange(np.floor(xi(lo - center) / h) - 1, np.ceil(xi(hi - center) / h) + 2)
    target = np.abs(k * h)
    a, b = np.zeros_like(target), target.copy()
    for _ in range(64):
        mid = 0.5 * (a + b)
        below = xi(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return center + np.sign(k) * 0.5 * (a + b)


def test_one_centre_lines_are_the_mirrored_asinh_lines():
    for c, eps in ((0.0, EPS20), (0.2, 3e-3), (-0.37, 0.05)):
        for h in (1 / 24, 1 / 64, 1 / 128):
            assert np.array_equal(graded_lines(-1.04, 1.04, c, h, eps),
                                  _mirrored_lines(-1.04, 1.04, c, h, eps))
    # a point or a (1, 2) array, one eps or one per point: the same mesh
    disk = make_domain("disk", r=1.0)
    m = build_graded_mesh(disk, 1.0 / 32, (0.2, -0.1), 1e-2)
    for same in (build_graded_mesh(disk, 1.0 / 32, [[0.2, -0.1]], [1e-2]),
                 build_graded_mesh(disk, 1.0 / 32, np.array([0.2, -0.1]), np.float64(1e-2))):
        assert np.array_equal(m.xs, same.xs) and np.array_equal(m.ys, same.ys)
    assert np.array_equal(m.ys, _mirrored_lines(-1.04, 1.04, -0.1, 1.0 / 32, 1e-2))


def test_two_centre_lines_crowd_toward_both_centres():
    # the k = 2 annulus points (+-0.68, 0), with a scale each: the x lines
    # get one asinh term per centre, the y lines one for the shared y = 0
    h, eps = 1.0 / 32, (4e-3, 8e-3)
    m = build_graded_mesh(make_domain("annulus", r_in=0.4, r_out=1.0), h,
                          [[0.68, 0.0], [-0.68, 0.0]], eps)
    gaps = np.diff(m.xs)
    mids = 0.5 * (m.xs[1:] + m.xs[:-1])
    assert m.xs[0] < -1.04 and m.xs[-1] > 1.04 and np.all(gaps > 0)
    for c, e in zip((0.68, -0.68), eps):
        # spacing h / xi'(c), xi'(c) = 1 + s/eps_c + s/sqrt(eps_o^2 + 1.36^2)
        near = gaps[np.argmin(np.abs(mids - c))]
        assert near == pytest.approx(h / (1 + GRADE_SCALE / e), rel=0.1)
    # midway between the centres and far out the spacing is close to h
    assert gaps[np.argmin(np.abs(mids))] > 0.8 * h and gaps.max() < h
    # neighbouring spacings grow no faster than toward one centre alone
    def growth(g):
        return np.max(np.maximum(g[1:] / g[:-1], g[:-1] / g[1:]))

    assert growth(gaps) <= growth(np.diff(graded_lines(-1.04, 1.04, 0.68, h, eps[0])))
    # the shared y = 0 takes the lesser eps and stays mirror-symmetric
    assert np.array_equal(m.ys, _mirrored_lines(-1.04, 1.04, 0.0, h, min(eps)))


def test_graded_mesh_laplacian_exact_on_quadratics(graded):
    # a row with no cut arm divides by the mean of its unequal arms and is
    # exact on quadratics; a cut row divides by the lattice dual width and is not
    A = assemble_laplacian(graded)
    f = _quadratic(graded.coords[:, 0], graded.coords[:, 1])
    lap = A @ f - dirichlet_rhs(graded, _quadratic)
    full = np.all(graded.nbr >= 0, axis=1)
    # each row cancels terms of size |A_ii| max|f|; the error is their rounding
    scale = np.abs(A.diagonal()[full]) * np.max(np.abs(f))
    assert np.max(np.abs(lap[full] + 2.2) / scale) < 1e-12
    assert np.max(np.abs(lap[full] + 2.2)) < 1e-4
    assert np.max(np.abs(lap[~full] + 2.2)) > 1e-3


@pytest.mark.parametrize("mesh_of", [
    lambda: build_mesh(make_domain("disk", r=1.0), 1.0 / 64),
    lambda: build_graded_mesh(make_domain("disk", r=1.0), 1.0 / 64, (0.0, 0.0), EPS20),
    lambda: build_mesh(make_domain("annulus", r_in=0.5, r_out=1.0), 1.0 / 32),
], ids=["disk", "graded", "annulus"])
def test_area_weighted_laplacian_is_symmetric(mesh_of):
    # D A, D = node_area: both entries between neighbours are the dual
    # width across their arm over the arm, equal to within a few ulps
    m = mesh_of()
    K = (sp.diags(m.node_area) @ assemble_laplacian(m)).tocoo()
    KT = K.T.tocsr()
    mirror = np.asarray(KT[K.row, K.col]).ravel()
    assert np.max(np.abs(K.data - mirror) / np.abs(K.data)) < 4 * np.finfo(float).eps


def test_graded_mesh_interp_exact_on_quadratics(graded):
    rng = np.random.default_rng(3)
    r = 0.8 * np.sqrt(rng.random(400))
    a = 2 * np.pi * rng.random(400)
    pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
    pts[:100] *= 0.01  # inside the fine cells around the centre
    f = _quadratic(graded.coords[:, 0], graded.coords[:, 1])
    got = graded.interp(f, pts)
    assert np.max(np.abs(got - _quadratic(pts[:, 0], pts[:, 1]))) < 1e-12


def test_graded_mesh_gradient_exact(graded):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.6, 0.6, (300, 2))
    pts[:100] *= 0.01
    lin = 2.0 * graded.coords[:, 0] - 3.0 * graded.coords[:, 1] + 1.0
    g = graded.interp_gradient(lin, pts)
    assert np.max(np.abs(g - [2.0, -3.0])) < 1e-9
    # three-point differences on unequal arms are exact on quadratics
    gx, gy = graded.nodal_gradient(_quadratic(graded.coords[:, 0], graded.coords[:, 1]))
    full = np.all(graded.nbr >= 0, axis=1)
    x, y = graded.coords[full].T
    assert np.max(np.abs(gx[full] - (1.4 * x - 1.3 * y + 0.2))) < 1e-9
    assert np.max(np.abs(gy[full] - (-1.3 * x + 0.8 * y - 0.5))) < 1e-9


def test_graded_mesh_refine_stationary(graded):
    c = np.array([1e-4, -0.8e-4])  # within half a cell of the centre node
    f = -((graded.coords[:, 0] - c[0]) ** 2) - 2 * (graded.coords[:, 1] - c[1]) ** 2 + 1.5
    pt, val = graded.refine_stationary(f, (0.0, 0.0))
    assert np.allclose(pt, c, atol=1e-12) and val == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.013, -0.02), (0.3, 0.2)])
def test_graded_ball_weights_measure_area(graded, center):
    theta = 0.125
    area = _ball_sum(graded, np.ones(graded.n_nodes), center, theta)
    assert abs(area - np.pi * theta**2) < 1e-12 * np.pi * theta**2


def test_ball_weights_are_cut_cell_areas(graded):
    # every corner sum telescopes to the disk's area, so the total alone does
    # not test the corner formula; check each cut cell against a 1-D quadrature
    c, r = np.array([0.013, -0.02]), 0.125
    idx, wts = graded.ball_weights(c, r)
    checked = 0
    for n, w in zip(idx, wts):
        i, j = graded.ij[n]
        x0, x1 = 0.5 * (graded.xs[i - 1:i + 1] + graded.xs[i:i + 2]) - c[0]
        y0, y1 = 0.5 * (graded.ys[j - 1:j + 1] + graded.ys[j:j + 2]) - c[1]
        if max(x0 * x0, x1 * x1) + max(y0 * y0, y1 * y1) <= r * r:
            assert w == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-12)
            continue

        def chord(x):
            s = np.sqrt(max(r * r - x * x, 0.0))
            return max(0.0, min(y1, s) - max(y0, -s))

        kinks = [x for yy in (y0, y1) if yy * yy < r * r
                 for x in (np.sqrt(r * r - yy * yy), -np.sqrt(r * r - yy * yy))
                 if max(x0, -r) < x < min(x1, r)]
        ref = quad(chord, max(x0, -r), min(x1, r), points=kinks or None, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(w - ref) <= 1e-11 * (x1 - x0) * (y1 - y0)
        checked += 1
    assert checked > 50


def test_lines_must_enclose_domain():
    d = make_domain("disk", r=1.0)
    xs = np.linspace(-0.9, 0.9, 19)
    with pytest.raises(ValueError):
        mesh_on_lines(d, xs, xs, 0.1)


def _lagrange(nodes, x):
    """Quadratic Lagrange weights of the three nodes, at x."""
    return np.array([np.prod([(x - nodes[m]) / (nodes[l] - nodes[m]) for m in range(3) if m != l])
                     for l in range(3)])


def _interp_point_by_point(msh, values, pts, fill):
    """Reference for GridMesh.interp, one point at a time: the 3x3 block of the
    nearest node, else the first block one line away that avoids the exterior.
    Returns (values, shifted), with NaN where no such block exists."""
    arr = msh.grid_array(values)
    if fill is not None:
        arr = np.where(np.isnan(arr), fill, arr)
    out, shifted = np.full(len(pts), np.nan), np.zeros(len(pts), dtype=bool)
    for k, (x, y) in enumerate(pts):
        i0 = int(np.clip(np.argmin(np.abs(msh.xs - x)), 1, len(msh.xs) - 2))
        j0 = int(np.clip(np.argmin(np.abs(msh.ys - y)), 1, len(msh.ys) - 2))
        for di, dj in [(0, 0)] + [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]:
            i, j = i0 + di, j0 + dj
            block = arr[i - 1 : i + 2, j - 1 : j + 2]
            if 1 <= i < len(msh.xs) - 1 and 1 <= j < len(msh.ys) - 1 and not np.isnan(block).any():
                out[k] = _lagrange(msh.xs[i - 1 : i + 2], x) @ block @ _lagrange(msh.ys[j - 1 : j + 2], y)
                shifted[k] = (i, j) != (i0, j0)
                break
    return out, shifted


def _gradient_arrays(msh, values, fill):
    """The nodal gradient's two components on the lattice, fill outside."""
    arrays = [msh.grid_array(g) for g in msh.nodal_gradient(values)]
    return arrays if fill is None else [np.where(np.isnan(a), fill, a) for a in arrays]


def _gradient_point_by_point(msh, values, pts, fill):
    """Reference for GridMesh.interp_gradient: bilinear in the lattice cell."""
    out = np.empty((len(pts), 2))
    for col, arr in enumerate(_gradient_arrays(msh, values, fill)):
        for k, (x, y) in enumerate(pts):
            i = int(np.clip(np.searchsorted(msh.xs, x, side="right") - 1, 0, len(msh.xs) - 2))
            j = int(np.clip(np.searchsorted(msh.ys, y, side="right") - 1, 0, len(msh.ys) - 2))
            tx = (x - msh.xs[i]) / (msh.xs[i + 1] - msh.xs[i])
            ty = (y - msh.ys[j]) / (msh.ys[j + 1] - msh.ys[j])
            out[k, col] = np.array([1 - tx, tx]) @ arr[i : i + 2, j : j + 2] @ np.array([1 - ty, ty])
    return out


@pytest.fixture(scope="module", params=["uniform", "graded"])
def disk_field(request, graded):
    msh = build_mesh(make_domain("disk", r=1.0), 1.0 / 32) if request.param == "uniform" else graded
    x, y = msh.coords.T
    u = np.cos(3.0 * x) * np.exp(y) * (1.0 - x * x - y * y)
    rng = np.random.default_rng(5)
    # half the points within a cell or two of the circle, where blocks touch the exterior
    r = np.r_[0.95 * np.sqrt(rng.random(300)), rng.uniform(0.95, 0.999, 300)]
    a = 2 * np.pi * rng.random(600)
    return msh, u, np.column_stack([r * np.cos(a), r * np.sin(a)])


def test_bulk_interp_matches_point_by_point(disk_field):
    msh, u, pts = disk_field
    scale = np.max(np.abs(u))
    want, _ = _interp_point_by_point(msh, u, pts, 0.0)
    assert np.max(np.abs(msh.interp(u, pts, fill=0.0) - want)) <= 1e-14 * scale
    want, shifted = _interp_point_by_point(msh, u, pts, None)
    ok = ~np.isnan(want)
    assert shifted.sum() > 10 and (~ok).any()
    assert np.max(np.abs(msh.interp(u, pts[ok]) - want[ok])) <= 1e-14 * scale
    with pytest.raises(ValueError, match="touches the exterior"):
        msh.interp(u, pts[~ok][:1])


def test_bulk_interp_gradient_matches_point_by_point(disk_field):
    msh, u, pts = disk_field
    scale = np.max(np.abs(msh.nodal_gradient(u)))
    want = _gradient_point_by_point(msh, u, pts, 0.0)
    assert np.max(np.abs(msh.interp_gradient(u, pts, fill=0.0) - want)) <= 1e-14 * scale
    inner = pts[:300]
    want = _gradient_point_by_point(msh, u, inner, None)
    assert np.max(np.abs(msh.interp_gradient(u, inner) - want)) <= 1e-14 * scale
    with pytest.raises(ValueError, match="touches the exterior"):
        msh.interp_gradient(u, pts)


def test_interp_gradient_is_the_whole_mesh_path_bit_for_bit(graded):
    x, y = graded.coords.T
    u = np.cos(3.0 * x) * np.exp(y) * (1.0 - x * x - y * y)
    rng = np.random.default_rng(6)
    r = np.r_[0.01 * np.sqrt(rng.random(200)), 0.95 * np.sqrt(rng.random(200)),
              rng.uniform(0.95, 0.999, 200)]
    a = 2 * np.pi * rng.random(600)
    pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
    for fill, sample in ((0.0, pts), (None, pts[:400]), (-2.5, pts)):
        got = graded.interp_gradient(u, sample, fill=fill)
        i = np.clip(np.searchsorted(graded.xs, sample[:, 0], side="right") - 1, 0, len(graded.xs) - 2)
        j = np.clip(np.searchsorted(graded.ys, sample[:, 1], side="right") - 1, 0, len(graded.ys) - 2)
        tx = (sample[:, 0] - graded.xs[i]) / (graded.xs[i + 1] - graded.xs[i])
        ty = (sample[:, 1] - graded.ys[j]) / (graded.ys[j + 1] - graded.ys[j])
        for col, arr in enumerate(_gradient_arrays(graded, u, fill)):
            want = (arr[i, j] * (1 - tx) * (1 - ty) + arr[i + 1, j] * tx * (1 - ty)
                    + arr[i, j + 1] * (1 - tx) * ty + arr[i + 1, j + 1] * tx * ty)
            assert np.array_equal(got[:, col], want)
    with pytest.raises(ValueError, match="touches the exterior"):
        graded.interp_gradient(u, pts)
