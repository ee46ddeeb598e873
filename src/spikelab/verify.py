"""The acceptance suite: each numbered check with its pinned tolerance.

Instruments are chosen per check and recorded on every result.  Checks whose
targets live beyond what a 2-D grid can represent (the spike scale is
e^(-p/4), 3.7e-10 at p = 80) are measured with the rescaled radial oracle on
the disk; the 2-D solver is cross-validated against the oracle on meshes
graded toward the spike and used directly wherever the check names it.  A
failing record is an honest outcome, not a crash: the suite always returns
the complete list.

Every 2-D solution comes from one memoized ladder,
``AcceptanceContext.entry(domain, n, p, graded)``: C4 and C9 on spike-graded
disks, C10 on the ellipse and the C11/C12 cross-checks at h = 1/96 and 1/64
share it, so no field is solved twice in a run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import (
    greens,
    harness,
    kirchhoff_routh,
    lane_emden,
    liouville,
    mesh as mesh_mod,
    pohozaev,
    radial,
    spectrum,
)
from .harness import VerificationRecord, fit_rate

SQRT_E = math.sqrt(math.e)
EIGHT_PI_E = 8 * np.pi * np.e


# the domains the acceptance suite solves on, by name
DOMAINS = {"disk": {"r": 1.0}, "ellipse": {"a": 2.0, "b": 1.0}}
# the first ladder level that Newton-solves from the next-coarser solution;
# the coarser levels (h = 1/64 and 1/96) solve from the spike ansatz
FIRST_REFINED_LEVEL = 128


@dataclass
class AcceptanceContext:
    """Shared lazily-built artifacts (meshes, ladder solutions, oracle solutions)."""

    _cache: dict = field(default_factory=dict)

    def oracle(self, p: float) -> radial.RadialSolution:
        key = ("oracle", p)
        if key not in self._cache:
            self._cache[key] = radial.solve_radial(p)
        return self._cache[key]

    def w0(self) -> liouville.LiouvilleProfile:
        if "w0" not in self._cache:
            self._cache["w0"] = liouville.solve_w0()
        return self._cache["w0"]

    def mesh(self, domain: str, n: int, eps: float | None = None) -> mesh_mod.GridMesh:
        """The h = 1/n mesh of a domain in DOMAINS; with eps, its lines are
        graded toward the domain's Kirchhoff-Routh point down to about
        16 h eps there."""
        key = ("mesh", domain, n, eps)
        if key not in self._cache:
            dom = mesh_mod.make_domain(domain, **DOMAINS[domain])
            if eps is None:
                msh = mesh_mod.build_mesh(dom, 1.0 / n)
            else:
                msh = mesh_mod.build_graded_mesh(dom, 1.0 / n, self.kr_points(domain)[0], eps)
            self._cache[key] = msh
        return self._cache[key]

    def kr_points(self, domain: str) -> np.ndarray:
        """The domain's Kirchhoff-Routh point, (1, 2): the disk's centre, and
        on the ellipse the search result on its h = 1/64 mesh from (0.25, 0.12)."""
        key = ("kr", domain)
        if key not in self._cache:
            if domain == "disk":
                self._cache[key] = np.zeros((1, 2))
            else:
                self._cache[key] = kirchhoff_routh.find_critical_point(
                    self.mesh(domain, 64), [(0.25, 0.12)]).points
        return self._cache[key]

    def release(self, *keys) -> None:
        """Forget cached artifacts whose last reader has run.  A ladder entry
        takes its mesh along, and with it the mesh's cached Laplacian, and
        its LU if ``greens`` still holds that one."""
        for key in keys:
            value = self._cache.pop(key)
            if key[0] == "entry":
                for k in [k for k, v in self._cache.items() if v is value.mesh]:
                    del self._cache[k]

    def entry(self, domain: str, n: int, p: float, graded: bool = False) -> lane_emden.BranchEntry:
        """The one-spike solution at (h = 1/n, p) on the domain's mesh ladder.

        A level coarser than FIRST_REFINED_LEVEL Newton-solves from the spike
        ansatz at the Kirchhoff-Routh point; a finer one Newton-solves from
        the h = 2/n entry interpolated onto its mesh.  The ladder lands on the
        same discrete solution as pure p-continuation (checked to 2e-15 at
        h = 1/128, p = 20) at a fraction of the factorization cost.  With
        ``graded`` every level's mesh is graded toward the point with eps(p)
        from the radial oracle, so every level resolves the peak.  The spike
        radius is taken at the Kirchhoff-Routh point on an ansatz level and
        at the coarser entry's spikes on a refined one.
        """
        key = ("entry", domain, n, p, graded)
        if key not in self._cache:
            msh = self.mesh(domain, n, self.oracle(p).eps0 if graded else None)
            if n < FIRST_REFINED_LEVEL:
                points = self.kr_points(domain)
                guess = lane_emden.ansatz(msh, kirchhoff_routh.psi_eval(msh, points), p)
            else:
                coarse = self.entry(domain, n // 2, p, graded)
                points = np.array([s.position for s in coarse.spikes])
                guess = coarse.mesh.interp(coarse.u, msh.coords, fill=0.0)
            u, info = lane_emden.newton_solve(msh, guess, p)
            d = lane_emden.default_spike_radius(msh, points)
            self._cache[key] = lane_emden.make_entry(msh, u, p, 1, d, info["residual"])
        return self._cache[key]


# ---------------------------------------------------------------- criteria


def criterion_1_universal_constants(ctx: AcceptanceContext) -> list[VerificationRecord]:
    rec = liouville.universal_constants(1e-12, profile=ctx.w0())
    out = []
    spec = {
        "mass": ("bubble mass equals 8 pi", 1e-8),
        "log_moment": ("log moment equals 12 pi log 2", 1e-6),
        "flux_integral": ("rescaled forcing flux integral equals 12", 1e-8),
        "w0_flux": ("r w0'(r) at r = 1e3 equals 12", 1e-2),
        "w0_boundary_integral": ("normal-derivative circle integral equals 24 pi", 1e-2),
    }
    for key, (desc, tol) in spec.items():
        entry = rec[key]
        out.append(
            VerificationRecord(
                f"C1-{key}", desc, entry["target"],
                {"value": entry["measured"], "rel_err": entry["rel_err"]},
                f"rel {tol:g}", entry["rel_err"] <= tol, "quadrature/ode",
            )
        )
    return out


def criterion_2_green_oracle(ctx: AcceptanceContext) -> list[VerificationRecord]:
    pts = [np.array(q) for q in
           [(0.0, 0.0), (0.5, 0.0), (0.3, 0.2), (-0.45, 0.15), (0.1, -0.55), (0.55, -0.2)]]
    errs = {}
    for n in (64, 128, 256):
        msh = ctx.mesh("disk", n)
        errs[n] = max(
            abs(greens.regular_part(msh, q).R_value - greens.unit_disk_R(q)) for q in pts
        )
    order = math.log2(errs[64] / errs[256]) / 2.0
    return [
        VerificationRecord(
            "C2-accuracy", "Robin values match the disk closed form at h = 1/256",
            0.0, {"errors": {str(k): v for k, v in errs.items()}},
            "max err <= 5e-4 at |x| <= 0.6", errs[256] <= 5e-4, "2d-greens",
        ),
        VerificationRecord(
            "C2-order", "Robin convergence order over h in {1/64, 1/128, 1/256}",
            ">= 1.5", {"order": order}, "order >= 1.5", order >= 1.5, "2d-greens",
            fitted_rate=order,
        ),
    ]


def criterion_3_kr_certification(ctx: AcceptanceContext) -> list[VerificationRecord]:
    msh = ctx.mesh("disk", 128)
    cfg = kirchhoff_routh.find_critical_point(msh, [(0.3, 0.2)])
    dist = float(np.hypot(*cfg.points[0]))
    eigs = cfg.eigenvalues
    eig_err = float(np.max(np.abs(eigs - 1.0 / np.pi)) * np.pi)
    return [
        VerificationRecord(
            "C3-location", "disk critical point sits within 2h of the center",
            0.0, {"point": cfg.points[0].tolist(), "distance": dist, "2h": 2 * msh.h},
            "|x| <= 2h", dist <= 2 * msh.h, "2d-kr",
        ),
        VerificationRecord(
            "C3-hessian", "Hessian eigenvalues within 3% of 1/pi",
            1.0 / np.pi, {"eigenvalues": eigs.tolist(), "max_rel_err": eig_err},
            "rel 3e-2", eig_err <= 0.03, "2d-kr",
        ),
    ]


def criterion_4_solver_vs_oracle(ctx: AcceptanceContext) -> list[VerificationRecord]:
    out = []
    for p in (10.0, 20.0, 40.0):
        # lines graded toward the spike resolve its peak at every p, where the
        # uniform h = 1/256 grid cannot carry eps(20) = 1.4e-3 or eps(40) = 8.6e-6
        e = ctx.entry("disk", 256, p, graded=True)
        s = e.spikes[0]
        orc = ctx.oracle(p)
        rel = abs(s.u_max - orc.u0) / orc.u0
        eps_ratio = s.eps / orc.eps0
        note = ""
        if not s.resolved:
            note = (
                f"spike scale eps = {s.eps:.2e} below the lattice cell {s.cell:.2e} "
                "at the peak; the grid cannot represent the peak"
            )
        out.append(
            VerificationRecord(
                f"C4-p{int(p)}", f"2-D peak height matches the radial oracle at p = {int(p)}",
                orc.u0,
                {"u_max_2d": s.u_max, "u_max_oracle": orc.u0,
                 "rel_err": rel, "eps_ratio_2d_over_oracle": eps_ratio},
                "rel 1e-3 at h = 1/256", rel <= 1e-3, "2d-vs-oracle", notes=note,
            )
        )
        if p != 20.0:  # C9-identities reads the p = 20 ladder
            ctx.release(*(("entry", "disk", n, p, True) for n in (64, 128, 256)))
    return out


def criterion_5_peak_law(ctx: AcceptanceContext) -> list[VerificationRecord]:
    ps = [20.0, 30.0, 40.0, 60.0, 80.0]
    resid = []
    for p in ps:
        orc = ctx.oracle(p)
        resid.append(abs(orc.u0 - lane_emden.predicted_umax(p, 0.0)))
    slope, intercept, r2 = fit_rate(ps, resid)
    return [
        VerificationRecord(
            "C5-rate", "peak-law residual decays with log-log slope <= -1.5",
            "<= -1.5", {"p": ps, "residuals": resid, "slope": slope, "r2": r2},
            "slope <= -1.5", slope <= -1.5, "radial-oracle", fitted_rate=slope,
        ),
        VerificationRecord(
            "C5-p80", "peak-law residual at p = 80 below 2e-3",
            0.0, {"residual": resid[-1]}, "abs 2e-3", resid[-1] <= 2e-3, "radial-oracle",
        ),
    ]


def criterion_6_energy_mass(ctx: AcceptanceContext) -> list[VerificationRecord]:
    ps = [20.0, 30.0, 40.0, 60.0, 80.0]
    energies = [ctx.oracle(p).energy() for p in ps]
    rel80 = abs(energies[-1] - EIGHT_PI_E) / EIGHT_PI_E
    gaps = [EIGHT_PI_E - e for e in energies]
    monotone = bool(np.all(np.diff(gaps) < 0))
    rho80 = ctx.oracle(80.0).mass_deficit()
    return [
        VerificationRecord(
            "C6-energy", "p-weighted gradient energy within 5% of 8 pi e at p = 80",
            EIGHT_PI_E, {"p": ps, "energies": energies, "rel_err_80": rel80},
            "rel 5e-2", rel80 <= 0.05, "radial-oracle",
            notes="true gap is 2 log p/p + (1 - 6 log 2)/p ~ 6.8% at p = 80; "
                  "the window cannot be met by the exact solution",
        ),
        VerificationRecord(
            "C6-monotone", "energy approaches 8 pi e monotonically along the sweep",
            EIGHT_PI_E, {"gaps": gaps}, "decreasing gap", monotone, "radial-oracle",
        ),
        VerificationRecord(
            "C6-mass-deficit", "rho_p = p(1 - I_p/(8 pi)) lies in [2.5, 3.5] at p = 80",
            3.0, {"rho_80": rho80}, "[2.5, 3.5]", 2.5 <= rho80 <= 3.5, "radial-oracle",
        ),
    ]


def criterion_7_eps_law(ctx: AcceptanceContext) -> list[VerificationRecord]:
    orc = ctx.oracle(80.0)
    val = -4.0 * math.log(orc.eps0) / 80.0
    target_sub = -(2 * np.pi * 0.0 + 1.5 * math.log(2.0) + 0.75)
    sub = math.log(orc.eps0) + 20.0
    sub_rel = abs(sub - target_sub) / abs(target_sub)
    return [
        VerificationRecord(
            "C7-leading", "-4 log(eps)/p lies in [0.97, 1.03] at p = 80",
            1.0, {"value": val}, "[0.97, 1.03]", 0.97 <= val <= 1.03, "radial-oracle",
            notes="the subleading constant adds 4(2 pi Psi + 1.5 log 2 + 0.75)/p "
                  "= 0.0895 at p = 80, so the exact solution sits at 1.086; "
                  "the window is met only as p -> 240",
        ),
        VerificationRecord(
            "C7-subleading", "log eps + p/4 matches -(2 pi Psi + 1.5 log 2 + 3/4) within 15%",
            target_sub, {"value": sub, "rel_err": sub_rel},
            "rel 0.15", sub_rel <= 0.15, "radial-oracle",
        ),
    ]


def criterion_8_profile_correction(ctx: AcceptanceContext) -> list[VerificationRecord]:
    prof = ctx.w0()
    ps = [20.0, 30.0, 40.0, 60.0, 80.0]
    y = np.linspace(1e-3, 10.0, 400)
    w0y = prof.w0(y)
    sup_v, sup_k = [], []
    for p in ps:
        orc = ctx.oracle(p)
        v = p * (orc.w(y) - liouville.U(y))
        sup_v.append(float(np.max(np.abs(v - w0y))))
        sup_k.append(float(np.max(np.abs(p * (v - w0y)))))
    decreasing = bool(np.all(np.diff(sup_v) < 0))
    within = all(s <= 30.0 / p for s, p in zip(sup_v, ps) if p >= 40.0)
    bounded = max(sup_k) <= 5.0
    return [
        VerificationRecord(
            "C8-first-order", "sup_{|y|<=10} |v_p - w0| decreases and is <= 30/p for p >= 40",
            0.0, {"p": ps, "sup_v_minus_w0": sup_v},
            "decreasing, <= 30/p", decreasing and within, "radial-oracle+w0",
        ),
        VerificationRecord(
            "C8-second-order", "sup_{|y|<=10} |p(v_p - w0)| stays bounded along the sweep",
            None, {"p": ps, "sup_k": sup_k}, "<= 5 uniformly", bounded, "radial-oracle+w0",
        ),
    ]


def criterion_9_pform(ctx: AcceptanceContext) -> list[VerificationRecord]:
    msh = ctx.mesh("disk", 256)
    G = greens.regular_part(msh, (0.0, 0.0))
    h = msh.h
    vals = [pohozaev.circle_forms(G, G, (0.0, 0.0), t, mesh=msh)[0] for t in (8 * h, 16 * h)]
    err = max(abs(v + 1.0 / (2 * np.pi)) for v in vals)
    spread = abs(vals[0] - vals[1])
    return [
        VerificationRecord(
            "C9-pform", "P(G, G) equals -1/(2 pi) at theta in {8h, 16h}, h = 1/256",
            -1.0 / (2 * np.pi),
            {"values": vals, "max_err": err, "spread": spread},
            "abs 1e-3, spread 1e-3", err <= 1e-3 and spread <= 1e-3, "2d-greens",
        )
    ]


def criterion_9_identities(ctx: AcceptanceContext) -> list[VerificationRecord]:
    # the spike (eps(20) = 1.4e-3) needs lines graded toward it: on the
    # uniform ladder the peak is under-resolved and the residuals grow
    errs, levels = {}, {}
    theta = 0.125
    u0 = ctx.oracle(20.0).u0
    eps0 = ctx.oracle(20.0).eps0
    for n in (64, 128, 256):
        e = ctx.entry("disk", n, 20.0, graded=True)
        rep = pohozaev.pohozaev_residuals(
            e.mesh, e.u, 20.0, e.spikes[0].position, theta
        )
        errs[n] = max(abs(rep.p_residual), float(np.max(np.abs(rep.q_residuals))))
        stats = e.mesh.line_stats()
        levels[str(n)] = {
            "n_nodes": e.mesh.n_nodes,
            "min_cell_over_eps": stats["min_cell"] / eps0,
            "max_growth": stats["max_growth"],
            "u_max_gap": e.spikes[0].u_max - u0,
        }
    order = math.log2(errs[64] / errs[256]) / 2.0
    return [
        VerificationRecord(
            "C9-identities", "Pohozaev identity residuals shrink with order >= 1 in h at p = 20",
            ">= 1",
            {"errors": {str(k): v for k, v in errs.items()}, "order": order, "levels": levels},
            "order >= 1", order >= 1.0, "2d-solver on spike-graded meshes",
            fitted_rate=order,
        )
    ]


def criterion_10_gradient_balance(ctx: AcceptanceContext) -> list[VerificationRecord]:
    ratios = []
    for p in (20.0, 40.0, 80.0):
        e = ctx.entry("ellipse", 128, p)
        gb = pohozaev.gradient_balance(e)
        ratios.append(gb.ratios[0])
    monotone = ratios[0] > ratios[1] > ratios[2]
    return [
        VerificationRecord(
            "C10-balance",
            "ellipse |C grad R(x_p)| / (eps/p) decreases monotonically over p in {20, 40, 80}",
            0.0, {"ratios": ratios}, "monotone decreasing", monotone, "2d-solver",
            notes="the single spike is pinned to the ellipse centre by symmetry, "
                  "where grad R vanishes: the measured grad R(x_p) is ~1.5e-15, the "
                  "rounding of grad R = d_x0 H + grad_y H there, so "
                  "each ratio is rounding divided by eps/p and grows with p; the paper "
                  "bounds the balance by O(eps/p^(2-delta)) and promises no monotone decay",
        )
    ]


def criterion_11_spectrum(ctx: AcceptanceContext) -> list[VerificationRecord]:
    out = []
    morse_ok = True
    margins = {}
    for p in (20.0, 40.0, 80.0):
        orc = ctx.oracle(p)
        spec = radial.disk_spectrum(orc, m_max=3, n=4000)
        spec_fine = radial.disk_spectrum(orc, m_max=3, n=8000)
        morse_ok &= spec.morse_index == 1
        margins[p] = (spec.margin(), spec_fine.margin())
    out.append(
        VerificationRecord(
            "C11-morse", "disk Morse index equals 1 at p in {20, 40, 80}",
            1, {"morse": {str(p): 1 if morse_ok else None for p in (20, 40, 80)}},
            "== 1", morse_ok, "radial-modes",
        )
    )
    stab = max(abs(a - b) / abs(a) for a, b in margins.values())
    out.append(
        VerificationRecord(
            "C11-margin", "near-zero margin positive and stable to 20% under grid refinement",
            None,
            {"margins": {str(p): list(v) for p, v in margins.items()}, "max_rel_change": stab},
            "margin > 0, change <= 20%",
            all(a > 0 for a, _ in margins.values()) and stab <= 0.2,
            "radial-modes",
            notes="n refines every mode: the margin is the m = 1 translation "
                  "eigenvalue, solved by bisection on the factorized pencil's "
                  "n-node grid, so max_rel_change measures its grid refinement "
                  "from n = 4000 to n = 8000",
        )
    )
    # kernel-coefficient consistency on the near-null translation mode
    orc = ctx.oracle(80.0)
    lam, rg, xi = radial.mode1_eigenvalue(orc, index=1)
    kd = radial.mode1_kernel_data(orc, xi, rg)
    gap_b = abs(kd["B"] + 8 * np.pi * kd["b"]) / abs(8 * np.pi * kd["b"])
    out.append(
        VerificationRecord(
            "C11-coefficients",
            "A vs 16 pi a and B vs -8 pi b agree within 15% at p = 80 (near-null modes)",
            None,
            {"lambda": lam, "b": kd["b"], "B": kd["B"], "gap_B_rel": gap_b,
             "a": 0.0, "A": 0.0},
            "rel 0.15", gap_b <= 0.15, "radial-modes",
            notes="near-null modes are the translation pair; their a and A vanish "
                  "identically by angular symmetry, so the substantive check is B vs -8 pi b",
        )
    )
    # cross-validate the 2-D spectrum machinery in the resolved regime
    e = ctx.entry("disk", 96, 6.0)
    rep = spectrum.bottom_spectrum(e, 4, 2e-6)
    spec1d = radial.disk_spectrum(ctx.oracle(6.0), m_max=3)
    lam1d = np.sort([v for v, _ in spec1d.eigenvalues_near_zero()])
    mism = float(np.max(np.abs(np.sort(rep.eigenvalues) - lam1d) / np.abs(lam1d)))
    out.append(
        VerificationRecord(
            "C11-2d-crosscheck",
            "2-D bottom spectrum matches the radial instrument at p = 6 (resolved regime)",
            None,
            {"eigs_2d": rep.eigenvalues.tolist(), "eigs_radial": lam1d.tolist(),
             "max_rel_mismatch": mism, "morse_2d": rep.morse_index},
            "rel 2e-2, morse == 1", mism <= 0.02 and rep.morse_index == 1, "2d-vs-radial",
        )
    )
    return out


def criterion_12_property_suites(ctx: AcceptanceContext) -> list[VerificationRecord]:
    out = []
    # discrete maximum principle
    msh = ctx.mesh("disk", 64)
    rng = np.random.default_rng(11)
    f = rng.random(msh.n_nodes)
    u = greens.laplacian_factorization(msh).solve(f)
    out.append(
        VerificationRecord(
            "C12-max-principle", "nonnegative source gives nonnegative solution",
            None, {"min_u": float(np.min(u))}, ">= -1e-12", float(np.min(u)) >= -1e-12,
            "2d-linsolve",
        )
    )
    # bilinearity and symmetry of the circle forms
    f1 = pohozaev.NodeField(msh, msh.coords[:, 0] ** 2 - msh.coords[:, 1] ** 2, fill=None)
    f2 = pohozaev.NodeField(msh, msh.coords[:, 0] * msh.coords[:, 1], fill=None)
    a, b = 1.3, -0.7
    combo = pohozaev.NodeField(msh, a * f1.node_values + b * f2.node_values, fill=None)
    c, t = (0.05, 0.0), 0.2
    p_c1, q_c1 = pohozaev.circle_forms(combo, f1, c, t)
    p_11, q_11 = pohozaev.circle_forms(f1, f1, c, t)
    p_21, q_21 = pohozaev.circle_forms(f2, f1, c, t)
    p_12, q_12 = pohozaev.circle_forms(f1, f2, c, t)
    lin_err = float(abs(p_c1 - a * p_11 - b * p_21) + abs(q_c1[0] - a * q_11[0] - b * q_21[0]))
    sym_err = float(abs(p_12 - p_21) + abs(q_12[1] - q_21[1]))
    out.append(
        VerificationRecord(
            "C12-forms", "P and Q are bilinear and symmetric to round-off",
            0.0, {"linearity_err": lin_err, "symmetry_err": sym_err},
            "<= 1e-9", lin_err <= 1e-9 and sym_err <= 1e-9, "quadrature",
        )
    )
    # Jacobian against directional finite differences
    u10 = ctx.entry("disk", 64, 10.0).u
    problem = lane_emden.LaneEmdenProblem(msh)
    v = rng.standard_normal(msh.n_nodes)
    v /= np.linalg.norm(v)
    eps = 1e-6 * float(np.linalg.norm(u10))
    fd = (problem.residual(u10 + eps * v, 10.0)[0] - problem.residual(u10, 10.0)[0]) / eps
    Jv = problem.jacobian(u10, 10.0) @ v
    jac_err = float(np.linalg.norm(fd - Jv) / np.linalg.norm(Jv))
    out.append(
        VerificationRecord(
            "C12-jacobian", "analytic Jacobian matches directional differences",
            0.0, {"rel_err": jac_err}, "rel 1e-5 at eps = 1e-6 scaled",
            jac_err <= 1e-5, "2d-solver",
        )
    )
    # determinism of the sweep
    cfg_run = harness.RunConfig(h_list=[1.0 / 32], p_list=[8.0, 10.0], p_start=8.0)
    s1 = harness.run_sweep(cfg_run)
    s2 = harness.run_sweep(cfg_run)
    same = harness.branch_csv_text(s1["branch"]) == harness.branch_csv_text(s2["branch"])
    out.append(
        VerificationRecord(
            "C12-determinism", "identical configs give bit-identical branch output",
            None, {"identical": same}, "bit-identical", same, "harness",
        )
    )
    return out


def run_criterion(criterion, ctx: AcceptanceContext) -> list[VerificationRecord]:
    """The records of one criterion on ctx.  A warning it raises (an
    ``UnderResolvedSpikeWarning``, say) joins the notes of its records
    instead of going to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", lane_emden.UnderResolvedSpikeWarning)
        records = criterion(ctx)
    # the two sweeps of C12-determinism raise the same warning twice
    raised = [f"warning: {m}" for m in dict.fromkeys(str(w.message) for w in caught)]
    for rec in records:
        rec.notes = "; ".join(filter(None, [rec.notes, *raised]))
    return records


def acceptance_records(full: bool = True) -> list[VerificationRecord]:
    """All acceptance records; ``full=False`` skips the 2-D sweeps at the
    finest grids (criteria 4, the 9-refinement study, and 10).

    The records keep the criteria's order, but C9-pform runs right after C2
    and the run releases C2's uniform h = 1/256 mesh, and with it the
    Laplacian factor ``greens`` holds for it, before C3 factorizes the
    h = 1/128 Laplacian; C4 itself releases its p = 10 and p = 40 ladders.
    Each criterion runs through ``run_criterion``, so its warnings join its
    notes.
    """
    ctx = AcceptanceContext()
    records = []
    records += run_criterion(criterion_1_universal_constants, ctx)
    records += run_criterion(criterion_2_green_oracle, ctx) if full else []
    c9_pform = run_criterion(criterion_9_pform, ctx)
    ctx.release(("mesh", "disk", 256, None))
    records += run_criterion(criterion_3_kr_certification, ctx)
    if full:
        records += run_criterion(criterion_4_solver_vs_oracle, ctx)
    records += run_criterion(criterion_5_peak_law, ctx)
    records += run_criterion(criterion_6_energy_mass, ctx)
    records += run_criterion(criterion_7_eps_law, ctx)
    records += run_criterion(criterion_8_profile_correction, ctx)
    records += c9_pform
    if full:
        records += run_criterion(criterion_9_identities, ctx)
        records += run_criterion(criterion_10_gradient_balance, ctx)
    records += run_criterion(criterion_11_spectrum, ctx)
    records += run_criterion(criterion_12_property_suites, ctx)
    return records
