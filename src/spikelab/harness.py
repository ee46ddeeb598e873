"""Run configuration, sweep orchestration, rate fitting, and report emission.

Reports are a JSON list of verification records, a branch CSV with fixed
columns, and self-contained SVG plots assembled by string, so a browser is
the only viewer needed.
"""

from __future__ import annotations

import json
import math
import os
# the sweep runs in one thread; the name stays only because the benchmark's
# tracer (perfbench/spans.py) patches it and its tests ask that it exists
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kirchhoff_routh, lane_emden, liouville, mesh as mesh_mod, pohozaev


class ConfigError(ValueError):
    pass


def worker_count() -> int:
    """SPIKELAB_THREADS, or min(4, cpu count).  The sweep runs in one thread;
    perfbench/run.py records this number with its environment."""
    env = os.environ.get("SPIKELAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


DEFAULT_P_LIST = [10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0]


@dataclass
class RunConfig:
    domain: mesh_mod.DomainSpec = field(default_factory=lambda: mesh_mod.make_domain("disk", r=1.0))
    h_list: list = field(default_factory=lambda: [1.0 / 64])
    p_list: list = field(default_factory=lambda: list(DEFAULT_P_LIST))
    p_start: float | None = None  # the least p the list may hold (None: no bound)
    start_points: list | None = None

    def validate(self) -> None:
        if not self.p_list:
            raise ConfigError("p list must not be empty")
        if sorted(self.p_list) != list(self.p_list):
            raise ConfigError("p list must be ascending")
        if self.p_start is not None and self.p_list[0] < self.p_start:
            raise ConfigError(f"p list starts below p_start = {self.p_start:g}")
        if len(self.h_list) != 1:
            raise ConfigError("h list must hold exactly one h: the sweep solves on one mesh")


@dataclass
class VerificationRecord:
    identifier: str
    description: str
    target: float | str | None
    measured: dict
    tolerance: str
    passed: bool
    instrument: str = "2d"
    fitted_rate: float | None = None
    notes: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # a numpy comparison gives np.bool_


def fit_rate(x, y) -> tuple[float, float, float]:
    """Least-squares slope/intercept/R^2 of log|y| against log x.

    Zero or negative residuals are excluded (they carry no rate information);
    at least 4 usable points are required.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(y)
    if keep.sum() < 4:
        raise ValueError(f"need at least 4 positive residuals, have {int(keep.sum())}")
    lx = np.log(x[keep])
    ly = np.log(y[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------- reports


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


SVG_WIDTH, SVG_HEIGHT = 640, 440  # pixels


def svg_line_plot(series, title: str, xlabel: str, ylabel: str,
                  logx: bool = False, logy: bool = False) -> str:
    """Self-contained SVG polyline plot (inline styles, no external refs),
    SVG_WIDTH by SVG_HEIGHT.

    ``series`` is a list of (x array, y array, label).
    """
    width, height = SVG_WIDTH, SVG_HEIGHT
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    xs_all = [tx(float(v)) for x, _, _ in series for v in x if (not logx or v > 0)]
    ys_all = [ty(float(v)) for _, y, _ in series for v in y if (not logy or v > 0) and np.isfinite(v)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(v):
        return ml + (tx(v) - x0) / (x1 - x0) * pw

    def py(v):
        return mt + ph - (ty(v) - y0) / (y1 - y0) * ph

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
        f'style="font:14px sans-serif">{_svg_escape(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        vx = 10**fx if logx else fx
        vy = 10**fy if logy else fy
        X = ml + pw * i / 4
        Y = mt + ph - ph * i / 4
        parts.append(f'<line x1="{X:.1f}" y1="{mt+ph}" x2="{X:.1f}" y2="{mt+ph+5}" stroke="#333"/>')
        parts.append(
            f'<text x="{X:.1f}" y="{mt+ph+18}" text-anchor="middle" '
            f'style="font:10px sans-serif">{vx:.3g}</text>'
        )
        parts.append(f'<line x1="{ml-5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{ml-8}" y="{Y+3:.1f}" text-anchor="end" '
            f'style="font:10px sans-serif">{vy:.3g}</text>'
        )
    for s_idx, (x, y, label) in enumerate(series):
        pts = [
            (px(float(a)), py(float(b)))
            for a, b in zip(x, y)
            if (not logx or a > 0) and (not logy or b > 0) and np.isfinite(b)
        ]
        if not pts:
            continue
        poly = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
        col = colors[s_idx % len(colors)]
        parts.append(f'<polyline points="{poly}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        for a, b in pts:
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{col}"/>')
        parts.append(
            f'<text x="{ml+10}" y="{mt+16+14*s_idx}" style="font:11px sans-serif" '
            f'fill="{col}">{_svg_escape(str(label))}</text>'
        )
    parts.append(
        f'<text x="{ml+pw/2:.1f}" y="{height-10}" text-anchor="middle" '
        f'style="font:12px sans-serif">{_svg_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
        f'style="font:12px sans-serif" transform="rotate(-90 16 {mt+ph/2:.1f})">'
        f"{_svg_escape(ylabel)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


BRANCH_COLUMNS = ["p", "j", "x_j", "y_j", "u_max_j", "eps_j", "C_j", "energy", "residual"]


def branch_csv_text(branch: lane_emden.SolutionBranch) -> str:
    """One row per spike j of each entry, in BRANCH_COLUMNS order; floats by repr."""
    lines = [",".join(BRANCH_COLUMNS)]
    for e in branch.entries:
        for j, s in enumerate(e.spikes):
            row = (e.p, j + 1, *s.position, s.u_max, s.eps, s.C, e.energy, e.residual)
            lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_reports(records: list[VerificationRecord], out_dir: str,
                 branch: lane_emden.SolutionBranch | None = None,
                 plots: dict[str, str] | None = None) -> list[str]:
    """Write checks.json (+ branch.csv and SVG plots when given); returns paths."""
    if not records:
        raise ValueError("no verification records to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    checks_path = os.path.join(out_dir, "checks.json")
    with open(checks_path, "w") as f:
        json.dump([asdict(r) for r in records], f, indent=2, sort_keys=True)
        f.write("\n")
    paths.append(checks_path)
    if branch is not None:
        bp = os.path.join(out_dir, "branch.csv")
        with open(bp, "w") as f:
            f.write(branch_csv_text(branch))
        paths.append(bp)
    for name, svg in (plots or {}).items():
        sp = os.path.join(out_dir, name)
        with open(sp, "w") as f:
            f.write(svg)
        paths.append(sp)
    return paths


# ---------------------------------------------------------------- sweep


def run_sweep(cfg: RunConfig) -> dict:
    """KR search, continuation over the p list, per-p diagnostics, law fits.

    Returns {records, branch, plots, kr}; a failing stage is recorded and the
    sweep continues with whatever remains.
    """
    cfg.validate()
    records: list[VerificationRecord] = []
    dom = cfg.domain
    msh = mesh_mod.build_mesh(dom, cfg.h_list[0])

    # Kirchhoff-Routh critical point: one spike per start point
    try:
        kr_cfg = kirchhoff_routh.find_critical_point(
            msh, kirchhoff_routh.start_points(dom, cfg.start_points))
        records.append(
            VerificationRecord(
                "kr-critical-point",
                "Kirchhoff-Routh critical point found with nondegenerate Hessian",
                None,
                {
                    "points": kr_cfg.points.tolist(),
                    "grad_norm": float(np.linalg.norm(kr_cfg.grad)),
                    "margin": kr_cfg.nondeg_margin,
                    "classification": kr_cfg.classification,
                },
                "margin > 1e-6",
                kr_cfg.nondeg_margin > 1e-6,
            )
        )
    except Exception as exc:  # noqa: BLE001 - failure is itself the record
        error = f"{type(exc).__name__}: {exc}"
        records.append(
            VerificationRecord(
                "kr-critical-point", "Kirchhoff-Routh search", None,
                {"error": error}, "completes", False, notes=error,
            )
        )
        return {"records": records, "branch": None, "plots": {}, "kr": None}

    # continuation
    try:
        branch = lane_emden.continue_in_p(msh, kr_cfg, cfg.p_list)
    except Exception as exc:  # noqa: BLE001
        error = f"{type(exc).__name__}: {exc}"
        records.append(
            VerificationRecord(
                "continuation", "branch continuation over the p list", None,
                {"error": error}, "completes", False, notes=error,
            )
        )
        return {"records": records, "branch": None, "plots": {}, "kr": kr_cfg}

    # per-entry diagnostics on the entry's own mesh, in p order: one flat
    # row per spike j, its Pohozaev circle and profile disk inside B_d(x_j)
    prof = liouville.solve_w0()

    def diagnose(entry):
        theta = float(min(8 * entry.mesh.h, entry.d))
        rows = [{"p": entry.p, "j": j + 1, "theta": theta} for j in range(len(entry.spikes))]
        try:
            gb = pohozaev.gradient_balance(entry)
            for row, bal, ratio in zip(rows, gb.residuals, gb.ratios):
                row["balance"] = bal.tolist()
                row["balance_ratio"] = ratio
        except Exception as exc:  # noqa: BLE001
            for row in rows:
                row["gradient_balance_error"] = f"{type(exc).__name__}: {exc}"
        for j, (row, s) in enumerate(zip(rows, entry.spikes)):
            try:
                rep = pohozaev.pohozaev_residuals(entry.mesh, entry.u, entry.p, s.position, theta)
                row["q_residuals"] = rep.q_residuals.tolist()
                row["p_residual"] = float(rep.p_residual)
            except Exception as exc:  # noqa: BLE001
                row["pohozaev_error"] = f"{type(exc).__name__}: {exc}"
            try:
                radius = min(10.0, 0.9 * entry.d / s.eps)
                rp = lane_emden.rescale_profile(entry, j, radius)
                row["sup_v_minus_w0"] = float(np.max(np.abs(rp.v - prof.w0(rp.radii)[:, None])))
            except Exception as exc:  # noqa: BLE001
                row["profile_error"] = f"{type(exc).__name__}: {exc}"
        return rows

    diags = [row for entry in branch.entries for row in diagnose(entry)]
    diag_errors = [f"p = {d['p']:g}, j = {d['j']}: {k} = {v}"
                   for d in diags for k, v in d.items() if k.endswith("_error")]

    ps = np.array(branch.p_values)
    umax = np.array([e.spikes[0].u_max for e in branch.entries])
    psi1 = float(kr_cfg.psi_parts[0])
    pred = np.array([lane_emden.predicted_umax(p, psi1) for p in ps])
    peak_resid = np.abs(umax - pred)
    records.append(
        VerificationRecord(
            "peak-law",
            "peak height follows sqrt(e)(1 - log p/(p-1) + (4 pi Psi + 3 log 2 + 2)/p)",
            None,
            {"p": ps.tolist(), "u_max": umax.tolist(), "residual": peak_resid.tolist(),
             "resolved": [e.spikes[0].resolved for e in branch.entries],
             "strategy": [e.strategy for e in branch.entries],
             "nodes": [e.mesh.n_nodes for e in branch.entries],
             "factorizations": [e.factorizations for e in branch.entries],
             "failed_factorizations": [e.failed_factorizations for e in branch.entries]},
            "informational",
            True,
            notes="2-D grid values, each on its entry's mesh (strategy graded: graded toward the "
                  "spikes); where resolved is false, eps is below the lattice cell",
        )
    )
    try:
        slope, intercept, r2 = fit_rate(ps, peak_resid)
        records.append(
            VerificationRecord(
                "peak-law-rate", "log-log rate of the peak-law residual", None,
                {"slope": slope, "intercept": intercept, "r2": r2}, "informational", True,
            )
        )
    except ValueError as exc:
        records.append(
            VerificationRecord(
                "peak-law-rate", "log-log rate of the peak-law residual", None,
                {"error": str(exc)}, "informational", True,
            )
        )

    eps1 = np.array([e.spikes[0].eps for e in branch.entries])
    energy = np.array([e.energy for e in branch.entries])
    plots = {
        "u_max_vs_p.svg": svg_line_plot(
            [(ps, umax, "computed"), (ps, pred, "peak law")],
            "peak height against p", "p", "u_max",
        ),
        "peak_residual.svg": svg_line_plot(
            [(ps, np.maximum(peak_resid, 1e-300), "|residual|")],
            "peak-law residual", "p", "|u_max - prediction|", logx=True, logy=True,
        ),
        "energy_vs_p.svg": svg_line_plot(
            [(ps, energy, "p * grad-energy"), (ps, np.full_like(ps, 8 * np.pi * np.e), "8 pi e")],
            "energy against p", "p", "energy",
        ),
        "eps_vs_p.svg": svg_line_plot(
            [(ps, eps1, "eps_1")], "spike scale against p", "p", "eps", logy=True,
        ),
    }
    if all("sup_v_minus_w0" in d for d in diags):
        plots["profile_correction.svg"] = svg_line_plot(
            [(ps, np.array([d["sup_v_minus_w0"] for d in diags if d["j"] == j]),
              f"sup |v - w0|, j = {j}") for j in range(1, kr_cfg.k + 1)],
            "first-order profile correction", "p", "sup |v - w0|", logx=True, logy=True,
        )
    records.append(
        VerificationRecord(
            "sweep-diagnostics",
            "per-(p, j) diagnostics: Pohozaev residuals, force balance and profile of each spike",
            None, {"entries": diags}, "every diagnostic completes", not diag_errors,
            notes="; ".join(diag_errors),
        )
    )
    return {"records": records, "branch": branch, "plots": plots, "kr": kr_cfg}
