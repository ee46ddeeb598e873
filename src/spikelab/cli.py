"""Command-line interface: spikelab {green|kr|liouville|sweep|spectrum|verify}."""

from __future__ import annotations

import argparse
import csv
import fractions
import json
import os
import resource
import sys
import time

import numpy as np

from . import greens, harness, kirchhoff_routh, lane_emden, liouville, mesh as mesh_mod, spectrum


def parse_domain(text: str) -> mesh_mod.DomainSpec:
    """Parse 'disk,r=1' / 'ellipse,a=2,b=1' / 'annulus,r_in=0.5,r_out=1'."""
    try:
        kind, *parts = [t.strip() for t in text.split(",") if t.strip()]
        params = {}
        for part in parts:
            k, eq, v = part.partition("=")
            if not eq:
                raise ValueError(f"{part!r} is not key=value")
            params[k.strip()] = float(v)
        return mesh_mod.make_domain(kind, **params)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a domain: {text!r} ({exc})") from None


def parse_points(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        x, y = chunk.split(",")
        pts.append([float(x), float(y)])
    return np.array(pts)


def parse_h(text: str) -> float:
    """Positive grid spacing as a decimal or a fraction: '1/64', '0.015625', '1e-2'."""
    try:
        h = float(fractions.Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a decimal or a fraction: {text!r}") from None
    if h <= 0:
        raise argparse.ArgumentTypeError(f"not a positive spacing: {text!r}")
    return h


def parse_p_range(text: str) -> list[float]:
    if ":" in text:
        a, b = text.split(":")
        lo, hi = float(a), float(b)
        return [p for p in harness.DEFAULT_P_LIST if lo - 1e-9 <= p <= hi + 1e-9] or [lo, hi]
    return [float(t) for t in text.split(",")]


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=float)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_green(args) -> int:
    msh = mesh_mod.build_mesh(args.domain, args.h)
    x0 = np.array([float(t) for t in args.source.split(",")])
    gd = greens.robin_derivatives(msh, x0)
    _emit(
        {
            "source": x0.tolist(),
            "R": gd.R_value,
            "grad_R": gd.R_grad.tolist(),
            "hess_R": gd.R_hess.tolist(),
            "mesh": msh.summary(),
        },
        args.out,
    )
    return 0


def _critical_point(args):
    """The mesh of --domain and --h, and the Kirchhoff-Routh point searched
    from --start."""
    msh = mesh_mod.build_mesh(args.domain, args.h)
    start = kirchhoff_routh.start_points(args.domain, args.start)
    return msh, kirchhoff_routh.find_critical_point(msh, start)


def cmd_kr(args) -> int:
    _, cfg = _critical_point(args)
    _emit(
        {
            "k": cfg.k,
            "points": cfg.points.tolist(),
            "psi_parts": cfg.psi_parts.tolist(),
            "psi_total": cfg.psi_total,
            "grad": cfg.grad.tolist(),
            "hess": cfg.hess.tolist(),
            "nondeg_margin": cfg.nondeg_margin,
            "eigenvalues": cfg.eigenvalues.tolist(),
            "classification": cfg.classification,
        },
        args.out,
    )
    return 0


def cmd_liouville(args) -> int:
    prof = liouville.solve_w0()
    if args.dump_w0:
        with open(args.dump_w0, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["r", "w0", "w0_prime"])
            for r, wv, wp in zip(prof.r, prof.w0_values, prof.w0_prime_values):
                w.writerow([repr(float(v)) for v in (r, wv, wp)])
        print(f"wrote {args.dump_w0}")
    if args.verify or not args.dump_w0:
        rec = liouville.universal_constants(profile=prof)
        _emit(rec, args.out)
        return 0 if all(v["rel_err"] < 0.01 for v in rec.values()) else 1
    return 0


def _report(records, out_dir: str, t0: float, branch=None, plots=None) -> int:
    """Write checks.json (with branch.csv and the plots when given) to out_dir,
    print a PASS/FAIL line per record, the notes of each failing one and a
    summary line; 0 iff every record passed."""
    harness.emit_reports(records, out_dir, branch=branch, plots=plots)
    failed = [r for r in records if not r.passed]
    for r in records:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.identifier}: {r.description}")
        if not r.passed and r.notes:
            print(f"       note: {r.notes}")
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\n{len(records) - len(failed)}/{len(records)} checks passed in "
          f"{time.time() - t0:.0f}s, peak RSS {peak_mb:.0f} MB; "
          f"records in {os.path.join(out_dir, 'checks.json')}")
    return 0 if not failed else 1


def cmd_sweep(args) -> int:
    t0 = time.time()
    cfg = harness.RunConfig(
        domain=args.domain, h_list=[args.h], p_list=args.p,
        start_points=None if args.start is None else args.start.tolist(),
    )
    sweep = harness.run_sweep(cfg)
    return _report(sweep["records"], args.out, t0, branch=sweep["branch"], plots=sweep["plots"])


def cmd_spectrum(args) -> int:
    msh, cfg = _critical_point(args)
    branch = lane_emden.continue_in_p(msh, cfg, args.p)
    rows = []
    for e in branch.entries:
        rep = spectrum.analyse_entry(e, m=args.m)
        rows.append(
            {
                "p": e.p,
                "eigenvalues": rep.eigenvalues.tolist(),
                "residuals": rep.residuals.tolist(),
                "morse_index": rep.morse_index,
                "nondeg_margin": rep.nondeg_margin,
                "projections": rep.projections,
                "coefficients": rep.coefficients,
                "notes": rep.notes,
            }
        )
    _emit(rows, args.out)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    t0 = time.time()
    return _report(verify.acceptance_records(full=not args.quick), args.out, t0)


class _Parser(argparse.ArgumentParser):
    """Reports bad input in one line and exits 2, its subcommands too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    ap = _Parser(prog="spikelab",
                                 description="Lane-Emden spike asymptotics laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, out=None):
        sp.add_argument("--domain", type=parse_domain, default="disk,r=1")
        sp.add_argument("--h", type=parse_h, default=1.0 / 64,
                        help="grid spacing (fractions like 1/128 accepted)")
        sp.add_argument("--out", default=out)

    start_help = "x,y[;x,y...]: one start point per spike, k = their number (default: one spike)"
    p_help = "range a:b or comma list"

    sp = sub.add_parser("green", help="Robin data at a source point")
    common(sp)
    sp.add_argument("--source", required=True, help="x,y")
    sp.set_defaults(func=cmd_green)

    sp = sub.add_parser("kr", help="Kirchhoff-Routh critical point search")
    common(sp)
    sp.add_argument("--start", type=parse_points, help=start_help)
    sp.set_defaults(func=cmd_kr)

    sp = sub.add_parser("liouville", help="bubble constants and w0 table")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--dump-w0", default=None, metavar="FILE.csv",
                    help="write r, w0, w0' at each step of the w0 integration")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_liouville)

    sp = sub.add_parser("sweep", help="branch sweep with diagnostics: writes checks.json, "
                                      "branch.csv and SVG plots to --out")
    common(sp, out="out")
    sp.add_argument("--p", type=parse_p_range, default="10:80", help=p_help)
    sp.add_argument("--start", type=parse_points, help=start_help)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum", help="bottom spectrum of the spike solution at each p")
    common(sp)
    sp.add_argument("--start", type=parse_points, help=start_help)
    sp.add_argument("--p", type=parse_p_range, default="10", help=p_help)
    sp.add_argument("--m", type=int, default=4)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="run the acceptance suite, writes checks.json to --out")
    sp.add_argument("--out", default="out")
    sp.add_argument("--quick", action="store_true", help="skip the slowest criteria")
    sp.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (greens.SourceNearBoundaryError, kirchhoff_routh.PointNearBoundaryError) as exc:
        # a point the geometry rejects is bad input: one line and exit 2, as argparse does
        ap.exit(2, f"{ap.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
