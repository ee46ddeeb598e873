"""The four workloads: inputs from the seed, one round of program calls, the
reference each round is checked against, and the extraction of checked values.

A round is a fixed list of ``n_ops`` operations, each made through
``rnd.op(fn, ...)`` so that it is counted (see ``run.Round``).
"""

from __future__ import annotations

import numpy as np

from spikelab import greens, harness, kirchhoff_routh, lane_emden, liouville, pohozaev, radial, spectrum
from spikelab import mesh as mesh_mod

import checks
import references


def _disk():
    return mesh_mod.make_domain("disk", r=1.0)


def _residual(msh, u, p):
    return checks.newton_residual(msh, greens.laplacian_operator(msh), u, p)


# ------------------------------------------------------------- sweep-disk


class SweepDisk:
    """harness.run_sweep on the unit disk, h = 1/64, p 10 -> 14, one spike."""

    n_ops = 1

    def inputs(self, seed: int) -> dict:
        # the sweep is one fixed problem: a seed-dependent start would move the
        # branch by rounding and with it the arclength path through the folds
        return {"cfg": harness.RunConfig(h_list=[1.0 / 64], p_list=list(checks.SWEEP_P), p_start=10.0)}

    def reference(self, inputs: dict) -> dict:
        return {"u_max_p10": references.DiskRadial(10.0).u_max}

    def run(self, inputs: dict, rnd):
        return rnd.op(harness.run_sweep, inputs["cfg"])

    def extract(self, res) -> dict:
        branch = res["branch"]
        # informational records may carry an error by design: the peak-law
        # rate fit needs four p values and this sweep records three
        errors = [f"{r.identifier}: {r.measured['error']}" for r in res["records"]
                  if r.tolerance != "informational" and "error" in r.measured]
        if branch is None:
            return {"p_values": [], "residuals": [], "spike_counts": [], "spike_positions": [],
                    "u_max_p10": float("nan"), "h": float("nan"), "errors": errors, "nodes": {}}
        for rec in res["records"]:
            if rec.identifier == "sweep-diagnostics":
                errors += [f"p = {d['p']:g}: {k} = {v}" for d in rec.measured["entries"]
                           for k, v in d.items() if k.endswith("_error")]
        entries = branch.entries
        return {
            "p_values": [float(e.p) for e in entries],
            "residuals": [_residual(e.mesh, e.u, e.p) for e in entries],
            "spike_counts": [len(e.spikes) for e in entries],
            "spike_positions": [e.spikes[0].position.tolist() for e in entries],
            "u_max_p10": entries[0].spikes[0].u_max if entries else float("nan"),
            "h": branch.mesh.h,
            "errors": errors,
            "nodes": {"h=1/64": int(branch.mesh.n_nodes)},
        }

    check = staticmethod(checks.check_sweep)


# ----------------------------------------------------------- ladder-graded


class LadderGraded:
    """The C9 ladder at p = 20 on meshes graded toward the disk's
    Kirchhoff-Routh point (the centre): ansatz + Newton at h = 1/64, then
    interpolation + Newton at h = 1/128, Pohozaev residuals at theta = 0.125."""

    p = 20.0
    theta = 0.125
    levels = (64, 128)
    n_ops = 1 + 2 * len(levels)

    def inputs(self, seed: int) -> dict:
        return {"center": np.zeros(2)}

    def reference(self, inputs: dict) -> dict:
        return {"u_max": references.DiskRadial(self.p).u_max}

    def _level(self, n, center, eps, coarse):
        msh = mesh_mod.build_graded_mesh(_disk(), 1.0 / n, center, eps)
        if coarse is None:
            guess = lane_emden.ansatz(msh, kirchhoff_routh.psi_eval(msh, [center]), self.p)
        else:
            guess = coarse.mesh.interp(coarse.u, msh.coords, fill=0.0)
        u, info = lane_emden.newton_solve(msh, guess, self.p)
        d = lane_emden.default_spike_radius(msh, center[None, :])
        return lane_emden.make_entry(msh, u, self.p, 1, d, info["residual"])

    def run(self, inputs: dict, rnd):
        center = inputs["center"]
        orc = rnd.op(radial.solve_radial, self.p)
        entries, reports = {}, {}
        coarse = None
        for n in self.levels:
            coarse = rnd.op(self._level, n, center, orc.eps0 if orc else None, coarse)
            entries[n] = coarse
            if coarse is not None:
                reports[n] = rnd.op(pohozaev.pohozaev_residuals, coarse.mesh, coarse.u, self.p,
                                    coarse.spikes[0].position, self.theta)
        return entries, reports

    def extract(self, res) -> dict:
        entries, reports = res
        return {
            "residuals": {n: _residual(e.mesh, e.u, self.p) for n, e in entries.items()},
            "u_max": {n: e.spikes[0].u_max for n, e in entries.items()},
            "p_residual": {n: r.p_residual for n, r in reports.items()},
            "nodes": {f"h=1/{n}": int(e.mesh.n_nodes) for n, e in entries.items()},
        }

    check = staticmethod(checks.check_ladder)


# ----------------------------------------------------------- radial-oracle


class RadialOracle:
    """The radial instruments as C5-C8 and C11 call them."""

    p_solve = (20.0, 30.0, 40.0, 60.0, 80.0)
    p_spectrum = (20.0, 40.0, 80.0)
    grids = (4000, 8000)
    n_ops = len(p_solve) + len(p_spectrum) * len(grids) + 2

    def inputs(self, seed: int) -> dict:
        return {}

    def reference(self, inputs: dict) -> dict:
        return {"bubble_mass": references.EIGHT_PI}

    def run(self, inputs: dict, rnd):
        orc = {p: rnd.op(radial.solve_radial, p) for p in self.p_solve}
        spec = {(p, n): rnd.op(radial.disk_spectrum, orc[p], m_max=3, n=n)
                for p in self.p_spectrum for n in self.grids}

        def kernel(rad):
            lam, rg, xi = radial.mode1_eigenvalue(rad, index=1)
            return radial.mode1_kernel_data(rad, xi, rg)

        def bubble():
            return liouville.universal_constants(1e-12, profile=liouville.solve_w0())

        return spec, rnd.op(kernel, orc[80.0]), rnd.op(bubble)

    def extract(self, res) -> dict:
        spec, kd, consts = res
        return {
            "morse": {k: s.morse_index for k, s in spec.items()},
            "mode1": {k: list(s.modes[1][0]) for k, s in spec.items()},
            "margin": {k: s.margin() for k, s in spec.items()},
            "p_spectrum": self.p_spectrum,
            "b": kd["b"],
            "B": kd["B"],
            "bubble_mass": consts["mass"]["measured"],
            "nodes": {},
        }

    check = staticmethod(checks.check_radial)


# ---------------------------------------------------------- green-spectrum


class GreenSpectrum:
    """Robin values at six seed-drawn sources on three disk meshes, the
    Kirchhoff-Routh search at h = 1/128 (on the mesh the Robin solves already
    factorized), and analyse_entry of the p = 6 solution at h = 1/96."""

    levels = (64, 128, 256)
    kr_level = 128
    kr_start = (0.3, 0.2)
    p = 6.0
    spectrum_level = 96
    n_ops = len(levels) + 3

    def inputs(self, seed: int) -> dict:
        # uniform over the disk |x| <= 0.6, the range C2 checks
        rng = np.random.default_rng(seed)
        r = 0.6 * np.sqrt(rng.uniform(size=6))
        t = rng.uniform(0.0, 2.0 * np.pi, size=6)
        return {"sources": np.column_stack([r * np.cos(t), r * np.sin(t)])}

    def reference(self, inputs: dict) -> dict:
        eigs, morse = references.disk_bottom_spectrum(self.p)
        return {
            "robin": [references.disk_robin(q) for q in inputs["sources"]],
            "kr_hessian": references.disk_robin_hessian_eigenvalue(),
            "eigenvalues": eigs,
            "morse": morse,
        }

    def run(self, inputs: dict, rnd):
        meshes, robin = {}, {}
        for n in self.levels:
            def level(n=n):
                msh = mesh_mod.build_mesh(_disk(), 1.0 / n)
                return msh, [greens.regular_part(msh, q).R_value for q in inputs["sources"]]

            got = rnd.op(level)
            if got is not None:
                meshes[n], robin[n] = got
        kr = rnd.op(kirchhoff_routh.find_critical_point, meshes.get(self.kr_level), [self.kr_start])

        def solve():
            msh = mesh_mod.build_mesh(_disk(), 1.0 / self.spectrum_level)
            cfg = kirchhoff_routh.psi_eval(msh, [(0.0, 0.0)])
            u, info = lane_emden.newton_solve(msh, lane_emden.ansatz(msh, cfg, self.p), self.p)
            return lane_emden.make_entry(msh, u, self.p, 1, 0.25, info["residual"])

        entry = rnd.op(solve)
        rep = rnd.op(spectrum.analyse_entry, entry)
        return meshes, robin, kr, entry, rep

    def extract(self, res) -> dict:
        meshes, robin, kr, entry, rep = res
        nodes = {f"h=1/{n}": int(m.n_nodes) for n, m in meshes.items()}
        nodes[f"h=1/{self.spectrum_level}"] = int(entry.mesh.n_nodes)
        return {
            "robin": robin,
            "kr_point": kr.points[0].tolist(),
            "kr_h": meshes[self.kr_level].h,
            "kr_hessian": kr.eigenvalues.tolist(),
            "eigenvalues": rep.eigenvalues.tolist(),
            "morse": rep.morse_index,
            "newton_residual": _residual(entry.mesh, entry.u, self.p),
            "nodes": nodes,
        }

    check = staticmethod(checks.check_green)


WORKLOADS = {
    "sweep-disk": SweepDisk(),
    "ladder-graded": LadderGraded(),
    "radial-oracle": RadialOracle(),
    "green-spectrum": GreenSpectrum(),
}
