"""Span tracing of spikelab from outside the program.

``Tracer.install`` wraps the public functions of each spikelab module (the
layers) and scipy's SuperLU, ARPACK and Krylov entry points, and rebinds
every name under which a caller looks one up: a function imported by name
into another module (``spectrum`` imports ``smallest_eigenpairs``, ``greens``
imports ``assemble_laplacian``) is replaced there too.  ``uninstall`` puts
the originals back.  Nothing is measured while ``active`` is False.

A span's self time is its duration minus that of its direct child spans.  A
layer's total counts only its outermost spans, so a layer calling itself is
not counted twice; a group (one metric, e.g. every LU entry point) counts
likewise only spans not nested in another span of the same group.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ["linsolve", "mesh", "greens", "kirchhoff_routh", "liouville", "radial",
          "lane_emden", "pohozaev", "spectrum", "harness"]

# module-level spikelab functions whose spans feed a named metric; the
# private stage _arclength_march is reported absent if a later change removes it
FUNCTION_GROUPS = {
    "linsolve.smallest_eigenpairs": "linsolve.eigenpairs",
    "lane_emden.newton_solve": "lane_emden.newton",
    "lane_emden.continue_in_p": "lane_emden.continuation",
    "lane_emden._arclength_march": "lane_emden.arclength",
    "lane_emden.ansatz": "lane_emden.ansatz",
    "lane_emden.extract_spikes": "lane_emden.extract_spikes",
    "mesh.build_mesh": "mesh.build",
    "mesh.build_graded_mesh": "mesh.build",
    "mesh.mesh_on_lines": "mesh.build",
    "mesh.assemble_laplacian": "mesh.laplacian",
    "greens.regular_part": "greens.regular_part",
    "kirchhoff_routh.find_critical_point": "kirchhoff_routh.search",
    "kirchhoff_routh.psi_eval": "kirchhoff_routh.psi_eval",
    "spectrum.bottom_spectrum": "spectrum.bottom",
    "spectrum.analyse_entry": "spectrum.analyse",
    "radial.solve_radial": "radial.solve",
    "radial.disk_spectrum": "radial.disk_spectrum",
    "radial.mode1_eigenvalue": "radial.mode1",
    "liouville.solve_w0": "liouville.w0",
    "pohozaev.pohozaev_residuals": "pohozaev.residuals",
    "pohozaev.gradient_balance": "pohozaev.balance",
    "harness.run_sweep": "harness.sweep",
}
METHOD_GROUPS = {
    ("mesh", "GridMesh", "interp"): "mesh.interp",
    ("mesh", "GridMesh", "interp_gradient"): "mesh.interp",
    ("mesh", "GridMesh", "ball_weights"): "mesh.ball_weights",
}
# scipy entry points, by the module whose globals their callers read
LU_ENTRIES = {
    "scipy.sparse.linalg": ["splu", "spsolve", "factorized"],
    "scipy.sparse.linalg._dsolve": ["splu", "spsolve", "factorized"],
    "scipy.sparse.linalg._dsolve.linsolve": ["splu", "spsolve", "factorized"],
    "scipy.sparse.linalg._eigen.arpack.arpack": ["splu"],
}
EIGEN_ENTRIES = {"scipy.sparse.linalg": ["eigs", "eigsh"]}
KRYLOV_ENTRIES = {"scipy.sparse.linalg": ["bicgstab", "cg", "cgs", "gmres", "lgmres",
                                          "minres", "qmr", "gcrotmk", "tfqmr"]}
# (group, enclosing group) -> metric counting the group's spans inside the other
NESTED_COUNTS = {("linsolve.lu", "lane_emden.arclength"): "lane_emden.arclength.lu.count"}


class _Frame:
    __slots__ = ("layer", "group", "start", "child", "outer_layer", "outer_group")

    def __init__(self, layer, group, outer_layer, outer_group):
        self.layer = layer
        self.group = group
        self.outer_layer = outer_layer
        self.outer_group = outer_group
        self.child = 0.0
        self.start = time.perf_counter()


class _TracedLU:
    """Stands in for a SuperLU object so that its solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    # -------------------------------------------------------------- spans

    def reset(self) -> None:
        self.group_count = defaultdict(int)
        self.group_failed = defaultdict(int)
        self.group_s = defaultdict(float)
        self.layer_total = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.values = defaultdict(float)

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.depth = defaultdict(int)
        return loc

    def enter(self, layer: str, group: str | None) -> _Frame:
        st = self._state()
        frame = _Frame(layer, group, st.depth[layer] == 0, group is not None and st.depth[group] == 0)
        st.depth[layer] += 1
        if group is not None:
            st.depth[group] += 1
        st.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, ok: bool) -> None:
        dur = time.perf_counter() - frame.start
        st = self._state()
        st.stack.pop()
        st.depth[frame.layer] -= 1
        if frame.group is not None:
            st.depth[frame.group] -= 1
        with self._lock:
            self.layer_self[frame.layer] += dur - frame.child
            if frame.outer_layer:
                self.layer_total[frame.layer] += dur
            if frame.outer_group:
                self.group_count[frame.group] += 1
                self.group_s[frame.group] += dur
                if not ok:
                    self.group_failed[frame.group] += 1
                for (inner, outer), metric in NESTED_COUNTS.items():
                    if inner == frame.group and st.depth[outer] > 0:
                        self.values[metric] += 1
            if st.stack:
                st.stack[-1].child += dur

    def adopt(self, fn):
        """Run ``fn`` (in a worker thread) as a child of the caller's current span."""
        parent = self._state().stack[-1] if self._state().stack else None

        @functools.wraps(fn)
        def run(*args, **kwargs):
            st = self._state()
            if parent is not None:
                st.stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                if parent is not None:
                    st.stack.pop()

        return run

    def wrap(self, fn, layer: str, group: str | None = None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, group)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.exit(frame, ok)
            return on_return(out) if on_return is not None else out

        traced.__wrapped_by_tracer__ = fn
        return traced

    # ------------------------------------------------------------ install

    def _rebind(self, original, replacement, owners) -> None:
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, name, original))
                    setattr(owner, name, replacement)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"spikelab.{layer}") for layer in LAYERS}
        owners = [m for name, m in sys.modules.items() if name.startswith("spikelab") and m is not None]
        scipy_owners = [importlib.import_module(m) for m in
                        {**LU_ENTRIES, **EIGEN_ENTRIES, **KRYLOV_ENTRIES}] + owners

        hooks = {"lane_emden.newton": self._on_newton, "mesh.build": self._on_mesh}
        for key in FUNCTION_GROUPS:
            layer, name = key.split(".")
            if not inspect.isfunction(getattr(mods[layer], name, None)):
                self.absent.append(key)
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if (name.startswith("_") and key not in FUNCTION_GROUPS) or hasattr(fn, "__wrapped_by_tracer__"):
                    continue
                group = FUNCTION_GROUPS.get(key)
                self._rebind(fn, self.wrap(fn, layer, group, hooks.get(group)), owners)
        for (layer, cls_name, meth), group in METHOD_GROUPS.items():
            cls = getattr(mods[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.absent.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._rebind(fn, self.wrap(fn, layer, group), [cls])
        self._install_executor(mods["harness"])

        scipy_hooks = {"splu": self._on_lu, "factorized": self._on_factorized}
        for table, group in ((LU_ENTRIES, "linsolve.lu"), (EIGEN_ENTRIES, "linsolve.eigenpairs"),
                             (KRYLOV_ENTRIES, "linsolve.krylov")):
            for modname, names in table.items():
                for name in names:
                    fn = getattr(importlib.import_module(modname), name, None)
                    if fn is None or hasattr(fn, "__wrapped_by_tracer__"):
                        continue  # absent, or already rebound through another module
                    call = self._counting_krylov(fn) if group == "linsolve.krylov" else fn
                    self._rebind(fn, self.wrap(call, "linsolve", group, scipy_hooks.get(name)),
                                 scipy_owners)

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -------------------------------------------------------------- hooks

    def _on_newton(self, out):
        info = out[1] if isinstance(out, tuple) and len(out) == 2 else None
        if isinstance(info, dict):
            self.values["lane_emden.newton.iterations"] += info.get("iterations", 0)
        return out

    def _on_mesh(self, msh):
        self.values["mesh.nodes"] = max(self.values["mesh.nodes"], msh.n_nodes)
        return msh

    def _on_lu(self, lu):
        with self._lock:
            self.values["linsolve.lu.fill_mnz"] += lu.nnz / 1e6
        return _TracedLU(lu, self.wrap(lu.solve, "linsolve", "linsolve.lu_solve"))

    def _on_factorized(self, solve):
        return self.wrap(solve, "linsolve", "linsolve.lu_solve")

    def _counting_krylov(self, fn):
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            user = kwargs.get("callback")

            def count(*a, **k):
                with tracer._lock:
                    tracer.values["linsolve.krylov.iterations"] += 1
                return user(*a, **k) if user is not None else None

            if user is None and fn.__name__ == "gmres":
                kwargs.setdefault("callback_type", "pr_norm")  # one call per inner iteration
            kwargs["callback"] = count
            return fn(*args, **kwargs)

        return call

    def _install_executor(self, harness_mod) -> None:
        """The diagnostics stage of run_sweep is the block of its thread pool."""
        base = getattr(harness_mod, "ThreadPoolExecutor", None)
        if base is None:
            self.absent.append("harness.ThreadPoolExecutor")
            return
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._frame = tracer.enter("harness", "harness.diagnostics") if tracer.active else None
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._frame is not None:
                        tracer.exit(self._frame, exc[0] is None)

            def submit(self, fn, /, *args, **kwargs):
                if tracer.active:
                    fn = tracer.adopt(fn)
                return super().submit(fn, *args, **kwargs)

        self._patches.append((harness_mod, "ThreadPoolExecutor", base))
        harness_mod.ThreadPoolExecutor = TracedPool

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        g, v = self.group_count, self.values
        calls = g["lane_emden.newton"]
        failed = self.group_failed["lane_emden.newton"]
        out = {
            "linsolve.lu.count": g["linsolve.lu"],
            "linsolve.lu.s": self.group_s["linsolve.lu"],
            "linsolve.lu.fill_mnz": v["linsolve.lu.fill_mnz"],
            "linsolve.lu_solve.count": g["linsolve.lu_solve"],
            "linsolve.lu_solve.s": self.group_s["linsolve.lu_solve"],
            "linsolve.eigenpairs.count": g["linsolve.eigenpairs"],
            "linsolve.eigenpairs.s": self.group_s["linsolve.eigenpairs"],
            "linsolve.krylov.iterations": v["linsolve.krylov.iterations"],
            "lane_emden.newton.calls": calls,
            "lane_emden.newton.failed": failed,
            "lane_emden.newton.success_ratio": (calls - failed) / calls if calls else 0.0,
            "lane_emden.newton.iterations": v["lane_emden.newton.iterations"],
            "lane_emden.newton.s": self.group_s["lane_emden.newton"],
            "lane_emden.continuation.s": self.group_s["lane_emden.continuation"],
            "lane_emden.arclength.s": self.group_s["lane_emden.arclength"],
            "lane_emden.arclength.lu.count": v["lane_emden.arclength.lu.count"],
            "lane_emden.ansatz.count": g["lane_emden.ansatz"],
            "lane_emden.extract_spikes.s": self.group_s["lane_emden.extract_spikes"],
            "mesh.build.s": self.group_s["mesh.build"],
            "mesh.nodes": v["mesh.nodes"],
            "mesh.laplacian.s": self.group_s["mesh.laplacian"],
            "mesh.interp.s": self.group_s["mesh.interp"],
            "mesh.ball_weights.s": self.group_s["mesh.ball_weights"],
            "greens.regular_part.count": g["greens.regular_part"],
            "greens.regular_part.s": self.group_s["greens.regular_part"],
            "kirchhoff_routh.search.s": self.group_s["kirchhoff_routh.search"],
            "kirchhoff_routh.psi_eval.count": g["kirchhoff_routh.psi_eval"],
            "spectrum.bottom.s": self.group_s["spectrum.bottom"],
            "spectrum.analyse.s": self.group_s["spectrum.analyse"],
            "radial.solve.count": g["radial.solve"],
            "radial.solve.s": self.group_s["radial.solve"],
            "radial.disk_spectrum.s": self.group_s["radial.disk_spectrum"],
            "radial.mode1.count": g["radial.mode1"],
            "radial.mode1.s": self.group_s["radial.mode1"],
            "liouville.w0.s": self.group_s["liouville.w0"],
            "pohozaev.residuals.s": self.group_s["pohozaev.residuals"],
            "pohozaev.balance.s": self.group_s["pohozaev.balance"],
            "harness.sweep.s": self.group_s["harness.sweep"],
            "harness.diagnostics.s": self.group_s["harness.diagnostics"],
        }
        for layer in LAYERS:
            out[f"{layer}.total_s"] = self.layer_total[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
