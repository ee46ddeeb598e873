"""Benchmark of spikelab: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process pins BLAS and the diagnostics
pool to one thread before numpy is imported, times how long imports and input
building take (median of three fresh interpreters), computes the workload's
correctness reference, then runs whole rounds of the workload until S seconds
have passed.  Peak memory is the process's peak resident set through set-up,
reference and the first round.  Every round's outputs are checked.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (medians over rounds); with
--trace 1 one untraced round is followed by traced rounds and the metrics are
the per-layer ones (medians over traced rounds).  The line before it carries
the environment, node counts, per-round figures and failed checks; the same
record goes to perfbench/out/.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "SPIKELAB_THREADS": "1"}
os.environ.update(PINNED)  # BLAS reads these once, when numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ["sweep-disk", "ladder-graded", "radial-oracle", "green-spectrum"]
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe-setup", action="store_true",
                    help="only time the set-up and print it (used for the set-up samples)")
    return ap.parse_args(argv)


def setup(name: str, seed: int):
    """Import the program and build the workload's inputs; returns the time taken."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC)]
    import workloads  # imports numpy, scipy and every spikelab module
    import spikelab

    if not Path(spikelab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spikelab imported from {spikelab.__file__}, not from {SRC}")
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(seed)
    return w, inputs, time.perf_counter() - t0


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    from spikelab import harness

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "pinned": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_count": harness.worker_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Round:
    """Counts the operations of one round.  If one raises, the rest of the
    round is skipped and counted as failed, so a run's failed share is a whole
    number of rounds' worth."""

    def __init__(self):
        self.done = 0
        self.error: str | None = None

    def op(self, fn, *args, **kwargs):
        if self.error is not None:
            return None
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.error = f"{getattr(fn, '__qualname__', fn)}: {type(exc).__name__}: {exc}"
            return None
        self.done += 1
        return out


def one_round(w, inputs, ref, tracer=None) -> dict:
    rnd = Round()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            res = w.run(inputs, rnd)
        finally:
            if tracer is not None:
                tracer.active = False
        out = w.extract(res) if rnd.error is None else {}
        failures = w.check(out, ref) if rnd.error is None else []
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": w.n_ops,
        "failed": w.n_ops - rnd.done,
        "error": rnd.error,
        "failures": failures,
        "runtime_warnings": sum(issubclass(c.category, RuntimeWarning) for c in caught),
        "nodes": out.get("nodes", {}),
        "layers": tracer.metrics() if tracer is not None else None,
    }


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        w, inputs, setup_main = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_main))
        return 0
    setup_samples = [setup_main] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import spans

    ref = w.reference(inputs)
    rounds, traced = [], []
    start = time.perf_counter()
    rounds.append(one_round(w, inputs, ref))
    # later rounds start on a heap the first one fragmented, so their peaks
    # vary with allocation order; the first round's peak repeats to 0.3%
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                traced.append(one_round(w, inputs, ref, tracer))
        finally:
            tracer.uninstall()
    else:
        while time.perf_counter() - start < args.seconds:
            rounds.append(one_round(w, inputs, ref))

    everything = rounds + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = not any(r["failures"] for r in everything)
    if args.trace:
        layers = median_metrics([r["layers"] for r in traced])
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in rounds)
        layers["warnings.runtime.count"] = statistics.median(r["runtime_warnings"] for r in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.unattributed_s"] = traced_wall - sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "nodes": everything[0]["nodes"],
        "setup_samples_s": setup_samples,
        "peak_rss_mb": peak_rss_mb,
        "rounds": [{k: v for k, v in r.items() if k not in ("layers", "nodes")} for r in everything],
        "absent": tracer.absent if tracer is not None else [],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1, default=str))
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("fill_mnz"):
        return "Mnz"
    if name.endswith("success_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
