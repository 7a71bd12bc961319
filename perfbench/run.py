"""Benchmark harness for the elegant library.

    python3 perfbench/run.py --workload certify-german --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the repository root.  The library is imported from `src/` next
to this directory, never from an installed copy; without it the harness
exits with code 2.  Workloads, their sizes and the output checks live in
`workloads.py`; the metric names and units come from `BENCHMARK.json`.

--trace 0  sets the workload up 3 times (setup_s is the median), each
           set-up followed by a third of --seconds of repeated timed
           operations, and reports the end-to-end metrics setup_s,
           wall_rel and peak_rss_mb (ru_maxrss of this process).
           wall_rel is the mean operation time over the mean time of the
           fixed kernel in reference.py, timed between the operations:
           the operation's cost at constant machine speed.  It is gated
           instead of raw seconds because on a shared 2-core VM the speed
           of the same code drifted by up to 40% over minutes, while
           wall_rel moved by a few percent.  Also printed: wall_s (mean
           seconds per operation), ref_s, and the workload's throughput,
           work in one operation over wall_s (draws_per_s, sets_per_s or
           candidates_per_s).
--trace 1  sets up once under the tracer, then alternates untraced and
           traced operations and reports per-layer metrics: `<layer>.s` is
           self time and `<layer>.calls` the call count per traced
           operation (the set-up layers gnn.train, gnn.loss_grads and
           pipeline.PredictionCache.build add the one traced set-up).
           trace.unattributed_s is the traced operation's wall time not
           covered by any layer, so the layer self times plus it give
           trace.wall_s; trace.overhead_s is the median traced minus the
           median untraced operation time.  For certify-german a child
           run with OPENBLAS_NUM_THREADS=1 supplies
           blas1.gnn.forward_many.s, a diagnostic baseline.

After timing, outputs are checked: every operation must return the same
certificate (traced or not), seeded cache cells must match the unbatched
forward, vote counts must match the cache and certificates their votes.
A failed check or a raising operation counts in `failed`.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  A record with provenance, every metric and the spans
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
REF_SHARE = 0.05
# the traced certify-german run waits for its single-thread child within
# the 180 s a run may take
CHILD_TIMEOUT_S = 120


def import_library():
    """Import elegant from this checkout's src/ or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "elegant", "__init__.py")):
        print(f"error: no library source at {SRC}/elegant; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import elegant

    if not os.path.abspath(elegant.__file__).startswith(os.path.join(SRC, "elegant") + os.sep):
        print(f"error: elegant imported from {elegant.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- provenance


def _blas() -> tuple:
    """(runtime OpenBLAS config, thread count) of numpy's bundled OpenBLAS, or Nones."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if not libs:
        return None, None
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:
        return None, None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    files = sorted(glob.glob(os.path.join(SRC, "elegant", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            body = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + body)
        lines += body.count(b"\n")
    blas_config, blas_threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------- timing


class Outputs:
    """Keeps the first operation's result; later ones are compared with it and dropped."""

    def __init__(self, wl, tally):
        self.wl = wl
        self.tally = tally
        self.first = None
        self._fingerprint = None
        self.count = 0

    def add(self, res) -> None:
        if res is None:
            return
        if self.first is None:
            self.first, self._fingerprint = res, self.wl.fingerprint(res)
        else:
            self.tally.guard(
                f"operation {self.count} repeats the first", lambda: self.wl.fingerprint(res) == self._fingerprint
            )
        self.count += 1

    def check(self, world) -> None:
        """The workload's own checks on the first result."""
        if self.first is not None:
            self.wl.check(self.tally, world, self.first)


def timed_loop(op, seconds: float, tally, outputs: Outputs, wrap=None, reference=None) -> tuple:
    """Repeat op until `seconds` have passed; returns (walls, traced flags).

    wrap(k) returns a context manager for operation k, or None to run it
    plain; the trace mode uses it to alternate untraced and traced runs.
    A reference, if given, runs its kernel before each operation.
    """
    walls, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        if reference is not None:
            reference.before_op()
        ctx = None if wrap is None else wrap(k)
        with ctx if ctx is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                res = op()
            except Exception:  # a raising operation is a failure to count, not the end of the run
                traceback.print_exc()
                tally.record(False, f"timed operation {k} raised")
                res = None
            else:
                tally.record(True, f"timed operation {k}")
            wall = time.perf_counter() - t0
        if reference is not None:
            reference.after_op(wall)
        outputs.add(res)
        walls.append(wall)
        traced.append(ctx is not None)
        k += 1
        if time.perf_counter() >= deadline and (wrap is None or k >= 2):
            return walls, traced


# ---------------------------------------------------------------- modes


def run_plain(wl, args, tally) -> tuple:
    """Set up SETUP_REPEATS times, each followed by an equal share of the timed seconds.

    Spreading the timed operations over the whole run, between the
    set-ups, averages over the slow and fast spells of a shared machine
    better than one contiguous window does.
    """
    from reference import Reference

    setups, walls = [], []
    outputs = Outputs(wl, tally)
    reference = Reference(REF_SHARE)
    for _ in range(SETUP_REPEATS):
        world = None  # let the previous world go before building the next
        t0 = time.perf_counter()
        world = wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        walls += timed_loop(lambda: wl.run(world), args.seconds / SETUP_REPEATS, tally, outputs, reference=reference)[0]
    outputs.check(world)
    work = 0 if outputs.first is None else wl.work(world, outputs.first)
    wall = statistics.fmean(walls)
    ref = statistics.fmean(reference.times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": wall / ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall,
        "ref_s": ref,
        wl.work_name: work / wall,
    }
    if outputs.first is not None:
        metrics.update(wl.quality(world, outputs.first))
    record = {"setup_s_each": setups, "wall_s_each": walls, "ref_s_each": reference.times}
    return metrics, record


def run_traced(wl, args, tally) -> tuple:
    from tracing import Tracer, aggregate, ancestors
    from workloads import LAYERS, SETUP_LAYERS, TRACED_FUNCTIONS, TRACED_METHODS

    tracer = Tracer()
    with tracer.installed(TRACED_FUNCTIONS, TRACED_METHODS), tracer.root("trace.setup", "setup"):
        world = wl.setup(args.seed)

    @contextlib.contextmanager
    def traced_op(k):
        with tracer.installed(TRACED_FUNCTIONS, TRACED_METHODS), tracer.root("trace.op", f"op{k}"):
            yield

    outputs = Outputs(wl, tally)
    walls, traced = timed_loop(
        lambda: wl.run(world), args.seconds, tally, outputs, wrap=lambda k: traced_op(k) if k % 2 else None
    )
    outputs.check(world)

    setup_spans = [sp for sp in tracer.spans if sp.run == "setup"]
    op_spans = [sp for sp in tracer.spans if sp.run.startswith("op")]
    n_ops = sum(traced)
    timed = aggregate(op_spans)
    setup = aggregate(setup_spans)
    traced_walls = [sp.end - sp.start for sp in op_spans if sp.name == "trace.op"]

    metrics = {}
    layer_self = 0.0
    for name in LAYERS:
        st = timed.get(name)
        s = 0.0 if st is None else st.self_s / n_ops
        calls = 0.0 if st is None else st.calls / n_ops
        layer_self += s
        if name in SETUP_LAYERS and name in setup:
            s += setup[name].self_s
            calls += setup[name].calls
        metrics[f"{name}.s"] = s
        metrics[f"{name}.calls"] = calls

    def count(name, key, stats=timed):
        st = stats.get(name)
        return 0.0 if st is None else st.counts.get(key, 0.0)

    fm = timed.get("gnn.forward_many")
    metrics["gnn.forward_many.gflop"] = count("gnn.forward_many", "gflop") / n_ops
    metrics["gnn.forward_many.gflops_per_s"] = count("gnn.forward_many", "gflop") / fm.self_s if fm else 0.0
    masks = timed.get("smoothing.sample_structure_mask")
    metrics["smoothing.flips_per_mask"] = count("smoothing.sample_structure_mask", "flips") / masks.calls if masks else 0.0
    metrics["pipeline.cache_bytes"] = count("pipeline.PredictionCache.build", "cache_bytes") / n_ops + count(
        "pipeline.PredictionCache.build", "cache_bytes", setup
    )
    outer = count("pipeline.certify_and_predict", "outer")
    metrics["pipeline.inner_decided_frac"] = count("pipeline.certify_and_predict", "decided") / outer if outer else 0.0
    metrics["pipeline.outer_positive_frac"] = count("pipeline.certify_and_predict", "positive") / outer if outer else 0.0

    chains = ancestors(op_spans)
    scored = [sp for sp in op_spans if sp.name == "fairness.bias_value" and "attack.structure_attack_greedy" in chains[sp.id]]
    undefined = sum(1 for sp in scored if sp.error == "UndefinedMetricError")
    metrics["attack.candidates_scored"] = len(scored) / n_ops
    metrics["attack.candidates_undefined"] = undefined / n_ops
    metrics["attack.candidates_defined_frac"] = (len(scored) - undefined) / len(scored) if scored else 0.0

    untraced_walls = [w for w, t in zip(walls, traced) if not t]
    metrics["trace.ops"] = n_ops
    metrics["trace.setup_s"] = next(sp.end - sp.start for sp in setup_spans if sp.name == "trace.setup")
    metrics["trace.wall_s"] = statistics.fmean(traced_walls)
    metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - layer_self
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["blas1.gnn.forward_many.s"] = single_thread_forward_many(args, tally) if args.blas1_baseline else 0.0

    record = {
        "wall_s_each": walls,
        "traced_each": traced,
        "spans": [dataclasses.asdict(sp) for sp in tracer.spans],
    }
    return metrics, record


def single_thread_forward_many(args, tally) -> float:
    """gnn.forward_many.s of the same traced run in a child with one OpenBLAS thread.

    Only certify-german, where forward_many dominates, runs the child; a
    child that fails or times out counts as a failed operation.
    """
    if args.workload != "certify-german":
        return 0.0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "1", "--blas1-baseline", "0"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        value = float(json.loads(out.stdout.strip().splitlines()[-1])["metrics"]["gnn.forward_many.s"]["value"])
    except (subprocess.SubprocessError, IndexError, KeyError, ValueError) as exc:
        tally.record(False, f"single-thread baseline: {type(exc).__name__}: {exc}")
        return 0.0
    tally.record(out.returncode == 0, f"single-thread baseline exited {out.returncode}")
    return value


def run_all(args, spec) -> int:
    """Every workload in its own process; prints each one's table and a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- entry point

UNITS = {
    "wall_s": "s",
    "ref_s": "s",
    "draws_per_s": "1/s",
    "sets_per_s": "1/s",
    "candidates_per_s": "1/s",
    "error_rate": "fraction",
    "eps_A": "flips",
    "eps_X": "L2",
    "fcr": "fraction",
}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas1-baseline", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    if args.workload == "all":
        return run_all(args, spec)

    from workloads import WORKLOADS, Tally

    wl = WORKLOADS[args.workload]
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    tally = Tally()
    metrics, record = (run_traced if args.trace else run_plain)(wl, args, tally)
    metrics["error_rate"] = tally.failed / max(tally.attempted, 1)
    for what in tally.failures:
        print(f"FAILED: {what}", file=sys.stderr)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        unit = units.get(name, UNITS.get(name, ""))
        print(f"{args.workload:16s} {name:40s} {value!s:>24} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "result": result, "all_metrics": metrics, "failures": tally.failures, **record}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
