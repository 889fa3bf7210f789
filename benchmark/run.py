#!/usr/bin/env python3
"""kgbreather benchmark: end-to-end cost of the paper's headline runs.

    python3 benchmark/run.py --workload sweep-1d --seed 0 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all          # every workload, one process each
    python3 benchmark/run.py --self-check            # harness test at tiny sizes

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2 and
prints no result.

One run: set up three times (each rep times a fresh interpreter importing
kgbreather, then builds the workload's inputs), warm up once at the tiny
size, then repeat the workload's op for ``--seconds`` (at least twice) and
report medians.  ``--trace 1`` spends the first half of the window
untraced and the second half with every layer's entry point wrapped (see
tracing.py); it reports the per-layer metrics, the untraced run the
end-to-end ones.
The last line of standard output is the result object; the line before it
holds parameters, environment and per-op details, which also go to
``benchmark/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# per-layer self times: span name -> metric name
SELF_TIMES = {
    "groundstate": "groundstate.s",
    "dnls": "dnls.s",
    "kernel": "kernel.s",
    "range": "range.s",
    "range.opsolve": "range.opsolve_s",
    "nl": "nl.s",
    "window": "window.s",
    "final_range": "final_range.s",
    "final_remainder": "final_remainder.s",
    "residual": "residual.s",
    "errors": "errors.s",
    "symmetry": "symmetry.s",
    "io.load": "io.load_s",
    "leapfrog": "leapfrog.s",
    "assemble": "assemble.s",
    "op": "unattributed.s",
}
COUNTS = (
    "groundstate.calls",
    "dnls.iters",
    "kernel.iters",
    "kernel.remainder_calls",
    "range.calls",
    "range.picard_iters",
    "range.opsolve_mvalues",
    "nl.calls",
    "nl.mvalues",
    "nl.mb_computed",
    "window.L",
    "residual.mvalues",
    "io.mb",
    "leapfrog.steps",
)
PER_LAYER = (
    *SELF_TIMES.values(), *COUNTS, "kernel.useful_ratio",
    "leapfrog.site_steps_per_s", "io.save_s", "cpu_s", "traced.wall_s",
    "untraced.wall_s", "trace_overhead_s",
)
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import kgbreather"


def load_program():
    """Import kgbreather from this checkout's src/, or exit 2."""
    if not (SRC / "kgbreather" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kgbreather

    if not Path(kgbreather.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"benchmark: kgbreather resolved to {kgbreather.__file__}\n")
        sys.exit(2)
    return kgbreather


def meminfo_mb(key):
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": round(meminfo_mb("MemTotal")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def metric_units():
    """{metric: unit} for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def calibration_s():
    """Time of a fixed DST loop: the machine's speed just before an op."""
    from scipy.fft import dst

    x = np.linspace(0.0, 1.0, 601)
    start = time.perf_counter()
    for _ in range(2000):
        dst(x, type=1)
    return time.perf_counter() - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, workloads, tracer=None):
    """One set-up rep: fresh-interpreter import, then the workload's inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    workloads.cold_start()
    if tracer is not None:
        tracer.start_op("setup")
    try:
        workload.setup(str(RUNS))
    finally:
        if tracer is not None:
            tracer.finish_op()
    return time.perf_counter() - start


class OpLoop:
    """Runs at least two ops, then more while the next one is predicted to
    end no later than half an op past the deadline; stops after the first
    op that raises."""

    def __init__(self, workload, workloads, kgb_error):
        self.workload = workload
        self.workloads = workloads
        self.kgb_error = kgb_error
        self.records = []
        self.last = None
        self.raised = False

    def run(self, seconds, tracer=None):
        walls = []
        start = time.perf_counter()
        while not walls or (not self.raised and (
            len(walls) < 2
            or time.perf_counter() - start + 0.5 * statistics.median(walls) <= seconds
        )):
            walls.append(self.one(tracer))
        return walls

    def one(self, tracer):
        self.workloads.cold_start()
        calib = calibration_s()
        op_index = tracer.start_op("op") if tracer is not None else None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.workload.op()
            error = None
        except self.kgb_error as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
            self.raised = True
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.finish_op()
        failures = [error] if error else self.workload.check(result)
        if result is not None:
            self.last = result
        self.records.append({
            "wall_s": wall, "cpu_s": cpu, "calib_s": calib,
            "traced": tracer is not None,
            "trace_op": op_index, "failures": failures,
        })
        return wall


def layer_metrics(tracer, loop, setup_op, units):
    """Per-layer metrics: medians over the traced ops."""
    traced = [r for r in loop.records if r["traced"]]
    untraced = [r for r in loop.records if not r["traced"]]
    per_op = []
    for r in traced:
        op = r["trace_op"]
        selfs = tracer.self_times(op)
        counts = tracer.counts[op]
        m = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIMES.items()}
        for c in COUNTS:
            # sizes are counted in values and bytes, reported in millions
            m[c] = counts.get(c, 0) * (1 if units[c] == "count" else 1e-6)
        calls = counts.get("kernel.remainder_calls", 0)
        m["kernel.useful_ratio"] = (
            (counts.get("kernel.iters", 0) + 1) / calls if calls else 0.0
        )
        lf = selfs.get("leapfrog", 0.0)
        m["leapfrog.site_steps_per_s"] = (
            counts.get("leapfrog.site_steps", 0) / lf if lf > 0.0 else 0.0
        )
        m["traced.wall_s"] = tracer.op_wall(op)
        per_op.append(m)
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["io.save_s"] = tracer.self_times(setup_op).get("io.save", 0.0)
    metrics["cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    metrics["untraced.wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace_overhead_s"] = metrics["traced.wall_s"] - metrics["untraced.wall_s"]
    return metrics


def run_workload(args):
    import kgbreather
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}")
    RUNS.mkdir(exist_ok=True)
    units = metric_units()
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, tiny=args.tiny)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, "env": environment(),
    }
    need = getattr(workload, "need_mb", 0)
    available = meminfo_mb("MemAvailable")
    info["mem_available_mb"] = round(available)
    short_of_memory = available < need
    try:
        setups = [timed_setup(workload, workloads) for _ in range(1 if args.tiny else 3)]
        loop = OpLoop(workload, workloads, kgbreather.KGBreatherError)
        if short_of_memory:
            loop.records.append({
                "wall_s": 0.0, "cpu_s": 0.0, "calib_s": 0.0, "traced": False,
                "trace_op": None,
                "failures": [f"MemAvailable {available:.0f} MB < {need} MB wanted"],
            })
        else:
            warm = cls(args.seed, tiny=True)
            warm.setup(str(RUNS))
            warm.op()
            getattr(warm, "teardown", lambda: None)()
            if not args.trace:
                loop.run(args.seconds)
            else:
                loop.run(args.seconds / 2.0)
                tracer = tracing.Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}")
                tracing.install(tracer)
                timed_setup(workload, workloads, tracer)
                setup_op = len(tracer.counts) - 1
                loop.run(args.seconds / 2.0, tracer)
                tracer.uninstall()
    finally:
        getattr(workload, "teardown", lambda: None)()

    failed = sum(1 for r in loop.records if r["failures"])
    untraced = [r["wall_s"] for r in loop.records if not r["traced"]]
    if short_of_memory:
        # nothing ran: zeros, with the failed op making the result incorrect
        values = {k: 0.0 for k in (PER_LAYER if args.trace else END_TO_END)}
    elif args.trace:
        values = layer_metrics(tracer, loop, setup_op, units)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    info.update({
        "params": workload.describe(loop.last) if loop.last is not None else {},
        "setup_reps_s": setups,
        "ops": loop.records,
        "failed_ops": failed,
        "peak_rss_mb": peak_rss_mb(),
    })
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if args.trace and not short_of_memory:
        tracer.dump(str(RUNS / f"{stamp}.spans.json"))
        info["spans_file"] = str((RUNS / f"{stamp}.spans.json").relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": len(loop.records),
        "failed": failed,
        "metrics": metrics,
    }
    with open(RUNS / f"{stamp}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def child(workload, seed, seconds, trace, extra=()):
    """Run one workload in a fresh process; return its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_all(args):
    names = list(json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<12} {'setup_s':>9} {'wall_s':>9} {'peak_rss_mb':>12} failed_ops")
    for w in names:
        info, res = child(w["name"], args.seed, args.seconds, 0)
        m = res["metrics"]
        print(f"{w['name']:<12} {m['setup_s']['value']:>8.3f}s {m['wall_s']['value']:>8.3f}s "
              f"{m['peak_rss_mb']['value']:>9.1f} MB {res['failed']}/{res['attempted']} ops",
              flush=True)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in m.items():
            combined["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def accounting_errors(spans_file):
    """Per traced op, the self times of its spans must sum to its wall time."""
    import tracing

    dump = json.loads(spans_file.read_text())
    tracer = tracing.Tracer(dump["run"])
    tracer.spans, tracer.counts = dump["spans"], dump["counts"]
    errors = []
    for name, start, end, parent, op in tracer.spans:
        if parent == -1 and name == "op":
            spent = sum(tracer.self_times(op).values())
            if abs(spent - (end - start)) > 1e-9:
                errors.append(f"op {op}: self times sum to {spent}, op took {end - start}")
    return errors


def self_check(args):
    """Tiny sizes, both modes: output shape, metric names, self-time
    accounting, and counts that repeat exactly between two traced runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        problems, counts_seen = [], []
        for trace in (0, 1, 1):
            info, res = child(name, args.seed, 1, trace, ["--tiny"])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(res)}")
            if not res["correct"]:
                problems.append(f"checks failed: {info['ops']}")
            if set(res["metrics"]) != want[trace]:
                problems.append(f"trace={trace} metrics differ by "
                                f"{sorted(set(res['metrics']) ^ want[trace])}")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                counts_seen.append({k: m[k] for k in COUNTS})
                problems += accounting_errors(ROOT / info["spans_file"])
        if counts_seen[0] != counts_seen[1]:
            problems.append(f"counts differ between traced runs: {counts_seen}")
        print(f"self-check {name}: {'ok' if not problems else 'FAILED'}", flush=True)
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="harness-test sizes")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    load_program()
    sys.path.insert(0, str(HERE))
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
