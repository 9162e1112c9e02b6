"""Benchmark of mapprior's tau-mixing core: one command, four workloads.

    python3 benchmark/run.py --workload design_table --seed 1 --seconds 20 --trace 0

Run from the repository root.  mapprior is imported from ``src/`` next to
this directory (never from an installed copy).  With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it records spans around
mapprior's public functions and reports per-layer metrics instead.  Either
way every output is checked against ``oracle.py``, and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Raw results (per-operation latencies, set-up samples, machine details and,
for traced runs, every span) go to ``.bench_out/`` in the repository root.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("design_table", "borrowing_report", "route_agreement", "grid_export")

#: fresh processes timed for setup_s (the run's own process adds one more)
SETUP_PROBES = 5

#: workloads whose numpy BLAS runs on one thread.  The others keep
#: OpenBLAS's default of one thread per core, as users get it; on
#: borrowing_report that default made the run-to-run spread three times
#: larger (README.md, "Threaded BLAS stalls").
SINGLE_THREAD_BLAS = ("borrowing_report",)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def setup(workload: str, seed: int, out_dir: str):
    """Import mapprior from src/ and build the run's first round of inputs.

    Returns (seconds for the whole set-up, seconds for ``import mapprior``).
    """
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import mapprior
    imported = perf_counter()
    if Path(mapprior.__file__).resolve().parent != SRC / "mapprior":
        raise SystemExit(f"mapprior was imported from {mapprior.__file__}, not {SRC}")
    import workloads
    workloads.make_round(workload, seed, 0, out_dir)
    return perf_counter() - started, imported - started


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes; one untimed process first compiles
    the bytecode caches, which users pay once per installation."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for index in range(SETUP_PROBES + 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        if index:
            samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def blas_details() -> dict:
    """BLAS library, version and thread count of the numpy in use."""
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        import scipy
        info["scipy"] = scipy.__version__
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, AttributeError):
        info["blas"] = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read()))
    # scipy may load an OpenBLAS of its own; numpy's does the matrix products
    for path in sorted(libraries, key=lambda p: "numpy" not in p):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    info["blas_threads"] = None
    return info


def run_rounds(workload: str, seed: int, seconds: float, out_dir: str, tracer=None):
    """Closed loop: whole rounds of operations, one after another, until the
    operations have taken ``seconds``.  With a tracer, each round also runs
    untraced, before the traced pass in even rounds and after it in odd
    ones, so the two can be compared for the tracing overhead."""
    import workloads
    attempted, done, failures, untraced = [], [], [], []
    busy = 0.0
    r = 0

    def untraced_pass(ops):
        for op in ops:
            started = perf_counter()
            try:
                op.call()
            except (Exception, SystemExit):   # counted as failed on the traced pass
                pass
            untraced.append(perf_counter() - started)

    while busy < seconds:
        ops = workloads.make_round(workload, seed, r, out_dir)
        if tracer is not None:
            if r % 2 == 0:
                untraced_pass(ops)
            tracer.install()
        try:
            for op in ops:
                if tracer is not None:
                    tracer.op = len(attempted)
                started = perf_counter()
                try:
                    output, error = op.call(), None
                except (Exception, SystemExit) as exc:
                    # a failed operation is counted, not fatal; the CLI's
                    # argument parser exits on a usage error
                    output, error = None, repr(exc)
                op.latency = perf_counter() - started
                if error is None and workload == "grid_export" and output != 0:
                    error = f"exit code {output}"
                if error is None:
                    op.output = (workloads.digest_routes(output)
                                 if workload == "route_agreement" else output)
                    done.append(op)
                else:
                    failures.append(f"round {r} {op.kind} {op.params}: {error}")
                busy += op.latency
                attempted.append(op)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and r % 2 == 1:
            untraced_pass(ops)
        r += 1
    return attempted, done, failures, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mapprior" / "__init__.py").is_file():
        print(f"benchmark: no mapprior sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload in SINGLE_THREAD_BLAS:
        # before numpy loads; the set-up probes inherit it
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            total, _ = setup(args.workload, args.seed, out_dir)
            print(json.dumps({"setup_s": total}))
            return 0
        return measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, out_dir: str) -> int:
    samples = [] if args.trace else setup_samples(args.workload, args.seed)
    own_setup, import_s = setup(args.workload, args.seed, out_dir)
    samples.append(own_setup)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    attempted, done, failures, untraced = run_rounds(
        args.workload, args.seed, args.seconds, out_dir, tracer)
    latencies = [op.latency for op in attempted]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    failures_checked = checks.check_workload(args.workload, done)
    failed = len(attempted) - len(done)

    if args.trace:
        metrics = tracing.layer_metrics(tracer, [op.round for op in attempted])
        metrics["package.import_ms"] = 1e3 * import_s
        metrics["trace.overhead_pct"] = 100.0 * (sum(latencies) / sum(untraced) - 1.0)
    else:
        metrics = {
            "throughput_ops_s": len(done) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median([op.latency for op in done] or latencies),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")

    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(attempted), "failed": failed,
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), **blas_details()},
        "setup_samples_s": samples, "latencies_s": latencies,
        "rounds": max((op.round for op in done), default=-1) + 1,
        "failures": failures, "check_failures": failures_checked,
        "metrics": metrics,
    }
    if tracer is not None:
        raw["untraced_latencies_s"] = untraced
        raw["spans"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(raw), encoding="utf-8")

    for line in failures + failures_checked:
        print(f"benchmark: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures_checked,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
