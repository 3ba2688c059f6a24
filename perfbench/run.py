"""Benchmark of the sspdo command line, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client drives `sspdo.cli.main` in this process as a closed loop: each
invocation starts after the previous one returns.  A job is one workload's
list of invocations (see workloads.py).  After one untimed warm-up job the
benchmark runs jobs for --seconds and checks every output outside the timed
region.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced jobs and prints the per-layer
metrics (spans.py) with the tracing overhead; the counts of every traced job
must be identical.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A run report with the metadata and the raw samples, and
the spans of the first traced job, are written under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS, Checker, job as workload_job, load_reference  # noqa: E402

SETUP_REPEATS = 5
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
TAIL_BEYOND = 10

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import sspdo.cli; "
    "print(repr(time.perf_counter()))"
)


def tail_percentile(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it.  Below
    2 * TAIL_BEYOND + 1 samples no percentile above the median qualifies, and
    the median rank is used."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `sspdo.cli` is
    imported, `repeats` times after one untimed start that fills the
    bytecode cache."""
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            times.append(float(done.stdout.split()[-1]) - start)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def metadata(args) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
    }


@dataclass
class Job:
    """Timings and check results of one job."""

    wall: float = 0.0
    cpu: float = 0.0
    op_walls: list[float] = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0
    failures: list[str] = field(default_factory=list)
    conclusive: int = 0
    verdicts: int = 0
    stdout_bytes: int = 0


def run_job(cli, invocations) -> tuple[Job, list]:
    """Run one job's invocations back to back; return its timings and the
    (argv, exit code, stdout) of each invocation."""
    job = Job()
    outputs = []
    job_wall, job_cpu = time.perf_counter(), time.process_time()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation that raised counts as failed
            rc = f"raised {exc!r}"
        job.op_walls.append(time.perf_counter() - start)
        outputs.append((argv, rc, out.getvalue()))
    job.wall = time.perf_counter() - job_wall
    job.cpu = time.process_time() - job_cpu
    job.ops = len(outputs)
    job.stdout_bytes = sum(len(stdout.encode()) for _, _, stdout in outputs)
    return job, outputs


def fresh_dir(path: str) -> None:
    """Empty the output directory before a job, so that the checks read only
    what that job wrote."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def check_job(job: Job, outputs: list, checker: Checker) -> None:
    """Check a job's outputs, outside its timing and with tracing removed."""
    file_failures = checker.check_files()
    for argv, rc, stdout in outputs:
        verdicts = checker.check_op(argv, rc, stdout)
        if file_failures:
            verdicts.failures.extend(file_failures)
            file_failures = []
        job.failed_ops += bool(verdicts.failures)
        job.failures.extend(verdicts.failures)
        job.conclusive += verdicts.conclusive
        job.verdicts += verdicts.total


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(jobs: list[Job], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """Gated metrics, plus the per-call latencies in the samples.

    job_s and job_cpu_s are means over the run's jobs (run time over jobs
    done).  On a shared machine a job's time can flip between a fast and a
    slow mode, and the mean moves less with the mix of modes than the median
    does."""
    op_walls = [w for job in jobs for w in job.op_walls]
    tail, percentile, beyond = tail_percentile(op_walls)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "job_s": _metric(statistics.fmean(job.wall for job in jobs), "s"),
        "job_cpu_s": _metric(statistics.fmean(job.cpu for job in jobs), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    samples = {
        "jobs": len(jobs),
        "ops": len(op_walls),
        "op_p50_ms": 1e3 * statistics.median(op_walls),
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
        "setup_s": setup,
        "job_s": [job.wall for job in jobs],
        "job_cpu_s": [job.cpu for job in jobs],
        "op_s": op_walls,
    }
    return metrics, samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list[dict], untraced: list[Job], absent: list[str], conclusive: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced jobs: calls and counts per job, the
    median self seconds per job, and derived ratios."""
    counts = traced[0]["counts"]
    self_s = {
        layer: statistics.median(t["self_s"].get(layer, 0.0) for t in traced)
        for layer, _, _ in spans.LAYERS
    }
    metrics = {}
    for layer, _, _ in spans.LAYERS:
        metrics[f"{layer}.calls"] = _metric(counts.get(f"{layer}.calls", 0), "count")
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")

    def calls(layer):
        return counts.get(f"{layer}.calls", 0)

    derived = {
        "certify.probes_per_bisection": (
            _ratio(
                calls("certify.probe_method") + calls("certify.probe_dense"),
                calls("certify.bisect_method") + calls("certify.bisect_dense"),
            ),
            "ratio",
        ),
        "certify.bernstein.root_ratio": (
            _ratio(counts.get("certify.bernstein.root", 0), calls("certify.bernstein")), "ratio"
        ),
        "certify.bernstein.max_depth": (counts.get("certify.bernstein.max_depth", 0), "count"),
        "certify.bernstein.inconclusive": (counts.get("certify.bernstein.inconclusive", 0), "count"),
        "construct.lp_rows": (counts.get("construct.lp_rows", 0), "count"),
        "construct.rounds": (counts.get("construct.rounds", 0), "count"),
        "construct.certified_ratio": (
            _ratio(counts.get("construct.certified", 0), calls("construct.candidate_check")), "ratio"
        ),
        "simplex.iterations": (counts.get("simplex.iterations", 0), "count"),
        "simplex.ms_per_iteration": (
            _ratio(1e3 * self_s["simplex.phase1"], counts.get("simplex.iterations", 0)), "ms"
        ),
        "integrate.dense_values": (counts.get("integrate.dense_values", 0), "count"),
        "experiments.csv_bytes": (counts.get("experiments.csv_bytes", 0), "bytes"),
        "experiments.csv_mb_per_s": (
            _ratio(counts.get("experiments.csv_bytes", 0) / 1e6, self_s["experiments.figure1"]), "MB/s"
        ),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0), "bytes"),
        "verdict.conclusive_ratio": (conclusive, "ratio"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(t["wall"] for t in traced)
                     / statistics.median(job.wall for job in untraced) - 1.0),
            "%",
        ),
        "trace.absent_layers": (len(absent), "count"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = _metric(value, unit)
    samples = {
        "traced_jobs": len(traced),
        "untraced_jobs": len(untraced),
        "traced_job_s": [t["wall"] for t in traced],
        "untraced_job_s": [job.wall for job in untraced],
        "self_share_pct": {
            layer: 100.0 * seconds / statistics.median(t["wall"] for t in traced)
            for layer, seconds in self_s.items()
        },
        "absent_layers": absent,
    }
    return metrics, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sspdo CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sspdo", "cli.py")):
        print(f"perfbench: no sspdo package under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)

    sys.path.insert(0, SRC)
    import sspdo
    import sspdo.cli as cli

    out_dir = os.path.join(WORK, "figure1-out")
    rng = random.Random(args.seed)
    checker = Checker(args.workload, load_reference(), sspdo, out_dir)
    meta = metadata(args)

    fresh_dir(out_dir)
    warm, outputs = run_job(cli, workload_job(args.workload, rng, out_dir))
    check_job(warm, outputs, checker)
    done = [warm]
    jobs: list[Job] = []
    traced: list[dict] = []
    first_spans = []
    tracer = spans.Tracer()
    patcher = spans.Patcher(sspdo, tracer) if args.trace else None
    start = time.perf_counter()
    while True:
        enough = len(jobs) >= MIN_JOBS if not args.trace else (
            len(traced) >= MIN_TRACED_JOBS and len(jobs) >= 1
        )
        if enough and time.perf_counter() - start >= args.seconds:
            break
        invocations = workload_job(args.workload, rng, out_dir)
        fresh_dir(out_dir)
        if args.trace and len(jobs) > len(traced):
            tracer.reset(len(done))
            patcher.install()
            try:
                job, outputs = run_job(cli, invocations)
            finally:
                patcher.remove()
            counts = dict(tracer.counts)
            counts["cli.stdout_bytes"] = job.stdout_bytes
            traced.append({"wall": job.wall, "counts": counts, "self_s": spans.layer_self_seconds(tracer.spans)})
            if not first_spans:
                first_spans = tracer.spans
        else:
            job, outputs = run_job(cli, invocations)
            jobs.append(job)
        check_job(job, outputs, checker)
        done.append(job)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(job.ops for job in done)
    failed = sum(job.failed_ops for job in done)
    failures = [f for job in done for f in job.failures]
    conclusive = _ratio(sum(job.conclusive for job in done), sum(job.verdicts for job in done))
    if args.trace:
        if any(t["counts"] != traced[0]["counts"] for t in traced):
            failures.append("per-layer counts differ between traced jobs")
        metrics, samples = per_layer(traced, jobs, patcher.absent, conclusive)
    else:
        metrics, samples = end_to_end(jobs, setup, peak_rss_mb)

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {"meta": meta, "samples": samples, "metrics": metrics, "failures": failures[:50]}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if first_spans:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in first_spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.job]) + "\n")

    print("meta " + json.dumps(meta))
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"metric {name} {value:.6g} {metric['unit']}" if isinstance(value, float)
              else f"metric {name} {value} {metric['unit']}")
    for layer, share in samples.get("self_share_pct", {}).items():
        if share:
            print(f"layer {layer} self_share {share:.3g} % of the median traced job")
    if not args.trace:
        print(f"metric op_p50_ms {samples['op_p50_ms']:.6g} ms")
        print(f"metric op_tail_ms {samples['op_tail_ms']:.6g} ms")
    print(f"metric failed_ratio {_ratio(failed, attempted):.6g} ratio")
    print(f"metric conclusive_ratio {conclusive:.6g} ratio")
    print(f"samples jobs={len(done)} ops={attempted}" + (
        f" op_tail=p{samples['op_tail_percentile']:.2f} beyond={samples['op_tail_beyond']}"
        if not args.trace else f" traced={len(traced)} absent={','.join(patcher.absent) or '-'}"
    ))
    for failure in failures[:10]:
        print("failure " + failure)
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
