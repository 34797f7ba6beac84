"""gwgfem convergence-study benchmark.

    python3 perfbench/run.py --workload highorder_tri --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in fresh worker
processes: several set-up-only workers to sample set-up time, then one
worker that runs studies back to back for --seconds.  With --trace 0 it
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  It prints every metric with its unit, writes the full record
(environment, samples, spans) to .bench_results/, and prints one JSON
object as its last line.  It exits non-zero without a result when a worker
cannot set up (for instance when src/gwgfem is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times
from workloads import REFERENCE_ERRORS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"

SETUP_SAMPLES = 5  # workers started per run to sample set-up time
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

STEPS = (
    "mesh.build",
    "weakspace.cache",
    "assembly.assemble",
    "assembly.solve",
    "verify.error",
    "verify.norms",
)
COUNTS = (
    ("mesh.n_elements", "count"),
    ("mesh.n_edges", "count"),
    ("weakspace.n_classes", "count"),
    ("weakspace.n_dofs", "count"),
    ("assembly.n_free", "count"),
    ("assembly.nnz", "count"),
    ("assembly.matrix_bytes", "bytes_computed"),
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the worker
        raise BenchError("worker exceeded the time limit") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        **{v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def end_to_end(workload, case: str, setups: list, out: dict) -> dict:
    calib = out["calib_s"]
    times, norms = [], []
    for i, s in enumerate(out["untraced"]):
        if s["study_s"] is not None:
            times.append(s["study_s"])
            # interference only ever adds time, so the faster of the two
            # bracketing kernel runs is the better gauge of machine speed
            norms.append(s["study_s"] / min(calib[i], calib[i + 1]))
    finished = [s for s in out["untraced"] if "finest_errors" in s]
    if not times or not finished:
        raise BenchError("no study finished, so no metric can be computed")
    errors = finished[-1]["finest_errors"]
    reference = REFERENCE_ERRORS[(workload.name, case)]
    metrics = {
        "study_norm": (statistics.median(norms), "x_calib"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
    }
    for name, err, ref in zip(("energy_err", "l2_err", "edge_err"), errors, reference):
        metrics[f"{name}_vs_ref"] = (err / ref, "ratio")
    return metrics


def per_layer(out: dict) -> dict:
    studies = range(len(out["traced"]))
    selfs = self_times(out["spans"])
    metrics = {
        f"{step}_s": (statistics.median(selfs.get((i, step), 0.0) for i in studies), "s")
        for step in STEPS
    }
    counts = out["traced"][-1]["counts"]
    for name, unit in COUNTS:
        if name in counts:
            metrics[name] = (counts[name], unit)
    residuals = [r for t in out["traced"] for r in t["residuals"]]
    if residuals:
        metrics["assembly.rel_residual"] = (max(residuals), "ratio")
    # traced pipeline time: the study span without the benchmark's own checks
    traced_total = [
        sum(v for (s, name), v in selfs.items() if s == i and name != "bench.check")
        for i in studies
    ]
    untraced = [u["study_s"] for u in out["untraced"]]
    overheads = [t - u for t, u in zip(traced_total, untraced) if u is not None]
    if overheads:
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        metrics["trace.untraced_study_s"] = (
            statistics.median(u for u in untraced if u is not None),
            "s",
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    case = workload.case_for_seed(args.seed)
    worker_args = ["--workload", workload.name, "--case", case, "--seconds", str(args.seconds)]
    try:
        setups = [
            run_worker([*worker_args, "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        out = run_worker([*worker_args, "--trace", str(args.trace)], deadline)
        setups.append(out["setup_s"])
        metrics = per_layer(out) if args.trace else end_to_end(workload, case, setups, out)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2

    studies = out["untraced"] + out["traced"]
    failed = [s["problems"] for s in studies if s["problems"]]
    result = {
        "correct": not failed,
        "attempted": len(studies),
        "failed": len(failed),
        "metrics": {n: {"value": value, "unit": unit} for n, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "case": case,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(out["versions"]),
        "setup_s_samples": setups,
        "fail_frac": len(failed) / len(studies),
        "problems": failed,
        "worker": out,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    times = [s["study_s"] for s in out["untraced"] if s["study_s"] is not None]
    print(f"workload {workload.name}, case {case}, {len(out['untraced'])} untraced "
          f"and {len(out['traced'])} traced studies; record in {path.relative_to(ROOT)}")
    if times:
        print(f"  {'study wall time (median)':28s} {statistics.median(times):.6g} s")
    for problems in failed:
        print("FAILED: " + "; ".join(problems))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
