"""The ejmnet benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {tables,events,search,locality} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` one fresh worker process runs a few untimed warm-up
jobs, then the workload's jobs, timed, one after another through
``ejmnet.cli.main``; the end-to-end metrics come from that pass, plus
``setup_s``, the median time of three fresh interpreters to finish
``import ejmnet.cli``.  With ``--trace 1`` a second fresh worker repeats
the same jobs with spans around every layer call; the per-layer metrics
come from it, and ``trace.overhead_ratio`` compares its wall time with the
untraced pass.  Tracing is never on in the pass that gives the end-to-end
numbers.

Every job's output is checked after its pass.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; run metadata (versions,
cores, BLAS thread variables) is printed on the line before and written
with the spans to ``bench/runs/``.  BLAS threading is left at its default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
WORKLOADS = ("tables", "events", "search", "locality")

# Every invocation must finish within this many seconds.
DEADLINE_S = 175.0
SETUP_LAUNCHES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline passed")
    return left


def _worker(workload, seed, seconds, workdir, deadline, trace=False, smoke=False) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(seconds), str(workdir)]
    argv += ["--trace"] * trace + ["--smoke"] * smoke
    try:
        done = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"worker for {workload} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(deadline) -> float:
    """Median wall time of fresh interpreters importing ejmnet.cli."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", "import ejmnet.cli"], env=_env(), cwd=ROOT,
                           check=True, capture_output=True, timeout=_remaining(deadline))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"import ejmnet.cli failed: {exc}") from exc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(run: dict, setup_s: float) -> dict:
    durations_ms = [1000.0 * d for d in run["durations_s"]]
    ok = run["attempted"] - run["failed"]
    return {
        "setup_s": setup_s,
        "jobs_per_s": ok / run["wall_s"],
        "job_p50_ms": statistics.median(durations_ms),
        "job_p90_ms": statistics.quantiles(durations_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": ok / run["attempted"],
    }


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata() -> dict:
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k.startswith(("OPENBLAS", "MKL_", "BLIS", "OMP_"))}
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_thread_env": threads,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one benchmark invocation and return its result object."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not (SRC / "ejmnet" / "cli.py").is_file():
        raise BenchError(f"no ejmnet sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' * smoke}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **metadata()}

    plain = _worker(workload, seed, seconds, workdir, deadline, smoke=smoke)
    runs = [plain]
    if trace:
        traced = _worker(workload, seed, seconds, workdir, deadline, trace=True, smoke=smoke)
        runs.append(traced)
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = dict(LAYER_METRICS)
    else:
        values = end_to_end(plain, setup_seconds(deadline))
        units = END_TO_END_UNITS
    meta["versions"] = plain["versions"]
    meta["failures"] = [f for r in runs for f in r["failures"]]
    (workdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "meta": meta,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
