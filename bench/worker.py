"""One pass of one workload in a fresh process.

Usage (started by run.py, one process per pass):

    python3 bench/worker.py WORKLOAD SEED SECONDS WORKDIR [--trace] [--smoke]

Builds the seeded job list, runs a few untimed warm-up jobs, then the timed
pass: jobs one after another through ``ejmnet.cli.main(argv)`` with stdout
captured in memory, a closed loop with one client.  Each job's output is
spooled to a file in WORKDIR between jobs, so the heap holds one output at
a time; the spool writes fall outside the per-job timings.  After the pass
the peak RSS is read and every output is checked.  The pass summary is
printed as one JSON line.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import ejmnet.cli
from checks import CheckFailed, check
from tracing import Tracer, layer_metrics
from workloads import WARMUP, build

try:  # glibc only
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None


def _run_job(argv) -> tuple[float, int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ejmnet.cli.main(list(argv))
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), error


def run_pass(workload, seed, seconds, workdir, trace=False, smoke=False) -> dict:
    workdir = Path(workdir)
    jobs = build(workload, seed, seconds, workdir, smoke=smoke)
    for argv in WARMUP[workload]:
        _run_job(argv)

    durations, peaks, codes, errors, spool_index = [], [], [], [], []
    tracer = Tracer() if trace else None
    spool_path = workdir / f"spool-{'traced' if trace else 'plain'}.bin"
    with open(spool_path, "wb") as spool, tracer or contextlib.nullcontext():
        for job_id, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_id
            # Every job starts from the same heap state, whatever ran before
            # it: the last job's garbage is collected, freed pages go back to
            # the OS, and everything still alive is frozen out of later
            # collections.  None of this is timed.
            gc.collect()
            gc.freeze()
            if _malloc_trim is not None:
                _malloc_trim(0)
            duration, code, text, error = _run_job(job.argv)
            data = text.encode("utf-8")
            spool_index.append((spool.tell(), len(data)))
            spool.write(data)
            del text, data  # the next job must not run beside this output
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            durations.append(duration)
            codes.append(code)
            errors.append(error)
    peak_rss_mb = peaks[-1]

    failures = []
    with open(spool_path, "rb") as spool:
        for job, code, error, (offset, size) in zip(jobs, codes, errors, spool_index):
            if error is None and code != 0:
                error = f"exit code {code}"
            if error is None:
                spool.seek(offset)
                try:
                    check(job, spool.read(size).decode("utf-8"))
                except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"argv": list(job.argv), "error": error})
    spool_path.unlink()

    with open(workdir / f"jobs-{'traced' if trace else 'plain'}.jsonl", "w", encoding="utf-8") as fh:
        for job, duration, peak in zip(jobs, durations, peaks):
            fh.write(json.dumps({"argv": list(job.argv), "seconds": duration, "peak_rss_mb": peak}) + "\n")
    bytes_out = sum(size for _, size in spool_index)
    result = {
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:5],
        "wall_s": sum(durations),
        "durations_s": durations,
        "peak_rss_mb": peak_rss_mb,
        "bytes_out": bytes_out,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, len(jobs), bytes_out)
        tracer.write(workdir / "spans.jsonl")
    return result


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    flags = {a for a in args if a.startswith("--")}
    workload, seed, seconds, workdir = (a for a in args if not a.startswith("--"))
    result = run_pass(workload, int(seed), float(seconds), workdir,
                      trace="--trace" in flags, smoke="--smoke" in flags)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
