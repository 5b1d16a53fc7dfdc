"""Seeded job lists of the four benchmark workloads.

A job is one ``ejmnet`` command line plus the facts its output check needs.
Each workload repeats a fixed cycle of job shapes (command, size, format);
the seed only fills in what does not change a job's cost much -- order,
the rotation of bases over the small tables, event arguments, anneal
seeds, LP mixture weights -- so that runs with different seeds do the same amount of
work.  A run executes ``round(seconds / CYCLE_SECONDS)`` cycles (at least
one); the cycle costs were measured on a 2-core x86 machine.

Why these workloads:

* ``tables``: full ``line``/``polygon`` tables and ``stats``.  Naive
  contraction, coincidence statistics and table emission do nearly all the
  work here and almost none elsewhere.  Most jobs are small; the few at
  N = 7-8 dominate the wall time.
* ``events``: tiny transfer-matrix event queries at N = 2..64 and
  ``table2``.  Per-invocation overhead (argument parsing, basis lookup)
  dominates, so optimisations for large arrays should leave it unchanged.
* ``search``: local-model searches.  Anneal jobs are the majority by
  count and set ``job_p50_ms``; the one L1 enumeration sets ``jobs_per_s``.
* ``locality``: ``bell-check`` on behaviours whose verdict is known by
  construction, and one ``verify-all``.  At least two thirds are LOCAL, so
  ``job_p50_ms`` follows the feasibility LP and the separation LP of the
  noisy PR box dominates ``jobs_per_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ejmnet.bases import BASIS_NAMES, basis_by_name
from ejmnet.belllp import line_conditional_target, pr_box_target, uniform_target

WORKLOADS = ("tables", "events", "search", "locality")

CYCLE_SECONDS = {"tables": 6.6, "events": 0.15, "search": 24.0, "locality": 27.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``kind`` selects its output check, ``facts`` feed it."""

    argv: tuple[str, ...]
    kind: str
    facts: dict = field(default_factory=dict)


def _table_job(kind, topology, n, basis, fmt=None) -> Job:
    if kind == "stats":
        argv = ["stats", "--topology", topology, "--n", str(n), "--basis", basis]
    else:
        argv = [topology, "--n", str(n), "--basis", basis, "--format", fmt]
    return Job(tuple(argv), kind, {"topology": topology, "n": n, "basis": basis, "format": fmt})


# (kind, topology, n, format) of the large jobs in one tables cycle.
_HEAVY_TABLES = (
    ("table", "line", 8, "json"),
    ("table", "polygon", 8, "csv"),
    ("stats", "line", 8, None),
    ("table", "polygon", 7, "json"),
    ("table", "line", 7, "csv"),
    ("stats", "polygon", 7, None),
    ("table", "line", 6, "json"),
    ("table", "polygon", 6, "json"),
    ("table", "line", 6, "json"),
    ("stats", "line", 6, None),
)
# (kind, format, count) of the small jobs of one tables cycle, by N.  The
# counts place job_p50_ms in the middle of the N = 4 JSON tables and
# job_p90_ms among the N = 5 JSON tables, large groups of alike jobs, rather
# than on an edge between groups of different cost.
_LIGHT_TABLES = {
    3: (("table", "json", 20), ("table", "csv", 10), ("stats", None, 10)),
    4: (("table", "json", 80), ("table", "csv", 10), ("stats", None, 10)),
    5: (("table", "json", 30), ("table", "csv", 10), ("stats", None, 10)),
}


def _tables(rng, cycles, smoke):
    jobs = []
    for cycle in range(cycles):
        if not smoke:
            # Rotating bases over cycles keeps every run's heavy set fixed.
            for slot, (kind, topology, n, fmt) in enumerate(_HEAVY_TABLES):
                basis = BASIS_NAMES[(slot + cycle) % len(BASIS_NAMES)]
                jobs.append(_table_job(kind, topology, n, basis, fmt))
        for n, groups in _LIGHT_TABLES.items():
            if smoke and n == 5:
                continue
            for kind, fmt, count in groups:
                offset = int(rng.integers(len(BASIS_NAMES)))
                for i in range(1 if smoke else count):
                    topology = ("line", "polygon")[i % 2]
                    basis = BASIS_NAMES[(i // 2 + offset) % len(BASIS_NAMES)]
                    jobs.append(_table_job(kind, topology, n, basis, fmt))
    return jobs


def _event_job(rng, kind):
    topology = str(rng.choice(["line", "polygon"]))
    n = int(rng.integers(2, 65))
    basis = str(rng.choice(BASIS_NAMES))
    if kind == "all-equal":
        event = "all-equal"
    elif kind == "prefix":
        event = f"prefix:{int(rng.integers(1, n + 1))}"
    else:
        event = "tuple=" + ",".join(str(int(a)) for a in rng.integers(1, 5, size=n))
    argv = (topology, "--n", str(n), "--basis", basis, "--event", event)
    return Job(argv, "event", {"topology": topology, "n": n, "basis": basis, "event": event})


# Event kinds of one events cycle; a table2 job follows.
_EVENT_KINDS = ("all-equal",) * 20 + ("prefix",) * 14 + ("tuple",) * 14


def _events(rng, cycles, smoke):
    jobs = []
    for _ in range(cycles):
        kinds = _EVENT_KINDS[::8] if smoke else _EVENT_KINDS
        jobs.extend(_event_job(rng, kind) for kind in kinds)
        max_n = int(rng.integers(2, 65))
        fmt = str(rng.choice(["csv", "json"]))
        jobs.append(
            Job(("table2", "--max-n", str(max_n), "--format", fmt), "table2",
                {"max_n": max_n, "format": fmt})
        )
    return jobs


# (objective, target, cardinality, ring size, repeats) of the anneal jobs of
# a search cycle, each repeat with its own seed.  The repeats place
# job_p50_ms inside the 20 jobs of the four-party ring and job_p90_ms inside
# the 20 of the costliest shape, away from the edges between shapes.
_ANNEAL_SHAPES = (
    ("all-equal", "none", 2, 3, 10),
    ("l1", "ejm-triangle", 2, 3, 10),
    ("l1", "ejm-triangle", 4, 3, 10),
    ("linf", "ejm-triangle-coarse", 3, 3, 10),
    ("all-equal", "none", 3, 4, 20),
    ("all-equal", "none", 2, 5, 10),
    ("all-equal", "none", 3, 5, 10),
    ("all-equal", "none", 4, 5, 20),
)
ANNEAL_STEPS = 300


def _anneal_job(rng, objective, target, c, n, steps):
    seed = int(rng.integers(0, 2**31))
    argv = (
        "search", "--method", "anneal", "--cardinality", str(c), "--n", str(n),
        "--objective", objective, "--target", target,
        "--seed", str(seed), "--steps", str(steps),
    )
    facts = {"objective": objective, "target": target, "seed": seed, "steps": steps}
    return Job(argv, "anneal", facts)


def _exhaustive_job(objective, target, optimize):
    argv = ["search", "--method", "exhaustive", "--objective", objective, "--target", target]
    if optimize:
        argv.append("--optimize-weights")
    return Job(tuple(argv), "exhaustive",
               {"objective": objective, "target": target, "optimize": optimize})


def _search(rng, cycles, smoke):
    jobs = []
    for _ in range(cycles):
        for objective, target, c, n, repeats in _ANNEAL_SHAPES[::3] if smoke else _ANNEAL_SHAPES:
            for _ in range(1 if smoke else repeats):
                jobs.append(_anneal_job(rng, objective, target, c, n, 30 if smoke else ANNEAL_STEPS))
        jobs.append(_exhaustive_job("all-equal", "none", False))
        jobs.append(_exhaustive_job("all-equal", "none", True))
        if not smoke:
            jobs.append(_exhaustive_job("l1", "ejm-triangle", False))
        lo = float(rng.choice([0.0, 0.25, 0.5]))
        jobs.append(Job(("qmodel", "--scan", f"{lo}:{lo + 0.5}:0.025", "--audit"), "qmodel",
                        {"q": [lo + i * 0.025 for i in range(21)]}))
        jobs.append(Job(("asym",), "asym"))
    return jobs


def _vertex_mixture(rng, k):
    """Convex mixture of k deterministic strategy pairs: local by construction."""
    p = np.zeros((4, 4, 4, 4))
    for weight in rng.dirichlet(np.ones(k)):
        left, right = rng.integers(0, 4, size=4), rng.integers(0, 4, size=4)
        for x in range(4):
            for y in range(4):
                p[x, y, left[x], right[y]] += weight
    return p


def _bell_file_job(workdir, label, target, verdict):
    path = Path(workdir) / f"{label}.json"
    path.write_text(json.dumps(target.tolist()), encoding="utf-8")
    return Job(("bell-check", "--target-file", str(path)), "bell",
               {"verdict": verdict, "target_file": str(path)})


def _locality(rng, cycles, smoke, workdir):
    jobs = []
    for cycle in range(cycles):
        if smoke:
            jobs.append(_bell_file_job(workdir, f"mix-{cycle}", _vertex_mixture(rng, 3), "LOCAL"))
            jobs.append(_bell_file_job(workdir, f"pr-{cycle}", pr_box_target(), "NONLOCAL"))
            jobs.append(Job(("verify-all", "--no-lp"), "verify-all"))
            continue
        jobs.append(Job(("bell-check", "--target", "ejm-line"), "bell",
                        {"verdict": "LOCAL", "target": "ejm-line"}))
        for basis in ("ejmz", "mp", "bsm"):
            target = line_conditional_target(basis_by_name(basis))
            jobs.append(_bell_file_job(workdir, f"chain-{basis}-{cycle}", target, "LOCAL"))
        for i in range(2):
            target = _vertex_mixture(rng, 6)
            jobs.append(_bell_file_job(workdir, f"mix-{cycle}-{i}", target, "LOCAL"))
        # Visibility above 1/2 gives CHSH = 4v > 2; v <= 1/2 has no known verdict.
        v = float(rng.uniform(0.6, 0.95))
        target = v * pr_box_target() + (1.0 - v) * uniform_target()
        jobs.append(_bell_file_job(workdir, f"noisy-pr-{cycle}", target, "NONLOCAL"))
        jobs.append(Job(("verify-all",), "verify-all"))
    return jobs


def build(workload: str, seed: int, seconds: float, workdir, smoke: bool = False) -> list[Job]:
    """The job list of one run, shuffled by the seed; LP targets go to ``workdir``."""
    rng = np.random.default_rng(seed)
    cycles = 1 if smoke else max(1, round(seconds / CYCLE_SECONDS[workload]))
    if workload == "tables":
        jobs = _tables(rng, cycles, smoke)
    elif workload == "events":
        jobs = _events(rng, cycles, smoke)
    elif workload == "search":
        jobs = _search(rng, cycles, smoke)
    elif workload == "locality":
        jobs = _locality(rng, cycles, smoke, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [jobs[i] for i in rng.permutation(len(jobs))]


# Untimed jobs that run first, so lazy imports and caches are warm.
WARMUP = {
    "tables": [("line", "--n", "3"), ("polygon", "--n", "3", "--format", "csv"), ("stats",)],
    "events": [("polygon", "--n", "9", "--event", "all-equal"), ("table2", "--max-n", "5")],
    "search": [
        ("search", "--method", "anneal", "--steps", "20"),
        ("search", "--method", "exhaustive"),
        ("qmodel",),
        ("asym",),
    ],
    "locality": [("verify-all", "--no-lp")],
}
