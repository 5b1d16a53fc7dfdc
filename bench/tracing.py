"""Spans around the public functions of the ejmnet layers.

A traced pass wraps every public function a caller looks up by name in the
module globals of ``ejmnet.cli``, ``ejmnet.localmodels``, ``ejmnet.belllp``
and ``ejmnet.verify``.  Patching ``ejmnet.network`` alone would not be seen,
because ``cli`` binds ``from .network import ...`` at import time; patching
the ``belllp`` and ``verify`` module globals also covers the
``belllp.bell_lp_check``-style attribute lookups of their callers.

Each span records its name, start, end, parent span and job id; counts
(table entries, anneal steps, LP verdicts, ...) are taken from the wrapped
call's arguments and result at the same boundary.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

CONSUMER_MODULES = ("ejmnet.cli", "ejmnet.localmodels", "ejmnet.belllp", "ejmnet.verify")

# The layers are the package modules; linalg is only called through bases.
LAYER_OF_MODULE = {
    "ejmnet.cli": "cli",
    "ejmnet.network": "network",
    "ejmnet.bases": "bases",
    "ejmnet.linalg": "bases",
    "ejmnet.localmodels": "localmodels",
    "ejmnet.belllp": "belllp",
    "ejmnet.verify": "verify",
}

# Functions whose time is reported apart from the rest of their layer.
SPAN_OF_FUNCTION = {
    "joint_distribution_naive": "network.naive",
    "coincidence_stats": "network.stats",
    "distribution_to_json_dict": "network.emit",
    "event_probability": "network.event",
    "table2_rows": "network.table2",
    "anneal_search": "localmodels.anneal",
    "exhaustive_search": "localmodels.exhaustive",
    "evaluate_model": "localmodels.evaluate",
    "line_conditional_target": "belllp.target",
    "pr_box_target": "belllp.target",
    "uniform_target": "belllp.target",
    "bell_lp_check": "belllp.lp",
    "verify_certificate": "belllp.verify",
}

LP_SPAN_OF_VERDICT = {
    "LOCAL": "belllp.lp_local",
    "NONLOCAL": "belllp.lp_nonlocal",
    "INCONCLUSIVE": "belllp.lp_inconclusive",
}

# Per-layer metrics of a traced pass, in report order, with their units.
LAYER_METRICS = (
    ("cli.self_ms_per_job", "ms"),
    ("cli.bytes_out", "bytes"),
    ("network.naive.self_s", "s"),
    ("network.naive.entries", "count"),
    ("network.stats.self_s", "s"),
    ("network.emit.self_s", "s"),
    ("network.emit.entries", "count"),
    ("network.emit.dyadic_ratio", "ratio"),
    ("network.event.calls", "count"),
    ("network.event.self_s", "s"),
    ("network.table2.self_s", "s"),
    ("bases.self_s", "s"),
    ("localmodels.anneal.steps", "count"),
    ("localmodels.anneal.us_per_step", "us"),
    ("localmodels.anneal.improvements", "count"),
    ("localmodels.exhaustive.self_s", "s"),
    ("localmodels.exhaustive.candidates", "count"),
    ("localmodels.evaluate.calls", "count"),
    ("localmodels.evaluate.self_s", "s"),
    ("belllp.target.self_s", "s"),
    ("belllp.lp_local.self_s", "s"),
    ("belllp.lp_nonlocal.self_s", "s"),
    ("belllp.verify.self_s", "s"),
    ("belllp.local_support", "count"),
    ("belllp.inconclusive_ratio", "ratio"),
    ("verify.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    counts: dict = field(default_factory=dict)


def _record_counts(span: Span, result) -> None:
    if span.name == "network.naive":
        span.counts["entries"] = int(result.probs.size)
    elif span.name == "network.emit":
        entries = result["probabilities"]
        span.counts["entries"] = len(entries)
        span.counts["dyadic"] = sum(1 for e in entries if e["dyadic"] is not None)
    elif span.name == "localmodels.anneal":
        span.counts["steps"] = int(result.schedule.steps)
        span.counts["improvements"] = len(result.trace)
    elif span.name == "localmodels.exhaustive":
        span.counts["candidates"] = int(result.candidates)
    elif span.name == "belllp.lp":
        span.name = LP_SPAN_OF_VERDICT[result.verdict]
        if result.weights is not None:
            span.counts["support"] = int((result.weights > 1e-12).sum())


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _record_counts(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name in CONSUMER_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = LAYER_OF_MODULE.get(value.__module__)
                if layer is None:
                    continue
                span_name = SPAN_OF_FUNCTION.get(value.__name__, layer)
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, span_name))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans: list[Span], jobs: int, bytes_out: int) -> dict[str, float]:
    """Aggregate a traced pass into the per-layer metrics (all but the overhead ratio)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name, key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    lp_checks = sum(calls[name] for name in LP_SPAN_OF_VERDICT.values())
    steps = counts["localmodels.anneal", "steps"]
    return {
        "cli.self_ms_per_job": 1000.0 * ratio(self_s["cli"], jobs),
        "cli.bytes_out": bytes_out,
        "network.naive.self_s": self_s["network.naive"],
        "network.naive.entries": counts["network.naive", "entries"],
        "network.stats.self_s": self_s["network.stats"],
        "network.emit.self_s": self_s["network.emit"],
        "network.emit.entries": counts["network.emit", "entries"],
        "network.emit.dyadic_ratio": ratio(
            counts["network.emit", "dyadic"], counts["network.emit", "entries"]
        ),
        "network.event.calls": calls["network.event"],
        "network.event.self_s": self_s["network.event"],
        "network.table2.self_s": self_s["network.table2"],
        "bases.self_s": self_s["bases"],
        "localmodels.anneal.steps": steps,
        "localmodels.anneal.us_per_step": 1e6 * ratio(self_s["localmodels.anneal"], steps),
        "localmodels.anneal.improvements": counts["localmodels.anneal", "improvements"],
        "localmodels.exhaustive.self_s": self_s["localmodels.exhaustive"],
        "localmodels.exhaustive.candidates": counts["localmodels.exhaustive", "candidates"],
        "localmodels.evaluate.calls": calls["localmodels.evaluate"],
        "localmodels.evaluate.self_s": self_s["localmodels.evaluate"],
        "belllp.target.self_s": self_s["belllp.target"],
        "belllp.lp_local.self_s": self_s["belllp.lp_local"],
        "belllp.lp_nonlocal.self_s": self_s["belllp.lp_nonlocal"],
        "belllp.verify.self_s": self_s["belllp.verify"],
        "belllp.local_support": ratio(
            counts["belllp.lp_local", "support"], calls["belllp.lp_local"]
        ),
        "belllp.inconclusive_ratio": ratio(calls["belllp.lp_inconclusive"], lp_checks),
        "verify.self_s": self_s["verify"],
    }
