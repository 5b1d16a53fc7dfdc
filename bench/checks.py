"""Output checks of the benchmark jobs.

Each check recomputes what a job printed by a second route -- transfer
matrices against naive contraction, integer recurrences against floats,
model re-evaluation against the reported search value, certificate
re-verification against the LP verdict -- and raises ``CheckFailed`` on a
mismatch.  They run after the timed pass, never inside it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from ejmnet import belllp
from ejmnet.bases import basis_by_name
from ejmnet.localmodels import evaluate_model, model_from_json_dict
from ejmnet.network import (
    closed_form_line,
    closed_form_polygon,
    conditional_all_equal_fraction,
    event_probability,
    joint_distribution_naive,
    line_all_equal_dyadic,
    open_line,
    polygon,
    polygon_all_equal_dyadic,
)

EJM_FAMILY = ("ejm", "ejmz")
TRIANGLE_BY_DISTINCT = {1: 25 / 256, 2: 1 / 256, 3: 5 / 256}
# A q-model scan's rows follow the closed form (13 + 9q - 9q^2)/64.
Q_ROWS_ATOL = 1e-12


class CheckFailed(Exception):
    """A job's output disagrees with its independent recomputation."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(value, reference, what, rel=1e-9, abs_=1e-15):
    _require(
        abs(value - reference) <= rel * max(abs(value), abs(reference)) + abs_,
        f"{what}: {value!r} != {reference!r}",
    )


def _topology(kind, n):
    return open_line(n) if kind == "line" else polygon(n)


@lru_cache(maxsize=None)
def _naive(kind, n, basis):
    return joint_distribution_naive(_topology(kind, n), basis_by_name(basis)).probs


def _all_equal_dyadic(kind, n):
    return (line_all_equal_dyadic(n) if kind == "line" else polygon_all_equal_dyadic(n)).value


def _check_dyadic(p, dyadic, exponent, what):
    # The CLI rounds p * 2**exponent to an integer and reduces the fraction.
    if dyadic is not None:
        exact = math.ldexp(int(dyadic["num"]), -int(dyadic["log2den"]))
        _require(abs(exact - p) <= math.ldexp(1.0, -exponent), f"{what}: dyadic {dyadic} vs p {p!r}")


def _table_arrays(text, fmt):
    """Header (JSON only), outcomes (M, N), p, dyadic numerators and log2 denominators.

    Entries without a dyadic form get numerator 0 and log2 denominator -1.
    """
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        header = None
        outcomes = [r[0].split(",") for r in rows]
        p = [float(r[1]) for r in rows]
        dyadic = [(int(r[2]), int(r[3])) if r[2] else (0, -1) for r in rows]
    else:
        header = json.loads(text)["distribution"]
        entries = header.pop("probabilities")
        outcomes = [e["outcome"] for e in entries]
        p = [e["p"] for e in entries]
        dyadic = [(e["dyadic"]["num"], e["dyadic"]["log2den"]) if e["dyadic"] else (0, -1) for e in entries]
    dyadic = np.array(dyadic, dtype=np.int64).reshape(-1, 2)
    return header, np.array(outcomes, dtype=np.int64), np.array(p), dyadic[:, 0], dyadic[:, 1]


def check_table(facts, text):
    kind, n, basis = facts["topology"], facts["n"], facts["basis"]
    header, outcomes, p, num, log2den = _table_arrays(text, facts["format"])
    if header is not None:
        _require(
            (header["topology"], header["n"], header["basis"]) == (kind, n, basis_by_name(basis).label),
            f"table header {header['topology']}/{header['n']}/{header['basis']}",
        )
    _require(outcomes.shape == (4**n, n), f"table shape {outcomes.shape}")
    index = (outcomes - 1) @ (4 ** np.arange(n - 1, -1, -1))
    _require(np.array_equal(np.sort(index), np.arange(4**n)), "outcomes are not all 4^N tuples")
    _close(math.fsum(p), 1.0, "table total", rel=0.0, abs_=1e-9)
    all_equal = math.fsum(p[(outcomes == outcomes[:, :1]).all(axis=1)])
    _close(all_equal, event_probability(_topology(kind, n), basis_by_name(basis), "all-equal"),
           "all-equal mass vs transfer route", rel=0.0, abs_=1e-10)
    if basis in EJM_FAMILY:
        _close(all_equal, _all_equal_dyadic(kind, n), "all-equal mass vs recurrence", rel=0.0, abs_=1e-10)
    # The CLI rounds p * 2**exponent to an integer and reduces the fraction.
    has = log2den >= 0
    exact = np.ldexp(num[has].astype(float), -log2den[has])
    worst = float(np.max(np.abs(exact - p[has]), initial=0.0))
    _require(worst <= math.ldexp(1.0, -min(4 * n + 4, 40)), f"dyadic field off by {worst!r}")
    if kind == "polygon" and n == 3 and basis in EJM_FAMILY:
        for outcome, value in zip(outcomes.tolist(), p.tolist()):
            _close(value, TRIANGLE_BY_DISTINCT[len(set(outcome))], f"triangle entry {outcome}",
                   rel=0.0, abs_=1e-12)


def check_stats(facts, text):
    kind, n, basis = facts["topology"], facts["n"], facts["basis"]
    payload = json.loads(text)
    top, b = _topology(kind, n), basis_by_name(basis)
    _close(payload["p_all_equal"], event_probability(top, b, "all-equal"),
           "p_all_equal vs transfer route", rel=0.0, abs_=1e-10)
    _close(payload["p_pair_equal"], event_probability(top, b, ("prefix-equal", 2)),
           "p_pair_equal vs transfer route", rel=0.0, abs_=1e-10)
    classes = payload["pattern_classes"].values()
    _require(sum(c["count"] for c in classes) == 4**n, "pattern classes do not cover 4^N tuples")
    _close(math.fsum(c["total"] for c in classes), 1.0, "pattern class total", rel=0.0, abs_=1e-9)
    for c in classes:
        mean = c["total"] / c["count"]
        _require(c["min"] - 1e-15 <= mean <= c["max"] + 1e-15, "pattern class mean outside [min, max]")


def _event_reference(kind, n, basis, event):
    """The event probability by a route other than the transfer matrices, or None."""
    if event == "all-equal":
        if basis in EJM_FAMILY:
            return _all_equal_dyadic(kind, n)
        return float(sum(_naive(kind, n, basis)[(k,) * n] for k in range(4))) if n <= 8 else None
    if event.startswith("tuple="):
        outcome = tuple(int(a) - 1 for a in event.removeprefix("tuple=").split(","))
        return float(_naive(kind, n, basis)[outcome]) if n <= 8 else None
    k = int(event.removeprefix("prefix:"))
    if n <= 8:
        probs = _naive(kind, n, basis)
        return float(sum(probs[(a,) * k].sum() for a in range(4)))
    # Summing out the parties after the prefix leaves an open line of k parties,
    # unless the prefix closes the ring.
    if kind == "polygon" and k == n:
        return _all_equal_dyadic(kind, n) if basis in EJM_FAMILY else None
    return _event_reference("line", k, basis, "all-equal")


def check_event(facts, text):
    kind, n, basis, event = facts["topology"], facts["n"], facts["basis"], facts["event"]
    payload = json.loads(text)
    _require(
        (payload["topology"], payload["n"], payload["basis"], payload["event"])
        == (kind, n, basis_by_name(basis).label, event),
        "event header",
    )
    p = payload["p"]
    _require(0.0 <= p <= 1.0, f"event probability {p!r} outside [0, 1]")
    reference = _event_reference(kind, n, basis, event)
    if reference is not None:
        _close(p, reference, f"{kind} N={n} {basis} {event}")
    scale = int(event.removeprefix("prefix:")) if event.startswith("prefix:") else n
    _check_dyadic(p, payload["dyadic"], 4 * scale + 4, "event")


def check_table2(facts, text):
    if facts["format"] == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == facts["max_n"], f"table2 has {len(rows)} rows")
    for n, row in enumerate(rows, start=1):
        _require(int(row["N"]) == n, "table2 row order")
        line = line_all_equal_dyadic(n)
        _require(row["line_exact"] == str(line), f"table2 line_exact at N={n}")
        _close(float(row["line"]), closed_form_line(n), f"table2 line at N={n}")
        if n == 1:
            continue
        ring = polygon_all_equal_dyadic(n)
        cond = conditional_all_equal_fraction(n)
        _require(row["polygon_exact"] == str(ring), f"table2 polygon_exact at N={n}")
        _require(row["conditional_exact"] == f"{cond.numerator}/{cond.denominator}",
                 f"table2 conditional_exact at N={n}")
        _close(float(row["polygon"]), closed_form_polygon(n), f"table2 polygon at N={n}")
        _close(float(row["conditional"]), float(cond), f"table2 conditional at N={n}")


@lru_cache(maxsize=None)
def _search_target(name):
    probs = _naive("polygon", 3, "ejm")
    if name == "ejm-triangle":
        return probs
    # Outcomes {1,2} -> 1 and {3,4} -> 2 on every party.
    coarse = np.zeros((4, 4, 4))
    coarse[:2, :2, :2] = probs.reshape(2, 2, 2, 2, 2, 2).sum(axis=(1, 3, 5))
    return coarse


def _objective(objective, target, table):
    if objective == "all-equal":
        return float(sum(table[(k,) * table.ndim] for k in range(4)))
    diff = np.abs(table - _search_target(target))
    return float(diff.sum() if objective == "l1" else diff.max())


def _witness_value(facts, payload):
    table = evaluate_model(model_from_json_dict(payload["witness"])).probs
    return _objective(facts["objective"], facts["target"], table)


def check_anneal(facts, text):
    payload = json.loads(text)
    _require((payload["seed"], payload["steps"]) == (facts["seed"], facts["steps"]), "anneal seed/steps")
    _close(payload["value"], _witness_value(facts, payload), "anneal value vs witness",
           rel=0.0, abs_=1e-12)
    values = [v for _, v in payload["trace"]]
    _close(values[-1], payload["value"], "anneal trace end vs value", rel=0.0, abs_=1e-12)
    sign = 1 if facts["objective"] == "all-equal" else -1
    _require(all(sign * (b - a) > 0 for a, b in zip(values, values[1:])),
             "anneal best-so-far trace does not improve monotonically")


def check_exhaustive(facts, text):
    payload = json.loads(text)
    _require(payload["candidates"] == 256**3, f"exhaustive candidates {payload['candidates']}")
    value = payload["value"]
    _close(value, _witness_value(facts, payload), "exhaustive value vs witness", rel=0.0, abs_=1e-12)
    if facts["objective"] == "all-equal":
        _close(payload["witness_all_equal"], value, "witness_all_equal", rel=0.0, abs_=1e-12)
        # Constant responses make every outcome equal, so the optimum is 1.
        _close(value, 1.0, "exhaustive all-equal", rel=0.0, abs_=1e-12)


def check_qmodel(facts, text):
    payload = json.loads(text)
    rows = payload["rows"]
    _require([r["q"] for r in rows] == facts["q"], "qmodel grid")
    for r in rows:
        q = r["q"]
        _close(r["p_all_equal"], (13 + 9 * q - 9 * q * q) / 64, f"qmodel q={q}", rel=0.0, abs_=Q_ROWS_ATOL)
        _close(r["closed_form"], r["p_all_equal"], f"qmodel closed form q={q}", rel=0.0, abs_=Q_ROWS_ATOL)
    _require(payload["peak"]["p_all_equal"] == max(r["p_all_equal"] for r in rows), "qmodel peak")
    _require(len(payload["flag_audit"]) == 8, "qmodel flag audit rows")


def check_asym(facts, text):
    payload = json.loads(text)
    _close(payload["p_all_equal"], 0.5, "asym p_all_equal", rel=0.0, abs_=1e-12)
    _close(payload["p_pair_equal"], 0.5, "asym p_pair_equal", rel=0.0, abs_=1e-12)
    _require(payload["zero_all_distinct_patterns"] == 20, "asym zero patterns")


def check_bell(facts, text):
    payload = json.loads(text)
    _require(payload["verdict"] == facts["verdict"],
             f"verdict {payload['verdict']}, construction says {facts['verdict']}")
    if "target_file" in facts:
        target = np.asarray(json.loads(Path(facts["target_file"]).read_text(encoding="utf-8")))
    else:
        target = belllp.line_conditional_target()
    if payload["verdict"] == belllp.LOCAL:
        weights = np.zeros(65536)
        for index, w in payload["weights"].items():
            weights[int(index)] = w
        certificate = belllp.LocalityCertificate(belllp.LOCAL, weights=weights)
        verified = belllp.verify_certificate(certificate, target)
        _require(verified["reconstruction_residual"] < belllp.RECONSTRUCTION_ATOL,
                 f"LOCAL reconstruction residual {verified['reconstruction_residual']!r}")
        _require(verified["weight_sum_residual"] < belllp.RECONSTRUCTION_ATOL, "LOCAL weights do not sum to 1")
    else:
        functional = np.asarray(payload["functional"])
        certificate = belllp.LocalityCertificate(belllp.NONLOCAL, functional=functional)
        verified = belllp.verify_certificate(certificate, target)
        _require(verified["margin"] > 0, f"NONLOCAL margin {verified['margin']!r}")


def check_verify_all(facts, text):
    payload = json.loads(text)
    _require(payload["failed"] == 0 and all(c["passed"] for c in payload["checks"]),
             f"verify-all failed checks: {[c['name'] for c in payload['checks'] if not c['passed']]}")


CHECKS = {
    "table": check_table,
    "stats": check_stats,
    "event": check_event,
    "table2": check_table2,
    "anneal": check_anneal,
    "exhaustive": check_exhaustive,
    "qmodel": check_qmodel,
    "asym": check_asym,
    "bell": check_bell,
    "verify-all": check_verify_all,
}


def check(job, text: str) -> None:
    """Raise CheckFailed unless ``text`` is a correct output of ``job``."""
    CHECKS[job.kind](job.facts, text)
