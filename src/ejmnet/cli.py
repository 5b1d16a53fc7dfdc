"""Command-line front door: one subcommand per reproducible artifact.

All output is deterministic for a fixed configuration and seed; JSON is
emitted with sorted keys and CSV with a fixed column order, so identical
invocations are byte-identical.  Exit codes, all set in :func:`main`: 0
success, 1 validation failure, unreadable or malformed input file (a
wrong-shape ``--basis-file`` too) or unwritable ``--out`` path, 2 capacity
exceeded, 64 usage error: an unknown subcommand or flag, or an unparseable
or out-of-range flag value (``--n``, ``--max-n``, ``--q``, ``--cardinality``,
an ``--event`` prefix length or outcomes, ``--n`` other than 3 for an
exhaustive search), which raises :class:`DomainError`.

Only ``bell-check`` and ``verify-all`` solve LPs and load scipy;
``verify-all --no-lp`` and the other commands need numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bases import BASIS_NAMES, basis_by_name, basis_from_json_dict, validate_basis
from .errors import (
    CapacityError,
    DomainError,
    UnknownEventError,
    ValidationError,
)
from .localmodels import (
    MAX_ALL_EQUAL,
    MIN_L1,
    MIN_LINF,
    AnnealSchedule,
    anneal_search,
    asymmetric_model,
    evaluate_model,
    exhaustive_search,
    model_to_json_dict,
    q_model,
    q_model_all_equal,
    q_model_flag_audit,
)
from .network import (
    JointDistribution,
    NetworkTopology,
    coincidence_stats,
    dyadic_fields,
    event_probability,
    joint_distribution_naive,
    polygon,
    table2_rows,
)

_OBJECTIVES = {"all-equal": MAX_ALL_EQUAL, "l1": MIN_L1, "linf": MIN_LINF}

# Largest q grid `qmodel --scan` evaluates (LO:HI:STEP with (HI-LO)/STEP <= 10_000).
MAX_SCAN_POINTS = 10_001


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write(args, text: str):
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, fieldnames: list[str], rows: list[dict]):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fieldnames})
    _write(args, buf.getvalue())


# One table entry as json.dumps(indent=2, sort_keys=True) prints it inside
# "probabilities", with and without a dyadic field, and the same as a CSV row.
_JSON_ENTRY_DYADIC = (
    '      {\n        "dyadic": {\n          "log2den": %d,\n          "num": %d\n        },\n'
    '        "outcome": [\n%s\n        ],\n        "p": %r\n      }'
)
_JSON_ENTRY = '      {\n        "dyadic": null,\n        "outcome": [\n%s\n        ],\n        "p": %r\n      }'
_CSV_ROW_DYADIC = "%s,%r,%d,%d\n"
_CSV_ROW = "%s,%r,,\n"


def _emit_table(args, dist: JointDistribution):
    """Write a full outcome table as JSON or CSV.

    The text is assembled from whole-table columns and equals what
    ``json.dumps(indent=2, sort_keys=True)`` prints for the document around
    :func:`distribution_to_json_dict`, or ``csv.DictWriter`` for its rows;
    ``json.dumps`` with an indent cannot use CPython's C encoder.  Both
    modules print a float as its ``repr``.
    """
    n = dist.n_parties
    p = dist.probs.ravel()
    ok, num, log2den = dyadic_fields(p, n)
    columns = (p.tolist(), ok.tolist(), num.tolist(), log2den.tolist())
    if args.format == "csv":
        # csv's minimal quoting quotes an outcome only when it holds a comma.
        quote = '"' if n > 1 else ""
        outcomes = [quote + ",".join(o) + quote for o in itertools.product("1234", repeat=n)]
        rows = [
            _CSV_ROW_DYADIC % (o, value, numerator, k) if exact else _CSV_ROW % (o, value)
            for o, value, exact, numerator, k in zip(outcomes, *columns)
        ]
        _write(args, "outcome,p,dyadic_num,dyadic_log2den\n" + "".join(rows))
        return
    digits = [" " * 10 + a for a in "1234"]
    outcomes = [",\n".join(o) for o in itertools.product(digits, repeat=n)]
    entries = [
        _JSON_ENTRY_DYADIC % (k, numerator, o, value) if exact else _JSON_ENTRY % (o, value)
        for o, value, exact, numerator, k in zip(outcomes, *columns)
    ]
    _write(
        args,
        "{\n"
        '  "distribution": {\n'
        f'    "basis": {json.dumps(dist.basis_label)},\n'
        f'    "n": {n},\n'
        '    "probabilities": [\n'
        + ",\n".join(entries)
        + "\n    ],\n"
        f'    "topology": {json.dumps(dist.topology.kind)}\n'
        "  },\n"
        f'  "reproduces": {json.dumps(args.reproduces)}\n'
        "}\n",
    )


def _parse_event_flag(raw: str, n: int):
    if raw == "all-equal":
        return "all-equal"
    try:
        if raw == "prefix" or raw.startswith("prefix:"):
            _, _, count = raw.partition(":")
            return ("prefix-equal", int(count) if count else n)
        if raw.startswith("tuple="):
            return tuple(int(a) for a in raw.removeprefix("tuple=").split(","))
    except ValueError as exc:
        raise DomainError(f"--event {raw!r}: {exc}") from exc
    raise UnknownEventError(f"unknown event {raw!r}; use all-equal, prefix:K or tuple=a,b,...")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_validate(args) -> int:
    report = {"reproduces": "joint-measurement basis orthonormality and marginal geometry", "bases": {}}
    failures = 0
    names = list(BASIS_NAMES) if args.basis == "all" else [args.basis]
    entries = [(name, basis_by_name(name)) for name in names]
    if args.basis_file:
        payload = _read_json(args.basis_file)
        entries.append((f"file:{args.basis_file}", basis_from_json_dict(payload)))
    for name, basis in entries:
        try:
            diag = validate_basis(basis)
            report["bases"][name] = {
                "ok": True,
                "gram_residual": diag.gram_residual,
                "partial_bloch_norms": [float(x) for x in diag.partial_bloch_norms],
                "schmidt": [[float(x) for x in pair] for pair in diag.schmidt],
            }
        except ValidationError as exc:
            failures += 1
            report["bases"][name] = {
                "ok": False,
                "error": str(exc),
                "residual": exc.residual,
                "worst_pair": None if not exc.detail else list(exc.detail["worst_pair"]),
            }
    report["ok"] = failures == 0
    _emit_json(args, report)
    return 0 if failures == 0 else 1


def _cmd_chain(args) -> int:
    top = NetworkTopology(args.topology, args.n)
    basis = basis_by_name(args.basis)
    if args.event:
        event = _parse_event_flag(args.event, args.n)
        p = event_probability(top, basis, event)
        # A prefix event's denominator is set by the prefix length alone.
        scale = event[1] if isinstance(event, tuple) and event[0] == "prefix-equal" else args.n
        ok, num, log2den = dyadic_fields([p], scale)
        payload = {
            "reproduces": "event probability on a singlet network via transfer matrices",
            "topology": top.kind,
            "n": top.n_parties,
            "basis": basis.label,
            "event": args.event,
            "p": p,
            "dyadic": {"num": int(num[0]), "log2den": int(log2den[0])} if ok[0] else None,
        }
        _emit_json(args, payload)
        return 0
    _emit_table(args, joint_distribution_naive(top, basis))
    return 0


def _cmd_table2(args) -> int:
    rows = table2_rows(args.max_n)
    fields = ["N", "line", "polygon", "conditional", "line_exact", "polygon_exact", "conditional_exact"]
    if args.format == "json":
        _emit_json(
            args,
            {
                "reproduces": "all-equal probabilities for chains and rings with their exact forms",
                "rows": rows,
            },
        )
    else:
        _emit_csv(args, fields, rows)
    return 0


# A stats report and one of its pattern classes as
# json.dumps(indent=2, sort_keys=True) prints them.
_JSON_STATS = (
    '{\n  "basis": %(basis)s,\n  "n": %(n)s,\n  "p_all_equal": %(p_all_equal)s,\n'
    '  "p_cond_pair": %(p_cond_pair)s,\n  "p_cond_triple": %(p_cond_triple)s,\n'
    '  "p_pair_equal": %(p_pair_equal)s,\n  "pattern_classes": {\n%(pattern_classes)s\n  },\n'
    '  "reproduces": %(reproduces)s,\n  "topology": %(topology)s\n}\n'
)
_JSON_PATTERN_CLASS = (
    '    "%s": {\n      "count": %d,\n      "max": %r,\n      "min": %r,\n      "total": %r\n    }'
)


def _cmd_stats(args) -> int:
    top = NetworkTopology(args.topology, args.n)
    dist = joint_distribution_naive(top, basis_by_name(args.basis))
    stats = coincidence_stats(dist)
    payload = {
        "reproduces": "pair/triple coincidence rates and coincidence-pattern classes",
        "topology": top.kind,
        "n": top.n_parties,
        "basis": dist.basis_label,
        "p_pair_equal": stats.p_pair_equal,
        "p_all_equal": stats.p_all_equal,
        "p_cond_pair": stats.p_cond_pair,
        "p_cond_triple": stats.p_cond_triple,
    }
    text = {key: json.dumps(value) for key, value in payload.items()}
    # Thousands of pattern classes at N = 8 go through the template, as in
    # _emit_table, since json.dumps with an indent cannot use the C encoder.
    text["pattern_classes"] = ",\n".join(
        _JSON_PATTERN_CLASS % (key, c["count"], c["max"], c["min"], c["total"])
        for key, c in sorted(stats.pattern_classes.items())
    )
    _write(args, _JSON_STATS % text)
    return 0


def _cmd_qmodel(args) -> int:
    if args.q is not None:
        qs = [args.q]
    else:
        try:
            lo, hi, step = (float(x) for x in args.scan.split(":"))
        except ValueError as exc:
            raise DomainError(f"--scan {args.scan!r} is not LO:HI:STEP") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and step > 0 and lo <= hi):
            raise DomainError(f"--scan {args.scan!r} needs finite LO <= HI and STEP > 0")
        span = (hi - lo) / step
        if not span <= MAX_SCAN_POINTS - 1:
            raise CapacityError(f"--scan {args.scan!r} exceeds {MAX_SCAN_POINTS} grid points")
        # The slack absorbs the rounding of a span that is a whole number of
        # steps; the clamp keeps the point it admits from landing past HI.
        qs = [min(lo + i * step, hi) for i in range(math.floor(span + 1e-9) + 1)]
    rows = []
    for q in qs:
        p = coincidence_stats(evaluate_model(q_model(q))).p_all_equal
        rows.append({"q": q, "p_all_equal": p, "closed_form": q_model_all_equal(q)})
    peak = max(rows, key=lambda r: r["p_all_equal"])
    payload = {
        "reproduces": "flagged-dit model all-equal rate (13+9q-9q^2)/64 with peak 61/256",
        "rows": rows,
        "peak": {"q": peak["q"], "p_all_equal": peak["p_all_equal"]},
    }
    if args.audit:
        payload["flag_audit"] = q_model_flag_audit()
    if args.format == "csv":
        _emit_csv(args, ["q", "p_all_equal", "closed_form"], rows)
    else:
        _emit_json(args, payload)
    return 0


def _cmd_asym(args) -> int:
    model = asymmetric_model()
    dist = evaluate_model(model)
    stats = coincidence_stats(dist)
    zero_distinct = sum(
        1
        for idx in np.ndindex(4, 4, 4)
        if len(set(idx)) == 3 and dist.probs[idx] == 0.0
    )
    _emit_json(
        args,
        {
            "reproduces": "deterministic complementary-bit triangle model statistics",
            "p_all_equal": stats.p_all_equal,
            "p_pair_equal": stats.p_pair_equal,
            "p_cond_triple": stats.p_cond_triple,
            "zero_all_distinct_patterns": zero_distinct,
            "model": model_to_json_dict(model),
        },
    )
    return 0


def _search_target(args):
    name = args.target
    if name == "none":
        return None
    dist = joint_distribution_naive(polygon(3), basis_by_name("ejm"))
    if name == "ejm-triangle":
        return dist
    if name == "ejm-triangle-coarse":
        # Group outcomes {1,2} and {3,4} on every party, supported on {1,2}^3.
        coarse = np.zeros((4, 4, 4))
        groups = np.array([0, 0, 1, 1])
        for idx in np.ndindex(4, 4, 4):
            coarse[tuple(groups[list(idx)])] += dist.probs[idx]
        return JointDistribution(dist.topology, "ejm-coarse", coarse)
    raise DomainError(f"unknown search target {name!r}")


def _cmd_search(args) -> int:
    objective = _OBJECTIVES[args.objective]
    target = _search_target(args)
    if args.method == "exhaustive":
        if args.n != 3:
            raise DomainError(f"--n {args.n}: exhaustive search covers only the triangle (n = 3)")
        result = exhaustive_search(args.cardinality, objective, target, args.optimize_weights)
        recheck = coincidence_stats(evaluate_model(result.witness)).p_all_equal
        payload = {
            "reproduces": "deterministic-strategy enumeration over uniform binary sources",
            "method": "exhaustive",
            "objective": args.objective,
            "value": result.value,
            "candidates": result.candidates,
            "weights_refined": result.weights_refined,
            "witness": model_to_json_dict(result.witness),
            "witness_all_equal": recheck,
        }
    else:
        result = anneal_search(
            args.cardinality,
            objective,
            target,
            topology=polygon(args.n),
            seed=args.seed,
            schedule=AnnealSchedule(steps=args.steps, cooling=args.cooling),
        )
        payload = {
            "reproduces": "stochastic probe of network-local model space",
            "method": "anneal",
            "objective": args.objective,
            "value": result.value,
            "seed": result.seed,
            "steps": result.schedule.steps,
            "trace": [[step, value] for step, value in result.trace],
            "witness": model_to_json_dict(result.witness),
        }
    _emit_json(args, payload)
    return 0


# Importing scipy costs ~0.6 s and ~48 MB of RSS; only the LP commands need it.
def _cmd_bell_check(args) -> int:
    from . import belllp
    if args.target_file:
        target = _read_json(args.target_file)
    elif args.target == "ejm-line":
        target = belllp.line_conditional_target()
    elif args.target == "uniform":
        target = belllp.uniform_target()
    else:
        target = belllp.pr_box_target()
    certificate = belllp.bell_lp_check(target)
    payload = {
        "reproduces": "local-polytope membership of a four-outcome two-party behaviour",
        "target": args.target if not args.target_file else f"file:{args.target_file}",
        "verdict": certificate.verdict,
        "verification": belllp.verify_certificate(certificate, target),
    }
    if certificate.verdict == belllp.LOCAL:
        support = np.flatnonzero(certificate.weights > 1e-12)
        payload["weights"] = {str(int(i)): float(certificate.weights[i]) for i in support}
        payload["reconstruction_residual"] = certificate.reconstruction_residual
    elif certificate.verdict == belllp.NONLOCAL:
        payload["functional"] = certificate.functional.tolist()
        payload["classical_bound"] = certificate.classical_bound
        payload["target_value"] = certificate.target_value
        payload["margin"] = certificate.margin
    else:
        payload["solver_status"] = certificate.solver_status
    _emit_json(args, payload)
    return 0 if certificate.verdict != belllp.INCONCLUSIVE else 1


def _cmd_verify_all(args) -> int:
    from . import verify
    results = verify.run_all_checks(tolerance=args.tol, include_lp=not args.no_lp)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        residual = "inf" if r.residual == float("inf") else f"{r.residual:.3g}"
        sys.stderr.write(f"{status} {r.name} (residual {residual}) {r.detail}\n")
    _emit_json(args, {"reproduces": "aggregate reproduction suite", **verify.summarize(results)})
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejmnet",
        description="Quantum correlations of joint measurements on singlet networks, "
        "and classical network-local models probing them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, basis=True, fmt=None):
        p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        if basis:
            p.add_argument("--basis", default="ejm", choices=list(BASIS_NAMES))
        if fmt:
            p.add_argument("--format", default=fmt, choices=["json", "csv"])

    p = sub.add_parser("validate", help="orthonormality and marginal diagnostics of the bases")
    p.add_argument("--basis", default="all", choices=["all", *BASIS_NAMES])
    p.add_argument("--basis-file", default=None, help="also validate a basis stored as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("triangle", help="full 64-entry outcome table of the three-party ring")
    add_common(p, fmt="json")
    p.set_defaults(
        func=_cmd_chain,
        topology="polygon",
        n=3,
        event=None,
        reproduces="triangle joint-outcome distribution from three singlets",
    )

    for name, topo in (("line", "line"), ("polygon", "polygon")):
        p = sub.add_parser(name, help=f"distribution or event probability on a {name}")
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--event",
            default=None,
            help="all-equal, prefix:K, or tuple=a,b,... (omit for the full table, n <= 8)",
        )
        add_common(p, fmt="json")
        p.set_defaults(
            func=_cmd_chain,
            topology=topo,
            reproduces="full joint-outcome distribution by direct contraction",
        )

    p = sub.add_parser("table2", help="all-equal probabilities for chains and rings")
    p.add_argument("--max-n", type=int, default=10)
    add_common(p, basis=False, fmt="csv")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("stats", help="coincidence statistics of a network distribution")
    p.add_argument("--topology", default="polygon", choices=["line", "polygon"])
    p.add_argument("--n", type=int, default=3)
    add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("qmodel", help="flagged-dit triangle model scan and audit")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--scan", default="0:1:0.25", help="LO:HI:STEP grid over q")
    p.add_argument("--audit", action="store_true", help="include the 8-row flag audit")
    add_common(p, basis=False, fmt="json")
    p.set_defaults(func=_cmd_qmodel)

    p = sub.add_parser("asym", help="deterministic complementary-bit triangle model")
    add_common(p, basis=False)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("search", help="search network-local model space")
    p.add_argument("--method", default="exhaustive", choices=["exhaustive", "anneal"])
    p.add_argument("--cardinality", type=int, default=2)
    p.add_argument("--objective", default="all-equal", choices=list(_OBJECTIVES))
    p.add_argument(
        "--target",
        default="none",
        choices=["none", "ejm-triangle", "ejm-triangle-coarse"],
        help="target distribution for the distance objectives",
    )
    p.add_argument("--n", type=int, default=3, help="ring size (anneal only)")
    p.add_argument("--seed", type=int, default=42, help="random seed (anneal only)")
    p.add_argument("--steps", type=int, default=100_000, help="annealing steps (anneal only)")
    p.add_argument("--cooling", type=float, default=0.999, help="cooling factor (anneal only)")
    p.add_argument("--optimize-weights", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bell-check", help="local-polytope membership LP")
    p.add_argument("--target", default="ejm-line", choices=["ejm-line", "uniform", "pr-box"])
    p.add_argument("--target-file", default=None, help="JSON (4,4,4,4) nested array [x][y][a][b]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bell_check)

    p = sub.add_parser("verify-all", help="run the whole reproduction suite")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--no-lp", action="store_true", help="skip the membership LPs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_all)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call shares, built on the first call.

    Reuse is safe because each parse returns a new namespace and every
    default set on the parser is immutable.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 64
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 2
    except (ValidationError, UnknownEventError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
