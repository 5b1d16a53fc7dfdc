"""Tests of the benchmark itself: output checks, span arithmetic, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import ejmnet.cli
import run
from checks import CheckFailed, check
from tracing import LAYER_METRICS, Span, Tracer, self_times
from workloads import WORKLOADS, Job

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert ejmnet.cli.main(list(argv)) == 0
    return out.getvalue()


class TestChecksRejectCorruptOutput:
    def test_perturbed_probability(self):
        job = Job(("polygon", "--n", "3"), "table",
                  {"topology": "polygon", "n": 3, "basis": "ejm", "format": "json"})
        text = cli_output("polygon", "--n", "3", "--basis", "ejm", "--format", "json")
        check(job, text)
        payload = json.loads(text)
        payload["distribution"]["probabilities"][5]["p"] += 1e-6
        with pytest.raises(CheckFailed):
            check(job, json.dumps(payload))

    def test_perturbed_event(self):
        job = Job((), "event", {"topology": "line", "n": 12, "basis": "mp", "event": "prefix:5"})
        text = cli_output("line", "--n", "12", "--basis", "mp", "--event", "prefix:5")
        check(job, text)
        payload = json.loads(text)
        payload["p"] *= 1.0 + 1e-6
        with pytest.raises(CheckFailed):
            check(job, json.dumps(payload))

    def test_wrong_verdict_and_bad_functional(self, tmp_path):
        target = tmp_path / "pr.json"
        from ejmnet.belllp import pr_box_target

        target.write_text(json.dumps(pr_box_target().tolist()))
        text = cli_output("bell-check", "--target-file", str(target))
        facts = {"verdict": "NONLOCAL", "target_file": str(target)}
        check(Job((), "bell", facts), text)
        with pytest.raises(CheckFailed, match="verdict"):
            check(Job((), "bell", {**facts, "verdict": "LOCAL"}), text)
        payload = json.loads(text)
        payload["functional"] = [[[[-v for v in row] for row in b] for b in a] for a in payload["functional"]]
        with pytest.raises(CheckFailed, match="margin"):
            check(Job((), "bell", facts), json.dumps(payload))

    def test_anneal_value_disagreeing_with_witness(self):
        argv = ("search", "--method", "anneal", "--cardinality", "2", "--objective", "linf",
                "--target", "ejm-triangle-coarse", "--seed", "7", "--steps", "40")
        job = Job(argv, "anneal", {"objective": "linf", "target": "ejm-triangle-coarse",
                                   "seed": 7, "steps": 40})
        text = cli_output(*argv)
        check(job, text)
        payload = json.loads(text)
        payload["value"] -= 1e-3
        payload["trace"][-1][1] = payload["value"]
        with pytest.raises(CheckFailed, match="witness"):
            check(job, json.dumps(payload))


class TestSpans:
    def test_self_time_subtracts_covered_child_intervals(self):
        spans = [
            Span("cli", 0.0, 10.0, None, 0),
            Span("network.naive", 1.0, 4.0, 0, 0),
            Span("network.emit", 3.0, 6.0, 0, 0),  # overlaps its sibling by 1
            Span("bases", 2.0, 3.0, 1, 0),
            Span("network.stats", 9.0, 12.0, 0, 0),  # runs past its parent by 2
        ]
        assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])

    def test_tracer_records_nested_spans_and_restores_names(self):
        originals = (ejmnet.cli.main, ejmnet.cli.joint_distribution_naive,
                     ejmnet.belllp.bell_lp_check, ejmnet.localmodels.evaluate_model)
        with Tracer() as tracer:
            tracer.job = 3
            cli_output("stats", "--topology", "line", "--n", "3")
        assert (ejmnet.cli.main, ejmnet.cli.joint_distribution_naive,
                ejmnet.belllp.bell_lp_check, ejmnet.localmodels.evaluate_model) == originals
        names = [s.name for s in tracer.spans]
        assert names[0] == "cli" and tracer.spans[0].parent is None
        naive = tracer.spans[names.index("network.naive")]
        assert naive.counts == {"entries": 64} and naive.job == 3
        assert tracer.spans[naive.parent].name == "cli"
        assert "network.stats" in names and "bases" in names


def _declared(kind):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    plain = run.measure(workload, seed=5, seconds=1, trace=False, smoke=True)["result"]
    traced = run.measure(workload, seed=5, seconds=1, trace=True, smoke=True)["result"]
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _declared("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _declared("per_layer")
    assert _declared("per_layer") == dict(LAYER_METRICS)
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(plain["metrics"][k]["value"] > 0 for k in _declared("end_to_end"))
