import contextlib
import csv
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ejmnet
from ejmnet import verify
from ejmnet.bases import basis_by_name, basis_to_json_dict, ejm_basis
from ejmnet.cli import _emit_table, _parser, _search_target, build_parser, main
from ejmnet.errors import DomainError
from ejmnet.network import (
    JointDistribution,
    coincidence_stats,
    dyadic_fields,
    joint_distribution_naive,
    open_line,
    polygon,
)

BASES = ["ejm", "ejmz", "mp", "bsm"]
TOPOLOGIES = st.one_of(st.integers(1, 5).map(open_line), st.integers(2, 5).map(polygon))
TABLE_REPRODUCES = "full joint-outcome distribution by direct contraction"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_json_contains_exact_entries(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--basis", "ejm")
        assert code == 0
        payload = json.loads(out)
        entries = payload["distribution"]["probabilities"]
        assert len(entries) == 64
        all_equal = [e for e in entries if len(set(e["outcome"])) == 1]
        assert all(e["dyadic"] == {"num": 25, "log2den": 8} for e in all_equal)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "triangle")
        _, second, _ = run_cli(capsys, "triangle")
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 64
        first = next(r for r in rows if r["outcome"] == "1,1,1")
        assert first["dyadic_num"] == "25"


def distribution_to_json_dict(dist):
    """The table document's "distribution", with exact dyadic fields where they exist."""
    p = dist.probs.ravel()
    ok, num, log2den = dyadic_fields(p, dist.n_parties)
    entries = [
        {
            "outcome": list(outcome),
            "p": value,
            "dyadic": {"num": numerator, "log2den": k} if exact else None,
        }
        for outcome, value, exact, numerator, k in zip(
            itertools.product(range(1, 5), repeat=dist.n_parties),
            p.tolist(),
            ok.tolist(),
            num.tolist(),
            log2den.tolist(),
        )
    ]
    return {
        "topology": dist.topology.kind,
        "n": dist.n_parties,
        "basis": dist.basis_label,
        "probabilities": entries,
    }


def reference_table_text(fmt, dist, reproduces):
    """The table as json.dumps and csv.DictWriter print the dict form."""
    payload = distribution_to_json_dict(dist)
    if fmt == "json":
        return json.dumps({"reproduces": reproduces, "distribution": payload}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    fields = ["outcome", "p", "dyadic_num", "dyadic_log2den"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for entry in payload["probabilities"]:
        dyadic = entry["dyadic"] or {"num": "", "log2den": ""}
        writer.writerow(
            {
                "outcome": ",".join(str(a) for a in entry["outcome"]),
                "p": entry["p"],
                "dyadic_num": dyadic["num"],
                "dyadic_log2den": dyadic["log2den"],
            }
        )
    return buf.getvalue()


class TestTableEmitter:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(TOPOLOGIES, st.sampled_from(BASES), st.sampled_from(["json", "csv"]))
    def test_cli_matches_json_and_csv_modules(self, top, name, fmt):
        argv = [top.kind, "--n", str(top.n_parties), "--basis", name, "--format", fmt]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        dist = joint_distribution_naive(top, basis_by_name(name))
        assert buf.getvalue() == reference_table_text(fmt, dist, TABLE_REPRODUCES)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), TOPOLOGIES, st.sampled_from(["json", "csv"]))
    def test_random_tables_match_json_and_csv_modules(self, seed, top, fmt):
        # Dirichlet tables, half of their entries moved onto the dyadic grid.
        n = top.n_parties
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4**n))
        snap = rng.random(4**n) < 0.5
        probs[snap] = np.ldexp(np.rint(np.ldexp(probs[snap], 4 * n + 4)), -(4 * n + 4))
        dist = JointDistribution(top, "x", (probs / probs.sum()).reshape((4,) * n))
        buf = io.StringIO()
        args = SimpleNamespace(format=fmt, out=None, reproduces="random \u00e9 table")
        with contextlib.redirect_stdout(buf):
            _emit_table(args, dist)
        assert buf.getvalue() == reference_table_text(fmt, dist, args.reproduces)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), TOPOLOGIES, st.sampled_from(["json", "csv"]))
    @example(0, open_line(1), "json")
    @example(0, open_line(1), "csv")
    def test_tables_of_few_values_match_json_and_csv_modules(self, seed, top, fmt):
        # Entries repeat a few pool values, scaled by 4**-n (exactly): signed
        # zeros, dyadic and non-dyadic values, and two pairs 1 ulp apart
        # (both of the dyadic pair pass the dyadic gate).  One cell takes
        # the rest of the mass.
        n = top.n_parties
        rng = np.random.default_rng(seed)
        pool = np.array(
            [0.0, -0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), 1 / 3, 0.1, np.nextafter(0.1, 1.0)]
        )
        probs = np.ldexp(pool[rng.integers(0, pool.size, 4**n)], -2 * n)
        rest = int(rng.integers(0, 4**n))
        probs[rest] = 0.0
        probs[rest] = 1.0 - probs.sum()
        dist = JointDistribution(top, "x", probs.reshape((4,) * n))
        buf = io.StringIO()
        args = SimpleNamespace(format=fmt, out=None, reproduces="pooled table")
        with contextlib.redirect_stdout(buf):
            _emit_table(args, dist)
        assert buf.getvalue() == reference_table_text(fmt, dist, args.reproduces)

    def test_single_party_csv_is_unquoted(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == (
            "outcome,p,dyadic_num,dyadic_log2den\n"
            "1,0.24999999999999983,1,2\n"
            "2,0.24999999999999983,1,2\n"
            "3,0.24999999999999994,1,2\n"
            "4,0.24999999999999983,1,2\n"
        )

    def test_irrational_massar_popescu_entry_has_no_dyadic(self, capsys):
        # Its value is (127 - 12 sqrt3) / 2**16, not 1699 * 2**-20.
        code, out, _ = run_cli(capsys, "line", "--n", "4", "--basis", "mp")
        assert code == 0
        entries = json.loads(out)["distribution"]["probabilities"]
        entry = next(e for e in entries if e["outcome"] == [1, 1, 1, 2])
        assert entry["dyadic"] is None
        assert abs(entry["p"] - (127 - 12 * math.sqrt(3)) / 2**16) < 1e-15

    def test_irrational_massar_popescu_entry_near_the_grid_has_no_dyadic(self, capsys):
        # 1.5e-15 off 163035 * 2**-34, within 8 eps but ~6e5 ulps of p.
        code, out, _ = run_cli(capsys, "line", "--n", "8", "--basis", "mp")
        assert code == 0
        entries = json.loads(out)["distribution"]["probabilities"]
        entry = next(e for e in entries if e["outcome"] == [1, 1, 2, 4, 2, 1, 3, 4])
        assert entry["dyadic"] is None
        assert sum(e["dyadic"] is not None for e in entries) == 1520

    @pytest.mark.parametrize("name", BASES)
    def test_every_field_equals_p(self, capsys, name):
        tolerance = 8 * np.finfo(float).eps
        fields = 0
        for kind, low in (("line", 1), ("polygon", 2)):
            for n in range(low, 7):
                code, out, _ = run_cli(capsys, kind, "--n", str(n), "--basis", name)
                assert code == 0
                for entry in json.loads(out)["distribution"]["probabilities"]:
                    dyadic = entry["dyadic"]
                    if dyadic is not None:
                        fields += 1
                        exact = math.ldexp(dyadic["num"], -dyadic["log2den"])
                        assert abs(exact - entry["p"]) <= tolerance
        assert fields > 0


class WriteCounter:
    """A text sink that counts its writes and keeps them, unless told not to."""

    def __init__(self, keep=True):
        self.keep = keep
        self.sizes, self.chunks = [], []

    def write(self, text):
        self.sizes.append(len(text))
        if self.keep:
            self.chunks.append(text)
        return len(text)


class TestTableStream:
    """A full table goes out in blocks of 256 entries, never as one text."""

    @pytest.fixture(scope="class")
    def line8(self, ejm):
        return joint_distribution_naive(open_line(8), ejm)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blocks_concatenate_to_the_table(self, line8, fmt):
        args = SimpleNamespace(format=fmt, out=None, reproduces=TABLE_REPRODUCES)
        sink = WriteCounter()
        with contextlib.redirect_stdout(sink):
            _emit_table(args, line8)
        assert len(sink.sizes) >= 256
        assert max(sink.sizes) <= 100_000
        text, want = "".join(sink.chunks), reference_table_text(fmt, line8, TABLE_REPRODUCES)
        # Bare ``text == want`` would have pytest diff 17 MB when it fails.
        same = text == want
        assert same, f"differs from character {len(os.path.commonprefix([text, want]))}"

    def test_peak_memory_is_a_fraction_of_the_text(self, line8):
        args = SimpleNamespace(format="json", out=None, reproduces=TABLE_REPRODUCES)
        sink = WriteCounter(keep=False)
        with contextlib.redirect_stdout(sink):
            _emit_table(args, line8)  # warm every lazy import
            sink.sizes.clear()
            tracemalloc.start()
            try:
                _emit_table(args, line8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sum(sink.sizes) == 17_293_046
        assert peak < sum(sink.sizes) / 2

    def test_a_table_failing_the_dyadic_gate_writes_nothing(self, tmp_path):
        # A stand-in for a JointDistribution, which would reject an entry above 1.
        top = open_line(2)
        dist = SimpleNamespace(n_parties=2, probs=np.full((4, 4), 1.5), basis_label="x", topology=top)
        sink = WriteCounter()
        args = SimpleNamespace(format="json", out=None, reproduces="x")
        with contextlib.redirect_stdout(sink), pytest.raises(DomainError):
            _emit_table(args, dist)
        assert sink.chunks == []
        path = tmp_path / "kept.json"
        path.write_text("kept", encoding="utf-8")
        args = SimpleNamespace(format="csv", out=str(path), reproduces="x")
        with pytest.raises(DomainError):
            _emit_table(args, dist)
        assert path.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize(
        "argv",
        [
            ["line", "--n", "6"],
            ["polygon", "--n", "5", "--format", "csv"],
            ["triangle"],
            ["line", "--n", "1", "--format", "csv"],
        ],
    )
    def test_out_file_equals_stdout(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "table.txt"
        code, empty, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and empty == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_a_closed_pipe_exits_zero_in_silence(self):
        src = str(Path(ejmnet.__file__).parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "ejmnet.cli", "line", "--n", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert len(head) == 100 and code == 0
        assert err == b""


class TestStatsCommand:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.sampled_from(["line", "polygon"]), st.integers(2, 6), st.sampled_from(BASES))
    def test_matches_json_dumps(self, topology, n, name):
        argv = ["stats", "--topology", topology, "--n", str(n), "--basis", name]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        top = open_line(n) if topology == "line" else polygon(n)
        dist = joint_distribution_naive(top, basis_by_name(name))
        stats = coincidence_stats(dist)
        payload = {
            "reproduces": "pair/triple coincidence rates and coincidence-pattern classes",
            "topology": top.kind,
            "n": n,
            "basis": dist.basis_label,
            "p_pair_equal": stats.p_pair_equal,
            "p_all_equal": stats.p_all_equal,
            "p_cond_pair": stats.p_cond_pair,
            "p_cond_triple": stats.p_cond_triple,
            "pattern_classes": stats.pattern_classes,
        }
        assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestTable2Command:
    def test_matches_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--max-n", "10")
        assert code == 0
        rows = {r["N"]: r for r in csv.DictReader(out.splitlines())}
        assert rows["7"]["line_exact"] == "2521*2^-18"
        assert rows["8"]["polygon_exact"] == "9409*2^-20"
        assert rows["10"]["conditional_exact"] == "32761/35113"
        assert rows["1"]["polygon"] == ""


class TestChainCommands:
    def test_event_query(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "--n", "9", "--event", "all-equal")
        assert code == 0
        assert json.loads(out)["dyadic"] == {"num": 70225, "log2den": 24}
        # Past the 2**-40 grid a float cannot certify a dyadic field.
        code, out, _ = run_cli(capsys, "polygon", "--n", "10", "--event", "all-equal")
        assert code == 0
        assert json.loads(out)["dyadic"] is None

    def test_tuple_event(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--n", "2", "--event", "tuple=1,1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["p"] - 7.0 / 64.0) < 1e-12

    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "line", "--n", "9")
        assert code == 2
        assert "capacity" in err

    def test_bad_event_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "line", "--n", "3", "--event", "sideways")
        assert code == 1


class TestQmodelCommand:
    def test_scan_peak(self, capsys):
        code, out, _ = run_cli(capsys, "qmodel", "--scan", "0:1:0.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["peak"]["q"] == 0.5
        assert abs(payload["peak"]["p_all_equal"] - 61 / 256) < 1e-12
        assert len(payload["rows"]) == 5

    def test_audit_rows(self, capsys):
        code, out, _ = run_cli(capsys, "qmodel", "--q", "0.5", "--audit")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["flag_audit"]) == 8


class TestValidateCommand:
    def test_builtin_bases_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and len(payload["bases"]) == 4

    def test_perturbed_basis_file_flagged(self, capsys, tmp_path):
        payload = basis_to_json_dict(ejm_basis())
        payload["states"][0][0][0] += 1e-3
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", "--basis", "ejm", "--basis-file", str(path))
        assert code == 1
        report = json.loads(out)
        key = f"file:{path}"
        assert report["bases"][key]["ok"] is False
        assert "Gram entry (0, 0) deviates" in report["bases"][key]["error"]
        assert report["bases"]["ejm"]["ok"] is True


class TestSearchCommand:
    def test_exhaustive_all_equal(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--method", "exhaustive", "--cardinality", "2",
            "--objective", "all-equal",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] >= 0.5
        assert abs(payload["witness_all_equal"] - payload["value"]) < 1e-12

    def test_anneal_deterministic(self, capsys):
        argv = [
            "search", "--method", "anneal", "--cardinality", "2",
            "--objective", "all-equal", "--seed", "13", "--steps", "1500",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_coarse_target_equals_the_loop_over_outcomes(self, triangle_ejm_coarse):
        target = _search_target(SimpleNamespace(target="ejm-triangle-coarse"))
        np.testing.assert_array_equal(target.probs, triangle_ejm_coarse.probs)


class TestAsymCommand:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "asym")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["p_all_equal"] - 0.5) < 1e-12
        assert payload["zero_all_distinct_patterns"] == 20


class TestBellCheckCommand:
    def test_pr_box(self, capsys):
        code, out, _ = run_cli(capsys, "bell-check", "--target", "pr-box")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NONLOCAL"
        assert payload["margin"] > 1e-9


class TestVerifyAllCommand:
    def test_default_tolerance_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-all", "--no-lp")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert "PASS" in err

    def test_membership_lps_run_and_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (12, 0)
        names = {check["name"] for check in payload["checks"]}
        assert {"line4-bell-membership", "pr-box-separation"} <= names

    def test_absurd_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all", "--no-lp", "--tol", "1e-20")
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] > 0

    def test_zero_tolerance_reports_finite_residuals(self):
        # Below the Gram residual (~5.6e-16) the basis check fails on its own
        # residual, as every other check does, rather than raising.
        results = verify.run_all_checks(tolerance=0.0, include_lp=False)
        basis = results[0]
        assert basis.name == "basis-orthonormality" and not basis.passed
        assert 0.0 < basis.residual < 1e-15
        assert basis.detail == "four bases, Gram + Schmidt"
        assert all(math.isfinite(r.residual) for r in results)

    def test_a_check_that_raises_keeps_its_name(self, monkeypatch):
        from ejmnet import belllp

        def broken(*args, **kwargs):
            raise RuntimeError("broken on purpose")

        # Every library function a check reads raises, so every check does.
        for name, obj in vars(verify).items():
            if inspect.isfunction(obj) and obj.__module__ != verify.__name__:
                monkeypatch.setattr(verify, name, broken)
        monkeypatch.setattr(belllp, "bell_lp_check", broken)
        results = verify.run_all_checks()
        assert [r.name for r in results] == [
            "basis-orthonormality",
            "ejm-marginal-alignment",
            "triangle-distribution",
            "all-equal-closed-forms",
            "transfer-vs-naive",
            "conditional-asymptote",
            "flagged-dit-audit",
            "q-model-closed-form",
            "asymmetric-model",
            "classical-quantum-gap",
            "line4-bell-membership",
            "pr-box-separation",
        ]
        assert all(
            not r.passed and r.residual == math.inf and r.detail == "RuntimeError: broken on purpose"
            for r in results
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_library_rejects_unusable_tolerance(self, bad):
        with pytest.raises(DomainError, match="tolerance"):
            verify.run_all_checks(tolerance=bad, include_lp=False)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 64

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["qmodel", "--scan", "0:1:0"], 64),
            (["qmodel", "--scan", "0:1"], 64),
            (["line", "--n", "4", "--event", "prefix:x"], 64),
            (["search", "--method", "anneal", "--steps", "-5"], 64),
            (["search", "--method", "anneal", "--cooling", "nan"], 64),
            (["bell-check", "--target-file", "{missing}"], 1),
            (["validate", "--basis-file", "{missing}"], 1),
            (["bell-check", "--target-file", "{nan}"], 1),
            (["search", "--method", "anneal", "--cooling", "5.0"], 64),
            (["qmodel", "--scan", "0:1:1e-9"], 2),
            (["qmodel", "--scan", "0:1:5e-324"], 2),
            (["triangle", "--out", "{missing_dir}"], 1),
            (["triangle", "--out", "{directory}"], 1),
            (["search", "--method", "anneal", "--seed", "-1"], 64),
            (["verify-all", "--tol", "nan"], 64),
            (["verify-all", "--tol", "-1"], 64),
            (["line", "--n", "0"], 64),
            (["polygon", "--n", "1"], 64),
            (["qmodel", "--q", "2"], 64),
            (["qmodel", "--q", "nan"], 64),
            (["table2", "--max-n", "0"], 64),
            (["table2", "--max-n", "65"], 64),
            (["search", "--cardinality", "0"], 64),
            (["search", "--method", "anneal", "--n", "6"], 64),
            (
                ["search", "--method", "anneal", "--n", "4", "--objective", "l1", "--target", "ejm-triangle"],
                64,
            ),
            (["polygon", "--n", "5", "--event", "prefix:0"], 64),
            (["polygon", "--n", "3", "--event", "tuple=5,1,1"], 64),
            (["polygon", "--n", "3", "--event", "tuple=1,1"], 64),
            (["stats", "--topology", "line", "--n", "1"], 64),
            (["validate", "--basis-file", "{wrong_shape}"], 1),
            (["line", "--n", "3", "--event", "prefixsideways"], 1),
            (["search", "--method", "exhaustive", "--n", "9"], 64),
            (["bell-check", "--target-file", "{huge}"], 1),
            (["search", "--method", "anneal", "--optimize-weights", "--steps", "10"], 64),
            (["search", "--cardinality", "1", "--optimize-weights"], 64),
            (["line", "--n", "4", "--event", "all-equal", "--format", "csv"], 64),
            (["search", "--method", "anneal", "--steps", "1000001"], 2),
            (["line", "--n", "4", "--event", "prefix:"], 64),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_input_exit_code(self, capsys, tmp_path, argv, code):
        nan = tmp_path / "nan.json"
        nan.write_text("[[[[NaN]]]]", encoding="utf-8")
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(np.full((4, 4, 4, 4), 1e308).tolist()), encoding="utf-8")
        wrong_shape = tmp_path / "wrong_shape.json"
        wrong_shape.write_text('{"label": "x", "states": [[[1, 0], [0, 0]]]}', encoding="utf-8")
        files = {
            "missing": tmp_path / "missing.json",
            "nan": nan,
            "huge": huge,
            "wrong_shape": wrong_shape,
            "missing_dir": tmp_path / "missing" / "out.json",
            "directory": tmp_path,
        }
        argv = [a.format(**files) for a in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "scan, qs",
        [
            ("0:0.5:0.3", [0.0, 0.3]),
            ("0:1:0.35", [0.0, 0.35, 0.7]),
            ("0.25:0.75:0.025", [0.25 + i * 0.025 for i in range(21)]),
            # The span falls 6e-11 short of 3 steps; the third step would be 1.00000000002.
            ("0:1:0.33333333334", [0.0, 0.33333333334, 0.66666666668, 1.0]),
            # 3 * 0.1 is 0.30000000000000004.
            ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ],
    )
    def test_scan_stops_at_hi(self, capsys, scan, qs):
        code, out, err = run_cli(capsys, "qmodel", "--scan", scan)
        assert code == 0, err
        assert [row["q"] for row in json.loads(out)["rows"]] == qs

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "triangle", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["distribution"]["n"] == 3


def fresh_interpreter_stdout(probe):
    src = str(Path(ejmnet.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout


class TestParserReuse:
    """``main`` parses with one parser per process; no parse leaves state on it."""

    def test_defaults_survive_a_parse(self, capsys):
        assert _parser().parse_args(["line", "--n", "3", "--basis", "mp"]).basis == "mp"
        assert _parser().parse_args(["line", "--n", "3"]).basis == "ejm"
        run_cli(capsys, "line", "--n", "3", "--basis", "mp")
        _, out, _ = run_cli(capsys, "line", "--n", "3")
        assert json.loads(out)["distribution"]["basis"] == "EJM"

    def test_repeated_help_exits_zero(self, capsys):
        for argv in (["--help"], ["line", "--help"], ["--help"], ["line", "--help"]):
            assert main(argv) == 0

    def test_unknown_option_after_a_good_parse(self, capsys):
        assert run_cli(capsys, "line", "--n", "3", "--event", "all-equal")[0] == 0
        assert run_cli(capsys, "line", "--n", "3", "--bogus")[0] == 64
        code, out, _ = run_cli(capsys, "line", "--n", "3", "--event", "all-equal")
        assert code == 0 and json.loads(out)["basis"] == "EJM"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["triangle", "--format", "csv"],
            ["line", "--n", "3", "--basis", "mp"],
            ["polygon", "--n", "5", "--event", "prefix:2"],
            ["table2", "--max-n", "4"],
            ["stats", "--topology", "line"],
            ["qmodel", "--audit"],
            ["asym"],
            ["search", "--method", "anneal", "--seed", "7"],
            ["bell-check", "--target", "pr-box"],
            ["verify-all", "--no-lp"],
        ],
    )
    def test_shared_parse_equals_a_fresh_parser(self, argv):
        _parser().parse_args(["line", "--n", "9", "--basis", "bsm", "--event", "all-equal"])
        assert _parser().parse_args(argv) == build_parser().parse_args(argv)

    def test_nothing_built_at_import(self):
        probe = (
            "import ejmnet.cli, ejmnet.bases; "
            "print(ejmnet.cli._parser.cache_info().currsize, "
            "ejmnet.bases._named_basis.cache_info().currsize)"
        )
        assert fresh_interpreter_stdout(probe).split() == ["0", "0"]


class TestLazyScipy:
    def test_only_the_lp_commands_import_scipy(self):
        probe = (
            "import os, sys\n"
            "import ejmnet.bases, ejmnet.cli, ejmnet.localmodels, ejmnet.network\n"
            "before = 'scipy' in sys.modules\n"
            "code = ejmnet.cli.main(['bell-check', '--target', 'uniform', '--out', os.devnull])\n"
            "print(before, code, 'scipy' in sys.modules)\n"
        )
        assert fresh_interpreter_stdout(probe).split() == ["False", "0", "True"]

    def test_verify_all_without_lps_imports_no_scipy(self):
        probe = (
            "import os, sys\n"
            "import ejmnet.cli\n"
            "code = ejmnet.cli.main(['verify-all', '--no-lp', '--out', os.devnull])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        assert fresh_interpreter_stdout(probe).split() == ["0", "False"]
