"""Tests for ``scripts/check_bench_regression.py`` — the CI bench gate.

The script is not a package module, so it is loaded straight from its file
path.  Covered: bitwise drift detection on deterministic headline metrics,
the wall-clock tolerance gate, the directional streaming gates
(``stream_requests_per_s`` floor / ``stream_peak_rss_mb`` ceiling), the
warning for deterministic fresh-only keys, the ``num_requests`` and
``stream_requests`` mismatch errors, the ungated per-stage timing deltas,
and ``main()``'s exit codes with explicit ``--fresh``/``--baseline`` files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(headline=None, num_requests=150, total_s=10.0):
    return {
        "num_requests": num_requests,
        "total_s": total_s,
        "headline": headline or {},
    }


class TestCompare:
    def test_identical_reports_pass(self, gate):
        baseline = report({"average_speedup": 1.2345, "open_loop_ttft_p95": 0.6})
        assert gate.compare(baseline, baseline, 0.10) == []

    def test_deterministic_drift_fails_bitwise(self, gate):
        fresh = report({"average_speedup": 1.2345000000000001})
        baseline = report({"average_speedup": 1.2345})
        failures = gate.compare(fresh, baseline, 0.10)
        assert len(failures) == 1
        assert "average_speedup" in failures[0]
        assert "bitwise" in failures[0]

    def test_nondeterministic_keys_not_gated(self, gate):
        fresh = report({"build_s": 3.0})
        baseline = report({"build_s": 1.0})
        assert gate.compare(fresh, baseline, 0.10) == []

    def test_wallclock_regression_fails_past_tolerance(self, gate):
        fresh = report({"average_speedup": 1.0}, total_s=12.0)
        baseline = report({"average_speedup": 1.0}, total_s=10.0)
        failures = gate.compare(fresh, baseline, 0.10)
        assert len(failures) == 1
        assert "wall-clock" in failures[0]

    def test_wallclock_within_tolerance_passes(self, gate):
        fresh = report({"average_speedup": 1.0}, total_s=10.9)
        baseline = report({"average_speedup": 1.0}, total_s=10.0)
        assert gate.compare(fresh, baseline, 0.10) == []
        # A wider tolerance admits the 20% regression that 10% rejects.
        fresh = report({"average_speedup": 1.0}, total_s=12.0)
        assert gate.compare(fresh, baseline, 0.25) == []

    def test_missing_deterministic_fresh_key_warns(self, gate, capsys):
        fresh = report({"average_speedup": 1.0, "fault_goodput": 0.5})
        baseline = report({"average_speedup": 1.0})
        assert gate.compare(fresh, baseline, 0.10) == []
        out = capsys.readouterr().out
        assert "fault_goodput" in out
        assert "absent from the committed baseline" in out

    def test_missing_nondeterministic_fresh_key_silent(self, gate, capsys):
        fresh = report({"average_speedup": 1.0, "anneal_micro_s": 0.5})
        baseline = report({"average_speedup": 1.0})
        assert gate.compare(fresh, baseline, 0.10) == []
        assert "anneal_micro_s" not in capsys.readouterr().out

    def test_num_requests_mismatch_is_an_error(self, gate):
        fresh = report({"average_speedup": 1.0}, num_requests=50)
        baseline = report({"average_speedup": 1.0}, num_requests=150)
        failures = gate.compare(fresh, baseline, 0.10)
        assert len(failures) == 1
        assert "request-count mismatch" in failures[0]
        assert "REPRO_BENCH_REQUESTS=150" in failures[0]

    def test_no_shared_headline_fails(self, gate):
        failures = gate.compare(report({"a": 1}), report({"b": 2}), 0.10)
        assert any("no shared headline" in failure for failure in failures)

    def test_stream_request_count_mismatch_is_an_error(self, gate):
        fresh = report({"average_speedup": 1.0})
        fresh["meta"] = {"stream_requests": 5000}
        baseline = report({"average_speedup": 1.0})
        baseline["meta"] = {"stream_requests": 20000}
        failures = gate.compare(fresh, baseline, 0.10)
        assert len(failures) == 1
        assert "stream-request-count mismatch" in failures[0]
        assert "REPRO_BENCH_STREAM_REQUESTS=20000" in failures[0]

    def test_stream_count_ungated_when_baseline_predates_it(self, gate):
        fresh = report({"average_speedup": 1.0})
        fresh["meta"] = {"stream_requests": 5000}
        baseline = report({"average_speedup": 1.0})
        assert gate.compare(fresh, baseline, 0.10) == []


class TestDirectionalGates:
    def test_stream_sim_keys_are_bitwise(self, gate):
        fresh = report({"stream_sim_total_time_s": 217.5630001})
        baseline = report({"stream_sim_total_time_s": 217.563})
        failures = gate.compare(fresh, baseline, 0.10)
        assert len(failures) == 1
        assert "bitwise" in failures[0]

    def test_throughput_drop_past_tolerance_fails(self, gate):
        fresh = report({"stream_requests_per_s": 400.0})
        baseline = report({"stream_requests_per_s": 1000.0})
        failures = gate.compare(fresh, baseline, 0.50)
        assert len(failures) == 1
        assert "stream_requests_per_s" in failures[0]
        assert "fell below" in failures[0]

    def test_throughput_within_tolerance_passes(self, gate):
        fresh = report({"stream_requests_per_s": 600.0})
        baseline = report({"stream_requests_per_s": 1000.0})
        assert gate.compare(fresh, baseline, 0.50) == []

    def test_throughput_gain_never_fails(self, gate):
        fresh = report({"stream_requests_per_s": 5000.0})
        baseline = report({"stream_requests_per_s": 1000.0})
        assert gate.compare(fresh, baseline, 0.10) == []

    def test_rss_growth_past_tolerance_fails(self, gate):
        fresh = report({"stream_peak_rss_mb": 200.0})
        baseline = report({"stream_peak_rss_mb": 100.0})
        failures = gate.compare(fresh, baseline, 0.50)
        assert len(failures) == 1
        assert "stream_peak_rss_mb" in failures[0]
        assert "exceeded" in failures[0]

    def test_rss_shrink_never_fails(self, gate):
        fresh = report({"stream_peak_rss_mb": 50.0})
        baseline = report({"stream_peak_rss_mb": 100.0})
        assert gate.compare(fresh, baseline, 0.10) == []

    def test_directional_keys_skipped_when_absent(self, gate):
        fresh = report({"average_speedup": 1.0, "stream_peak_rss_mb": 500.0})
        baseline = report({"average_speedup": 1.0})
        assert gate.compare(fresh, baseline, 0.10) == []


class TestDeterministicPrefixes:
    def test_prefix_classification(self, gate):
        assert gate.is_deterministic("average_speedup")
        assert gate.is_deterministic("slo_goodput_interactive")
        assert gate.is_deterministic("open_loop_ttft_p95_s")
        assert gate.is_deterministic("fault_recovered_sequences")
        assert not gate.is_deterministic("build_s")
        assert not gate.is_deterministic("total_s")

    def test_pick_latest_selects_highest_pr(self, gate):
        names = ["BENCH_PR2.json", "BENCH_PR10.json", "BENCH_LATEST.json",
                 "notes.txt"]
        assert gate._pick_latest(names) == "BENCH_PR10.json"
        assert gate._pick_latest(["README.md"]) is None


class TestMain:
    def write(self, path, data):
        path.write_text(json.dumps(data))
        return str(path)

    def test_passing_gate_exits_zero(self, gate, tmp_path, capsys):
        fresh = self.write(tmp_path / "fresh.json",
                           report({"average_speedup": 1.5}))
        baseline = self.write(tmp_path / "base.json",
                              report({"average_speedup": 1.5}))
        code = gate.main(["--fresh", fresh, "--baseline", baseline])
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_drift_exits_one(self, gate, tmp_path, capsys):
        fresh = self.write(tmp_path / "fresh.json",
                           report({"average_speedup": 1.5}))
        baseline = self.write(tmp_path / "base.json",
                              report({"average_speedup": 1.6}))
        code = gate.main(["--fresh", fresh, "--baseline", baseline])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_fresh_report_exits_two(self, gate, tmp_path):
        baseline = self.write(tmp_path / "base.json", report())
        code = gate.main(["--fresh", str(tmp_path / "nope.json"),
                          "--baseline", baseline])
        assert code == 2

    def test_missing_baseline_report_exits_two(self, gate, tmp_path):
        fresh = self.write(tmp_path / "fresh.json", report())
        code = gate.main(["--fresh", fresh,
                          "--baseline", str(tmp_path / "nope.json")])
        assert code == 2

    def test_wallclock_tolerance_flag_respected(self, gate, tmp_path):
        fresh = self.write(tmp_path / "fresh.json",
                           report({"average_speedup": 1.0}, total_s=14.0))
        baseline = self.write(tmp_path / "base.json",
                              report({"average_speedup": 1.0}, total_s=10.0))
        assert gate.main(["--fresh", fresh, "--baseline", baseline]) == 1
        assert gate.main(["--fresh", fresh, "--baseline", baseline,
                          "--wallclock-tolerance", "0.5"]) == 0


class TestStageDeltas:
    def test_one_line_per_stage_with_the_change(self, gate):
        fresh = report()
        fresh["timings_s"] = {"build.llama-13b": 0.03, "serve.x": 0.5, "new": 1.0}
        baseline = report()
        baseline["timings_s"] = {"build.llama-13b": 0.05, "serve.x": 0.5, "old": 2.0}
        assert gate.stage_deltas(fresh, baseline) == [
            "build.llama-13b: 0.0500 s -> 0.0300 s (-40.0%)",
            "new: 1.0000 s (new stage)",
            "old: not run (committed 2.0000 s)",
            "serve.x: 0.5000 s -> 0.5000 s (+0.0%)",
        ]

    def test_zero_baseline_stage_has_no_ratio(self, gate):
        fresh = report()
        fresh["timings_s"] = {"s": 0.1}
        baseline = report()
        baseline["timings_s"] = {"s": 0.0}
        assert gate.stage_deltas(fresh, baseline) == ["s: 0.0000 s -> 0.1000 s (n/a)"]

    def test_reports_without_stages_print_nothing(self, gate):
        assert gate.stage_deltas(report(), report()) == []

    def test_host_normalised_change_beside_the_raw_one(self, gate):
        """Both reports sampled the host: the change divides each side's
        seconds by its slowdown.  A stage either report did not sample, or
        a report from before the samples, prints the raw change alone."""
        fresh = report()
        fresh["timings_s"] = {"serve.x": 0.6, "build.y": 0.3, "grid": 1.0}
        fresh["meta"] = {"host_slowdown": {"serve.x": 1.5, "grid": 1.0}}
        baseline = report()
        baseline["timings_s"] = {"serve.x": 0.5, "build.y": 0.3, "grid": 1.0}
        baseline["meta"] = {"host_slowdown": {"serve.x": 1.0, "build.y": 1.2}}
        assert gate.stage_deltas(fresh, baseline) == [
            "build.y: 0.3000 s -> 0.3000 s (+0.0%)",
            "grid: 1.0000 s -> 1.0000 s (+0.0%)",
            "serve.x: 0.5000 s -> 0.6000 s (+20.0%; host-normalised -20.0%)",
        ]
        del baseline["meta"]
        assert gate.stage_deltas(fresh, baseline)[-1] == (
            "serve.x: 0.5000 s -> 0.6000 s (+20.0%)"
        )

    def test_main_prints_deltas_and_never_gates_on_them(self, gate, tmp_path, capsys):
        fresh = report({"average_speedup": 1.5})
        fresh["timings_s"] = {"build.llama-13b": 5.0}
        baseline = report({"average_speedup": 1.5})
        baseline["timings_s"] = {"build.llama-13b": 0.05}
        paths = []
        for name, data in (("fresh.json", fresh), ("base.json", baseline)):
            (tmp_path / name).write_text(json.dumps(data))
            paths.append(str(tmp_path / name))
        code = gate.main(["--fresh", paths[0], "--baseline", paths[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "information only, not gated" in out
        assert "build.llama-13b: 0.0500 s -> 5.0000 s (+9900.0%)" in out
        assert "passed" in out
