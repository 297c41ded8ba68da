"""Tests for the perf subsystem: SweepRunner, result cache and bench report."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import OUROBOROS_NAME, ExperimentSettings
from repro.perf.bench import BenchReport
from repro.perf.sweep import SweepCell, SweepRunner, _cell_key

FAST = ExperimentSettings(num_requests=10, anneal_iterations=5)
CELLS = [SweepCell(model="llama-13b", workload="lp128_ld2048")]


class TestCellKey:
    def test_key_is_deterministic(self):
        assert _cell_key(CELLS[0], FAST) == _cell_key(CELLS[0], FAST)

    def test_key_depends_on_settings(self):
        other = ExperimentSettings(num_requests=11, anneal_iterations=5)
        assert _cell_key(CELLS[0], FAST) != _cell_key(CELLS[0], other)

    def test_key_depends_on_cell(self):
        other = SweepCell(model="llama-13b", workload="wikitext2")
        assert _cell_key(CELLS[0], FAST) != _cell_key(other, FAST)

    def test_key_depends_on_system_restriction(self):
        restricted = SweepCell(model="llama-13b", workload="lp128_ld2048", systems=())
        assert _cell_key(CELLS[0], FAST) != _cell_key(restricted, FAST)

    def test_key_depends_on_arrival_rate(self):
        open_loop = ExperimentSettings(
            num_requests=10, anneal_iterations=5, arrival_rate_per_s=20.0
        )
        assert _cell_key(CELLS[0], FAST) != _cell_key(CELLS[0], open_loop)


class TestSerialRunner:
    def test_grid_contains_all_systems(self):
        runner = SweepRunner(max_workers=1)
        grid = runner.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        cell = grid[("llama-13b", "lp128_ld2048")]
        assert OUROBOROS_NAME in cell
        assert "DGX A100" in cell
        assert len(cell) == 5

    def test_serial_reuses_one_system_per_model(self):
        runner = SweepRunner(max_workers=1)
        grid = runner.run_grid(("llama-13b",), ("wikitext2", "lp128_ld2048"), FAST)
        assert len(grid) == 2
        for cell in grid.values():
            assert cell[OUROBOROS_NAME].total_tokens > 0

    def test_system_restriction_skips_baselines(self):
        runner = SweepRunner(max_workers=1)
        cell = SweepCell(model="llama-13b", workload="lp128_ld2048", systems=())
        results = runner.run_variants(cell, [FAST])[0]
        assert list(results) == [OUROBOROS_NAME]


class TestRunVariants:
    def test_variants_in_input_order(self):
        from dataclasses import replace

        runner = SweepRunner(max_workers=1)
        cell = SweepCell(model="llama-13b", workload="lp128_ld2048", systems=())
        rates = [0.0, 40.0]
        variants = [replace(FAST, arrival_rate_per_s=rate) for rate in rates]
        results = runner.run_variants(cell, variants)
        assert len(results) == 2
        batch, open_loop = (r[OUROBOROS_NAME] for r in results)
        assert batch.latency.count == FAST.num_requests
        # The open-loop variant really served a different trace: arrivals
        # spread the work out, so it cannot finish faster than the batch.
        assert open_loop.total_time_s > batch.total_time_s
        assert open_loop.ttft.p95_s > 0

    def test_variants_hit_the_cache(self, tmp_path):
        from dataclasses import replace

        cell = SweepCell(model="llama-13b", workload="lp128_ld2048", systems=())
        variants = [replace(FAST, arrival_rate_per_s=rate) for rate in (0.0, 40.0)]
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path)
        cold.run_variants(cell, variants)
        assert cold.cache_misses == 2
        warm = SweepRunner(max_workers=1, cache_dir=tmp_path)
        results = warm.run_variants(cell, variants)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert results[0][OUROBOROS_NAME].total_tokens > 0


class TestResultCache:
    def test_cache_round_trip(self, tmp_path):
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path)
        grid_cold = cold.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        assert cold.cache_misses == 1 and cold.cache_hits == 0

        warm = SweepRunner(max_workers=1, cache_dir=tmp_path)
        grid_warm = warm.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        assert warm.cache_hits == 1 and warm.cache_misses == 0

        a = grid_cold[("llama-13b", "lp128_ld2048")][OUROBOROS_NAME]
        b = grid_warm[("llama-13b", "lp128_ld2048")][OUROBOROS_NAME]
        assert a.total_time_s == b.total_time_s
        assert a.energy.total_j == b.energy.total_j

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        runner.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        rerun = SweepRunner(max_workers=1, cache_dir=tmp_path)
        grid = rerun.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        assert rerun.cache_misses == 1
        assert grid[("llama-13b", "lp128_ld2048")][OUROBOROS_NAME].total_tokens > 0

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE_DIR", raising=False)
        runner = SweepRunner(max_workers=1)
        assert runner.cache_dir is None
        runner.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_dir_hashes_no_cell(self, tmp_path, monkeypatch):
        """Without a cache directory no cell key is computed, and the grid
        result is the one a caching run produces."""
        import repro.perf.sweep as sweep

        monkeypatch.delenv("REPRO_RESULT_CACHE_DIR", raising=False)
        runner = SweepRunner(max_workers=1)

        def refuse(*args, **kwargs):
            raise AssertionError("a cell key was hashed with caching off")

        monkeypatch.setattr(sweep, "_cell_key", refuse)
        grid = runner.run_grid(("llama-13b",), ("lp128_ld2048",), FAST)
        assert runner.cache_misses == 1 and runner.cache_hits == 0
        monkeypatch.undo()
        expected = SweepRunner(max_workers=1, cache_dir=tmp_path).run_grid(
            ("llama-13b",), ("lp128_ld2048",), FAST
        )
        for system, result in expected[("llama-13b", "lp128_ld2048")].items():
            ours = grid[("llama-13b", "lp128_ld2048")][system]
            assert ours.as_dict() == result.as_dict()


@pytest.mark.slow
class TestParallelRunner:
    def test_process_pool_matches_serial(self):
        serial = SweepRunner(max_workers=1).run_grid(
            ("llama-13b",), ("wikitext2", "lp128_ld2048"), FAST
        )
        parallel = SweepRunner(max_workers=2).run_grid(
            ("llama-13b",), ("wikitext2", "lp128_ld2048"), FAST
        )
        for key, cell in serial.items():
            for system, result in cell.items():
                assert parallel[key][system].total_time_s == result.total_time_s
                assert parallel[key][system].energy.total_j == result.energy.total_j


class TestBenchReport:
    def test_report_round_trips_to_json(self, tmp_path):
        report = BenchReport(label="unit", num_requests=5)
        report.timings_s["build.x"] = 1.5
        report.timings_s["serve.x"] = 0.5
        path = report.write(tmp_path / "bench.json")
        payload = json.loads(path.read_text())
        assert payload["total_s"] == pytest.approx(2.0)
        assert payload["timings_s"]["build.x"] == 1.5
        assert "unit" in report.format_table()

    def test_stage_records_time_and_host_slowdown(self, tmp_path):
        """A stage records its seconds and the calibration kernel's mean of
        the samples taken before and after it, over the nominal sample."""
        samples = iter([0.003, 0.005])
        report = BenchReport(label="unit", num_requests=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.perf.bench.calibration_kernel", lambda: next(samples)
            )
            with report.stage("serve.x"):
                pass
        assert report.timings_s["serve.x"] >= 0.0
        assert report.meta["host_slowdown"] == {"serve.x": pytest.approx(2.0)}
        payload = json.loads(report.write(tmp_path / "bench.json").read_text())
        assert payload["meta"]["host_slowdown"] == {"serve.x": pytest.approx(2.0)}

    @pytest.mark.slow
    def test_run_bench_smoke(self, tmp_path):
        from repro.perf import run_bench

        report = run_bench(
            num_requests=5, models=("llama-13b",), anneal_iterations=10
        )
        assert "build.llama-13b" in report.timings_s
        assert "headline_grid" in report.timings_s
        assert report.headline["average_speedup"] > 0
        payload = json.loads(report.write(tmp_path / "b.json").read_text())
        assert payload["num_requests"] == 5


class TestCliBench:
    def test_parser_accepts_bench(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--requests", "7", "--output", "x.json"])
        assert args.command == "bench"
        assert args.requests == 7
        assert args.output == "x.json"
