"""Tests for the command-line interface."""

import pytest

from repro import api
from repro.cli import _print_result_row, build_parser, main
from repro.experiments.common import ExperimentSettings


class TestParser:
    def test_summary_args(self):
        args = build_parser().parse_args(["summary", "llama-13b"])
        assert args.command == "summary"
        assert args.model == "llama-13b"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "llama-13b"])
        assert args.workload == "wikitext2"
        assert args.requests == 200
        assert args.arrival_rate == 0.0
        assert not args.baselines

    def test_serve_arrival_rate(self):
        args = build_parser().parse_args(["serve", "llama-13b", "--arrival-rate", "25"])
        assert args.arrival_rate == 25.0

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig11"])
        assert args.figure == "fig11"
        assert build_parser().parse_args(["experiment", "fig22"]).figure == "fig22"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_bench_default_output_is_latest(self):
        args = build_parser().parse_args(["bench"])
        assert args.output == "BENCH_LATEST.json"

    def test_serve_policy_choice(self):
        """serve picks its policy with --tune; client keeps --policy."""
        args = build_parser().parse_args(
            ["serve", "llama-13b", "--tune", "scheduling_policy=wfq"]
        )
        assert args.tune == ["scheduling_policy=wfq"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "llama-13b", "--policy", "wfq"])
        args = build_parser().parse_args(
            ["client", "replay", "llama-13b", "--policy", "wfq"]
        )
        assert args.policy == "wfq"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["client", "replay", "llama-13b", "--policy", "lifo"]
            )

    def test_experiment_fig24_registered(self):
        assert build_parser().parse_args(["experiment", "fig24"]).figure == "fig24"

    def test_serve_system_choice(self):
        args = build_parser().parse_args(["serve", "llama-13b", "--system", "tpu-v4"])
        assert args.system == "tpu-v4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "llama-13b", "--system", "gpu-9000"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "gpt-5"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_summary_command(self, capsys):
        code = main(["summary", "llama-13b", "--anneal", "0"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "weight_cores" in captured
        assert "13,923" in captured or "13923" in captured

    def test_serve_command_small(self, capsys):
        code = main([
            "serve", "llama-13b", "--workload", "lp128_ld2048", "--requests", "5",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "tok/s" in captured
        assert "energy breakdown" in captured

    def test_serve_rejects_baselines_with_arrival_rate(self, capsys):
        code = main([
            "serve", "llama-13b", "--requests", "5",
            "--arrival-rate", "10", "--baselines",
        ])
        assert code == 2
        assert "closed-batch comparison" in capsys.readouterr().err

    def test_serve_tune_matches_api(self, capsys):
        """--tune reaches the policy and shedding fields of the spec."""
        code = main([
            "serve", "llama-13b", "--workload", "wikitext2", "--requests", "30",
            "--arrival-rate", "400", "--tune", "scheduling_policy=wfq",
            "--tune", "max_queue_depth=4", "--tune", "max_active_sequences=2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        spec = ExperimentSettings(
            num_requests=30, arrival_rate_per_s=400.0,
            scheduling_policy="wfq", max_queue_depth=4, max_active_sequences=2,
        ).deployment("llama-13b", "wikitext2")
        result = api.serve(spec)
        assert result.shed_requests > 0  # the queue bound took effect
        _print_result_row(result.system, result)
        row = capsys.readouterr().out
        assert row.strip() and row in out

    def test_serve_tune_rejects_unknown_policy(self, capsys):
        code = main([
            "serve", "llama-13b", "--requests", "5",
            "--tune", "scheduling_policy=lifo",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "lifo" in err

    def test_serve_command_open_loop(self, capsys):
        code = main([
            "serve", "llama-13b", "--requests", "5", "--arrival-rate", "10",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "open-loop at 10 req/s" in captured
        assert "TTFT" in captured

    def test_experiment_fig11(self, capsys):
        code = main(["experiment", "fig11", "--requests", "5", "--anneal", "0"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Fig. 11" in captured
        assert "1/32" in captured

    def test_serve_on_registered_baseline(self, capsys):
        code = main([
            "serve", "llama-13b", "--requests", "5", "--system", "dgx-a100",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "DGX A100" in captured

    def test_experiment_fig18_with_model_restriction(self, capsys):
        code = main([
            "experiment", "fig18", "--requests", "5", "--anneal", "0",
            "--models", "llama-13b",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Fig. 18" in captured
        assert "llama-13b" in captured
