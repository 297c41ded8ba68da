"""Tests for the live serving subsystem: feed, telemetry, daemon, client.

The load-bearing property under test: replaying a spec's trace into a live
daemon and draining reproduces the batch ``serve(spec)`` result **bit for
bit** — across both engine paths, every scheduling policy, a mid-run
checkpoint/restart, and concurrent multi-client ingestion.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import api
from repro.errors import ProtocolError
from repro.experiments.common import ExperimentSettings
from repro.results import TenantStats
from repro.serving import (
    PROTOCOL_VERSION,
    DaemonFleet,
    LiveArrivalFeed,
    decode_message,
    load_daemon_checkpoint,
    request_from_dict,
    request_to_dict,
    serve_via_daemon,
    start_daemon,
)
from repro.workload.requests import Request

POLICIES = ("fcfs", "wfq", "priority")


def make_request(request_id: int, arrival: float = 0.0) -> Request:
    return Request(
        request_id=request_id,
        prefill_length=8,
        decode_length=4,
        arrival_time=arrival,
    )


def spec_for(policy: str, requests: int = 8) -> api.DeploymentSpec:
    builder = (
        api.deployment("llama-13b")
        .workload("lp128_ld2048")
        .requests(requests)
        .arrival_rate(20.0)
    )
    if policy != "fcfs":
        builder = builder.scheduler(policy)
    return builder.build()


_BATCH: dict[str, dict] = {}


def batch_result(policy: str) -> dict:
    """The batch serve(spec) result dict, computed once per policy."""
    if policy not in _BATCH:
        _BATCH[policy] = api.serve(spec_for(policy)).as_dict()
    return _BATCH[policy]


def trace_requests(spec: api.DeploymentSpec) -> list[Request]:
    return sorted(
        api.trace_for(spec).requests,
        key=lambda r: (r.arrival_time, r.request_id),
    )


class TestLiveArrivalFeed:
    def test_watermark_is_min_over_open_streams(self):
        feed = LiveArrivalFeed()
        first = feed.open_stream()
        second = feed.open_stream()
        assert feed.submit(first, make_request(1, arrival=5.0))
        # the second stream has promised nothing yet: global watermark holds
        assert feed.watermark() == 0.0
        assert feed.take_released() == []
        assert feed.submit(second, make_request(2, arrival=3.0))
        assert feed.watermark() == 3.0
        assert [r.request_id for r in feed.take_released()] == [2]
        assert feed.submit(second, make_request(3, arrival=6.0))
        assert feed.watermark() == 5.0
        assert [r.request_id for r in feed.take_released()] == [1]

    def test_ending_a_lagging_stream_advances_the_watermark(self):
        feed = LiveArrivalFeed()
        ahead = feed.open_stream()
        behind = feed.open_stream()
        feed.submit(ahead, make_request(1, arrival=10.0))
        assert feed.watermark() == 0.0
        feed.end_stream(behind)
        assert feed.watermark() == 10.0
        assert [r.request_id for r in feed.take_released()] == [1]
        # monotone: a fresh stream opens at the current watermark, it cannot
        # drag the promise backwards
        feed.open_stream()
        assert feed.watermark() == 10.0

    def test_release_order_matches_the_batch_generator(self):
        feed = LiveArrivalFeed()
        fast = feed.open_stream()
        slow = feed.open_stream()  # holds the global watermark at 0
        # buffered out of id order behind the slow stream's missing promise
        feed.submit(fast, make_request(7, arrival=1.0))
        feed.submit(fast, make_request(3, arrival=2.0))
        feed.submit(fast, make_request(5, arrival=2.0))
        assert [r.request_id for r in feed.take_released()] == []
        feed.submit(slow, make_request(9, arrival=4.0))
        # coverage jumped to min(2.0, 4.0): released sorted by
        # (arrival_time, request_id) — the order a batch generator emits
        assert [r.request_id for r in feed.take_released()] == [7, 3, 5]

    def test_arrival_already_covered_releases_immediately(self):
        feed = LiveArrivalFeed(watermark=5.0)
        stream = feed.open_stream()
        feed.submit(stream, make_request(1, arrival=2.0))
        assert [r.request_id for r in feed.take_released()] == [1]

    def test_duplicate_request_ids_are_ignored(self):
        feed = LiveArrivalFeed()
        stream = feed.open_stream()
        assert feed.submit(stream, make_request(1)) is True
        assert feed.submit(stream, make_request(1)) is False
        feed.drain()
        assert [r.request_id for r in feed.take_released()] == [1]
        assert len(feed.known_requests()) == 1

    def test_drain_releases_everything_and_closes_submission(self):
        feed = LiveArrivalFeed()
        stream = feed.open_stream()
        feed.submit(stream, make_request(1, arrival=99.0))
        assert not feed.is_drained()
        feed.drain()
        assert feed.is_drained()
        assert [r.request_id for r in feed.take_released()] == [1]
        assert feed.is_finished()
        with pytest.raises(ValueError):
            feed.submit(stream, make_request(2))

    def test_wait_ready_is_interrupted_by_a_checkpoint_request(self):
        feed = LiveArrivalFeed()
        feed.open_stream()
        outcome: list[bool] = []
        waiter = threading.Thread(
            target=lambda: outcome.append(feed.wait_ready(None))
        )
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()  # blocked: nothing released, not drained
        request = feed.request_checkpoint()
        waiter.join(timeout=10.0)
        assert outcome == [False]
        assert feed.take_checkpoint_request() is request

    def test_failing_pending_checkpoints_unblocks_the_daemon_side(self):
        feed = LiveArrivalFeed()
        request = feed.request_checkpoint(stop=True)
        feed.fail_pending_checkpoints("engine exited")
        assert request.done.is_set()
        assert request.checkpoint is None
        assert request.error == "engine exited"


class TestProtocol:
    def test_request_round_trip(self):
        request = Request(
            request_id=7, prefill_length=128, decode_length=32,
            arrival_time=1.5, tenant="batchy", weight=2.0, priority=3,
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_minimal_payload_uses_request_defaults(self):
        rebuilt = request_from_dict(
            {"request_id": 1, "prefill_length": 8, "decode_length": 4}
        )
        assert rebuilt.arrival_time == 0.0
        assert rebuilt.weight == 1.0

    def test_invalid_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            request_from_dict({"request_id": 1})  # missing lengths
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")


class TestDaemonParity:
    @pytest.mark.parametrize("scalar", [False, True], ids=["fast", "scalar"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_daemon_replay_matches_batch(self, policy, scalar):
        assert serve_via_daemon(spec_for(policy), scalar=scalar) == batch_result(policy)

    def test_concurrent_multi_client_ingestion_matches_batch(self):
        spec = spec_for("fcfs")
        requests = trace_requests(spec)
        num_clients = 3
        with start_daemon(spec) as handle:
            clients = [handle.client() for _ in range(num_clients)]
            # register every stream's promise before anyone can advance the
            # watermark — a late-opening stream could otherwise only promise
            # from the frontier its peers already reached
            for client in clients:
                client.begin_stream()
            barrier = threading.Barrier(num_clients)
            errors: list[BaseException] = []

            def pump(index: int) -> None:
                try:
                    barrier.wait()
                    # round-robin split; each stream submits in arrival order
                    for request in requests[index::num_clients]:
                        clients[index].submit(request)
                    clients[index].end_stream()
                except BaseException as exc:  # surfaced after the join
                    errors.append(exc)

            threads = [
                threading.Thread(target=pump, args=(index,))
                for index in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors
            with handle.client() as drainer:
                result = drainer.drain()
            for client in clients:
                client.close()
        assert result == batch_result("fcfs")

    def test_checkpoint_restart_drain_matches_batch(self, tmp_path):
        spec = spec_for("wfq")
        requests = trace_requests(spec)
        path = str(tmp_path / "daemon-ckpt.json")
        with start_daemon(spec, checkpoint_path=path) as handle:
            with handle.client() as client:
                for request in requests:
                    client.submit(request)
                # Let the engine commit an epoch before interrupting it.  No
                # request can complete first (lp128_ld2048 decodes 2,048
                # tokens and the watermark parks the engine long before), so
                # wait for the clock to move -- what the asserts below need.
                deadline = time.monotonic() + 60.0
                while client.status()["time_s"] <= 0.0:
                    assert time.monotonic() < deadline, "no epoch was committed"
                    time.sleep(0.01)
                info = client.checkpoint(stop=True)
                assert info["stop"] is True
                assert info["time_s"] > 0.0
            # a stop-checkpoint retires the daemon itself, not just the
            # engine: it must exit without an explicit shutdown op
            assert handle.daemon.finished.wait(timeout=60.0)
        payload = load_daemon_checkpoint(path)
        assert payload["requests"]  # ingestion state rides along
        with start_daemon(spec, resume_payload=payload) as resumed:
            with resumed.client() as client:
                result = client.drain()
        assert result == batch_result("wfq")

    def test_fleet_matches_batch_per_spec(self):
        specs = [spec_for("fcfs"), spec_for("priority")]
        results = DaemonFleet(specs).run()
        assert results == [batch_result("fcfs"), batch_result("priority")]

    def test_sweep_runner_daemon_mode(self):
        from repro.perf import SweepRunner

        runner = SweepRunner(max_workers=2)
        assert runner.run_specs_daemon([spec_for("fcfs")]) == [batch_result("fcfs")]


class TestDaemonProtocolSurface:
    def test_hello_status_duplicates_and_errors(self):
        spec = spec_for("fcfs")
        request = trace_requests(spec)[0]
        with start_daemon(spec) as handle:
            with handle.client() as client:
                hello = client.hello()
                assert hello["protocol"] == PROTOCOL_VERSION
                assert hello["model"] == spec.model
                first = client.submit(request)
                assert first["duplicate"] is False
                again = client.submit(request)
                assert again["duplicate"] is True
                status = client.status()
                assert status["state"] == "serving"
                assert status["ingested"] == 1
                with pytest.raises(ProtocolError, match="unknown op"):
                    client.call("frobnicate")
                with pytest.raises(ProtocolError, match="invalid request"):
                    client.submit({"request_id": 99})
                # a malformed line gets an error reply, not a dropped daemon
                client._file.write(b"not json\n")
                client._file.flush()
                reply = decode_message(client._file.readline())
                assert reply["ok"] is False
                assert client.status()["ingested"] == 1  # still alive

    def test_live_metrics_shape_matches_tenant_stats_and_events_stream(self):
        spec = spec_for("fcfs")
        with start_daemon(spec) as handle:
            subscriber = handle.client()
            subscriber.subscribe()
            events: list[dict] = []
            collector = threading.Thread(
                target=lambda: events.extend(subscriber.events())
            )
            collector.start()
            with handle.client() as client:
                for request in trace_requests(spec):
                    client.submit(request)
                client.end_stream()
                client.drain()
            collector.join(timeout=120.0)
            subscriber.close()
            with handle.client() as client:
                metrics = client.metrics()
                status = client.status()
        assert status["state"] == "finished"
        assert status["completed"] == spec.num_requests
        expected_keys = set(TenantStats().as_dict())
        assert set(metrics["aggregate"]) == expected_keys
        assert metrics["tenants"]
        for stats in metrics["tenants"].values():
            assert set(stats) == expected_keys
        completions = [e for e in events if e["event"] == "completion"]
        assert len(completions) == spec.num_requests
        assert events[-1]["event"] == "finished"
        assert events[-1]["drained"] is True

    def test_cli_client_replay_against_running_daemon(self, capsys):
        from repro.cli import main

        settings = ExperimentSettings(num_requests=6, arrival_rate_per_s=20.0)
        spec = settings.deployment("llama-13b", "lp128_ld2048")
        with start_daemon(spec) as handle:
            code = main([
                "client", "replay", "llama-13b",
                "--workload", "lp128_ld2048",
                "--requests", "6", "--arrival-rate", "20",
                "--connect", f"{handle.host}:{handle.port}",
            ])
        assert code == 0
        assert "tok/s" in capsys.readouterr().out


class TestSatellites:
    def test_batch_tenant_stats_carry_queue_depth_and_admission_wait(self):
        result = api.serve(spec_for("fcfs"))
        assert result.tenants
        for stats in result.tenants.values():
            assert stats.queue_depth == 0  # a drained run holds nothing back
            assert stats.admission_wait.count == stats.requests
        payload = next(iter(result.as_dict()["tenants"].values()))
        assert "queue_depth" in payload
        assert "admission_wait" in payload

    def test_live_trace_shell_pops_no_request(self, monkeypatch):
        """The daemon's empty trace shell carries the batch trace's metadata
        without generating (and throwing away) the spec's requests."""
        from repro.serving.daemon import ServingDaemon
        from repro.workload.streams import RequestStream

        spec = (
            api.deployment("llama-13b")
            .tenant("chat", "lp48_ld16", 50, 12.0,
                    slo=api.SLOTarget(ttft_s=0.6), kv_quota=0.25)
            .tenant("batch", "lp96_ld32", 20, 2.0)
            .slo(latency_s=8.0)
            .build()
        )
        expected = api.trace_for(spec)

        def refuse(self):
            raise AssertionError("the live trace shell popped a request")

        monkeypatch.setattr(RequestStream, "pop", refuse)
        shell = ServingDaemon(spec)._make_live_trace()
        assert shell.requests == []
        for field in ("spec", "slo", "tenant_slos", "tenant_quotas"):
            assert getattr(shell, field) == getattr(expected, field)
        assert shell.tenant_slos and shell.tenant_quotas

    def test_build_deployment_memo_is_thread_safe(self):
        api.clear_system_cache()
        spec = spec_for("fcfs")
        workers = 8
        systems: list[object] = [None] * workers
        barrier = threading.Barrier(workers)

        def build(index: int) -> None:
            barrier.wait()
            systems[index] = api.build_deployment(spec)

        threads = [
            threading.Thread(target=build, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert all(system is not None for system in systems)
        # the first finisher wins the memo slot; everyone else adopts it
        assert len({id(system) for system in systems}) == 1
        assert api.build_deployment(spec) is systems[0]
