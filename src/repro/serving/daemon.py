"""The live serving daemon behind ``repro serve --daemon``.

An asyncio loop owns a built deployment and accepts the newline-delimited
JSON protocol (:mod:`repro.serving.protocol`) on a local TCP socket.  The
engine runs the ordinary epoch loop in a worker thread, fed through a
:class:`~repro.serving.feed.LiveArrivalFeed`; the daemon ingests arrivals as
they land and the engine advances in epoch steps interleaved with ingestion,
never simulating past what connected clients have promised.  Draining a
replayed spec trace therefore returns the batch ``serve(spec)`` result bit
for bit — the daemon is an ingestion frontend over the same engine, not a
fork of it.

``checkpoint_signals`` (the CLI's ``--checkpoint-on SIGTERM``) wires
PR 6's :class:`~repro.pipeline.checkpoint.EngineCheckpoint` into graceful
restarts: on the signal the engine captures at its next epoch boundary and
stops, and the daemon writes a checkpoint file that embeds the engine
snapshot plus the ingestion state (accepted requests, watermark), from which
``repro serve --daemon --resume`` continues bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import api
from ..core.system import OuroborosSystem
from ..errors import ConfigurationError, ProtocolError
from ..pipeline.checkpoint import EngineCheckpoint
from ..results import RunResult
from ..workload.generator import Trace
from ..workload.requests import Request
from .feed import LiveArrivalFeed
from .protocol import (
    CHECKPOINT_FILE_VERSION,
    CHECKPOINT_KIND,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    request_from_dict,
    request_to_dict,
)
from .telemetry import TelemetryHub


def load_daemon_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a daemon checkpoint file written by ``checkpoint``."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read daemon checkpoint '{path}': {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("kind") != CHECKPOINT_KIND:
        raise ConfigurationError(
            f"'{path}' is not a daemon checkpoint file (try --resume on the "
            "file written by the daemon's checkpoint operation)"
        )
    if payload.get("version") != CHECKPOINT_FILE_VERSION:
        raise ConfigurationError(
            f"daemon checkpoint version {payload.get('version')!r} is not "
            f"supported (expected {CHECKPOINT_FILE_VERSION})"
        )
    return payload


class ServingDaemon:
    """One serving daemon: a deployment, an engine thread, a protocol server."""

    def __init__(
        self,
        spec: api.DeploymentSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        scalar: bool = False,
        window_s: float = 60.0,
        checkpoint_path: str = "daemon-checkpoint.json",
        checkpoint_signals: tuple[str, ...] = (),
        resume_payload: Mapping[str, Any] | None = None,
        announce: Callable[[str], None] | None = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.host = host
        self.port = port
        self.scalar = scalar
        self.window_s = window_s
        self.checkpoint_path = checkpoint_path
        self.checkpoint_signals = checkpoint_signals
        self.announce = announce
        #: bound (host, port) once the server is listening
        self.address: tuple[str, int] | None = None
        #: set once the server is listening (fleet threads wait on it)
        self.ready = threading.Event()
        #: set when the daemon loop has fully exited
        self.finished = threading.Event()
        self.result: RunResult | None = None
        self.stop_checkpoint: EngineCheckpoint | None = None
        self.error: BaseException | None = None

        self._resume_checkpoint: EngineCheckpoint | None = None
        self._resume_requests: list[Request] = []
        self._resume_watermark = 0.0
        self._resume_drained = False
        if resume_payload is not None:
            self._load_resume(resume_payload)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._feed: LiveArrivalFeed | None = None
        self._hub: TelemetryHub | None = None
        self._engine_done: asyncio.Event | None = None
        self._events_ready: asyncio.Event | None = None
        self._shutdown: asyncio.Event | None = None
        self._subscribers: list[asyncio.StreamWriter] = []

    # --------------------------------------------------------------- lifecycle

    def run(self) -> None:
        """Run the daemon to completion (blocking; asyncio.run wrapper)."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self.error = self.error or exc
            self.ready.set()
            raise
        finally:
            self.finished.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._engine_done = asyncio.Event()
        self._events_ready = asyncio.Event()
        self._shutdown = asyncio.Event()

        system = api.build_deployment(self.spec)
        if not isinstance(system, OuroborosSystem):
            raise ConfigurationError(
                f"{api.get_system(self.spec.system).display_name} does not "
                "support live serving; use an Ouroboros-family system."
            )
        trace = self._make_live_trace()
        self._hub = TelemetryHub(window_s=self.window_s, slo_for=trace.slo_for)
        self._feed = LiveArrivalFeed(
            watermark=self._resume_watermark,
            known=self._resume_requests,
            pending=[
                request for request in self._resume_requests
                if request.request_id not in {r.request_id
                                              for r in trace.requests}
            ],
            telemetry=self._hub,
            notifier=self._wake_from_engine,
        )
        if self._resume_drained:
            self._feed.drain()

        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockname = server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        self._install_signal_handlers(loop)

        engine_thread = threading.Thread(
            target=self._engine_main,
            args=(system, trace, self._feed),
            name="repro-engine",
            daemon=True,
        )
        engine_thread.start()
        if self.announce is not None:
            self.announce(
                f"repro daemon listening on {self.address[0]}:{self.address[1]}"
            )
        self.ready.set()

        pump = loop.create_task(self._pump_events())
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            pump.cancel()
            for writer in list(self._subscribers):
                writer.close()

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        if not self.checkpoint_signals:
            return
        if threading.current_thread() is not threading.main_thread():
            return  # signal handlers only exist on the main thread
        for name in self.checkpoint_signals:
            signum = getattr(signal, name, None)
            if signum is None:
                raise ConfigurationError(f"unknown signal name '{name}'")
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(self._checkpoint_and_stop()),
            )

    async def _checkpoint_and_stop(self) -> None:
        """Signal path: capture at the next epoch boundary, persist, exit."""
        assert self._feed is not None and self._engine_done is not None
        if not self._engine_done.is_set():
            request = self._feed.request_checkpoint(stop=True)
            await asyncio.to_thread(request.done.wait)
            if request.checkpoint is not None:
                self._write_checkpoint_file(self.checkpoint_path,
                                            request.checkpoint)
                if self.announce is not None:
                    self.announce(
                        f"checkpoint written to {self.checkpoint_path}; "
                        "resume with --daemon --resume"
                    )
            await self._engine_done.wait()
        assert self._shutdown is not None
        self._shutdown.set()

    # ------------------------------------------------------------ engine thread

    def _engine_main(
        self, system: Any, trace: Trace, feed: LiveArrivalFeed
    ) -> None:
        try:
            faults = self.spec.faults
            fault_plan = faults if faults is not None and len(faults) else None
            outcome = system.serve(
                trace,
                workload_name=self.spec.label(),
                arrival_feed=feed,
                fault_plan=fault_plan,
                resume_from=self._resume_checkpoint,
                scalar=self.scalar,
            )
            if isinstance(outcome, EngineCheckpoint):
                self.stop_checkpoint = outcome
            else:
                outcome.system = api.get_system(self.spec.system).display_name
                self.result = outcome
        except BaseException as exc:
            self.error = exc
        finally:
            feed.fail_pending_checkpoints("the engine already exited")
            loop = self._loop
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(self._on_engine_done)
                except RuntimeError:
                    pass  # loop already closed (shutdown race)

    def _on_engine_done(self) -> None:
        assert self._engine_done is not None and self._events_ready is not None
        self._engine_done.set()
        self._events_ready.set()

    def _wake_from_engine(self) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._set_events_ready)
        except RuntimeError:
            pass  # loop already closed (shutdown race)

    def _set_events_ready(self) -> None:
        assert self._events_ready is not None
        self._events_ready.set()

    # ------------------------------------------------------------- trace/resume

    def _make_live_trace(self) -> Trace:
        """The spec's trace shell: SLO metadata intact, requests live-fed.

        The metadata comes from :func:`api.stream_for` so slo / tenant_slos /
        tenant_quotas / workload spec are byte-identical to the batch path;
        no request is popped from it — the engine appends requests as the
        feed releases them.  On resume the requests already inside the engine
        checkpoint are restored here (the checkpoint restore path resolves
        sequences against the trace).
        """
        stream = api.stream_for(self.spec)
        trace = Trace(
            spec=stream.spec,
            slo=stream.slo,
            tenant_slos=dict(stream.tenant_slos),
            tenant_quotas=dict(stream.tenant_quotas),
        )
        if self._resume_checkpoint is not None:
            restored_ids = {seq_id for seq_id, _ in
                            self._resume_checkpoint.sequences}
            trace.requests = [
                request for request in self._resume_requests
                if request.request_id in restored_ids
            ]
        return trace

    def _load_resume(self, payload: Mapping[str, Any]) -> None:
        spec_dict = payload.get("spec")
        if spec_dict != self.spec.to_dict():
            raise ConfigurationError(
                "the daemon checkpoint was written for a different deployment "
                "spec; start the resumed daemon with the same spec"
            )
        self._resume_checkpoint = EngineCheckpoint.from_dict(
            dict(payload["checkpoint"])
        )
        self._resume_requests = [
            request_from_dict(data) for data in payload["requests"]
        ]
        self._resume_watermark = float(payload.get("watermark", 0.0))
        self._resume_drained = bool(payload.get("drained", False))

    def _write_checkpoint_file(
        self, path: str, checkpoint: EngineCheckpoint
    ) -> None:
        assert self._feed is not None
        payload = {
            "kind": CHECKPOINT_KIND,
            "version": CHECKPOINT_FILE_VERSION,
            "spec": self.spec.to_dict(),
            "watermark": self._feed.watermark(),
            "drained": self._feed.is_drained(),
            "requests": [
                request_to_dict(request)
                for request in self._feed.known_requests()
            ],
            "checkpoint": checkpoint.as_dict(),
        }
        Path(path).write_text(json.dumps(payload))

    # --------------------------------------------------------------- protocol

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._feed is not None
        stream_id: int | None = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    await self._reply(writer, {"ok": False, "error": str(exc)})
                    continue
                op = str(message.get("op", ""))
                try:
                    if op == "submit":
                        if stream_id is None:
                            stream_id = self._feed.open_stream()
                        reply = self._op_submit(stream_id, message)
                    elif op == "begin_stream":
                        if stream_id is None:
                            stream_id = self._feed.open_stream()
                        reply = {"ok": True, "watermark": self._feed.watermark()}
                    elif op == "end_stream":
                        if stream_id is not None:
                            self._feed.end_stream(stream_id)
                            stream_id = None
                        reply = {"ok": True}
                    elif op == "hello":
                        reply = self._op_hello()
                    elif op == "status":
                        reply = self._op_status()
                    elif op == "metrics":
                        assert self._hub is not None
                        reply = {"ok": True, "metrics": self._hub.metrics()}
                    elif op == "subscribe":
                        self._subscribers.append(writer)
                        reply = {"ok": True, "subscribed": True}
                    elif op == "checkpoint":
                        reply = await self._op_checkpoint(message)
                        if reply.get("ok") and reply.get("stop"):
                            # The engine is gone; the daemon cannot serve
                            # again, so exit once the reply is on the wire
                            # (mirrors the SIGTERM checkpoint path).
                            await self._reply(writer, reply)
                            assert self._shutdown is not None
                            self._shutdown.set()
                            break
                    elif op == "drain":
                        if stream_id is not None:
                            self._feed.end_stream(stream_id)
                            stream_id = None
                        reply = await self._op_drain()
                    elif op == "shutdown":
                        await self._reply(writer, {"ok": True})
                        assert self._shutdown is not None
                        self._shutdown.set()
                        break
                    else:
                        reply = {"ok": False, "error": f"unknown op '{op}'"}
                except (ProtocolError, ConfigurationError, ValueError) as exc:
                    reply = {"ok": False, "error": str(exc)}
                await self._reply(writer, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if stream_id is not None:
                self._feed.end_stream(stream_id)
            if writer in self._subscribers:
                self._subscribers.remove(writer)
            writer.close()

    async def _reply(
        self, writer: asyncio.StreamWriter, payload: Mapping[str, Any]
    ) -> None:
        writer.write(encode_message(payload))
        await writer.drain()

    def _op_hello(self) -> dict[str, Any]:
        return {
            "ok": True,
            "server": "repro-daemon",
            "protocol": PROTOCOL_VERSION,
            "model": self.spec.model,
            "system": self.spec.system,
            "policy": self.spec.config.pipeline.scheduling_policy,
            "scalar": self.scalar,
        }

    def _op_submit(
        self, stream_id: int, message: Mapping[str, Any]
    ) -> dict[str, Any]:
        assert self._feed is not None
        payload = message.get("request")
        if not isinstance(payload, dict):
            raise ProtocolError("submit needs a 'request' object")
        request = request_from_dict(payload)
        accepted = self._feed.submit(stream_id, request)
        return {
            "ok": True,
            "request_id": request.request_id,
            "duplicate": not accepted,
        }

    def _op_status(self) -> dict[str, Any]:
        assert (self._feed is not None and self._hub is not None
                and self._engine_done is not None)
        if self.error is not None:
            state = "failed"
        elif self._engine_done.is_set():
            state = "finished"
        elif self._feed.is_drained():
            state = "draining"
        else:
            state = "serving"
        status: dict[str, Any] = {
            "state": state,
            "watermark": self._feed.watermark(),
            "drained": self._feed.is_drained(),
            "ingested": len(self._feed.known_requests()),
        }
        status.update(self._hub.counters())
        if self.error is not None:
            status["error"] = str(self.error)
        return {"ok": True, "status": status}

    async def _op_checkpoint(
        self, message: Mapping[str, Any]
    ) -> dict[str, Any]:
        assert self._feed is not None and self._engine_done is not None
        if self._engine_done.is_set():
            return {"ok": False,
                    "error": "the engine already finished; nothing to checkpoint"}
        path = str(message.get("path") or self.checkpoint_path)
        stop = bool(message.get("stop", False))
        request = self._feed.request_checkpoint(stop=stop)
        await asyncio.to_thread(request.done.wait)
        if request.checkpoint is None:
            return {"ok": False,
                    "error": request.error or "checkpoint was not captured"}
        self._write_checkpoint_file(path, request.checkpoint)
        reply = {
            "ok": True,
            "path": path,
            "stop": stop,
            "epoch": request.checkpoint.next_epoch_index,
            "time_s": request.checkpoint.time_s,
        }
        if stop:
            await self._engine_done.wait()
        return reply

    async def _op_drain(self) -> dict[str, Any]:
        assert self._feed is not None and self._engine_done is not None
        self._feed.drain()
        await self._engine_done.wait()
        if self.error is not None:
            return {"ok": False, "error": str(self.error)}
        if self.result is None:
            return {"ok": False,
                    "error": "the engine stopped on a checkpoint, not a drain"}
        return {"ok": True, "result": self.result.as_dict()}

    # ----------------------------------------------------------- event pushing

    async def _pump_events(self) -> None:
        """Push telemetry events to subscribers as the engine produces them."""
        assert (self._events_ready is not None and self._hub is not None
                and self._engine_done is not None)
        finished_sent = False
        while True:
            await self._events_ready.wait()
            self._events_ready.clear()
            events = self._hub.pop_events()
            if self._engine_done.is_set() and not finished_sent:
                finished_sent = True
                events.append({
                    "event": "finished",
                    "ok": self.error is None,
                    "drained": self.result is not None,
                })
            if events:
                data = b"".join(encode_message(event) for event in events)
                for writer in list(self._subscribers):
                    try:
                        writer.write(data)
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        if writer in self._subscribers:
                            self._subscribers.remove(writer)
