"""Command-line interface for the Ouroboros reproduction.

Four sub-commands cover the workflows a downstream user needs:

``summary``
    Build a deployment for a model and print its core/KV/pipeline summary.

``serve``
    Serve one of the paper's workloads on Ouroboros (and optionally the
    baselines) and print throughput, energy per token and the energy
    breakdown.  ``--arrival-rate R`` switches to open-loop serving: requests
    arrive as a Poisson process at R requests/s and the report adds TTFT and
    end-to-end latency percentiles.  ``--system`` serves on any registered
    system (``python -m repro serve llama-13b --system tpu-v4``).

``serve --daemon``
    Run the deployment as a live serving daemon instead of a batch run: an
    asyncio loop listening on a local TCP socket (``--listen HOST:PORT``,
    port 0 picks a free one) for the newline-delimited JSON protocol in
    :mod:`repro.serving.protocol`.  Requests feed the engine's admission
    queue as they land; draining a replayed spec trace reproduces the batch
    result bit for bit.  ``--checkpoint-on SIGTERM`` captures an engine
    checkpoint and exits cleanly on the signal; ``--daemon --resume FILE``
    continues from the written file.

``client``
    Talk to a running daemon: ``replay`` streams a spec's trace and drains
    (``--spawn`` boots a daemon subprocess first and shuts it down after),
    ``status`` / ``metrics`` query it, ``checkpoint`` / ``drain`` /
    ``shutdown`` control it.

``experiment``
    Regenerate one of the paper's figures (``fig01`` ... ``fig24``,
    ``headline`` or ``all``) and print the regenerated rows.  ``fig22``
    (open-loop arrival-rate sweep), ``fig23`` (multi-tenant SLO goodput
    vs. offered load) and ``fig24`` (scheduling-policy comparison under the
    fig23 sweep) go beyond the paper's own figures.

``bench``
    Time the headline experiments stage by stage (system build, serving,
    the comparison grid, the mapping annealer) and write a machine-readable
    JSON report so the repository keeps a perf trajectory across PRs.

``lint``
    Run the repo's static invariant checkers (:mod:`repro.analysis`):
    determinism of the serving path, serialization completeness of the
    spec/result dataclasses, fast-vs-scalar engine parity, knob plumbing
    and float-accumulation stability.  Exits nonzero on any finding not
    grandfathered by ``--baseline``; ``--json`` emits the structured
    report for tooling.

Every command describes its run as a :class:`repro.api.DeploymentSpec` and
executes it through the single :func:`repro.api.serve` entry point.

Examples::

    python -m repro summary llama-13b
    python -m repro serve llama-13b --workload lp128_ld2048 --requests 200 --baselines
    python -m repro serve llama-13b --arrival-rate 25 --requests 200
    python -m repro experiment fig11
    python -m repro experiment fig13 --requests 100 --models llama-13b
    python -m repro experiment fig22 --requests 100
    python -m repro experiment fig23 --requests 100
    python -m repro experiment fig24 --requests 100
    python -m repro experiment fig25 --requests 100
    python -m repro experiment fig26 --requests 100
    python -m repro serve llama-13b --fault-plan kv_core@0.5,stall@1.0:0:0.25
    python -m repro serve llama-13b --suspend-epoch 50 --checkpoint ckpt.json
    python -m repro serve llama-13b --resume ckpt.json
    python -m repro serve llama-13b --tune chunk_tokens=256 --tune context_quantum=128
    python -m repro serve llama-13b --spec saved_spec.json
    python -m repro serve llama-13b --daemon --listen 127.0.0.1:7431
    python -m repro serve llama-13b --daemon --checkpoint-on SIGTERM
    python -m repro client replay llama-13b --workload lp128_ld2048 --spawn
    python -m repro client status --connect 127.0.0.1:7431
    python -m repro serve llama-13b --requests 1000000 --arrival-rate 90
    python -m repro bench
    python -m repro lint --json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

from . import api
from .errors import ConfigurationError, ReproError
from .pipeline.engine import PipelineConfig
from .experiments import ALL_EXPERIMENTS, ExperimentSettings
from .experiments.common import (
    OUROBOROS_NAME,
    cell_deployments,
    normalized_energy,
    normalized_throughput,
)
from .models.architectures import MODEL_REGISTRY
from .workload.generator import PAPER_WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ouroboros wafer-scale CIM reproduction (ASPLOS'26)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser("summary", help="print a deployment summary")
    summary.add_argument("model", choices=sorted(MODEL_REGISTRY))
    summary.add_argument("--system", choices=sorted(api.SYSTEM_REGISTRY),
                         default="ouroboros",
                         help="registered system to summarise")
    summary.add_argument("--anneal", type=int, default=50,
                         help="annealing iterations for the inter-core mapper")
    summary.add_argument("--wafers", type=int, default=None,
                         help="force a wafer count (default: smallest that fits)")

    serve = subparsers.add_parser("serve", help="serve a workload and report results")
    serve.add_argument("model", nargs="?", default=None,
                       choices=sorted(MODEL_REGISTRY),
                       help="model to serve (optional with --spec)")
    serve.add_argument("--spec", default=None, metavar="FILE",
                       help="serve a full DeploymentSpec JSON (as written by "
                            "spec.to_dict()); flag overrides still apply on top")
    serve.add_argument("--tune", action="append", default=[],
                       metavar="FIELD=VALUE",
                       help="override any PipelineConfig field by name, e.g. "
                            "--tune scheduling_policy=wfq --tune "
                            "max_queue_depth=64 --tune shed_deadline=true "
                            "(repeatable; values parse as JSON literals)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="FIELD=VALUE[,...]",
                       help="add one tenant (repeatable): comma-separated "
                            "TenantSpec fields, e.g. --tenant name=chat,"
                            "workload=wikitext2,num_requests=200,"
                            "arrival_rate_per_s=8,weight=2,kv_quota=0.25 "
                            "(values parse as JSON literals)")
    serve.add_argument("--workload", choices=PAPER_WORKLOADS, default="wikitext2")
    serve.add_argument("--system", choices=sorted(api.SYSTEM_REGISTRY),
                       default="ouroboros",
                       help="registered system to serve on")
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--kv-threshold", type=float, default=0.1)
    serve.add_argument("--arrival-rate", type=float, default=0.0,
                       help="open-loop Poisson arrival rate in requests/s "
                            "(0 = closed batch, all requests at t=0)")
    serve.add_argument("--baselines", action="store_true",
                       help="also run the DGX/TPU/AttAcc/Cerebras baselines")
    serve.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="inject runtime faults: 'kind@time[:target[:dur]],...' "
                            "(kinds: kv_core, weight_core, kv_block, stall) or "
                            "@file.json with a saved plan")
    serve.add_argument("--suspend-epoch", type=int, default=None, metavar="N",
                       help="suspend at epoch N and write a checkpoint "
                            "instead of finishing the run")
    serve.add_argument("--checkpoint", default="checkpoint.json", metavar="PATH",
                       help="path the suspended checkpoint is written to "
                            "(with --suspend-epoch)")
    serve.add_argument("--resume", default=None, metavar="PATH",
                       help="resume a run from a checkpoint written by "
                            "--suspend-epoch (the spec stored in the file "
                            "is used; the run finishes bit-for-bit equal to "
                            "an uninterrupted one); with --daemon, resume a "
                            "daemon checkpoint written by --checkpoint-on or "
                            "the protocol's checkpoint operation")
    serve.add_argument("--daemon", action="store_true",
                       help="run as a live serving daemon on a local socket "
                            "instead of a batch run")
    serve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="daemon listen address (port 0 picks a free port; "
                            "default: %(default)s)")
    serve.add_argument("--checkpoint-on", action="append", default=[],
                       metavar="SIGNAME", dest="checkpoint_on",
                       help="checkpoint-and-exit gracefully on this signal "
                            "(e.g. SIGTERM; repeatable; daemon mode only)")
    serve.add_argument("--window", type=float, default=60.0,
                       help="rolling telemetry window in simulated seconds "
                            "(daemon mode; default: %(default)s)")

    client = subparsers.add_parser(
        "client", help="talk to a live serving daemon"
    )
    client.add_argument("action",
                        choices=["replay", "status", "metrics", "checkpoint",
                                 "drain", "shutdown"],
                        help="operation to perform against the daemon")
    client.add_argument("model", nargs="?", default=None,
                        choices=sorted(MODEL_REGISTRY),
                        help="model whose trace to replay (replay action)")
    client.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="address of a running daemon")
    client.add_argument("--spawn", action="store_true",
                        help="boot a daemon subprocess for this replay and "
                             "shut it down afterwards (replay action only)")
    client.add_argument("--spec", default=None, metavar="FILE",
                        help="replay a full DeploymentSpec JSON instead of "
                             "model/--workload flags")
    client.add_argument("--workload", choices=PAPER_WORKLOADS,
                        default="wikitext2")
    client.add_argument("--requests", type=int, default=200)
    client.add_argument("--seed", type=int, default=0)
    client.add_argument("--arrival-rate", type=float, default=0.0)
    client.add_argument("--policy", choices=sorted(api.POLICY_NAMES),
                        default="fcfs")
    client.add_argument("--path", default=None, metavar="FILE",
                        help="checkpoint file path (checkpoint action)")
    client.add_argument("--stop", action="store_true",
                        help="stop the engine after checkpointing")
    client.add_argument("--json", action="store_true",
                        help="print the raw reply as JSON")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    experiment.add_argument(
        "figure", choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="figure to regenerate (or 'all')",
    )
    experiment.add_argument("--requests", type=int, default=150)
    experiment.add_argument("--anneal", type=int, default=50)
    experiment.add_argument("--models", nargs="*", default=None,
                            help="restrict to these models where supported")

    bench = subparsers.add_parser(
        "bench", help="time the headline experiments and emit a JSON report"
    )
    bench.add_argument("--requests", type=int, default=150,
                       help="requests per workload (the paper uses 1000)")
    bench.add_argument("--stream-requests", type=int, default=None,
                       help="requests for the streaming-scale stage (default: "
                            "$REPRO_BENCH_STREAM_REQUESTS or 20000; the "
                            "headline run uses 1000000)")
    bench.add_argument("--output", default="BENCH_LATEST.json",
                       help="path of the JSON report (default: BENCH_LATEST.json)")
    bench.add_argument("--models", nargs="*", default=None,
                       help="restrict the grid to these models")
    bench.add_argument("--label", default="headline",
                       help="label recorded in the report")
    bench.add_argument("--anneal-micro", type=int, default=500,
                       help="iterations for the annealer microbenchmark")

    lint = subparsers.add_parser(
        "lint", help="run the static invariant checkers over the source tree"
    )
    lint.add_argument("root", nargs="?", default=None,
                      help="directory (or single file) to lint "
                           "(default: the repro package itself)")
    lint.add_argument("--json", action="store_true",
                      help="emit the structured finding report as JSON")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline file grandfathering known findings "
                           "(each entry needs a one-line justification)")
    return parser


def _print_summary(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(anneal_iterations=args.anneal)
    spec = settings.deployment(args.model, "wikitext2", system=args.system)
    if args.wafers is not None:
        spec = replace(
            spec,
            config=replace(spec.config, num_wafers=args.wafers),
            auto_scale_wafers=False,
        )
    system = api.build_deployment(spec)
    print(f"{api.resolve_model(spec.model)}")
    for key, value in system.summary().items():
        if isinstance(value, float):
            print(f"  {key:>16}: {value:,.2f}")
        else:
            print(f"  {key:>16}: {value}")
    return 0


def _print_result_row(name: str, result, reference=None) -> None:
    speedup = ""
    if reference is not None and reference.throughput_tokens_per_s > 0:
        speedup = f"{result.throughput_tokens_per_s / reference.throughput_tokens_per_s:7.2f}x"
    print(
        f"  {name:<16} {result.throughput_tokens_per_s:>14,.0f} tok/s "
        f"{result.energy_per_output_token_j * 1e3:>10.3f} mJ/tok {speedup}"
    )


def _parse_fault_plan(text: str) -> api.FaultPlan:
    """Parse ``--fault-plan``: compact event syntax, or ``@file.json``."""
    if text.startswith("@"):
        path = Path(text[1:])
        if not path.exists():
            raise ConfigurationError(f"fault-plan file '{path}' does not exist")
        return api.FaultPlan.from_dict(json.loads(path.read_text()))
    return api.FaultPlan.parse(text)


def _parse_literal(raw: str):
    """Parse a ``--tune`` value: JSON literal, bare string, none/true/false."""
    lowered = raw.lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _tune_overrides(entries: Sequence[str]) -> dict:
    """Parse repeated ``--tune FIELD=VALUE`` flags against PipelineConfig.

    Driven by ``dataclasses.fields(PipelineConfig)`` so every engine knob —
    present and future — is reachable from the CLI without growing a
    dedicated flag (the ``repro lint`` knob checker relies on this).
    """
    from dataclasses import fields as dataclass_fields

    valid = {f.name for f in dataclass_fields(PipelineConfig)}
    overrides: dict = {}
    for entry in entries:
        name, sep, raw = entry.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ConfigurationError(
                f"--tune expects FIELD=VALUE, got '{entry}'"
            )
        if name not in valid:
            raise ConfigurationError(
                f"--tune: PipelineConfig has no field '{name}' "
                f"(valid: {', '.join(sorted(valid))})"
            )
        overrides[name] = _parse_literal(raw.strip())
    return overrides


def _tenant_specs(entries: Sequence[str]) -> tuple:
    """Parse repeated ``--tenant FIELD=VALUE[,...]`` flags into TenantSpecs.

    Driven by ``dataclasses.fields(TenantSpec)`` so every tenant knob —
    the policy weight/priority, ``kv_quota``, present and future fields —
    is reachable from the CLI without growing dedicated flags (the
    ``repro lint`` knob checker relies on this).
    """
    from dataclasses import fields as dataclass_fields

    valid = {f.name for f in dataclass_fields(api.TenantSpec)}
    tenants = []
    for entry in entries:
        values: dict = {}
        for item in entry.split(","):
            name, sep, raw = item.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ConfigurationError(
                    f"--tenant expects FIELD=VALUE[,...], got '{item}'"
                )
            if name not in valid:
                raise ConfigurationError(
                    f"--tenant: TenantSpec has no field '{name}' "
                    f"(valid: {', '.join(sorted(valid))})"
                )
            values[name] = _parse_literal(raw.strip())
        if isinstance(values.get("slo"), dict):
            values["slo"] = api.SLOTarget(**values["slo"])
        if "name" not in values or "workload" not in values:
            raise ConfigurationError(
                "--tenant needs at least name=... and workload=..."
            )
        tenants.append(api.TenantSpec(**values))
    return tuple(tenants)


def _apply_serve_overrides(spec, args: argparse.Namespace):
    """Fold the tenant/fault/tuning flags into a serve spec."""
    if args.tenant:
        spec = replace(spec, tenants=_tenant_specs(args.tenant))
    if args.fault_plan:
        spec = replace(spec, faults=_parse_fault_plan(args.fault_plan))
    tuned = _tune_overrides(args.tune)
    if tuned:
        pipeline = replace(spec.config.pipeline, **tuned)
        spec = replace(spec, config=replace(spec.config, pipeline=pipeline))
    return spec


def _resume_serve(args: argparse.Namespace) -> int:
    """Finish a run suspended by ``--suspend-epoch``."""
    path = Path(args.resume)
    if not path.exists():
        raise ConfigurationError(f"checkpoint file '{path}' does not exist")
    data = json.loads(path.read_text())
    spec = api.DeploymentSpec.from_dict(data["spec"])
    if args.model is not None and spec.model != args.model:
        raise ConfigurationError(
            f"checkpoint '{path}' was taken serving {spec.model}, not "
            f"{args.model}; pass the matching model"
        )
    checkpoint = api.EngineCheckpoint.from_dict(data["checkpoint"])
    result = api.serve(spec, resume_from=checkpoint)
    print(f"Resumed {spec.model} from '{path}' "
          f"(epoch {checkpoint.next_epoch_index})")
    _print_result_row(result.system, result)
    _print_robustness(result)
    return 0


def _parse_address(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` flag value."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"expected HOST:PORT, got '{text}' (e.g. 127.0.0.1:7431)"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ConfigurationError(f"invalid port in '{text}'") from exc


def _serve_daemon(args: argparse.Namespace, spec=None) -> int:
    """Run the live serving daemon (``serve --daemon``) to completion."""
    from .serving import ServingDaemon, load_daemon_checkpoint

    host, port = _parse_address(args.listen)
    resume_payload = None
    if args.resume:
        path = Path(args.resume)
        if not path.exists():
            raise ConfigurationError(f"checkpoint file '{path}' does not exist")
        resume_payload = load_daemon_checkpoint(path)
        spec = api.DeploymentSpec.from_dict(resume_payload["spec"])
        print(f"Resuming daemon from '{path}'")
    assert spec is not None
    daemon = ServingDaemon(
        spec,
        host=host,
        port=port,
        window_s=args.window,
        checkpoint_path=args.checkpoint,
        checkpoint_signals=tuple(args.checkpoint_on),
        resume_payload=resume_payload,
        announce=print,
    )
    daemon.run()
    if daemon.result is not None:
        print("Drained; final results:")
        _print_result_row(daemon.result.system, daemon.result)
        _print_robustness(daemon.result)
        return 0
    if daemon.stop_checkpoint is not None:
        return 0  # the checkpoint-and-stop path already announced the file
    if daemon.error is not None:
        print(f"error: {daemon.error}", file=sys.stderr)
        return 1
    return 0


def _client_spec(args: argparse.Namespace):
    """The deployment spec a ``client replay`` streams into the daemon."""
    if args.spec:
        spec_path = Path(args.spec)
        if not spec_path.exists():
            raise ConfigurationError(f"spec file '{spec_path}' does not exist")
        return api.DeploymentSpec.from_dict(json.loads(spec_path.read_text()))
    if args.model is None:
        raise ConfigurationError("client replay needs a model (or --spec FILE)")
    settings = ExperimentSettings(
        num_requests=args.requests,
        seed=args.seed,
        arrival_rate_per_s=args.arrival_rate,
        scheduling_policy=args.policy,
    )
    return settings.deployment(args.model, args.workload)


def _print_replay_result(result: dict, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(result, indent=2))
        return
    print(
        f"  {result['system']:<16} {result['throughput_tokens_per_s']:>14,.0f} "
        f"tok/s {result['energy_per_output_token_j'] * 1e3:>10.3f} mJ/tok"
    )
    if result.get("shed_requests"):
        print(f"  shed requests: {result['shed_requests']}")


def _spawn_daemon(spec):
    """Boot a ``repro serve --daemon`` subprocess and wait for its address.

    Returns ``(process, host, port)`` once the child announces where it
    listens.
    """
    import os
    import subprocess
    import tempfile

    spec_file = tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", prefix="repro-spec-", delete=False
    )
    with spec_file:
        json.dump(spec.to_dict(), spec_file)
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spec", spec_file.name,
         "--daemon", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise ConfigurationError(
                f"spawned daemon exited (code {process.returncode}) before "
                "announcing its address"
            )
        if "listening on " in line:
            host, port = _parse_address(line.rsplit("listening on ", 1)[1].strip())
            return process, host, port


def _client(args: argparse.Namespace) -> int:
    from .serving import DaemonClient, replay_spec

    if args.spawn and args.action != "replay":
        raise ConfigurationError("--spawn only applies to the replay action")
    if args.action == "replay":
        spec = _client_spec(args)
        spec.validate()
        if args.spawn:
            process, host, port = _spawn_daemon(spec)
            try:
                result = replay_spec(spec, host, port, shutdown=True)
            finally:
                process.stdout.read()  # drain so the child can exit cleanly
                process.wait()
            _print_replay_result(result, args)
            return 0
        if not args.connect:
            raise ConfigurationError("client replay needs --connect (or --spawn)")
        host, port = _parse_address(args.connect)
        result = replay_spec(spec, host, port)
        _print_replay_result(result, args)
        return 0
    if not args.connect:
        raise ConfigurationError(f"client {args.action} needs --connect HOST:PORT")
    host, port = _parse_address(args.connect)
    with DaemonClient(host, port) as client:
        if args.action == "status":
            payload = client.status()
        elif args.action == "metrics":
            payload = client.metrics()
        elif args.action == "checkpoint":
            payload = client.checkpoint(args.path, stop=args.stop)
        elif args.action == "drain":
            result = client.drain()
            _print_replay_result(result, args)
            return 0
        else:
            client.shutdown()
            payload = {"shutdown": True}
    print(json.dumps(payload, indent=2))
    return 0


def _print_robustness(result) -> None:
    """One line each for shed/fault accounting, when the run had any."""
    if result.shed_requests:
        print(f"  shed requests: {result.shed_requests}")
    if result.faults is not None:
        stats = result.faults
        print(
            f"  faults injected: {stats.injected} "
            f"(recovered {stats.recovered_sequences} seqs, "
            f"{stats.recompute_tokens} recompute tokens, "
            f"{stats.recovery_latency_s * 1e3:.3f} ms recovery, "
            f"{stats.stall_time_s * 1e3:.3f} ms stalled)"
        )


def _serve(args: argparse.Namespace) -> int:
    robustness_flags = (
        args.fault_plan or args.suspend_epoch is not None or args.resume
    )
    if args.baselines and robustness_flags:
        raise ConfigurationError(
            "--baselines cannot combine with --fault-plan/--suspend-epoch/"
            "--resume: the analytical baselines have no runtime to fault or "
            "checkpoint"
        )
    if args.baselines and args.spec:
        raise ConfigurationError(
            "--spec cannot combine with --baselines: the spec file already "
            "names its system"
        )
    if args.daemon and (args.baselines or args.suspend_epoch is not None):
        raise ConfigurationError(
            "--daemon cannot combine with --baselines or --suspend-epoch "
            "(use the protocol's checkpoint operation or --checkpoint-on)"
        )
    if args.resume:
        return _serve_daemon(args) if args.daemon else _resume_serve(args)
    if args.model is None and not args.spec:
        raise ConfigurationError("serve needs a model (or --spec FILE)")
    settings = ExperimentSettings(
        num_requests=args.requests,
        seed=args.seed,
        kv_threshold=args.kv_threshold,
        arrival_rate_per_s=args.arrival_rate,
    )
    try:
        if args.spec:
            spec_path = Path(args.spec)
            if not spec_path.exists():
                raise ConfigurationError(
                    f"spec file '{spec_path}' does not exist"
                )
            spec = api.DeploymentSpec.from_dict(
                json.loads(spec_path.read_text())
            )
            if args.model is not None and spec.model != args.model:
                raise ConfigurationError(
                    f"spec file '{spec_path}' describes {spec.model}, not "
                    f"{args.model}; drop the model argument or pass the "
                    "matching one"
                )
            specs = [spec]
        elif args.baselines:
            specs = cell_deployments(args.model, args.workload, settings)
        else:
            specs = [settings.deployment(args.model, args.workload, system=args.system)]
        specs = [_apply_serve_overrides(spec, args) for spec in specs]
        for spec in specs:
            spec.validate()
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.daemon:
        return _serve_daemon(args, specs[0])
    if args.suspend_epoch is not None:
        outcome = api.serve(specs[0], suspend_at_epoch=args.suspend_epoch)
        if isinstance(outcome, api.EngineCheckpoint):
            payload = {"spec": specs[0].to_dict(), "checkpoint": outcome.as_dict()}
            Path(args.checkpoint).write_text(json.dumps(payload))
            print(
                f"Suspended at epoch {outcome.next_epoch_index} "
                f"(t={outcome.time_s * 1e3:.3f} ms); checkpoint written to "
                f"'{args.checkpoint}'. Resume with: repro serve "
                f"{args.model} --resume {args.checkpoint}"
            )
            return 0
        # The trace drained before the suspend epoch: report normally.
        print(f"Run finished before epoch {args.suspend_epoch}; no checkpoint written")
        _print_result_row(outcome.system, outcome)
        _print_robustness(outcome)
        return 0
    primary = specs[0]
    arch = api.resolve_model(primary.model)
    rate = primary.arrival_rate_per_s
    mode = f"open-loop at {rate:g} req/s" if rate > 0 else "batch"
    print(
        f"Serving {primary.num_requests} '{primary.workload}' requests of "
        f"{arch.name} ({mode})"
    )
    if args.baselines:
        results = {}
        for spec in specs:
            try:
                result = api.serve(spec)
            except ConfigurationError:
                continue
            key = OUROBOROS_NAME if spec.system == "ouroboros" else result.system
            results[key] = result
        reference = results["DGX A100"]
        for name, result in results.items():
            _print_result_row(name, result, reference)
        print("\n  normalized throughput:", {
            k: round(v, 2) for k, v in normalized_throughput(results).items()
        })
        print("  normalized energy:    ", {
            k: round(v, 2) for k, v in normalized_energy(results).items()
        })
    else:
        result = api.serve(specs[0])
        _print_result_row(result.system, result)
        print("  energy breakdown:", {
            k: f"{v:.1%}" for k, v in result.energy.fractions().items()
        })
        print(f"  utilization: {result.utilization:.1%}  evictions: {result.evictions}")
        _print_robustness(result)
        if rate > 0:
            print(
                f"  TTFT p50/p95: {result.ttft.p50_s * 1e3:.1f}/"
                f"{result.ttft.p95_s * 1e3:.1f} ms  "
                f"latency p50/p95/p99: {result.latency.p50_s * 1e3:.1f}/"
                f"{result.latency.p95_s * 1e3:.1f}/"
                f"{result.latency.p99_s * 1e3:.1f} ms"
            )
    return 0


def _experiment(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(
        num_requests=args.requests, anneal_iterations=args.anneal
    )
    figures = sorted(ALL_EXPERIMENTS) if args.figure == "all" else [args.figure]
    for figure in figures:
        module = ALL_EXPERIMENTS[figure]
        kwargs = {}
        if args.models and hasattr(module, "run"):
            # Pass a model restriction only to drivers that accept it.
            import inspect

            if "models" in inspect.signature(module.run).parameters:
                kwargs["models"] = tuple(args.models)
        result = module.run(settings, **kwargs)
        print(result.format_table())
        print()
    return 0


def _bench(args: argparse.Namespace) -> int:
    from .perf import run_bench

    report = run_bench(
        num_requests=args.requests,
        models=tuple(args.models) if args.models else None,
        label=args.label,
        anneal_iterations=args.anneal_micro,
        stream_requests=args.stream_requests,
    )
    path = report.write(args.output)
    print(report.format_table())
    print(f"wrote {path}")
    return 0


def _lint(args: argparse.Namespace) -> int:
    from . import analysis

    root = Path(args.root) if args.root else Path(__file__).resolve().parent
    report = analysis.run_lint(root, baseline_path=args.baseline)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            return _print_summary(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "client":
            return _client(args)
        if args.command == "experiment":
            return _experiment(args)
        if args.command == "bench":
            return _bench(args)
        if args.command == "lint":
            return _lint(args)
    except ReproError as error:
        # Library errors are user-facing configuration/usage problems: report
        # them as one clean line on stderr, not a traceback (exit code 2,
        # matching argparse's own usage-error convention).
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
