"""A comparison cell draws its trace once and finds its builds by spec fields.

``run_all_systems`` serves every analytical baseline of a cell on one trace
and must still return, system by system, what a lone ``serve(spec)`` returns.
The build memo keys on a tuple of the spec's build fields; the JSON text it
keyed on before is kept here as the oracle those keys must agree with.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import DeploymentSpec, build_deployment, get_system, serve
from repro.baselines.common import BaselineConfig
from repro.errors import ConfigurationError
from repro.experiments.common import (
    OUROBOROS_NAME,
    ExperimentSettings,
    cell_deployments,
    run_all_systems,
)
from repro.pipeline.engine import PipelineConfig
from repro.sim.engine import KVPolicy, PipelineMode
from repro.sim.faults import FaultPlan
from repro.workload.generator import TenantSpec
from repro.workload.requests import SLOTarget
from repro.workload.streams import StreamingTrace

CELL = ExperimentSettings(num_requests=6, anneal_iterations=5)

#: the spec fields a serve reads and a build does not
WORKLOAD_FIELDS = (
    "workload", "workload_label", "num_requests", "seed", "arrival_rate_per_s", "faults",
)


def json_key(spec: DeploymentSpec) -> str:
    """The build memo's key as it was: the spec's JSON without its workload."""
    payload = spec.to_dict()
    for name in WORKLOAD_FIELDS:
        payload.pop(name)
    return json.dumps(payload, sort_keys=True)


def display(spec: DeploymentSpec) -> str:
    return OUROBOROS_NAME if spec.system == "ouroboros" else get_system(spec.system).display_name


@pytest.fixture
def materialized(monkeypatch):
    """Every ``StreamingTrace.materialize`` call, counted."""
    calls = []
    original = StreamingTrace.materialize

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(StreamingTrace, "materialize", counted)
    return calls


class TestOneTracePerCell:
    def test_full_cell_draws_one_trace(self, materialized):
        results = run_all_systems("llama-13b", "lp128_ld2048", CELL)
        assert list(results) == ["DGX A100", "TPUv4", "AttAcc", "Cerebras", OUROBOROS_NAME]
        assert len(materialized) == 1

    def test_ouroboros_only_cell_draws_none(self, materialized):
        results = run_all_systems("llama-13b", "lp128_ld2048", CELL, systems=())
        assert list(results) == [OUROBOROS_NAME]
        assert materialized == []

    @pytest.mark.parametrize("model", ["llama-13b", "generic-300b"])
    def test_cell_results_equal_lone_serves(self, model):
        """Each system's result is its lone ``serve(spec)``'s, also where the
        first baselines cannot hold the model and are skipped."""
        results = run_all_systems(model, "wikitext2", CELL)
        skipped = []
        for spec in cell_deployments(model, "wikitext2", CELL):
            try:
                alone = serve(spec)
            except ConfigurationError:
                skipped.append(display(spec))
                continue
            assert results[display(spec)].as_dict() == alone.as_dict()
        assert sorted(results) == sorted(
            display(spec) for spec in cell_deployments(model, "wikitext2", CELL)
            if display(spec) not in skipped
        )
        if model == "generic-300b":
            assert skipped == ["DGX A100", "TPUv4", "AttAcc"]


# ------------------------------------------------------------- build keys

MODELS = ("llama-13b", "baichuan-13b", "generic-7b")


def config_variants(config):
    pipeline = config.pipeline
    return st.one_of(
        st.builds(lambda v: dataclasses.replace(config, kv_threshold=v),
                  st.sampled_from([0.05, 0.1, 0.25])),
        st.builds(lambda v: dataclasses.replace(config, anneal_iterations=v),
                  st.integers(1, 200)),
        st.builds(lambda v: dataclasses.replace(config, num_wafers=v), st.integers(1, 3)),
        st.builds(lambda v: dataclasses.replace(config, kv_policy=v),
                  st.sampled_from(list(KVPolicy))),
        st.builds(lambda v: dataclasses.replace(config, pipeline_mode=v),
                  st.sampled_from(list(PipelineMode))),
        st.builds(lambda v: dataclasses.replace(config, defect_seed=v),
                  st.none() | st.integers(0, 3)),
        st.builds(lambda v: dataclasses.replace(config, model_defects=v), st.booleans()),
        st.builds(
            lambda v: dataclasses.replace(
                config, pipeline=dataclasses.replace(pipeline, chunk_tokens=v)
            ),
            st.sampled_from([64, 128, 256]),
        ),
        st.builds(
            lambda v: dataclasses.replace(
                config, pipeline=dataclasses.replace(pipeline, scheduling_policy=v)
            ),
            # "WFQ" normalises to "wfq": one spec, one key, either way
            st.sampled_from(["fcfs", "wfq", "WFQ", "priority"]),
        ),
        st.builds(
            lambda v: dataclasses.replace(config, pipeline=PipelineConfig(max_active_sequences=v)),
            st.none() | st.integers(4, 16),
        ),
    )


TENANTS = st.lists(
    st.builds(
        TenantSpec,
        name=st.sampled_from(["chat", "batch"]),
        workload=st.sampled_from(["wikitext2", "lp128_ld2048"]),
        num_requests=st.integers(1, 50),
        arrival_rate_per_s=st.sampled_from([0.0, 2.0]),
        weight=st.sampled_from([1.0, 4.0]),
        kv_quota=st.none() | st.sampled_from([0.25, 0.5]),
    ),
    max_size=2,
    unique_by=lambda tenant: tenant.name,
).map(tuple)

SLOS = st.none() | st.builds(
    SLOTarget,
    ttft_s=st.none() | st.sampled_from([0.5, 2.0]),
    latency_s=st.none() | st.sampled_from([4.0, 8.0]),
)

OPTIONS = st.dictionaries(
    st.sampled_from(["num_gpus", "num_devices", "num_wafers"]), st.integers(2, 8), max_size=3
)


def field_values(spec: DeploymentSpec) -> dict:
    """Per spec field, a strategy for a new value of that field of ``spec``."""
    return {
        "model": st.sampled_from(MODELS),
        "system": st.sampled_from(sorted(api.SYSTEM_REGISTRY)),
        "config": config_variants(spec.config),
        "baseline": st.builds(
            BaselineConfig,
            interconnect_overlap=st.sampled_from([0.0, 0.5, 0.75]),
            idle_power_per_device_w=st.sampled_from([0.0, 300.0]),
        ),
        "options": OPTIONS,
        "tenants": TENANTS,
        "slo": SLOS,
        "auto_scale_wafers": st.booleans(),
        "workload": st.sampled_from(["wikitext2", "lp2048_ld128"]),
        "workload_label": st.none() | st.sampled_from(["chat", "encoder"]),
        "num_requests": st.integers(1, 500),
        "seed": st.integers(0, 100),
        "arrival_rate_per_s": st.sampled_from([0.0, 5.0]),
        "faults": st.none() | st.just(FaultPlan.parse("stall@1.0:0:0.25")),
    }


def field_variants(spec: DeploymentSpec):
    """``(field, new value)`` for one field of ``spec``."""
    by_field = field_values(spec)
    if spec.tenants:
        del by_field["arrival_rate_per_s"]  # the rates live on the tenants
    if spec.arrival_rate_per_s:
        del by_field["tenants"]
    return st.one_of(*(
        st.tuples(st.just(name), values) for name, values in by_field.items()
    ))


@st.composite
def spec_pairs(draw):
    """A spec and the same spec with one field redrawn."""
    spec = DeploymentSpec(
        model=draw(st.sampled_from(MODELS)),
        system=draw(st.sampled_from(sorted(api.SYSTEM_REGISTRY))),
        options=draw(OPTIONS),
        slo=draw(SLOS),
        tenants=draw(TENANTS),
        seed=draw(st.integers(0, 3)),
    )
    name, value = draw(field_variants(spec))
    return spec, dataclasses.replace(spec, **{name: value}), name


class TestBuildKey:
    def test_every_spec_field_is_varied(self):
        """A field added to the spec must get a strategy above, so the
        property below checks whether it splits builds."""
        spec = DeploymentSpec(model="llama-13b")
        assert set(field_values(spec)) == {f.name for f in dataclasses.fields(DeploymentSpec)}

    @given(pair=spec_pairs())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_builds_are_shared_exactly_when_the_json_keys_match(self, pair):
        spec, variant, name = pair
        api.clear_system_cache()
        first, second = build_deployment(spec), build_deployment(variant)
        assert (first is second) == (json_key(spec) == json_key(variant)), name
        if name in WORKLOAD_FIELDS:
            assert first is second
        reloaded = DeploymentSpec.from_dict(json.loads(json.dumps(variant.to_dict())))
        assert build_deployment(reloaded) is second
        api.clear_system_cache()

    def test_option_order_does_not_split_a_build(self):
        spec = CELL.deployment("llama-13b", "wikitext2", system="dgx-a100",
                               options={"num_gpus": 4, "num_devices": 2})
        swapped = dataclasses.replace(spec, options={"num_devices": 2, "num_gpus": 4})
        assert build_deployment(spec) is build_deployment(swapped)

    def test_equal_specs_share_a_build_however_a_number_is_written(self):
        """The key compares values, as spec equality does: a threshold
        written ``1`` is the spec with ``1.0``, which the JSON text split."""
        spec = CELL.deployment("llama-13b", "wikitext2", kv_threshold=1.0)
        written_as_int = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, kv_threshold=1)
        )
        assert written_as_int == spec
        assert json_key(written_as_int) != json_key(spec)
        assert build_deployment(written_as_int) is build_deployment(spec)

    def test_baseline_config_is_immutable(self):
        spec = CELL.deployment("llama-13b", "wikitext2", system="dgx-a100")
        system = build_deployment(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.baseline.interconnect_overlap = 0.9
        assert system.config.interconnect_overlap == BaselineConfig().interconnect_overlap

    def test_build_serialises_no_spec(self, monkeypatch):
        dumps = []
        original = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps.append(a) or original(*a, **k))
        api.clear_system_cache()
        for spec in cell_deployments("llama-13b", "wikitext2", CELL):
            build_deployment(spec)
            build_deployment(spec)
        assert dumps == []
        api.clear_system_cache()
