"""Tests for the config serialization API (to_dict/from_dict derived
from the dataclass fields, stable_hash) behind the campaign cache key."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.hierarchy import AMGOptions
from repro.campaign.job import CampaignSpec, JobSpec
from repro.core.config import FaultSpec, SimulationConfig, SolverConfig
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import Serializable, canonical_json, stable_digest

#: Every config dataclass whose (de)serialization is derived.
CONFIG_CLASSES = (
    SimulationConfig,
    SolverConfig,
    AMGOptions,
    RecoveryPolicy,
    FaultSpec,
    JobSpec,
)

#: Valid non-default values for string fields whose values are checked.
STR_ALTERNATES = {
    "partition_method": "rcb",
    "assembly_variant": "general",
    "assembly_mode": "deterministic",
    "method": "cg",
    "kind": "worker_hang",
    "mode": "scale",
    "point": "spawn",
    "workload": "background_only",
}


def default_instance(cls):
    """A valid instance with every defaulted field at its default."""
    if cls is FaultSpec:
        return FaultSpec(kind="worker_crash")
    if cls is JobSpec:
        return JobSpec(workload="turbine_tiny")
    return cls()


def mutated(value, name):
    """A valid value of the same field that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, str):
        return STR_ALTERNATES.get(name, value + "x")
    if value is None:
        return "pressure"
    if isinstance(value, Serializable):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(
            value, **{first: mutated(getattr(value, first), first)}
        )
    if isinstance(value, dict):
        return {**value, "nranks": 2}
    if not value:
        return (FaultSpec(kind="message_drop"),)
    if isinstance(value[0], str):
        return value[:-1]
    return tuple(v + 1.0 for v in value)


#: (class, field name) of every serializable field of every config class.
SERIALIZABLE_FIELDS = [
    (cls, f.name)
    for cls in CONFIG_CLASSES
    for f in dataclasses.fields(cls)
    if not f.metadata.get("runtime_only")
]
FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name in SERIALIZABLE_FIELDS]


def with_mutated_field(cls, name):
    base = default_instance(cls)
    changed = dataclasses.replace(
        base, **{name: mutated(getattr(base, name), name)}
    )
    return base, changed


class TestRoundTrip:
    def test_default_config_fixpoint(self):
        cfg = SimulationConfig()
        doc = cfg.to_dict()
        again = SimulationConfig.from_dict(doc)
        assert again.to_dict() == doc

    def test_round_trip_preserves_equality(self):
        cfg = SimulationConfig(nranks=3, picard_iterations=2, dt=0.25)
        cfg.pressure_solver.method = "cg"
        cfg.amg.theta = 0.5
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_faults_round_trip(self):
        cfg = SimulationConfig(
            faults=[FaultSpec(kind="message_drop", at=1)]
        )
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert tuple(again.faults) == tuple(cfg.faults)

    def test_doc_is_json_serializable(self):
        doc = SimulationConfig().to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_absent_keys_take_defaults(self):
        cfg = SimulationConfig.from_dict({"nranks": 2})
        ref = SimulationConfig(nranks=2)
        assert cfg == ref

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_serialization_is_derived(self, cls):
        # No class keeps a hand-written to_dict/from_dict body.
        assert cls.to_dict is Serializable.to_dict
        assert cls.from_dict.__func__ is Serializable.from_dict.__func__

    @pytest.mark.parametrize(
        "cls,name", SERIALIZABLE_FIELDS, ids=FIELD_IDS
    )
    def test_every_field_round_trips(self, cls, name):
        _base, changed = with_mutated_field(cls, name)
        doc = changed.to_dict()
        again = cls.from_dict(json.loads(json.dumps(doc)))
        assert again == changed
        assert again.to_dict() == doc

    def test_nested_solver_merge_with_defaults(self):
        cfg = SimulationConfig.from_dict(
            {"pressure_solver": {"method": "cg"}}
        )
        assert cfg.pressure_solver.method == "cg"
        # Unspecified nested keys keep the dataclass defaults.
        assert cfg.pressure_solver.tol == SolverConfig().tol

    @settings(max_examples=25, deadline=None)
    @given(
        nranks=st.integers(1, 8),
        picard=st.integers(1, 4),
        dt=st.floats(1e-4, 1.0, allow_nan=False),
        relax=st.floats(0.1, 1.0, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_property(self, nranks, picard, dt, relax, seed):
        cfg = SimulationConfig(
            nranks=nranks,
            picard_iterations=picard,
            dt=dt,
            velocity_relax=relax,
            world_seed=seed,
        )
        doc = cfg.to_dict()
        again = SimulationConfig.from_dict(doc)
        assert again == cfg
        assert again.to_dict() == doc
        assert again.stable_hash() == cfg.stable_hash()


class TestStrictness:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SimulationConfig.from_dict({"granks": 2})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"amg": {"bogus": 1}})

    def test_bool_is_not_int(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"nranks": True})

    def test_int_accepted_for_float(self):
        cfg = SimulationConfig.from_dict({"dt": 1})
        assert cfg.dt == 1.0 and isinstance(cfg.dt, float)

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"nranks": 0})
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"world_seed": -1})

    def test_runtime_clock_not_serializable(self):
        cfg = SimulationConfig(clock=lambda: 0.0)
        with pytest.raises(ValueError, match="clock"):
            cfg.to_dict()

    @pytest.mark.parametrize(
        "cls,doc",
        [
            (SimulationConfig, {"rhie_chow": True}),
            (SimulationConfig, {"reuse_assembly_plan": True}),
            (SimulationConfig, {"amg_refresh": True}),
            (SolverConfig, {"record_history": True}),
            (
                CampaignSpec,
                {"name": "c", "workload": "turbine_tiny", "share_setup": True},
            ),
        ],
        ids=[
            "rhie_chow",
            "reuse_assembly_plan",
            "amg_refresh",
            "record_history",
            "share_setup",
        ],
    )
    def test_retired_keys_rejected(self, cls, doc):
        with pytest.raises(ValueError, match="unknown"):
            cls.from_dict(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict([("nranks", 2)])


class TestStableHash:
    def test_key_order_insensitive(self):
        doc = SimulationConfig().to_dict()
        shuffled = dict(reversed(list(doc.items())))
        assert stable_digest(doc) == stable_digest(shuffled)
        assert canonical_json(doc) == canonical_json(shuffled)

    @pytest.mark.parametrize(
        "cls,name", SERIALIZABLE_FIELDS, ids=FIELD_IDS
    )
    def test_every_field_moves_the_hash(self, cls, name):
        base, changed = with_mutated_field(cls, name)
        assert stable_digest(changed.to_dict()) != stable_digest(
            base.to_dict()
        )

    def test_golden_default_hashes(self):
        # The campaign cache key: a change here invalidates every stored
        # result, so it must only move deliberately.
        assert SimulationConfig().stable_hash() == (
            "bd86bf28f8034092c66722bf81ddb70b0432d93c4cfb1c6b7301a2feaafd3dc0"
        )
        assert JobSpec(workload="turbine_tiny").digest() == (
            "087ab967cb90006144eec63ded4087f15ef4969bcc96d1937ede44a7c28cdacd"
        )

    def test_nested_field_moves_the_hash(self):
        a = SimulationConfig()
        b = SimulationConfig()
        b.amg.theta = 0.9
        assert a.stable_hash() != b.stable_hash()

    def test_exclude_durability_keys(self):
        a = SimulationConfig()
        b = SimulationConfig(
            checkpoint_every=3, checkpoint_dir="elsewhere", checkpoint_keep=9
        )
        ex = SimulationConfig.DURABILITY_KEYS
        assert a.stable_hash() != b.stable_hash()
        assert a.stable_hash(exclude=ex) == b.stable_hash(exclude=ex)

    def test_solver_config_hash(self):
        a = SolverConfig()
        b = SolverConfig(tol=1e-3)
        assert a.stable_hash() != b.stable_hash()
        assert a.stable_hash() == SolverConfig().stable_hash()
