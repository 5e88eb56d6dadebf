"""Pickling round-trips: the plan/weights handoff the dataplane rides on."""

import pickle

import numpy as np
import pytest

from repro.compile.executor import CompiledModel
from repro.dataplane import JobEnvelope, ReplyEnvelope, TraceContext
from repro.resilience import RetryPolicy
from repro.serve import EngineConfig, ModelKey, ModelRegistry


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


class TestCompiledModelPickle:
    @pytest.mark.parametrize("key", [
        ModelKey(name="M3", scale=2),
        ModelKey(name="M5", scale=2, precision="int8"),
        ModelKey(name="FSRCNN", scale=2),
    ], ids=["M3-fp32", "M5-int8", "FSRCNN-fp32"])
    def test_round_trip_is_bit_exact(self, registry, key):
        model = registry.get_compiled(key)
        clone = pickle.loads(pickle.dumps(model))
        assert isinstance(clone, CompiledModel)
        x = np.random.default_rng(0).random((1, 20, 20, 1)).astype(np.float32)
        np.testing.assert_array_equal(model.run(x), clone.run(x))

    def test_round_trip_keeps_plan_metadata(self, registry):
        model = registry.get_compiled(ModelKey(name="M3", scale=2))
        clone = pickle.loads(pickle.dumps(model))
        assert clone.pass_log == model.pass_log
        assert clone.source == model.source
        assert clone.plan.planned_units == model.plan.planned_units
        assert clone.plan.slot_of == model.plan.slot_of

    def test_clone_has_its_own_runtime_state(self, registry):
        # __setstate__ rebuilds locks and arenas — nothing runtime-shared
        # with the original (that's what makes the handoff spawn-safe).
        model = registry.get_compiled(ModelKey(name="M3", scale=2))
        clone = pickle.loads(pickle.dumps(model))
        assert clone is not model
        assert clone.graph is not model.graph

class TestEngineConfigPickle:
    def test_round_trip_preserves_every_field(self):
        cfg = EngineConfig(
            workers=3, tile=(48, 64), halo=7, max_batch=4,
            batch_window_ms=2.5, cache_size=9, max_pending=5,
            default_timeout=12.0, retry=RetryPolicy(max_attempts=2),
            breaker_threshold=3, breaker_cooldown=1.5, degraded_mode=True,
            supervise=False, wedge_timeout=8.0, compiled=True,
            worker_backend="process",
        )
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert clone.worker_backend == "process"
        assert clone.tile == (48, 64)

    def test_defaults_round_trip(self):
        assert pickle.loads(pickle.dumps(EngineConfig())) == EngineConfig()


class TestEnvelopePickle:
    def test_job_and_reply_round_trip(self):
        job = JobEnvelope(kind="run", seq=7, slot=2, generation=5,
                          shape=(3, 16, 16),
                          trace=TraceContext("a" * 16, "b" * 8))
        assert pickle.loads(pickle.dumps(job)) == job
        reply = ReplyEnvelope(seq=7, slot=2, generation=5, ok=False,
                              error_type="ValueError", error_message="x",
                              pid=123)
        assert pickle.loads(pickle.dumps(reply)) == reply
