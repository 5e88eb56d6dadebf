"""The engine on the process backend: bit-identity, config, resilience."""

import os

import numpy as np
import pytest

from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry

KEY = ModelKey(name="M3", scale=2)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


@pytest.fixture(scope="module")
def img():
    rng = np.random.default_rng(3)
    return rng.random((70, 52), dtype=np.float32)


def _upscale(registry, img, **cfg_kwargs):
    cfg = EngineConfig(workers=2, tile=32, cache_size=0, **cfg_kwargs)
    with InferenceEngine(registry, KEY, config=cfg) as eng:
        return eng.upscale(img)


class TestBitIdentity:
    """The acceptance bar: thread and process serving stitch the same
    pixels, on every compute path."""

    def test_plain_tiling(self, registry, img):
        ref = _upscale(registry, img, worker_backend="thread")
        out = _upscale(registry, img, worker_backend="process")
        np.testing.assert_array_equal(ref, out)

    def test_cross_request_coalescing_window(self, registry, img):
        ref = _upscale(registry, img, worker_backend="thread",
                       batch_window_ms=4.0)
        out = _upscale(registry, img, worker_backend="process",
                       batch_window_ms=4.0)
        np.testing.assert_array_equal(ref, out)


class TestConfig:
    def test_backend_validation(self):
        with pytest.raises(ValueError, match="worker_backend"):
            EngineConfig(worker_backend="fibers")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_BACKEND", "process")
        assert EngineConfig().worker_backend == "process"
        monkeypatch.setenv("REPRO_WORKER_BACKEND", "bogus")
        with pytest.raises(ValueError, match="worker_backend"):
            EngineConfig()
        monkeypatch.delenv("REPRO_WORKER_BACKEND")
        assert EngineConfig().worker_backend == "thread"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_BACKEND", "process")
        assert EngineConfig(worker_backend="thread").worker_backend == "thread"

    def test_describe_names_the_backend(self):
        text = EngineConfig(worker_backend="process").describe()
        assert "(process)" in text


class TestStatsAndLifecycle:
    def test_stats_report_the_dataplane(self, registry, img):
        cfg = EngineConfig(workers=2, tile=32, cache_size=0,
                           worker_backend="process")
        with InferenceEngine(registry, KEY, config=cfg) as eng:
            eng.upscale(img)
            snap = eng.stats()
        dp = snap["dataplane"]
        assert dp["backend"] == "process"
        assert dp["workers"] == 2 and dp["alive"] == 2
        assert dp["jobs_submitted"] > 0
        assert dp["arena"]["slots"] == 4  # workers + 2 spares
        assert snap["config"]["worker_backend"] == "process"

    def test_thread_backend_has_no_dataplane_section(self, registry, img):
        cfg = EngineConfig(workers=1, tile=32, cache_size=0,
                           worker_backend="thread")
        with InferenceEngine(registry, KEY, config=cfg) as eng:
            assert "dataplane" not in eng.stats()

    def test_shutdown_unlinks_shared_memory(self, registry, img):
        cfg = EngineConfig(workers=2, tile=32, cache_size=0,
                           worker_backend="process")
        eng = InferenceEngine(registry, KEY, config=cfg)
        segment = eng._pool.arena.name
        eng.upscale(img)
        assert segment in os.listdir("/dev/shm")
        eng.shutdown()
        assert segment not in os.listdir("/dev/shm")

    def test_process_worker_killed_mid_service_request_survives(
        self, registry, img
    ):
        import signal
        import threading
        import time

        cfg = EngineConfig(workers=2, tile=32, cache_size=0,
                           worker_backend="process",
                           supervise_interval=0.05)
        with InferenceEngine(registry, KEY, config=cfg) as eng:
            ref = eng.upscale(img)
            results = []

            def _client():
                for _ in range(3):
                    results.append(eng.upscale(img))

            t = threading.Thread(target=_client)
            t.start()
            time.sleep(0.05)
            pids = eng._pool.pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
            t.join(timeout=60.0)
            assert not t.is_alive()
            assert len(results) == 3
            for out in results:
                np.testing.assert_array_equal(out, ref)
