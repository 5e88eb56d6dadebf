"""Process worker pool: bit-identity, death handling, clean teardown."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.dataplane import ProcessWorkerDied, ProcessWorkerPool
from repro.serve.engine import predict_batch_exact
from repro.serve.registry import ModelKey, ModelRegistry


def _shm_entries():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-dp-")}
    except FileNotFoundError:  # pragma: no cover — non-tmpfs platform
        return set()


@pytest.fixture(scope="module")
def model():
    return ModelRegistry().get_compiled(ModelKey(name="M3", scale=2))


@pytest.fixture(scope="module")
def patches():
    rng = np.random.default_rng(11)
    return rng.random((3, 24, 24, 1), dtype=np.float32)


class SlowModel:
    """Picklable stand-in whose forward sleeps — lets tests catch a worker
    mid-job deterministically."""

    scale = 2

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def eval(self) -> None:
        pass

    def __call__(self, x):
        time.sleep(self.delay)
        n, h, w, _ = x.data.shape
        out = np.zeros((n, h * self.scale, w * self.scale, 1), np.float32)

        class _R:
            data = out

        return _R()


class TestBitIdentity:
    def test_exact_mode_matches_in_process(self, model, patches):
        with ProcessWorkerPool(model, workers=1, tile=(24, 24), halo=0,
                               scale=2) as pool:
            out = pool.submit(patches)
        np.testing.assert_array_equal(
            out, predict_batch_exact(model, patches)
        )

class TestDeathHandling:
    def test_idle_death_is_replaced_at_checkout(self, model, patches):
        with ProcessWorkerPool(model, workers=1, tile=(24, 24), halo=0,
                               scale=2) as pool:
            ref = pool.submit(patches)
            os.kill(pool.pids()[0], signal.SIGKILL)
            time.sleep(0.2)
            # No supervisor ran: checkout itself notices the corpse,
            # staffs a replacement, and the job still computes.
            out = pool.submit(patches)
            np.testing.assert_array_equal(out, ref)
            stats = pool.stats()
            assert stats["deaths"] == 1 and stats["respawns"] == 1
            assert stats["alive"] == 1

    def test_supervise_replaces_idle_corpses(self, model):
        with ProcessWorkerPool(model, workers=2, tile=(24, 24), halo=0,
                               scale=2) as pool:
            os.kill(pool.pids()[0], signal.SIGKILL)
            time.sleep(0.2)
            deadline = time.monotonic() + 10.0
            replaced = 0
            while replaced == 0 and time.monotonic() < deadline:
                replaced = pool.supervise()
            assert replaced == 1
            assert pool.stats()["alive"] == 2

    def test_mid_job_death_raises_retryable_and_respawns(self, monkeypatch):
        # The child unpickles SlowModel from this module: make the repo
        # root importable in the spawned interpreter.
        import repro

        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        ))
        monkeypatch.setenv("PYTHONPATH", repo_root)
        pool = ProcessWorkerPool(SlowModel(delay=30.0), workers=1,
                                 tile=(8, 8), halo=0, scale=2)
        try:
            errors = []

            def _submit():
                try:
                    pool.submit(np.zeros((1, 8, 8, 1), np.float32))
                except ProcessWorkerDied as exc:
                    errors.append(exc)

            t = threading.Thread(target=_submit)
            t.start()
            deadline = time.monotonic() + 10.0
            while not pool.pids() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.3)  # let the job reach the worker
            os.kill(pool.pids()[0], signal.SIGKILL)
            t.join(timeout=15.0)
            assert not t.is_alive()
            # The dispatcher saw an ordinary retryable exception...
            assert len(errors) == 1
            # ...and the pool already staffed a replacement.
            assert pool.stats()["deaths"] == 1
            assert pool.ping(timeout=10.0) > 0
        finally:
            pool.shutdown()

    def test_unpicklable_model_fails_fast(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(ValueError, match="picklable"):
            ProcessWorkerPool(Unpicklable(), workers=1, tile=(8, 8),
                              halo=0, scale=2)


class TestTeardown:
    def test_shutdown_reaps_processes_and_unlinks_arena(self, model,
                                                        patches):
        pool = ProcessWorkerPool(model, workers=2, tile=(24, 24), halo=0,
                                 scale=2)
        segment = pool.arena.name
        procs = [h.proc for h in pool._handles]
        pool.submit(patches)
        assert segment in _shm_entries()
        pool.shutdown()
        assert segment not in _shm_entries()
        for proc in procs:
            assert not proc.is_alive()
        pool.shutdown()  # idempotent

    def test_closed_pool_rejects_work(self, model, patches):
        pool = ProcessWorkerPool(model, workers=1, tile=(24, 24), halo=0,
                                 scale=2)
        pool.shutdown()
        from repro.dataplane import PoolClosed

        with pytest.raises(PoolClosed):
            pool.submit(patches)
