"""``repro serve`` signal drain: process workers reaped, /dev/shm clean.

These drive the real CLI in a subprocess — the one place the whole
stack (spawned workers, shared arena, signal handlers, front-end close
path) runs exactly as production does — and assert the contract the
pool promises: after SIGINT/SIGTERM the server exits 0 and not one
``repro-dp-*`` segment survives in ``/dev/shm``.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "src",
)


def _shm_entries():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-dp-")}
    except FileNotFoundError:  # pragma: no cover — non-tmpfs platform
        return set()


def _spawn_serve(*extra_args):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    env.pop("REPRO_WORKER_BACKEND", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model", "M3",
         "--port", "0", "--workers", "1", "--tile", "32",
         "--worker-backend", "process", *extra_args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_banner(proc, timeout=120.0):
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("endpoints:"):
            return lines
    raise AssertionError(f"server never came up; output so far: {lines!r}")


def _segments_of(pid):
    return {s for s in _shm_entries() if s.startswith(f"repro-dp-{pid}-")}


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                         ids=["sigterm-async", "sigint-async"])
def test_signal_drain_reaps_workers_and_shm(sig):
    proc = _spawn_serve("--frontend", "async")
    try:
        _wait_for_banner(proc)
        # The engine is up, so its arena exists right now.
        assert _segments_of(proc.pid), "expected a live shm segment"
        proc.send_signal(sig)
        rc = proc.wait(timeout=60)
        assert rc == 0
        assert _segments_of(proc.pid) == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_banner_names_backend_and_frontend():
    proc = _spawn_serve("--frontend", "async")
    try:
        lines = "".join(_wait_for_banner(proc))
        assert "[async frontend]" in lines
        assert "(process)" in lines  # EngineConfig.describe()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
