"""The serving workload: ``repro serve`` in its own process, driven over
HTTP by :mod:`perfbench.httpload`.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import httpload, inputs
from .spans import now

HERE = os.path.dirname(os.path.abspath(__file__))
TILE = 96
CONNS = 2
SETUP_REPS = 5
#: The open-loop trace (Poisson arrival times, and the frame sizes of the
#: colour mix) is one frozen draw: with a few dozen requests per run, a
#: fresh draw per seed moves the percentiles more than any change worth
#: measuring would.  The seed draws the frame content.
ARRIVALS_SEED = 0
WARM_UP = 4                 # requests per frame size after set-up
CHECK_SAMPLES = 4          # responses byte-compared per phase


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    serve_args: Tuple[str, ...]
    rate: float            # open-loop arrivals per second, fixed
    capacity_hint: float   # req/s with headroom; sizes the pool of frames
    block: int = len(inputs.RGB_SIZES)  # payloads per balanced size block


RGB_MIXED = ServeWorkload(
    "serve_rgb_mixed",
    ("--workers", "2", "--frontend", "async", "--worker-backend", "process"),
    rate=3.0, capacity_hint=20.0,
)


def reference_model():
    """The served network, built in-process: collapsed M5 x2, seed 0."""
    from repro import api

    return api.compile_model(api.collapse(api.load("M5", scale=2, seed=0)))


def reference_bytes(model, payload: bytes) -> bytes:
    from repro import api
    from repro.datasets import decode_netpbm, encode_netpbm

    return encode_netpbm(api.upscale(model, decode_netpbm(payload), tile=TILE))


class Server:
    """One ``repro serve`` process started through ``serve_main.py``."""

    def __init__(self, serve_args, spans_path: str = "",
                 log_path: Optional[str] = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve_main.py")]
        if spans_path:
            cmd += ["--spans", spans_path]
        cmd += ["--", "--port", "0", *serve_args]
        self.launched = now()
        self._log = open(log_path or os.devnull, "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_port(timeout=60.0)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)

    def _await_port(self, timeout: float) -> int:
        deadline = now() + timeout
        while now() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if " on http://" in line:
                return int(line.split(" on http://")[1].split()[0]
                           .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def first_correct(self, payload: bytes, expected: bytes,
                      timeout: float = 60.0) -> float:
        """Seconds from launch to the first correct /v1/upscale answer."""
        deadline = now() + timeout
        conn = httpload.Connection("127.0.0.1", self.port)
        try:
            while now() < deadline:
                status, headers, body = conn.request(
                    "POST", "/v1/upscale", payload)
                if (status == 200 and headers.get("x-degraded") == "false"
                        and body == expected):
                    return now() - self.launched
        finally:
            conn.close()
        raise RuntimeError("no correct /v1/upscale answer during set-up")

    def stats(self) -> dict:
        conn = httpload.Connection("127.0.0.1", self.port)
        try:
            status, _, body = conn.request("GET", "/v1/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and its children."""
        return sum(_hwm_kb(pid) for pid in _tree(self.proc.pid)) / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill as a last resort.
        Returns once the server and every process it started are gone."""
        family = _tree(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        self._log.close()
        for grace, sig in ((30.0, signal.SIGKILL), (10.0, None)):
            deadline = now() + grace
            while any(_alive(p) for p in family) and now() < deadline:
                time.sleep(0.05)
            for pid in filter(_alive, family):
                if sig is None:
                    raise RuntimeError(f"server child {pid} did not exit")
                os.kill(pid, sig)


def _tree(pid: int) -> List[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def _alive(pid: int) -> bool:
    """Running (not reaped, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _counters(stats: dict) -> Dict[str, float]:
    flat = dict(stats.get("counters", {}))
    flat["dataplane.respawns"] = stats.get("dataplane", {}).get("respawns", 0)
    return flat


def counter_deltas(before: dict, after: dict) -> Dict[str, float]:
    """The engine counters over the measured phases."""
    a, b = _counters(before), _counters(after)
    d = {k: b.get(k, 0) - a.get(k, 0) for k in set(a) | set(b)}
    tiles = d.get("engine.tiles", 0)
    requests = d.get("engine.requests_total", 0)
    batches = d.get("engine.batches", 0)
    return {
        "engine.mean_batch_size": tiles / batches if batches else 0.0,
        "engine.coalesce_ratio":
            d.get("engine.coalesced_tiles", 0) / tiles if tiles else 0.0,
        "engine.tiles_per_request": tiles / requests if requests else 0.0,
        "engine.tile_retries": d.get("engine.tile_retries", 0),
        "engine.batch_fallbacks": d.get("engine.batch_fallbacks", 0),
        "engine.cache_hit_ratio":
            d.get("engine.cache_hits", 0) / requests if requests else 0.0,
        "dataplane.worker_respawns": d.get("dataplane.respawns", 0),
    }


def lateness_bound_ms(wl: ServeWorkload) -> float:
    """Generator lateness (p99) that voids a run: a tenth of the mean gap
    between arrivals."""
    return 100.0 / wl.rate


def split(seconds: float) -> Tuple[float, float]:
    """Open-loop and closed-loop share of a run: latency percentiles need
    more samples than the capacity estimate does."""
    return 0.75 * seconds, 0.25 * seconds


def arrivals(wl: ServeWorkload, t_open: float) -> np.ndarray:
    """The frozen Poisson arrival times (seconds) within the open loop,
    conditioned on their count being ``rate * t_open``: given the count,
    Poisson arrival times are sorted uniform draws.  A free count came
    out 45 instead of 63 at 3 req/s over 21 s, and the latency
    percentiles of a run are only as steady as its sample count allows."""
    rng = np.random.default_rng([ARRIVALS_SEED, 7])
    n = max(1, round(wl.rate * t_open))
    return np.sort(rng.uniform(0.0, t_open, n))


def _ok(i, status, headers, body) -> bool:
    return status == 200 and headers.get("x-degraded") == "false"


def run_phases(wl: ServeWorkload, server: Server, payloads: List[bytes],
               seconds: float, seed: int) -> dict:
    """The open-loop phase, then the closed-loop phase; every response
    body is kept for the output check."""
    t_open, t_closed = split(seconds)
    schedule = arrivals(wl, t_open)
    bodies: Dict[int, bytes] = {}

    def keep(sample, body) -> None:
        if body is not None:
            bodies[sample.index] = body

    before = server.stats()
    opened = httpload.open_loop(
        "127.0.0.1", server.port, payloads, 0, schedule, t_open, CONNS,
        _ok, keep)
    closed = httpload.closed_loop(
        "127.0.0.1", server.port, payloads, len(schedule), t_closed, CONNS,
        _ok, keep)
    after = server.stats()
    return {"open": opened, "closed": closed, "bodies": bodies,
            "counters": counter_deltas(before, after),
            "peak_rss_mb": server.peak_rss_mb()}


def check_sample(phases: dict, seed: int) -> List[int]:
    """A seeded sample of each phase's successful responses."""
    rng = np.random.default_rng([seed, 11])
    picked: List[int] = []
    for phase in (phases["open"], phases["closed"]):
        done = [s.index for s in phase.samples if s.ok]
        if done:
            k = min(CHECK_SAMPLES, len(done))
            picked += sorted(int(i) for i in rng.choice(done, k, False))
    return picked


def make_payloads(wl: ServeWorkload, seed: int, seconds: float) -> List[bytes]:
    """The open-loop frames (sizes in the frozen order of the arrival
    trace), then the closed-loop frames (sizes in seeded order)."""
    t_open, t_closed = split(seconds)
    n_open = len(arrivals(wl, t_open))
    n_closed = int(wl.capacity_hint * t_closed) + 16
    return (inputs.rgb_frames(seed, n_open, 1, order_seed=ARRIVALS_SEED)
            + inputs.rgb_frames(seed, n_closed, 2))


def setup_payloads(seed: int) -> List[bytes]:
    """Distinct one-tile frames for the set-up probes."""
    return inputs.rgb_frames(seed, SETUP_REPS, 3, sizes=((96, 96),))


def launch_measured(wl: ServeWorkload, seed: int, model, out_dir: str,
                    spans_path: str = "", reps: int = SETUP_REPS
                    ) -> Tuple[Server, List[float]]:
    """Set the server up ``reps`` times; keep the last one running."""
    probes = setup_payloads(seed)
    expected = [reference_bytes(model, p) for p in probes]
    log = os.path.join(out_dir, f"{wl.name}-server.log")
    setups = []
    server = None
    for rep in range(reps):
        last = rep == reps - 1
        server = Server(wl.serve_args, spans_path if last else "", log)
        try:
            setups.append(server.first_correct(probes[rep], expected[rep]))
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()
    return server, setups


def warm_up(wl: ServeWorkload, server: Server, seed: int) -> None:
    """Distinct frames of every size on every connection, so each worker
    has run each tile shape before the phases start (lazy start-up is
    part of set-up time, not of the measured phases)."""
    frames = inputs.rgb_frames(seed, WARM_UP * wl.block, 4)
    phase = httpload.closed_loop("127.0.0.1", server.port, frames, 0, 30.0,
                                 CONNS, _ok)
    if phase.failed:
        raise RuntimeError(f"warm-up failed: {phase.errors[:1]}")


def measure(wl: ServeWorkload, seed: int, seconds: float, out_dir: str,
            spans_path: str = "", setup_reps: int = SETUP_REPS) -> dict:
    """One full pass: set-ups, warm-up, phases, shutdown, output check."""
    payloads = make_payloads(wl, seed, seconds)
    model = reference_model()
    server, setups = launch_measured(wl, seed, model, out_dir, spans_path,
                                     setup_reps)
    try:
        warm_up(wl, server, seed)
        phases = run_phases(wl, server, payloads, seconds, seed)
    finally:
        server.stop()
    picked = check_sample(phases, seed)
    bodies = phases.pop("bodies")
    mismatched = [i for i in picked
                  if bodies[i] != reference_bytes(model, payloads[i])]
    phases.update(setups=setups, checked=len(picked), mismatched=mismatched,
                  payloads=payloads)
    return phases
