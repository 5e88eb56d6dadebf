"""Keep-alive HTTP/1.1 load generator: one process, one thread per connection.

Each request goes out in a single ``sendall`` on a ``TCP_NODELAY``
socket, so no client-side Nagle stall is billed to the server.

The open loop sends on a given schedule of arrival times.  Requests are
timed from when they were due, so a stall also counts against the
requests queued behind it.  A connection thread that is already late
(its previous request ran past the next due time) sends at once; how
late the generator itself woke past a due time it was free for is
recorded separately as ``lateness``.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .spans import now


class Connection:
    """One keep-alive connection to ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def request(self, method: str, path: str, body: bytes = b"",
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, Dict[str, str], bytes]:
        lines = [f"{method} {path} HTTP/1.1", "Host: bench",
                 f"Content-Length: {len(body)}"]
        if body:
            lines.append("Content-Type: application/octet-stream")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        return self._read_response()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, headers, body


@dataclass
class Sample:
    """One request: index of its payload, timings (seconds) and outcome."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    trace: str
    lateness: float = 0.0


@dataclass
class PhaseResult:
    name: str
    samples: List[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def succeeded(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    def latencies_ms(self) -> np.ndarray:
        """Successful requests' latency, timed from when each was due."""
        return np.array([(s.done - s.due) * 1e3
                         for s in self.samples if s.ok])

    def summary(self) -> dict:
        late = np.array([s.lateness * 1e3 for s in self.samples]) \
            if self.samples else np.zeros(1)
        return {
            "sent": self.sent, "succeeded": self.succeeded,
            "failed": self.failed, "seconds": self.ended - self.started,
            "lateness_p50_ms": float(np.percentile(late, 50)),
            "lateness_p99_ms": float(np.percentile(late, 99)),
            "lateness_max_ms": float(late.max()),
            "errors": self.errors[:5],
        }


#: ``check(index, status, headers, body) -> bool`` decides success.
Check = Callable[[int, int, Dict[str, str], bytes], bool]


def _run(name: str, host: str, port: int, payloads: List[bytes],
         first: int, schedule: Optional[np.ndarray], duration: float,
         conns: int, check: Check, on_sample=None) -> PhaseResult:
    """Shared engine of both loops.  ``schedule`` (due offsets) makes it
    an open loop; ``None`` makes each connection send back to back."""
    result = PhaseResult(name)
    lock = threading.Lock()
    nxt = [first]
    limit = first + (len(schedule) if schedule is not None else len(payloads))
    limit = min(limit, len(payloads))
    connections = [Connection(host, port) for _ in range(conns)]
    start = now() + 0.005
    stop_at = start + duration

    def claim() -> Optional[int]:
        with lock:
            i = nxt[0]
            if i >= limit:
                return None
            nxt[0] = i + 1
            return i

    def worker(conn: Connection) -> None:
        free_since = now()
        while True:
            i = claim()
            if i is None:
                return
            if schedule is not None:
                due = start + schedule[i - first]
                if due >= stop_at:
                    return
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
            else:
                due = now()
                if due >= stop_at:
                    return
            sent = now()
            lateness = max(sent - max(due, free_since), 0.0)
            trace = os.urandom(8).hex()
            body = None
            try:
                status, headers, body = conn.request(
                    "POST", "/v1/upscale", payloads[i],
                    {"X-Trace-Id": trace},
                )
                done = now()
                ok = check(i, status, headers, body)
                if not ok:
                    with lock:
                        result.errors.append(
                            f"request {i}: HTTP {status} degraded="
                            f"{headers.get('x-degraded')}")
            except (OSError, ValueError) as exc:
                done, ok = now(), False
                with lock:
                    result.errors.append(f"request {i}: {exc!r}")
            sample = Sample(i, due, sent, done, ok, trace, lateness)
            free_since = done
            with lock:
                result.samples.append(sample)
            if on_sample is not None:
                on_sample(sample, body if ok else None)
            if not ok:
                return  # the connection state is unknown after a failure

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in connections]
    result.started = start
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for c in connections:
            c.close()
    result.ended = max([s.done for s in result.samples] + [start])
    result.samples.sort(key=lambda s: s.index)
    return result


def open_loop(host: str, port: int, payloads: List[bytes], first: int,
              schedule: np.ndarray, duration: float, conns: int,
              check: Check, on_sample=None) -> PhaseResult:
    """Send payload ``first + k`` at ``schedule[k]`` seconds."""
    return _run("open_loop", host, port, payloads, first, schedule,
                duration, conns, check, on_sample)


def closed_loop(host: str, port: int, payloads: List[bytes], first: int,
                duration: float, conns: int, check: Check,
                on_sample=None) -> PhaseResult:
    """``conns`` clients, each sending its next request on completion."""
    return _run("closed_loop", host, port, payloads, first, None,
                duration, conns, check, on_sample)
