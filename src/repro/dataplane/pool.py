"""Supervised process worker pool: the engine's GIL-free execution plane.

:class:`ProcessWorkerPool` owns N **spawned** worker processes (fork is
never used: the engine is heavily threaded and a forked child would
inherit arbitrarily-held locks), one duplex pipe each, and one
:class:`~repro.dataplane.SharedTileArena` they all map.  The engine's
dispatcher threads call :meth:`submit` — check out an idle worker, lease
an arena slot, copy the input tiles in, exchange envelopes, copy the
result out — and block on ``conn.recv()`` in between, which releases the
GIL: with the heavy NumPy work in child processes, N workers give true
parallel tile compute instead of the thread backend's GIL convoy.

Supervision mirrors the engine's thread supervisor, one layer down:

* a worker that dies mid-job (``kill -9``, segfault, OOM) surfaces as a
  broken pipe in :meth:`submit`; the pool confirms the death (terminate +
  join) **before** recycling the job's arena slot, replaces the worker,
  and raises :class:`ProcessWorkerDied` — an ordinary ``Exception``, so
  the engine's existing per-tile retry budget re-runs the job on a live
  worker and the request survives;
* a worker that dies while idle is found by :meth:`supervise` (the engine
  supervisor thread calls it every heartbeat) or lazily at checkout, and
  replaced the same way;
* replacement workers get the same pickled plan/weights handoff the
  originals got, so a respawn never recompiles or reloads checkpoints.

:meth:`shutdown` drains politely (shutdown envelope, bounded join),
terminates stragglers, and closes + unlinks the arena — after it returns
there is no worker process and no ``/dev/shm`` segment left (the CLI's
SIGINT/SIGTERM drain path relies on this; pinned by
``tests/dataplane/test_shutdown_reap.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import trace as _trace
from .arena import SharedTileArena, slot_layout
from .envelope import JobEnvelope, ReplyEnvelope, TraceContext
from .worker import worker_main

__all__ = [
    "PoolClosed",
    "ProcessWorkerDied",
    "ProcessWorkerPool",
    "RemoteComputeError",
]


class ProcessWorkerDied(RuntimeError):
    """A worker process died with a job in flight (retryable)."""


class PoolClosed(RuntimeError):
    """The pool is shut down and no longer accepts work."""


class _WorkerHandle:
    """One worker process plus its parent-side pipe end."""

    __slots__ = ("proc", "conn", "wid")

    def __init__(self, proc, conn, wid: int) -> None:
        self.proc = proc
        self.conn = conn
        self.wid = wid

    def alive(self) -> bool:
        return self.proc.is_alive()


class ProcessWorkerPool:
    """N spawned workers + shared arena behind a thread-safe ``submit``.

    Parameters
    ----------
    model:
        The deployable network every worker rebuilds from a pickled
        handoff (normally a :class:`~repro.compile.CompiledModel`; any
        picklable module with the predict contract works).
    workers:
        Process count (>= 1).
    tile, halo, scale, max_batch:
        Arena slot geometry — see :func:`~repro.dataplane.slot_layout`.
    spare_slots:
        Extra arena slots beyond ``workers`` so slot recycling after a
        crash never starves dispatch.
    alloc_timeout:
        Seconds to wait for a free slot/worker before treating the
        condition as a transient (retryable) failure.
    """

    def __init__(
        self,
        model,
        workers: int,
        tile: Tuple[int, int],
        halo: int,
        scale: int,
        max_batch: int = 8,
        spare_slots: int = 2,
        alloc_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            self._model_bytes = pickle.dumps(model)
        except Exception as exc:
            raise ValueError(
                "worker_backend='process' needs a picklable model "
                f"(plan/weights handoff failed: {exc!r}); compiled zoo "
                "models pickle — custom modules must too, or use the "
                "thread backend"
            ) from exc
        self.workers = workers
        self.alloc_timeout = alloc_timeout
        in_bytes, out_bytes = slot_layout(tile, halo, scale, max_batch)
        self.arena = SharedTileArena(
            in_bytes, out_bytes, slots=workers + spare_slots
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._idle_cond = threading.Condition(self._lock)
        self._idle: deque = deque()
        self._handles: List[_WorkerHandle] = []
        self._closed = False
        self._seq = 0
        self._next_wid = 0
        self._deaths = 0
        self._respawns = 0
        self._submitted = 0
        with self._lock:
            for _ in range(workers):
                h = self._spawn()
                self._handles.append(h)
                self._idle.append(h)

    # ------------------------------------------------------------------ #
    # spawning
    # ------------------------------------------------------------------ #
    def _spawn(self) -> _WorkerHandle:
        """Start one worker (caller holds the lock)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._next_wid += 1
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._model_bytes, self.arena.name,
                  self.arena.in_bytes, self.arena.out_bytes,
                  self.arena.slots),
            name=f"sr-dataplane-{self._next_wid}",
            daemon=True,
        )
        with _spawn_pythonpath():
            proc.start()
        child_conn.close()  # the child holds its own copy
        return _WorkerHandle(proc, parent_conn, self._next_wid)

    def _replace(self, handle: _WorkerHandle) -> None:
        """Confirm ``handle`` dead and staff a replacement (locked)."""
        # Join/terminate FIRST: only a confirmed-dead worker's slot may be
        # recycled (see arena generation contract).
        _reap(handle)
        with self._idle_cond:
            if self._closed:
                return
            try:
                self._handles.remove(handle)
            except ValueError:  # already replaced by another thread
                return
            self._deaths += 1
            self._respawns += 1
            fresh = self._spawn()
            self._handles.append(fresh)
            self._idle.append(fresh)
            self._idle_cond.notify()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _checkout(self) -> _WorkerHandle:
        deadline_left = self.alloc_timeout
        with self._idle_cond:
            while True:
                if self._closed:
                    raise PoolClosed("pool is shut down")
                while self._idle:
                    handle = self._idle.popleft()
                    if handle.alive():
                        return handle
                    # Died while idle: replace outside the wait.
                    threading.Thread(
                        target=self._replace, args=(handle,), daemon=True
                    ).start()
                if not self._idle_cond.wait(timeout=deadline_left):
                    raise ProcessWorkerDied(
                        f"no live worker became idle in {self.alloc_timeout}s"
                    )

    def _checkin(self, handle: _WorkerHandle) -> None:
        with self._idle_cond:
            if self._closed:
                return
            self._idle.append(handle)
            self._idle_cond.notify()

    def submit(
        self,
        patches: np.ndarray,
        ctx: Optional[_trace.SpanContext] = None,
    ) -> np.ndarray:
        """Run an ``(N, h, w, 1)`` float32 tile stack on a worker process.

        The stack is computed bit-identically per sample
        (:func:`repro.serve.predict_batch_exact`).  Returns the
        ``(N, s·h, s·w)`` result (a fresh array — the arena slot is
        recycled before this returns).  Worker spans finished during the
        job are ingested into this process's tracer under ``ctx``.  Raises :class:`ProcessWorkerDied` when the worker dies
        mid-job (retryable) and re-raises compute errors as
        :class:`RemoteComputeError`.
        """
        if patches.ndim != 4 or patches.shape[-1] != 1:
            raise ValueError(
                f"expected an (N, h, w, 1) stack, got {patches.shape}"
            )
        n, h, w = patches.shape[:3]
        handle = self._checkout()
        slot = None
        worker_dead = False
        try:
            slot = self.arena.alloc(timeout=self.alloc_timeout)
            view = self.arena.in_view(slot, (n, h, w, 1))
            np.copyto(view, patches)
            del view
            with self._lock:
                self._seq += 1
                seq = self._seq
                self._submitted += 1
            job = JobEnvelope(
                kind="run", seq=seq, slot=slot.index,
                generation=slot.generation, shape=(n, h, w),
                trace=TraceContext.from_span_context(ctx),
            )
            try:
                handle.conn.send(job)
                reply: ReplyEnvelope = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                worker_dead = True
                raise ProcessWorkerDied(
                    f"worker pid={handle.proc.pid} died mid-job "
                    f"(seq {seq}): {exc!r}"
                ) from exc
            return self._accept(reply, seq, slot)
        finally:
            if worker_dead:
                # Reap (which also makes slot recycling safe), replace,
                # and only then free the dead worker's slot.
                self._replace(handle)
                if slot is not None:
                    self.arena.free(slot)
            else:
                if slot is not None:
                    self.arena.free(slot)
                self._checkin(handle)

    def _accept(self, reply: ReplyEnvelope, seq: int, slot) -> np.ndarray:
        """Validate a reply and copy the result out of the arena."""
        from .arena import StaleSlot

        if reply.seq != seq or (reply.ok and (
                reply.slot != slot.index
                or reply.generation != slot.generation)):
            raise StaleSlot(
                f"reply names seq={reply.seq} slot={reply.slot} "
                f"gen={reply.generation}, expected seq={seq} "
                f"slot={slot.index} gen={slot.generation}"
            )
        tracer = _trace.get_tracer()
        for sp in reply.spans:
            tracer.ingest(sp)
        if not reply.ok:
            raise RemoteComputeError(reply.error_type, reply.error_message)
        self.arena.check(slot)
        return np.array(self.arena.out_view(slot, reply.shape))

    def ping(self, timeout: Optional[float] = None) -> int:
        """Round-trip a liveness probe through one worker; returns its pid."""
        handle = self._checkout()
        try:
            with self._lock:
                self._seq += 1
                seq = self._seq
            handle.conn.send(JobEnvelope(kind="ping", seq=seq))
            if timeout is not None and not handle.conn.poll(timeout):
                raise ProcessWorkerDied("ping timed out")
            reply = handle.conn.recv()
        except (EOFError, OSError) as exc:
            self._replace(handle)
            raise ProcessWorkerDied(f"worker died during ping: {exc!r}")
        self._checkin(handle)
        return reply.pid

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    def supervise(self) -> int:
        """Replace workers that died while idle; returns replacements made.

        Called from the engine's supervisor heartbeat.  Workers dead
        *mid-job* are handled inline by :meth:`submit`; this sweep covers
        deaths that nothing was waiting on.
        """
        with self._idle_cond:
            if self._closed:
                return 0
            dead = [h for h in self._handles if not h.alive()]
        for handle in dead:
            self._replace(handle)
        return len(dead)

    def pids(self) -> List[int]:
        """Live worker process ids."""
        with self._lock:
            return [h.proc.pid for h in self._handles if h.alive()]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain workers, reap every process, unlink the arena.  Idempotent."""
        with self._idle_cond:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            self._handles.clear()
            self._idle.clear()
            self._idle_cond.notify_all()
        for h in handles:
            try:
                h.conn.send(JobEnvelope(kind="shutdown", seq=0))
            except (OSError, BrokenPipeError):
                pass
        for h in handles:
            h.proc.join(timeout=timeout)
        for h in handles:
            _reap(h)
        self.arena.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            alive = sum(1 for h in self._handles if h.alive())
            out = {
                "backend": "process",
                "workers": len(self._handles),
                "alive": alive,
                "deaths": self._deaths,
                "respawns": self._respawns,
                "jobs_submitted": self._submitted,
            }
        out["arena"] = self.arena.stats()
        return out


class RemoteComputeError(RuntimeError):
    """A worker's compute failed; carries the remote type name + message."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


def _reap(handle: _WorkerHandle) -> None:
    """Make absolutely sure a worker process is dead and its pipe closed."""
    try:
        handle.conn.close()
    except OSError:  # pragma: no cover
        pass
    if handle.proc.is_alive():
        handle.proc.terminate()
        handle.proc.join(timeout=5.0)
        if handle.proc.is_alive():  # pragma: no cover — kill of last resort
            handle.proc.kill()
            handle.proc.join(timeout=5.0)
    else:
        handle.proc.join(timeout=1.0)


class _spawn_pythonpath:
    """Make ``repro`` importable in spawned children even when the parent
    got it from ``sys.path`` manipulation rather than an install.

    Spawn re-imports everything from scratch; ``PYTHONPATH`` is the one
    channel that survives into the child's fresh interpreter.
    """

    def __enter__(self) -> None:
        import repro

        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        self._prev = os.environ.get("PYTHONPATH")
        parts = [src_root] + (
            self._prev.split(os.pathsep) if self._prev else []
        )
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))

    def __exit__(self, *exc) -> None:
        if self._prev is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = self._prev
