"""Process-based execution plane: shared-memory tiles, spawned workers,
and an asyncio HTTP front-end.

The thread backend in :mod:`repro.serve` keeps the engine's *control
plane* (scheduling, retries, circuit breaking, tracing) simple, but its
compute runs under the GIL: the committed throughput table shows four
thread workers delivering *less* than one.  This package is the escape
hatch — a **data plane** of spawned worker processes that the existing
dispatcher threads proxy compute to:

* :mod:`~repro.dataplane.arena` — one ``multiprocessing.shared_memory``
  segment partitioned into generation-tagged slots, free-list allocated;
  tile pixels cross the process boundary by being *mapped*, never
  pickled, and a crashed worker's slot cannot be recycled into a live
  frame.
* :mod:`~repro.dataplane.envelope` — the few-dozen-byte job/reply
  messages that travel the pipes instead, carrying slot leases and the
  request's :class:`TraceContext` outbound and finished
  :class:`~repro.obs.Span`\\ s inbound.
* :mod:`~repro.dataplane.worker` — the child-process main loop: rebuild
  the :class:`~repro.compile.CompiledModel` from the pickled
  plan/weights handoff, then serve envelopes with the *same*
  ``predict_batch_exact`` the thread backend calls — thread and process
  outputs are bit-identical by construction.
* :mod:`~repro.dataplane.pool` — :class:`ProcessWorkerPool`, the
  supervised pool behind ``EngineConfig(worker_backend="process")``:
  mid-job deaths become retryable :class:`ProcessWorkerDied` (the
  engine's existing retry/requeue machinery absorbs them, so the chaos
  suite passes unmodified), idle deaths are respawned by the engine's
  supervisor heartbeat, and shutdown reaps every process and unlinks the
  arena — nothing is left in ``/dev/shm``.
* :mod:`~repro.dataplane.aserver` — :class:`AsyncSRServer`, an event-loop
  front-end serving the exact ``/v1`` wire contract of
  :class:`repro.serve.SRServer` (routes, error schema, trace-id
  round-trip) without a thread per connection.

Select the backend per engine via
``EngineConfig(worker_backend="process")`` (or the
``REPRO_WORKER_BACKEND`` environment variable), and the front-end via
``repro serve --frontend async``.  See ``docs/serving.md`` for the full
data-plane architecture.
"""

from .arena import (
    ArenaExhausted,
    ArenaSlot,
    SharedTileArena,
    StaleSlot,
    attach_arena,
    slot_layout,
)
from .aserver import AsyncSRServer, make_async_server
from .envelope import JobEnvelope, ReplyEnvelope, TraceContext
from .pool import PoolClosed, ProcessWorkerDied, ProcessWorkerPool, RemoteComputeError
from .worker import worker_main

__all__ = [
    "ArenaExhausted",
    "ArenaSlot",
    "AsyncSRServer",
    "JobEnvelope",
    "PoolClosed",
    "ProcessWorkerDied",
    "ProcessWorkerPool",
    "RemoteComputeError",
    "ReplyEnvelope",
    "SharedTileArena",
    "StaleSlot",
    "TraceContext",
    "attach_arena",
    "make_async_server",
    "slot_layout",
    "worker_main",
]
