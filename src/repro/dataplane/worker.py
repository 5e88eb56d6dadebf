"""Process-worker main loop: attach, compute, reply.

Spawned (never forked — a threaded parent's locks must not leak into
children) with three pickled arguments: its end of a duplex pipe, the
**plan/weights handoff** — ``pickle.dumps`` of the engine's model, a
:class:`~repro.compile.CompiledModel` whose ``__getstate__`` carries just
the optimised graph (weights by reference) and buffer plan — and the
shared arena's name/geometry.  The worker rebuilds the model once at
startup (plan and steps re-prepared, per-shape arenas grown lazily, all
planner-sized) and then serves :class:`~repro.dataplane.JobEnvelope`\\ s
until told to shut down.

Compute goes through the *same* function the thread backend calls —
:func:`repro.serve.predict_batch_exact` — so process and thread workers
are bit-identical by construction, not by testing luck (the tests pin it
anyway).

Observability: the worker installs a fresh process-local
:class:`~repro.obs.Tracer` whose only job is collecting the spans each
job finishes; they are shipped back in the reply for the engine to
:meth:`~repro.obs.Tracer.ingest`.  The job's
:class:`~repro.dataplane.TraceContext` is re-attached around compute so
worker spans parent correctly under the engine's dispatching span.

Failure containment: any ``Exception`` during compute becomes an
``ok=False`` reply (type name + message only) and the worker lives on;
only pipe loss (the engine died) or an explicit shutdown envelope ends
the loop.  The worker double-checks the slot's generation stamp before
reading input and before writing output, so even a severely delayed job
cannot scribble over a recycled slot.
"""

from __future__ import annotations

import os
import pickle
from typing import List

import numpy as np

from ..obs import trace as _trace
from .arena import attach_arena
from .envelope import JobEnvelope, ReplyEnvelope

__all__ = ["worker_main"]


class _SpanCollector:
    """Tracer exporter that batches finished spans per job."""

    def __init__(self) -> None:
        self._spans: List[_trace.Span] = []

    def export(self, span: _trace.Span) -> None:
        self._spans.append(span)

    def drain(self) -> List[_trace.Span]:
        spans, self._spans = self._spans, []
        return spans


def worker_main(conn, model_bytes: bytes, arena_name: str,
                in_bytes: int, out_bytes: int, slots: int) -> None:
    """Entry point of one dataplane worker process."""
    collector = _SpanCollector()
    _trace.set_tracer(_trace.Tracer(exporters=[collector]))
    model = pickle.loads(model_bytes)
    arena = attach_arena(arena_name, in_bytes, out_bytes, slots)
    # predict_batch_exact lives in repro.serve.engine; imported here (not
    # at module top) so a worker only pays for the serving imports it
    # really uses.
    from ..serve.engine import predict_batch_exact

    scale = getattr(model, "scale", 1)
    try:
        while True:
            try:
                job: JobEnvelope = conn.recv()
            except (EOFError, OSError):
                return  # engine side went away; nothing left to serve
            if job.kind == "shutdown":
                conn.send(ReplyEnvelope(seq=job.seq, ok=True, pid=os.getpid()))
                return
            if job.kind == "ping":
                conn.send(ReplyEnvelope(seq=job.seq, ok=True, pid=os.getpid()))
                continue
            conn.send(_run_job(
                job, model, arena, scale, collector, predict_batch_exact,
            ))
    finally:
        arena.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover — already torn down
            pass


def _run_job(job, model, arena, scale, collector,
             predict_batch_exact) -> ReplyEnvelope:
    """Compute one envelope; never raises (errors travel in the reply)."""
    from .arena import ArenaSlot, StaleSlot

    slot = ArenaSlot(job.slot, job.generation)
    n, h, w = job.shape
    try:
        arena.check(slot)
        patches = arena.in_view(slot, (n, h, w, 1))
        ctx = None if job.trace is None else job.trace.to_span_context()
        with _trace.attach(ctx):
            with _trace.span(
                "dataplane.compute", pid=os.getpid(), tiles=n,
                h=h, w=w,
            ):
                outs = predict_batch_exact(model, patches)
        out_shape = (n, h * scale, w * scale)
        # Re-verify before publishing: if the engine recycled the slot
        # while we computed (it only does that once it believes this
        # process dead), refuse to touch it.
        arena.check(slot)
        np.copyto(arena.out_view(slot, out_shape), outs)
        return ReplyEnvelope(
            seq=job.seq, slot=job.slot, generation=job.generation,
            ok=True, shape=out_shape, spans=collector.drain(),
            pid=os.getpid(),
        )
    except StaleSlot as exc:
        collector.drain()
        return ReplyEnvelope(
            seq=job.seq, slot=job.slot, generation=job.generation,
            ok=False, error_type="StaleSlot", error_message=str(exc),
            pid=os.getpid(),
        )
    except Exception as exc:  # noqa: BLE001 — reported to the engine
        return ReplyEnvelope(
            seq=job.seq, slot=job.slot, generation=job.generation,
            ok=False, error_type=type(exc).__name__,
            error_message=str(exc), spans=collector.drain(),
            pid=os.getpid(),
        )
