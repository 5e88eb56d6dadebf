"""Job/reply envelopes: the tiny pickled messages on a worker's pipe.

Pixels travel through the :mod:`~repro.dataplane.arena`; the pipe only
carries control metadata — which slot, which generation, what shape, and
the request's trace identity.  Keeping the envelope small (a few dozen
bytes) is what keeps per-job IPC overhead negligible next to a conv2d
tile.

:class:`TraceContext` is the explicit cross-process form of
:class:`repro.obs.SpanContext`: the engine stamps the dispatching span's
identity into the envelope, the worker re-attaches it so every span it
opens parents under the engine's ``serve.tile``/``serve.batch`` span, and
the finished spans ride back in :attr:`ReplyEnvelope.spans` for the
engine to :meth:`~repro.obs.Tracer.ingest` — one unbroken
``serve.request`` → tile → ``compile.execute`` tree in ``/metrics``, no
matter which process did the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs.trace import Span, SpanContext

__all__ = ["JobEnvelope", "ReplyEnvelope", "TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Wire form of a span's identity — picklable, dependency-free."""

    trace_id: str
    span_id: str

    @classmethod
    def from_span_context(
        cls, ctx: Optional[SpanContext]
    ) -> Optional["TraceContext"]:
        """Capture a live :class:`~repro.obs.SpanContext` (or ``None``)."""
        if ctx is None:
            return None
        return cls(ctx.trace_id, ctx.span_id)

    def to_span_context(self) -> SpanContext:
        """Rebuild the :class:`~repro.obs.SpanContext` worker-side."""
        return SpanContext(self.trace_id, self.span_id)


@dataclass(frozen=True)
class JobEnvelope:
    """One unit of work for a process worker.

    ``kind`` is ``"run"`` (compute the slot), ``"ping"`` (liveness probe,
    no slot), or ``"shutdown"`` (drain and exit).  ``shape`` is the
    ``(N, h, w)`` stack of halo-padded LR tiles sitting in the slot's
    input region, computed bit-identically per sample.  ``trace`` parents
    the worker's spans under the engine's dispatching span.
    """

    kind: str = "run"
    seq: int = 0
    slot: int = -1
    generation: int = -1
    shape: Tuple[int, int, int] = (0, 0, 0)
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ReplyEnvelope:
    """A worker's answer: where the pixels are and what happened.

    ``ok=False`` carries the exception's type name and message (the
    original object never crosses the boundary — a worker cannot poison
    the engine with an unpicklable or malicious exception payload).
    ``spans`` holds the :class:`~repro.obs.Span` objects finished while
    the job ran, for parent-side ingestion.
    """

    seq: int
    slot: int = -1
    generation: int = -1
    ok: bool = True
    shape: Tuple[int, int, int] = (0, 0, 0)
    error_type: str = ""
    error_message: str = ""
    spans: List[Span] = field(default_factory=list)
    pid: int = 0
