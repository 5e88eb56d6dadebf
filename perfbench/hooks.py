"""Span wrappers around the public entry points of each layer.

Installed only for the traced run: :func:`install_server` in the server
process (by ``serve_main.py`` before it calls ``repro.cli serve``) and
:func:`install_train` / :func:`install_offline` in the benchmark's own
process.  The program itself is not changed; every wrapper calls through
to the original function.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, List, Optional

from .spans import Recorder, now

_CURRENT = threading.local()  # trace ids of the tile jobs this worker runs


def _wrap(owner, attr: str, make: Callable) -> None:
    original = getattr(owner, attr)  # AttributeError: the layer moved
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _timed(rec: Recorder, name: str, parent_name=None):
    def make(fn):
        def wrapper(*args, **kwargs):
            with rec.span(name, parent_name=parent_name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _trace_id(value) -> Optional[str]:
    return (value or "").strip().lower() or None


def _per_job(rec: Recorder, name: str):
    """A call a dispatcher thread makes for the tile jobs it took from the
    scheduler; the span is charged to each of those requests."""
    def make(fn):
        def wrapper(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                traces: List[str] = getattr(_CURRENT, "traces", [])
                for trace in traces:
                    rec.add(name, start, end, trace,
                            parent_name="engine.request", batch=len(traces))
        return wrapper
    return make


def install_server(rec: Recorder) -> None:
    """Wrap the async HTTP front-end, the colour path, the engine, the
    scheduler and the process pool."""
    from repro.dataplane import aserver
    from repro.dataplane.pool import ProcessWorkerPool
    from repro.serve import engine, http, scheduler

    def handler(fn):  # one asyncio task per connection
        async def wrapper(self, method, path, headers, reader):
            trace = _trace_id(headers.get("x-trace-id"))
            with rec.span("frontend.handler", trace=trace):
                return await fn(self, method, path, headers, reader)
        return wrapper

    def with_trace(name: str, parent_name: str):
        def make(fn):
            def wrapper(*args, trace_id=None, **kwargs):
                with rec.span(name, trace=_trace_id(trace_id),
                              parent_name=parent_name):
                    return fn(*args, trace_id=trace_id, **kwargs)
            return wrapper
        return make

    put_at = {}  # id(job) -> when BatchScheduler.put took it

    def put(fn):
        def wrapper(self, job):
            put_at[id(job)] = now()
            return fn(self, job)
        return wrapper

    def get(fn):
        def wrapper(self, *args, **kwargs):
            batch = fn(self, *args, **kwargs)
            end = now()
            traces = []
            for job in batch or ():
                trace = job.request.ctx.trace_id
                traces.append(trace)
                start = put_at.pop(id(job), job.enqueued)
                rec.add("engine.queue_wait", start, end, trace,
                        parent_name="engine.request")
            _CURRENT.traces = traces
            return batch
        return wrapper

    _wrap(aserver.AsyncSRServer, "_dispatch", handler)
    _wrap(aserver, "decode_netpbm", _timed(rec, "datasets.decode"))
    _wrap(aserver, "encode_netpbm", _timed(rec, "datasets.encode"))
    # upscale_array_ex lives in serve.http and looks the colour helpers
    # up there; the async server imported it by name.
    for attr in ("rgb_to_ycbcr", "ycbcr_to_rgb", "bicubic_upscale"):
        _wrap(http, attr, _timed(rec, "datasets.colour"))
    _wrap(http, "upscale_array_ex",
          with_trace("serve.upscale_array_ex", "frontend.handler"))
    aserver.upscale_array_ex = http.upscale_array_ex
    _wrap(engine.InferenceEngine, "upscale_ex",
          with_trace("engine.request", "serve.upscale_array_ex"))
    _wrap(scheduler.BatchScheduler, "put", put)
    _wrap(scheduler.BatchScheduler, "get", get)
    _wrap(ProcessWorkerPool, "submit", _per_job(rec, "dataplane.submit"))


def install_offline(rec: Recorder) -> None:
    """Wrap the compiled executor's run (one span per call, with shape)."""
    from repro.compile.executor import CompiledModel

    def run(fn):
        def wrapper(self, x, *args, **kwargs):
            with rec.span("compile.run", shape="x".join(map(str, x.shape))):
                return fn(self, x, *args, **kwargs)
        return wrapper

    _wrap(CompiledModel, "run", run)


def install_train(rec: Recorder, trainer) -> None:
    """Wrap forward (model + loss), backward, optimiser step and the
    per-step collapse of every linear block."""
    from repro.core import CollapsibleLinearBlock
    from repro.nn import Tensor

    model = trainer.model
    model.forward = _timed(rec, "train.forward")(model.forward)
    trainer.loss_fn = _timed(rec, "train.forward")(trainer.loss_fn)
    trainer.optimizer.step = _timed(rec, "train.optim")(trainer.optimizer.step)
    _wrap(Tensor, "backward", _timed(rec, "train.backward"))
    for attr in ("collapsed_weight", "collapsed_bias"):
        _wrap(CollapsibleLinearBlock, attr, _timed(rec, "core.collapse"))
