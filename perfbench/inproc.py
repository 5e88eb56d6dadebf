"""The two in-process workloads: offline frames through ``repro.api`` and
the Fig 3 training step through ``repro.train.Trainer``.
"""

from __future__ import annotations

import os
import resource
import statistics
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import hooks, inputs
from .spans import Recorder, now, path_breakdown

SETUP_REPS = 3
#: Offline set-up is ~0.2 s and its first 256x256 call faults in ~100 MB
#: of fresh scratch, so its median needs more draws than training's.
OFFLINE_SETUP_REPS = 7
MIN_CALLS = 3
#: Distinct offline frames, upscaled in turn (one frame per call).
FRAMES = 8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(call: Callable[[int], None], seconds: float) -> List[float]:
    """Call ``call(i)`` back to back for ``seconds`` (no call that the
    previous one says would end past it); per-call seconds."""
    times: List[float] = []
    deadline = now() + seconds
    i = 0
    while (now() + (times[-1] if times else 0.0) <= deadline
           or len(times) < MIN_CALLS):
        t0 = now()
        call(i)
        times.append(now() - t0)
        i += 1
    return times


def conv_cols_bytes(graph, h: int, w: int) -> int:
    """Bytes one im2col pass writes for an ``h x w`` input, summed over
    the graph's convolutions (computed from tensor shapes)."""
    total = 0
    for node in graph.nodes.values():
        if node.op == "conv":
            kh, kw = node.kernel()
            out_px = round(h * node.res_scale) * round(w * node.res_scale)
            total += kh * kw * int(node.attrs["cin"]) * out_px * 4
    return total


def kernel_metrics(prof, calls: int, cols_bytes: int) -> Dict[str, float]:
    """im2col/GEMM time per forward (``calls`` of them) and the GEMM rate
    from a profiler run.

    The compiled executor records its GEMM as ``gemm.*``; the eager conv
    records none, so there GEMM time is ``conv2d`` minus ``im2col``.
    """
    st = prof.stats()

    def ms(name: str) -> float:
        return st[name].total_ms if name in st else 0.0

    im2col = ms("im2col")
    gemm = sum(v.total_ms for k, v in st.items() if k.startswith("gemm."))
    if not gemm:
        gemm = ms("conv2d") - im2col
    macs = st["conv2d"].macs if "conv2d" in st else 0
    return {
        "kernels.im2col_ms": im2col / calls,
        "kernels.gemm_ms": gemm / calls,
        "kernels.gemm_gflops": 2.0 * macs / (gemm / 1e3) / 1e9 if gemm else 0.0,
        "kernels.im2col_mb": cols_bytes / 1e6,
    }


def _layer_ms(spans: List[dict], name: str, per: int) -> float:
    return sum((s["end"] - s["start"]) * 1e3 for s in spans
               if s["name"] == name) / per


# ---------------------------------------------------------------------- #
# offline_frames
# ---------------------------------------------------------------------- #
def offline_setup(frame: np.ndarray) -> Tuple[object, object, float, float]:
    """Build, collapse, compile, one warm-up call; (compiled, deployed,
    set-up seconds, compile seconds)."""
    from repro import api

    t0 = now()
    deployed = api.collapse(api.load("M5", scale=2, seed=0))
    t1 = now()
    compiled = api.compile_model(deployed)
    t2 = now()
    api.upscale(compiled, frame)
    return compiled, deployed, now() - t0, t2 - t1


def offline(seed: int, seconds: float, trace: bool,
            size: Tuple[int, int] = inputs.OFFLINE_SIZE,
            n_frames: int = FRAMES) -> dict:
    """Closed loop of ``repro.api.upscale``, one call per frame, cycling
    through ``n_frames`` distinct frames."""
    from repro import api
    from repro.obs.profiler import profile
    from repro.train import predict_image

    frames = inputs.offline_frames(seed, n_frames, size)
    setups, builds = [], []
    for _ in range(OFFLINE_SETUP_REPS):
        compiled, deployed, setup_s, build_s = offline_setup(frames[0])
        setups.append(setup_s)
        builds.append(build_s)
    first = api.upscale(compiled, frames[0])
    correct = bool(np.array_equal(first, predict_image(deployed, frames[0])))

    outs: List[np.ndarray] = []

    def upscale(y: np.ndarray) -> None:
        outs.append(api.upscale(compiled, y))
        del outs[:-1]

    def call(i: int) -> None:
        upscale(frames[i % len(frames)])

    times = _loop(call, seconds)
    correct = correct and bool(np.isfinite(outs[-1]).all())
    h, w = size
    result = {
        "setups": setups, "times": times, "correct": correct,
        "out_px": 4 * h * w, "samples_per_call": 1,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not trace:
        return result

    rec = Recorder("o")
    hooks.install_offline(rec)
    with profile() as prof:
        def traced(i: int) -> None:
            with rec.span("api.upscale", trace=os.urandom(8).hex()):
                call(i)
        ttimes = _loop(traced, seconds)
    spans = rec.take()
    calls = len(ttimes)
    run_ms = _layer_ms(spans, "compile.run", calls)
    graph = compiled.graph
    layers = {
        "compile.run_ms": run_ms,
        "compile.gflops": 2.0 * graph.macs(h, w) / (run_ms / 1e3) / 1e9,
        "compile.arena_bytes": compiled.memory_stats(h, w)["arena_bytes"],
        "compile.build_ms": statistics.median(builds) * 1e3,
        **kernel_metrics(prof, calls, conv_cols_bytes(graph, h, w)),
    }
    result.update(traced_times=ttimes, spans=spans, layers=layers,
                  paths=path_breakdown(spans, "api.upscale"),
                  run_shapes=sorted({s["attrs"]["shape"] for s in spans
                                     if s["name"] == "compile.run"}))
    return result


# ---------------------------------------------------------------------- #
# train_fig3
# ---------------------------------------------------------------------- #
def train_setup(batch) -> Tuple[object, float, float]:
    """Build SESR-M5 (collapsed training mode) and Adam, run step 1;
    (trainer, set-up seconds, step-1 loss)."""
    from repro.core import SESR
    from repro.train import Trainer

    t0 = now()
    model = SESR(scale=2, f=16, m=5, expansion=256, seed=0, mode="collapsed")
    trainer = Trainer(model, lr=5e-4, loss="l1")
    loss = trainer.train_step(*batch)
    return trainer, now() - t0, loss


def train(seed: int, seconds: float, trace: bool,
          batch: int = inputs.TRAIN_BATCH, patch: int = inputs.TRAIN_PATCH) -> dict:
    from repro import api
    from repro.obs.profiler import profile

    stream = inputs.train_batches(seed, batch, patch)
    first = next(stream)
    setups, losses = [], []
    for _ in range(SETUP_REPS):
        trainer, setup_s, loss = train_setup(first)
        setups.append(setup_s)
        losses.append(loss)
    # Each set-up is an independent fresh model on the same batch: step 1
    # must give the same loss bit for bit.
    correct = len(set(losses)) == 1

    step_losses: List[float] = []

    def call(i: int) -> None:
        step_losses.append(trainer.train_step(*next(stream)))

    times = _loop(call, seconds)
    correct = correct and bool(np.isfinite(step_losses).all())
    result = {
        "setups": setups, "times": times, "correct": correct,
        "out_px": batch * (2 * patch) ** 2, "samples_per_call": batch,
        "peak_rss_mb": peak_rss_mb(), "step1_loss": losses[0],
    }
    if not trace:
        return result

    rec = Recorder("t")
    hooks.install_train(rec, trainer)
    with profile() as prof:
        def traced(i: int) -> None:
            with rec.span("train.step", trace=os.urandom(8).hex()):
                call(i)
        ttimes = _loop(traced, seconds)
    correct = correct and bool(np.isfinite(step_losses).all())
    spans = rec.take()
    steps = len(ttimes)
    graph = api.compile_model(api.collapse(trainer.model)).graph
    layers = {
        "train.forward_ms": _layer_ms(spans, "train.forward", steps),
        "train.backward_ms": _layer_ms(spans, "train.backward", steps),
        "train.optim_ms": _layer_ms(spans, "train.optim", steps),
        "core.collapse_ms": _layer_ms(spans, "core.collapse", steps),
        **kernel_metrics(prof, steps,
                         batch * conv_cols_bytes(graph, patch, patch)),
    }
    result.update(traced_times=ttimes, spans=spans, layers=layers,
                  correct=correct, paths=path_breakdown(spans, "train.step"))
    return result
