"""``repro.api`` — the supported entry points, in one place.

The repo grew subsystem by subsystem (training, collapse, compiler,
serving), and with it the import paths a user must know.  This module is
the stable facade over that growth: everything a typical consumer of the
reproduction needs — build a model, load a checkpoint, collapse it to
the inference net (Algorithm 2), compile it, run it on an image, and
serve it over HTTP — importable from one namespace whose contents are
the compatibility surface (``docs/api.md`` is generated from it).

>>> from repro import api
>>> model = api.collapse(api.load("M5", scale=2, ckpt="sesr_m5_x2.npz"))
>>> sr = api.upscale(api.compile_model(model), lr_image)

Serving::

>>> config = api.EngineConfig(workers=4, batch_window_ms=3.0)
>>> engine = api.InferenceEngine(
...     api.ModelRegistry(), api.ModelKey("M5", 2), config=config)
>>> server = api.make_server(engine, port=8000)

``make_server`` binds an ``AsyncSRServer``, the event-loop HTTP
front-end; ``ProcessWorkerPool`` is the class behind
``worker_backend="process"``.

Deeper machinery (custom training loops, the NAS searcher, the NPU
estimator, chaos tooling) stays in its subsystem package; this module
deliberately re-exports only the pieces whose signatures we keep stable.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .compile import compile_model
from .core import FSRCNN, SESR
from .dataplane import AsyncSRServer, ProcessWorkerPool
from .datasets import rgb_to_ycbcr, ycbcr_to_rgb
from .datasets.degradation import bicubic_upscale
from .deploy import tiled_upscale
from .nn import Module, load_state
from .serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)
from .train import predict_image

__all__ = [
    "load",
    "collapse",
    "compile_model",
    "upscale",
    "AsyncSRServer",
    "EngineConfig",
    "InferenceEngine",
    "ModelKey",
    "ModelRegistry",
    "ProcessWorkerPool",
    "make_server",
]


def load(name: str = "M5", scale: int = 2, ckpt: str = "",
         seed: int = 0) -> Module:
    """Build a training-shaped model, optionally loading a checkpoint.

    ``name`` is a SESR size (``M3``/``M5``/``M7``/``M11``/``XL``) or
    ``FSRCNN``; ``ckpt`` is an ``.npz`` written by
    :func:`repro.nn.save_state` (e.g. by ``repro.cli train``).
    """
    if name.upper() == "FSRCNN":
        model: Module = FSRCNN(scale=scale, seed=seed)
    else:
        model = SESR.from_name(name, scale=scale, seed=seed)
    if ckpt:
        load_state(model, ckpt)
    return model


def collapse(model: Module) -> Module:
    """The deployable inference net: Algorithm 2, in eval mode.

    Models without a ``collapse`` method (FSRCNN and friends) pass
    through unchanged — they are already inference-shaped.
    """
    deployed = model.collapse() if hasattr(model, "collapse") else model
    deployed.eval()
    return deployed


def upscale(
    model: Module,
    image: np.ndarray,
    scale: Optional[int] = None,
    tile: Optional[Union[int, Tuple[int, int]]] = None,
) -> np.ndarray:
    """Super-resolve one image with the paper's colour protocol.

    Grey ``(H, W)`` inputs go straight through the model; colour
    ``(H, W, 3)`` inputs are super-resolved on the Y channel with
    bicubic-upscaled chroma — the same pixels ``repro.cli upscale`` and
    the HTTP server produce.  ``scale`` defaults to ``model.scale``;
    ``tile`` switches to halo-exact tiled inference (identical bytes,
    bounded memory) for large frames.
    """
    if scale is None:
        scale = getattr(model, "scale", None)
        if scale is None:
            raise ValueError(
                "model has no .scale attribute; pass scale= explicitly"
            )
    image = np.asarray(image, dtype=np.float32)

    def run_y(y: np.ndarray) -> np.ndarray:
        if tile is not None:
            t = (tile, tile) if isinstance(tile, int) else tuple(tile)
            return tiled_upscale(model, y, scale, tile=t)
        return predict_image(model, y)

    if image.ndim == 2:
        return run_y(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(
            f"expected (H, W) grey or (H, W, 3) colour, got {image.shape}"
        )
    ycbcr = rgb_to_ycbcr(image)
    y_sr = run_y(np.ascontiguousarray(ycbcr[..., 0]))
    cb = bicubic_upscale(ycbcr[..., 1], scale)
    cr = bicubic_upscale(ycbcr[..., 2], scale)
    return ycbcr_to_rgb(np.stack([y_sr, cb, cr], axis=2))
