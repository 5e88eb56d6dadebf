"""The ``/v1`` wire-contract constants and the colour path of the server.

The HTTP front-end itself is :class:`repro.dataplane.AsyncSRServer`
(:mod:`repro.dataplane.aserver` documents the wire contract); this
module holds what it shares with the rest of :mod:`repro.serve`: the
route table, the accepted media types, the body-size default, the
trace-id format, :func:`upscale_array_ex` (the colour protocol of
``repro.cli upscale``) and :func:`make_server`, the one factory.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from ..datasets import rgb_to_ycbcr, ycbcr_to_rgb
from ..datasets.degradation import bicubic_upscale
from .engine import InferenceEngine, UpscaleResult

MAX_BODY_BYTES = 64 * 1024 * 1024  # 8K RGB16 fits with headroom

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

API_VERSION = "v1"

#: media types accepted for POST /v1/upscale.  Netpbm has no single
#: registered type and simple clients (curl --data-binary, urllib) send
#: form/plain/none defaults, so the gate is an allow-list, not one type.
_ACCEPTED_MEDIA_PREFIXES = ("image/",)
_ACCEPTED_MEDIA_TYPES = frozenset({
    "",  # no Content-Type header at all
    "application/octet-stream",
    "application/x-www-form-urlencoded",  # urllib/curl POST default
    "text/plain",
})

_TRACE_ID_RE = re.compile(r"[0-9a-f]{16}$")

_ROUTES = ("/upscale", "/healthz", "/stats", "/metrics")


def upscale_array_ex(engine: InferenceEngine, img: np.ndarray,
                     timeout: Optional[float] = None,
                     trace_id: Optional[str] = None) -> UpscaleResult:
    """Upscale a decoded image, colour-handling like ``cmd_upscale``.

    Colour inputs follow the paper's protocol: the engine handles the Y
    channel (including its retry/degraded machinery — the result is
    tagged degraded whenever the Y path was), chroma is bicubic.
    ``trace_id`` propagates to the engine's request span (see
    :meth:`~repro.serve.InferenceEngine.upscale_ex`).
    """
    if img.ndim == 2:
        return engine.upscale_ex(img, timeout=timeout, trace_id=trace_id)
    ycbcr = rgb_to_ycbcr(img)
    y_res = engine.upscale_ex(
        np.ascontiguousarray(ycbcr[..., 0]), timeout=timeout,
        trace_id=trace_id,
    )
    cb = bicubic_upscale(ycbcr[..., 1], engine.scale)
    cr = bicubic_upscale(ycbcr[..., 2], engine.scale)
    rgb = ycbcr_to_rgb(np.stack([y_res.image, cb, cr], axis=2))
    return UpscaleResult(rgb, degraded=y_res.degraded, cached=y_res.cached,
                         reason=y_res.reason, trace_id=y_res.trace_id)


def make_server(
    engine: InferenceEngine,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_body_bytes: int = MAX_BODY_BYTES,
):
    """Bind an :class:`~repro.dataplane.AsyncSRServer` over ``engine``;
    ``port=0`` picks an ephemeral port."""
    # Imported lazily — repro.dataplane imports repro.serve.
    from ..dataplane.aserver import AsyncSRServer

    return AsyncSRServer(engine, (host, port), max_body_bytes=max_body_bytes)
