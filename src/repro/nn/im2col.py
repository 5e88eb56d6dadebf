"""Patch extraction (im2col), strip-blocked convolution, and folding
(col2im) for NHWC tensors.

Every convolution in the package — :func:`repro.nn.ops.conv2d` forward and
backward, and the compiled executor's conv steps — runs through
:func:`conv_strips`::

    for each sample, for each strip of R output rows:
        cols = copy(extract_patches(x_padded)[i, r0:r1])   # (R*Wo, kh*kw*C)
        out[i, r0:r1] = cols @ W.reshape(kh*kw*C, Cout)     # one sgemm

``extract_patches`` is a zero-copy view built with
``numpy.lib.stride_tricks.as_strided``; the strip copy is the only im2col
traffic, and it lands in a cols buffer of about 1024 rows that stays in
cache for the sgemm that reads it back.  ``R`` depends on the output width
alone (:func:`strip_rows`) and a strip never spans two samples, so a batch
issues exactly the sgemm calls its samples issue alone: batched output is
bit-identical to per-sample output by construction (BLAS output bits depend
on the GEMM row count).  ``fold_patches`` is the adjoint of
``extract_patches`` (scatter-add), used by the convolution backward pass.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import profiler as _profiler

#: Output pixels per strip.  A 5x5x16 patch row is 1.6 KB, so the largest
#: cols strip of this package's convs (1.6 MB) still fits a 2 MB L2.
STRIP_PIXELS = 1024


def extract_patches(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int] = (1, 1)
) -> np.ndarray:
    """View ``x`` (N, H, W, C) as sliding patches (N, Ho, Wo, kh, kw, C).

    The result is a strided **view**; callers must not write to it and should
    reshape/copy before mutating.
    """
    n, h, w, c = x.shape
    kh, kw = kernel
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input {x.shape}"
        )
    sn, sH, sW, sC = x.strides
    return as_strided(
        x,
        shape=(n, ho, wo, kh, kw, c),
        strides=(sn, sH * sh, sW * sw, sH, sW, sC),
        writeable=False,
    )


def strip_rows(wo: int) -> int:
    """Output rows per strip for an output ``wo`` pixels wide (at least 1)."""
    return max(1, STRIP_PIXELS // wo)


def _strips(n: int, ho: int, wo: int):
    """``(sample, first row, end row)`` of every strip, in the order the
    sgemms run."""
    r = strip_rows(wo)
    for i in range(n):
        for r0 in range(0, ho, r):
            yield i, r0, min(r0 + r, ho)


def _strip_cols(patches, i: int, r0: int, r1: int, cols) -> np.ndarray:
    """Copy rows ``r0:r1`` of sample ``i``'s patches into the head of
    ``cols``; returns that (rows, k) matrix."""
    strip = patches[i, r0:r1]
    c = cols[:strip.size]
    np.copyto(c.reshape(strip.shape), strip)
    return c.reshape(strip.shape[0] * strip.shape[1], -1)


def conv_strips(
    xp: np.ndarray,
    wmat: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out = conv(xp, wmat)`` strip by strip: one im2col copy and one
    ``np.matmul(..., out=)`` per strip of :func:`strip_rows` output rows.

    ``xp`` is the padded (N, Hp, Wp, C) input (any strides), ``wmat`` the
    (kh*kw*C, Cout) weight matrix and ``out`` the C-contiguous
    (N, Ho, Wo, Cout) result, written in place (allocated with ``wmat``'s
    dtype when omitted).  ``cols`` is flat scratch of at least
    ``strip_rows(Wo) * Wo * kh*kw*C`` elements (allocated when omitted).
    The active profiler gets one ``im2col`` and one ``gemm.blas`` record
    per strip: the record count is the sgemm count.
    """
    patches = extract_patches(xp, kernel, stride)
    n, ho, wo = patches.shape[:3]
    k, cout = wmat.shape
    if out is None:
        out = np.empty((n, ho, wo, cout), dtype=wmat.dtype)
    elif not out.flags.c_contiguous:
        raise ValueError("conv_strips writes a C-contiguous out array")
    if cols is None:
        cols = np.empty(min(strip_rows(wo), ho) * wo * k, dtype=out.dtype)
    prof = _profiler.ACTIVE
    for i, r0, r1 in _strips(n, ho, wo):
        if prof is not None:
            t0 = time.perf_counter()
        c = _strip_cols(patches, i, r0, r1, cols)
        if prof is not None:
            t1 = time.perf_counter()
            prof.record("im2col", t1 - t0)
        np.matmul(c, wmat, out=out[i, r0:r1].reshape(-1, cout))
        if prof is not None:
            prof.record("gemm.blas", time.perf_counter() - t1)
    return out


def conv_strips_backward(
    xp: np.ndarray,
    wmat: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    g: np.ndarray,
    need_w: bool,
    need_x: bool,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients of :func:`conv_strips` for the upstream gradient ``g``
    (N, Ho, Wo, Cout): ``(dW as (kh*kw*C, Cout), dXp as xp.shape)``, each
    ``None`` unless asked for.

    The strips are the forward's: each one recomputes its cols (so no
    N*Ho*Wo x k matrix outlives the forward), adds ``colsᵀ @ g_strip`` to
    dW and folds ``g_strip @ wmatᵀ`` into its rows of the padded dX.
    """
    patches = extract_patches(xp, kernel, stride)
    _, ho, wo = patches.shape[:3]
    kh, sh = kernel[0], stride[0]
    k, cout = wmat.shape
    gw = np.zeros((k, cout), dtype=g.dtype) if need_w else None
    gxp = np.zeros(xp.shape, dtype=g.dtype) if need_x else None
    cols = np.empty(min(strip_rows(wo), ho) * wo * k, dtype=g.dtype)
    for i, r0, r1 in _strips(g.shape[0], ho, wo):
        gm = g[i, r0:r1].reshape(-1, cout)
        if need_w:
            gw += _strip_cols(patches, i, r0, r1, cols).T @ gm
        if need_x:
            gpatches = (gm @ wmat.T).reshape((1, r1 - r0) + patches.shape[2:])
            rows = slice(r0 * sh, (r1 - 1) * sh + kh)
            fold_patches(gpatches, None, stride, out=gxp[i:i + 1, rows])
    return gw, gxp


def fold_patches(
    patches: np.ndarray,
    out_shape: Optional[Tuple[int, int, int, int]],
    stride: Tuple[int, int] = (1, 1),
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of :func:`extract_patches`: scatter-add patches into an image.

    Parameters
    ----------
    patches:
        Array of shape (N, Ho, Wo, kh, kw, C).
    out_shape:
        Target (N, H, W, C) — the *padded* input shape of the forward conv.
    out:
        Existing target to add into instead (``out_shape`` is then unused).

    Notes
    -----
    The kernel loop runs only ``kh*kw`` times (≤ 25 for this project), with a
    fully vectorized strided-slice add per tap, so the cost is dominated by
    the adds, not the Python loop.
    """
    n, ho, wo, kh, kw, c = patches.shape
    sh, sw = stride
    if out is None:
        out = np.zeros(out_shape, dtype=patches.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + sh * ho : sh, j : j + sw * wo : sw, :] += patches[
                :, :, :, i, j, :
            ]
    return out


def dilate2d(x: np.ndarray, stride: Tuple[int, int]) -> np.ndarray:
    """Insert ``stride-1`` zeros between spatial elements of (N, H, W, C).

    Used to express transposed convolution (FSRCNN's deconv head) in terms of
    ordinary convolution.
    """
    sh, sw = stride
    if sh == 1 and sw == 1:
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, (h - 1) * sh + 1, (w - 1) * sw + 1, c), dtype=x.dtype)
    out[:, ::sh, ::sw, :] = x
    return out
