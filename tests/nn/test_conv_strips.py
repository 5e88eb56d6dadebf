"""Property-based tests (hypothesis) for the strip-blocked convolution.

Every conv runs :func:`repro.nn.im2col.conv_strips`: per sample, one im2col
copy and one sgemm per strip of ``strip_rows(wo)`` output rows.  These
tests pin it against a float64 direct convolution (forward and both
gradients) over shapes that stress the strip edges — a last strip shorter
than the others, outputs wider than one strip (one row per strip), stride
2, kernels 1/3/5 and grouped convs — and pin that a batch gives each sample
the bits of its own call, forward and input gradient.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, conv2d, no_grad, resolve_padding
from repro.nn.im2col import STRIP_PIXELS, strip_rows


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    groups = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.integers(min_value=1, max_value=40))
    w = draw(st.one_of(st.integers(min_value=1, max_value=130),
                       st.just(STRIP_PIXELS + 6)))
    cin = groups * draw(st.integers(min_value=1, max_value=3))
    cout = groups * draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, h, w, cin, cout, k, stride, groups, seed


# Pinned corners: wo > STRIP_PIXELS (one row per strip), a last strip of
# 3 of 10 rows (33 = 3*10 + 3 rows at wo = 100), stride 2 with a 5x5
# grouped conv, and SESR's 5x5 16->4 head on 5 samples of 24x24 (a shape
# where one stacked sgemm differs from per-sample sgemms, see
# tests/compile/test_exact_batch.py).
CORNERS = [
    (1, 3, STRIP_PIXELS + 6, 2, 3, 3, 1, 1, 0),
    (2, 33, 100, 2, 2, 5, 1, 1, 1),
    (2, 21, 41, 4, 2, 5, 2, 2, 2),
    (5, 24, 24, 16, 4, 5, 1, 1, 3),
]


def _make(case):
    n, h, w, cin, cout, k, stride, groups, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
    wt = rng.standard_normal((k, k, cin // groups, cout)).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    return x, wt, b


def _direct(x, w, b, stride, groups, g=None):
    """Float64 direct conv with TF 'same' padding: the output, or, given
    the upstream gradient ``g``, ``(dX, dW, db)``."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    kh, kw, gc_in, cout = w.shape
    (pt, pb), (pl, pr) = resolve_padding(
        (kh, kw), (stride, stride), "same", in_size=x.shape[1:3]
    )
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    gc_out = cout // groups
    y = np.zeros(x.shape[:1] + (ho, wo, cout))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for grp in range(groups):
        ci = slice(grp * gc_in, (grp + 1) * gc_in)
        co = slice(grp * gc_out, (grp + 1) * gc_out)
        for i in range(kh):
            for j in range(kw):
                rows = slice(i, i + stride * ho, stride)
                cols = slice(j, j + stride * wo, stride)
                tap = xp[:, rows, cols, ci]
                y[..., co] += tap @ w[i, j, :, co]
                if g is not None:
                    gg = g[..., co].astype(np.float64)
                    gw[i, j, :, co] += np.einsum("nhwc,nhwo->co", tap, gg)
                    gxp[:, rows, cols, ci] += gg @ w[i, j, :, co].T
    if g is None:
        return y + b
    gx = gxp[:, pt:pt + x.shape[1], pl:pl + x.shape[2]]
    return gx, gw, g.astype(np.float64).sum(axis=(0, 1, 2))


def _eager(x, w, b, stride, groups, g=None):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    y = conv2d(xt, wt, bt, stride=stride, padding="same", groups=groups)
    if g is None:
        return y.data
    y.backward(g)
    return xt.grad, wt.grad, bt.grad


def test_strip_rows_depends_on_the_width_only():
    assert strip_rows(1) == STRIP_PIXELS
    assert strip_rows(100) == STRIP_PIXELS // 100
    assert strip_rows(STRIP_PIXELS) == 1
    assert strip_rows(STRIP_PIXELS + 6) == 1


@given(conv_cases())
@settings(max_examples=60, deadline=None)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_forward_matches_float64_direct_conv(case):
    x, w, b = _make(case)
    stride, groups = case[6], case[7]
    with no_grad():
        got = _eager(x, w, b, stride, groups)
    want = _direct(x, w, b, stride, groups)
    assert got.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


@given(conv_cases())
@settings(max_examples=40, deadline=None)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_backward_matches_float64_reference_gradient(case):
    x, w, b = _make(case)
    stride, groups = case[6], case[7]
    with no_grad():
        y = _eager(x, w, b, stride, groups)
    g = np.random.default_rng(case[-1] + 1).standard_normal(y.shape)
    g = g.astype(np.float32)
    for got, want in zip(_eager(x, w, b, stride, groups, g),
                         _direct(x, w, b, stride, groups, g)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)


@given(conv_cases())
@settings(max_examples=40, deadline=None)
@example(CORNERS[1])
@example(CORNERS[2])
@example(CORNERS[3])
def test_batch_is_bitwise_the_per_sample_calls(case):
    """Forward output and input gradient of a batch == each sample's own
    call, bit for bit (a strip never spans two samples)."""
    x, w, b = _make(case)
    stride, groups = case[6], case[7]
    with no_grad():
        y = _eager(x, w, b, stride, groups)
    g = np.random.default_rng(case[-1] + 1).standard_normal(y.shape)
    g = g.astype(np.float32)
    gx = _eager(x, w, b, stride, groups, g)[0]
    for i in range(x.shape[0]):
        with no_grad():
            yi = _eager(x[i:i + 1], w, b, stride, groups)
        gxi = _eager(x[i:i + 1], w, b, stride, groups, g[i:i + 1])[0]
        assert np.array_equal(y[i], yi[0]), f"forward, sample {i}"
        assert np.array_equal(gx[i], gxi[0]), f"input gradient, sample {i}"
