"""Bitwise batch/single parity of ``CompiledModel.run`` on a stacked batch.

The serving engine's cross-request batch coalescing promises byte-identical
output to unbatched serving.  That promise rests entirely on this layer:
a stacked batch through the planned executor must reproduce, per sample,
the exact bits of N independent single runs.  A stacked sgemm over all
samples does NOT have this property (BLAS picks kernel blocking from the
row count), which is why every conv issues its sgemms per sample and per
strip of rows — pinned here against every deployable architecture the
compiler captures.
"""

import numpy as np
import pytest

from repro.compile import compile_model
from repro.core import FSRCNN, SESR
from repro.core.carn import CARN_M
from repro.deploy import quantize_sesr
from repro.obs.profiler import profile
from repro.train import predict_image


def _models():
    return [
        ("M3-x2", SESR.from_name("M3", scale=2).collapse()),
        ("M5-x2", SESR.from_name("M5", scale=2).collapse()),
        ("M5-x4", SESR.from_name("M5", scale=4).collapse()),
        ("M5-int8", quantize_sesr(SESR.from_name("M5", scale=2).collapse())),
        ("FSRCNN", FSRCNN(scale=2, d=20, s=8, m=2)),
        ("CARN_M", CARN_M(scale=2, width=16, groups=4, blocks=2, depth=2)),
    ]


@pytest.mark.parametrize("label,model", _models(),
                         ids=[m[0] for m in _models()])
@pytest.mark.parametrize("shape", [(24, 24), (17, 23)])
def test_exact_batch_bitwise_matches_singles(label, model, shape):
    """Each sample of ``run(batch)`` == its own singleton run, bitwise."""
    compiled = compile_model(model)
    rng = np.random.default_rng(0)
    batch = rng.random((5,) + shape + (1,)).astype(np.float32)
    out = compiled.run(batch)
    for i in range(batch.shape[0]):
        single = compiled.run(batch[i:i + 1])
        assert np.array_equal(out[i], single[0]), f"{label} sample {i}"


def test_exact_batch_matches_predict_image():
    """End-to-end: batched tiles == the CLI's per-tile predict path."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(2)
    tiles = rng.random((4, 28, 28)).astype(np.float32)
    out = np.clip(compiled.run(tiles[..., None])[..., 0], 0.0, 1.0)
    for i in range(4):
        assert np.array_equal(out[i], predict_image(compiled, tiles[i]))


def test_blas_exact_mode_pays_one_gemm_per_sample():
    """Documents the price of exactness: a batch of N issues N times the
    sgemm calls of one sample (one per sample per strip per conv)."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(4)
    batch = rng.random((4, 20, 20, 1)).astype(np.float32)
    with profile() as prof:
        compiled.run(batch[:1])
    per_sample = prof.stats()["gemm.blas"].calls
    with profile() as prof:
        compiled.run(batch)
    assert prof.stats()["gemm.blas"].calls == 4 * per_sample


def test_stacked_matmul_would_not_be_exact():
    """Documents why sgemms are issued per sample: the stacked call
    diverges.

    The candidates are the 5x5 16->4 head conv of the 5-sample batches
    above, at 24x24 and 17x17 outputs: one (5*rows, 400) @ (400, 4) call
    against five (rows, 400) calls.  On OpenBLAS 0.3.31 (Haswell kernels)
    both diverge; a BLAS build that is m-invariant on every candidate fails
    this test, and then the per-sample sgemms merely cost time on it.
    """
    rng = np.random.default_rng(3)
    diverged = []
    for rows in (24 * 24, 17 * 17):
        cols = rng.random((5 * rows, 400)).astype(np.float32)
        wmat = rng.standard_normal((400, 4)).astype(np.float32)
        stacked = cols @ wmat
        singles = np.concatenate(
            [cols[i * rows:(i + 1) * rows] @ wmat for i in range(5)]
        )
        # Divergence is bounded (~1 ulp): quality-neutral, but not bytes.
        np.testing.assert_allclose(stacked, singles, rtol=1e-5, atol=1e-4)
        diverged.append(not np.array_equal(stacked, singles))
    assert any(diverged)
