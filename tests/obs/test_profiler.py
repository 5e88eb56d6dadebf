"""Unit tests for the per-op profiler and its nn instrumentation."""

import json
import threading

import numpy as np
import pytest

from repro.obs import OpStats, Profiler, profile
from repro.obs import profiler as profiler_mod
from repro.nn import Tensor, no_grad
from repro.nn.ops import conv2d


def conv_macs(n, ho, wo, kh, kw, cin, cout):
    return n * ho * wo * kh * kw * cin * cout


def test_inactive_by_default():
    assert profiler_mod.ACTIVE is None


def test_profile_installs_and_uninstalls():
    with profile() as prof:
        assert profiler_mod.ACTIVE is prof
    assert profiler_mod.ACTIVE is None


def test_uninstalls_on_error():
    with pytest.raises(RuntimeError, match="boom"):
        with profile():
            raise RuntimeError("boom")
    assert profiler_mod.ACTIVE is None


def test_nesting_raises():
    with profile():
        with pytest.raises(RuntimeError, match="already active"):
            with profile():
                pass  # pragma: no cover
    assert profiler_mod.ACTIVE is None


def test_record_and_totals():
    prof = Profiler()
    prof.record("conv2d", 0.001, macs=100)
    prof.record("conv2d", 0.002, macs=200)
    prof.record("im2col", 0.0005)  # nested phase: wall only
    st = prof.stats()
    assert st["conv2d"].calls == 2
    assert st["conv2d"].macs == 300
    assert st["conv2d"].total_ms == pytest.approx(3.0)
    assert prof.total_macs() == 300
    # im2col is contained in conv2d's wall-clock — excluded from the total.
    assert prof.total_ms() == pytest.approx(3.0)
    prof.reset()
    assert prof.stats() == {}


def test_opstats_mean():
    st = OpStats(calls=4, total_ms=2.0, macs=8)
    assert st.mean_ms == 0.5
    assert OpStats().mean_ms == 0.0
    assert st.to_dict()["mean_ms"] == 0.5


def test_conv2d_records_analytic_macs(rng):
    x = Tensor(rng.random((2, 8, 8, 3)))
    w = Tensor(rng.random((3, 3, 3, 4)))
    with profile() as prof, no_grad():
        conv2d(x, w, padding="same")
    st = prof.stats()
    assert st["conv2d"].calls == 1
    assert st["conv2d"].macs == conv_macs(2, 8, 8, 3, 3, 3, 4)
    # One im2col copy and one sgemm per strip; 8 output rows fit one
    # strip, so each of the 2 samples is one strip.
    assert st["im2col"].calls == 2
    assert st["gemm.blas"].calls == 2
    assert st["im2col"].macs == 0
    # The im2col phase is part of the conv2d call.
    assert st["im2col"].total_ms <= st["conv2d"].total_ms


def test_conv2d_backward_records(rng):
    x = Tensor(rng.random((1, 6, 6, 2)), requires_grad=True)
    w = Tensor(rng.random((3, 3, 2, 2)), requires_grad=True)
    with profile() as prof:
        out = conv2d(x, w, padding="same")
        out.sum().backward()
    st = prof.stats()
    assert st["conv2d_bwd"].calls == 1
    # dL/dW and dL/dX each cost one conv's worth of MACs.
    assert st["conv2d_bwd"].macs == 2 * conv_macs(1, 6, 6, 3, 3, 2, 2)


def test_matmul_records_and_no_double_count(rng):
    a = Tensor(rng.random((5, 7)))
    b = Tensor(rng.random((7, 3)))
    with profile() as prof, no_grad():
        a @ b
    st = prof.stats()
    assert st["matmul"].calls == 1
    assert st["matmul"].macs == 5 * 7 * 3
    # conv2d's internal GEMM must NOT show up as a matmul record.
    x = Tensor(rng.random((1, 4, 4, 2)))
    w = Tensor(rng.random((1, 1, 2, 2)))
    with profile() as prof2, no_grad():
        conv2d(x, w, padding="same")
    assert "matmul" not in prof2.stats()


def test_no_recording_when_inactive(rng):
    prof = Profiler()
    x = Tensor(rng.random((1, 4, 4, 1)))
    w = Tensor(rng.random((3, 3, 1, 1)))
    with no_grad():
        conv2d(x, w, padding="same")  # no profiler installed
    assert prof.stats() == {}


def test_summary_sorted_by_macs_then_ms():
    prof = Profiler()
    prof.record("small", 0.005, macs=10)
    prof.record("big", 0.001, macs=1000)
    prof.record("phase", 0.009, macs=0)
    assert list(prof.summary()) == ["big", "small", "phase"]


def test_thread_safety_exact_counts():
    prof = Profiler()

    def hammer():
        for _ in range(500):
            prof.record("op", 0.001, macs=2)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    st = prof.stats()["op"]
    assert st.calls == 8 * 500
    assert st.macs == 8 * 500 * 2
    assert st.total_ms == pytest.approx(8 * 500 * 1.0)


def test_write_jsonl(tmp_path):
    prof = Profiler()
    prof.record("conv2d", 0.001, macs=42)
    prof.record("matmul", 0.002, macs=7)
    path = tmp_path / "ops.jsonl"
    n = prof.write_jsonl(str(path), model="M5", mode="expanded")
    assert n == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["op"] for r in rows} == {"conv2d", "matmul"}
    assert all(r["model"] == "M5" and r["mode"] == "expanded" for r in rows)
    # Appends, does not truncate.
    prof.write_jsonl(str(path), model="M5", mode="expanded")
    assert len(path.read_text().splitlines()) == 4


def test_sesr_expanded_vs_collapsed_macs_match_fig3():
    """Measured per-op MACs reproduce the analytic Fig. 3 ratio (<5% off)."""
    from repro.core import SESR

    f, m, p, size, scale = 16, 5, 64, 8, 2
    measured = {}
    for mode in ("expanded", "collapsed"):
        model = SESR(scale=scale, f=f, m=m, expansion=p, mode=mode, seed=0)
        model.train()
        x = Tensor(np.random.default_rng(0).random((1, size, size, 1)))
        with profile() as prof:
            model(x)
        measured[mode] = prof.total_macs()

    px = size * size
    expanded = px * (
        (25 * 1 * p + p * f)
        + m * (9 * f * p + p * f)
        + (25 * f * p + p * scale * scale)
    )
    # Collapsed-mode training: compose weights per step (input-independent)
    # then run the cheap convolution.
    collapse_cost = (
        25 * 1 * p * f + m * 9 * f * p * f + 25 * f * p * scale * scale
    )
    collapsed = px * (
        25 * 1 * f + m * 9 * f * f + 25 * f * scale * scale
    ) + collapse_cost

    assert measured["expanded"] == expanded
    assert measured["collapsed"] == pytest.approx(collapsed, rel=0.05)
    ratio_measured = measured["expanded"] / measured["collapsed"]
    ratio_analytic = expanded / collapsed
    assert ratio_measured == pytest.approx(ratio_analytic, rel=0.05)
