"""Self-tests of the benchmark: seeded inputs, metric declarations, the
blocking-path analysis, and a tiny smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import inproc, inputs, run, serving, spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def test_same_seed_same_payload_bytes():
    assert inputs.rgb_frames(3, 6) == inputs.rgb_frames(3, 6)
    assert inputs.rgb_frames(3, 6) != inputs.rgb_frames(4, 6)


def test_payloads_are_distinct_so_the_cache_is_bypassed():
    frames = serving.make_payloads(serving.RGB_MIXED, 0, 4.0)
    assert len(set(frames)) == len(frames)


def test_rgb_sizes_come_in_balanced_shuffles():
    n = len(inputs.RGB_SIZES)
    frames = inputs.rgb_frames(5, 2 * n)
    sizes = [tuple(int(v) for v in f.split(b"\n", 2)[1].split()[::-1])
             for f in frames]
    for block in (sizes[:n], sizes[n:]):
        assert sorted(block) == sorted(inputs.RGB_SIZES)


def test_same_seed_same_offline_frames_and_train_batches():
    a, b = inputs.offline_frames(2, 3, (32, 32)), inputs.offline_frames(2, 3, (32, 32))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    (lr1, hr1), (lr2, hr2) = (next(inputs.train_batches(2, 4, 16))
                              for _ in range(2))
    assert lr1.tobytes() == lr2.tobytes() and hr1.tobytes() == hr2.tobytes()


# ---------------------------------------------------------------------- #
# declarations
# ---------------------------------------------------------------------- #
def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_open_loop_rates_are_the_ones_benchmark_json_states():
    why = {w["name"]: w["why"] for w in _spec()["workloads"]}
    wl = serving.RGB_MIXED
    assert f"Poisson {wl.rate:g} req/s" in why[wl.name]


# ---------------------------------------------------------------------- #
# blocking-path analysis
# ---------------------------------------------------------------------- #
def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "trace": "t", "parent": parent, "attrs": {}}


def test_parallel_children_count_once_and_the_path_sums_to_the_root():
    tree = [
        _span("r", "root", 0.0, 10.0),
        _span("a", "wait", 1.0, 3.0, "r"),
        _span("b", "tile", 3.0, 8.0, "r"),   # two tiles in parallel
        _span("c", "tile", 3.5, 7.0, "r"),
        _span("d", "inner", 4.0, 6.0, "b"),
    ]
    (path,) = spans.path_breakdown(tree, "root")
    assert path == pytest.approx({"root": 3000.0, "wait": 2000.0,
                                  "tile": 3000.0, "inner": 2000.0})
    assert sum(path.values()) == pytest.approx(10000.0)


def test_recorder_nests_by_thread_and_by_named_parent():
    rec = spans.Recorder("x")
    with rec.span("outer", trace="t"):
        with rec.span("inner"):
            pass
        rec.add("remote", 0.0, 1.0, "t", parent_name="outer")
    by_name = {s["name"]: s for s in rec.take()}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["trace"] == "t"
    assert by_name["remote"]["parent"] == by_name["outer"]["id"]


def test_capacity_counts_only_whole_blocks_of_sizes():
    from perfbench.httpload import PhaseResult, Sample

    phase = PhaseResult("closed_loop", started=0.0)
    phase.samples = [Sample(i, 0.0, 0.0, 1.0 + i, True, "t")
                     for i in (10, 11, 12, 13, 14, 15, 17)]
    done, secs = run.capacity_window(phase, 4)
    assert done == [10, 11, 12, 13] and secs == 14.0


# ---------------------------------------------------------------------- #
# tiny smoke runs: every workload passes its output check
# ---------------------------------------------------------------------- #
def test_offline_frames_smoke():
    r = inproc.offline(0, 0.05, True, size=(32, 32), n_frames=2)
    assert r["correct"]
    assert r["layers"]["compile.run_ms"] > 0
    assert run.coverage(r["paths"], run.inproc_e2e(r, r["traced_times"])
                        ["latency_p50_ms"]) == pytest.approx(1.0, abs=0.1)


def test_train_fig3_smoke():
    r = inproc.train(0, 0.05, True, batch=2, patch=16)
    assert r["correct"] and np.isfinite(r["step1_loss"])
    assert r["layers"]["train.backward_ms"] > 0


def test_serving_smoke(tmp_path):
    r = serving.measure(serving.RGB_MIXED, 0, 1.0, str(tmp_path), setup_reps=1)
    phases = (r["open"], r["closed"])
    assert r["checked"] > 0 and not r["mismatched"]
    assert all(p.sent > 0 and p.failed == 0 for p in phases)
    assert r["counters"]["engine.cache_hit_ratio"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_frames",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
