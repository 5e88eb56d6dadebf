"""Repository benchmark: SESR serving, offline frames and the training step.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
with no wrappers installed; with ``--trace 1`` they are its per-layer
metrics, from a traced run that follows an untraced one (their
difference is the reported tracing overhead).  A layer a workload does
not run reports 0.  Details (phases, host, checks, spans) go to
``.perfbench_out/`` in the working directory.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import sys
from typing import Dict, Iterable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: One BLAS thread per process, here and (through the environment) in the
#: server and its workers.  On a shared 2-vCPU host a GEMM split over both
#: vCPUs waits for whichever one a neighbour holds: one busy neighbour
#: doubles a 2-thread upscale but slows a 1-thread one by at most 12%.
BLAS_THREADS = 1
#: glibc keeps freed memory in the process instead of unmapping every
#: large numpy buffer and faulting it in afresh on the next call.  Under a
#: hypervisor those faults cost up to 1.5x more from one minute to the
#: next; the training step alone takes ~20k of them a second.
MALLOC = {"TRIM_THRESHOLD": (-1, 2**31 - 1), "MMAP_THRESHOLD": (-3, 2**30)}


def steady_process() -> None:
    """Apply BLAS_THREADS and MALLOC to this process (before numpy loads
    BLAS) and, through the environment, to every process it starts."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for name, (param, value) in MALLOC.items():
        os.environ[f"MALLOC_{name}_"] = str(value)
        if sys.platform.startswith("linux"):
            ctypes.CDLL(None).mallopt(param, value)


if __name__ == "__main__":
    steady_process()

import numpy as np  # noqa: E402

from perfbench import inproc, serving, spans  # noqa: E402

OUT_DIR = ".perfbench_out"
WORKLOADS = ("serve_rgb_mixed", "offline_frames", "train_fig3")
SERVE = {"serve_rgb_mixed": serving.RGB_MIXED}

END_TO_END = {
    "setup_s": "s", "req_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "mpix_per_s": "Mpx/s", "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "frontend.overhead_ms": "ms", "datasets.decode_ms": "ms",
    "datasets.encode_ms": "ms", "datasets.colour_ms": "ms",
    "engine.request_ms": "ms", "engine.queue_wait_ms": "ms",
    "engine.overhead_ms": "ms", "engine.mean_batch_size": "count",
    "engine.coalesce_ratio": "ratio", "engine.tiles_per_request": "count",
    "engine.tile_retries": "count", "engine.batch_fallbacks": "count",
    "engine.cache_hit_ratio": "ratio", "dataplane.submit_ms": "ms",
    "dataplane.worker_respawns": "count", "compile.run_ms": "ms",
    "compile.gflops": "GFLOP/s", "compile.arena_bytes": "bytes",
    "compile.build_ms": "ms", "kernels.im2col_ms": "ms",
    "kernels.gemm_ms": "ms", "kernels.gemm_gflops": "GFLOP/s",
    "kernels.im2col_mb": "MB", "core.collapse_ms": "ms",
    "train.forward_ms": "ms", "train.backward_ms": "ms",
    "train.optim_ms": "ms", "trace.path_coverage": "ratio",
    "trace.overhead_latency_pct": "%", "trace.overhead_throughput_pct": "%",
}


# ---------------------------------------------------------------------- #
# host metadata
# ---------------------------------------------------------------------- #
def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def cpu_ticks() -> List[int]:
    """user, nice, system, idle, iowait, irq, softirq, steal (all CPUs)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / sum(d) if sum(d) else 0.0


def host_metadata() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
        "malloc": {name: value for name, (_, value) in MALLOC.items()},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _out_px(payload: bytes) -> int:
    w, h = payload.split(b"\n", 2)[1].split()
    return 4 * int(w) * int(h)


def capacity_window(closed, block: int):
    """The closed-loop requests counted for capacity: the longest prefix
    of whole blocks of payloads (each block holds the size mix once)
    that all completed, so the size mix is the same on every run; and the
    seconds they took."""
    done = {s.index: s for s in closed.samples if s.ok}
    first = min(s.index for s in closed.samples)
    n = 0
    while all(first + n + k in done for k in range(block)):
        n += block
    counted = [done[first + k] for k in range(n)] or list(done.values())
    return [s.index for s in counted], max(s.done for s in counted) - closed.started


def serve_e2e(r: dict, payloads: List[bytes], block: int) -> Dict[str, float]:
    lat = r["open"].latencies_ms()
    done, secs = capacity_window(r["closed"], block)
    rps = len(done) / secs
    return {
        "setup_s": statistics.median(r["setups"]),
        "req_per_s": rps,
        "latency_p50_ms": _pct(lat, 50),
        "latency_p90_ms": _pct(lat, 90),
        "mpix_per_s": sum(_out_px(payloads[i]) for i in done) / secs / 1e6,
        "samples_per_s": rps,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def inproc_e2e(r: dict, times: List[float]) -> Dict[str, float]:
    per_s = 1.0 / statistics.median(times)
    return {
        "setup_s": statistics.median(r["setups"]),
        "req_per_s": per_s,
        "latency_p50_ms": _pct(times, 50) * 1e3,
        "latency_p90_ms": _pct(times, 90) * 1e3,
        "mpix_per_s": r["out_px"] * per_s / 1e6,
        "samples_per_s": r["samples_per_call"] * per_s,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def serve_layers(r: dict, all_spans: List[dict]) -> Dict[str, float]:
    """Per-layer means over the client's requests (set-up probes and
    warm-up carry no client trace id and are left out)."""
    roots = [s for s in all_spans if s["name"] == "client.request"]
    by = spans.by_trace(all_spans)
    paths = spans.path_breakdown(all_spans, "client.request")
    per_request: Dict[str, List[float]] = {}
    for root, path in zip(roots, paths):
        mine = by[root["trace"]]

        def total(name: str) -> float:
            return sum((s["end"] - s["start"]) * 1e3 for s in mine
                       if s["name"] == name)

        for metric, value in (
            ("frontend.overhead_ms", (root["end"] - root["start"]) * 1e3
             - total("serve.upscale_array_ex")),
            ("datasets.decode_ms", total("datasets.decode")),
            ("datasets.encode_ms", total("datasets.encode")),
            ("datasets.colour_ms", total("datasets.colour")),
            ("engine.overhead_ms", total("engine.request")
             - path.get("dataplane.submit", 0.0)),
        ):
            per_request.setdefault(metric, []).append(value)
    out = {k: statistics.mean(v) for k, v in per_request.items()}
    clients = {root["trace"] for root in roots}
    mine = [s for s in all_spans if s["trace"] in clients]
    out["engine.request_ms"] = _mean_ms(mine, "engine.request")
    out["engine.queue_wait_ms"] = _mean_ms(mine, "engine.queue_wait")
    # A batch's call is charged to each of its requests: count it once.
    calls = {(s["start"], s["end"]): s for s in mine
             if s["name"] == "dataplane.submit"}
    out["dataplane.submit_ms"] = _mean_ms(calls.values(), "dataplane.submit")
    out.update(r["counters"])
    return out


def _mean_ms(spans_: Iterable[dict], name: str) -> float:
    durations = [(s["end"] - s["start"]) * 1e3 for s in spans_
                 if s["name"] == name]
    return statistics.mean(durations) if durations else 0.0


def coverage(paths: List[Dict[str, float]], median_ms: float) -> float:
    """Median per-request sum of blocking-path self times over the run's
    median end-to-end latency (1.0 = the trace accounts for all of it)."""
    return statistics.median(sum(p.values()) for p in paths) / median_ms


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
def run_serving(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = SERVE[name]
    if trace:  # half untraced (the baseline of the overhead), half traced
        seconds /= 2.0
    r = serving.measure(wl, seed, seconds, OUT_DIR)
    payloads = r["payloads"]
    e2e = serve_e2e(r, payloads, wl.block)
    phases = (r["open"], r["closed"])
    report = {
        "phases": {p.name: p.summary() for p in phases},
        "requests": {p.name: [[s.index, _out_px(payloads[s.index]) // 4,
                               round((s.done - s.due) * 1e3, 3), s.ok]
                              for s in p.samples] for p in phases},
        "checked": r["checked"], "mismatched": r["mismatched"],
        "setups_s": r["setups"],
        "latency_samples": int(len(r["open"].latencies_ms())),
    }
    lateness = r["open"].summary()["lateness_p99_ms"]
    valid = lateness <= serving.lateness_bound_ms(wl)
    report["generator_valid"] = valid
    correct = (valid and not r["mismatched"] and r["checked"] > 0
               and all(p.failed == 0 for p in phases))
    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)
    if not trace:
        return dict(correct=correct, attempted=attempted, failed=failed,
                    metrics=e2e, report=report)

    span_file = os.path.abspath(os.path.join(OUT_DIR, f"{name}-spans-server.jsonl"))
    t = serving.measure(wl, seed, seconds, OUT_DIR, spans_path=span_file,
                        setup_reps=1)
    te2e = serve_e2e(t, payloads, wl.block)
    all_spans = spans.load(span_file)
    for phase in (t["open"], t["closed"]):
        for s in phase.samples:
            all_spans.append({"name": "client.request", "start": s.sent,
                              "end": s.done, "trace": s.trace,
                              "id": f"c{s.trace}", "parent": None,
                              "attrs": {"phase": phase.name, "ok": s.ok}})
    spans.link_roots(all_spans, "client.request", ("frontend.handler",))
    layers = serve_layers(t, all_spans)
    open_traces = {s.trace for s in t["open"].samples}
    open_roots = [s for s in all_spans if s["name"] == "client.request"
                  and s["trace"] in open_traces]
    paths = spans.path_breakdown(
        [s for s in all_spans if s["name"] != "client.request"] + open_roots,
        "client.request")
    layers["trace.path_coverage"] = coverage(paths, te2e["latency_p50_ms"])
    layers.update(_overhead(e2e, te2e))
    _write_spans(name, all_spans)
    report["traced"] = {"e2e": te2e, "path_ms": _mean_paths(paths)}
    t_phases = (t["open"], t["closed"])
    correct = (correct and not t["mismatched"]
               and all(p.failed == 0 for p in t_phases))
    return dict(correct=correct, attempted=attempted + sum(p.sent for p in t_phases),
                failed=failed + sum(p.failed for p in t_phases),
                metrics=layers, report=report)


def run_inproc(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fn = inproc.offline if name == "offline_frames" else inproc.train
    # The traced run splits its time between the untraced and traced pass.
    r = fn(seed, seconds / 2.0 if trace else seconds, trace)
    e2e = inproc_e2e(r, r["times"])
    report = {"setups_s": r["setups"], "calls": len(r["times"]),
              "call_ms": [round(t * 1e3, 3) for t in r["times"]]}
    attempted = len(r["times"]) + len(r.get("traced_times", ()))
    failed = 0 if r["correct"] else 1
    if not trace:
        return dict(correct=r["correct"], attempted=attempted, failed=failed,
                    metrics=e2e, report=report)
    te2e = inproc_e2e(r, r["traced_times"])
    layers = dict(r["layers"])
    layers["trace.path_coverage"] = coverage(r["paths"], te2e["latency_p50_ms"])
    layers.update(_overhead(e2e, te2e))
    _write_spans(name, r["spans"])
    report["traced"] = {"e2e": te2e, "path_ms": _mean_paths(r["paths"]),
                        "traced_calls": len(r["traced_times"])}
    return dict(correct=r["correct"], attempted=attempted, failed=failed,
                metrics=layers, report=report)


def _overhead(e2e: dict, traced: dict) -> Dict[str, float]:
    return {
        "trace.overhead_latency_pct":
            (traced["latency_p50_ms"] / e2e["latency_p50_ms"] - 1.0) * 100.0,
        "trace.overhead_throughput_pct":
            (traced["req_per_s"] / e2e["req_per_s"] - 1.0) * 100.0,
    }


def _mean_paths(paths: List[Dict[str, float]]) -> Dict[str, float]:
    names = sorted({k for p in paths for k in p})
    return {k: statistics.mean(p.get(k, 0.0) for p in paths) for k in names}


def _write_spans(name: str, all_spans: List[dict]) -> None:
    with open(os.path.join(OUT_DIR, f"{name}-spans.jsonl"), "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    run = run_serving if args.workload in SERVE else run_inproc
    ticks = cpu_ticks()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    res["report"]["cpu_steal_pct"] = steal_pct(ticks, cpu_ticks())
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": float(res["metrics"].get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_metadata(), **res["report"],
              "correct": res["correct"], "metrics": metrics}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
