"""Cross-process tracing: span trees and trace ids survive the dataplane."""

import urllib.request

import numpy as np
import pytest

from repro.datasets import decode_netpbm, encode_netpbm
from repro.obs import get_tracer
from repro.obs.trace import Span, span_tree
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)

KEY = ModelKey(name="M3", scale=2)


@pytest.fixture(scope="module")
def engine():
    cfg = EngineConfig(workers=2, tile=32, cache_size=0,
                       worker_backend="process")
    with InferenceEngine(ModelRegistry(), KEY, config=cfg) as eng:
        yield eng


class TestSpanTreeIntegrity:
    def test_worker_spans_join_the_request_trace(self, engine):
        img = np.random.default_rng(5).random((48, 40), dtype=np.float32)
        result = engine.upscale_ex(img)
        spans = get_tracer().ring.trace(result.trace_id)
        names = {s.name for s in spans}
        # The compute ran in another process, yet its spans sit in this
        # process's ring under the request's trace id.
        assert "serve.request" in names
        assert "dataplane.compute" in names
        assert "compile.execute" in names
        assert all(s.trace_id == result.trace_id for s in spans)

    def test_tree_is_rooted_at_the_request(self, engine):
        img = np.random.default_rng(6).random((40, 40), dtype=np.float32)
        result = engine.upscale_ex(img)
        spans = get_tracer().ring.trace(result.trace_id)
        roots, children = span_tree(spans)
        assert [r.name for r in roots] == ["serve.request"]

        def collect(sp):
            out = {sp.name}
            for child in children.get(sp.span_id, []):
                out |= collect(child)
            return out

        reachable = collect(roots[0])
        # Every worker-side span hangs off the request tree — the
        # serve.request → tile → compute chain is unbroken.
        assert "dataplane.compute" in reachable
        assert "compile.execute" in reachable

    def test_compute_span_records_the_worker_pid(self, engine):
        import os

        img = np.random.default_rng(7).random((32, 32), dtype=np.float32)
        result = engine.upscale_ex(img)
        spans = get_tracer().ring.trace(result.trace_id)
        compute = [s for s in spans if s.name == "dataplane.compute"]
        assert compute
        for sp in compute:
            assert sp.attrs["pid"] != os.getpid()  # genuinely out-of-process


class TestSpanWireForm:
    def test_span_dict_round_trip(self):
        sp = Span(name="x", trace_id="a" * 16, span_id="b" * 8,
                  parent_id="c" * 8, start_ms=1.5, duration_ms=2.5,
                  wall_time=3.5, status="ok", attrs={"k": 1})
        assert Span.from_dict(sp.to_dict()) == sp

    def test_ingest_lands_in_ring_and_aggregates(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        sp = Span(name="remote.op", trace_id="1" * 16, span_id="2" * 8,
                  duration_ms=4.0)
        tracer.ingest(sp)
        assert sp in tracer.ring.spans()
        agg = tracer.aggregates()["remote.op"]
        assert agg["count"] == 1 and agg["total_ms"] == 4.0


class TestHTTPTraceRoundTrip:
    def test_client_trace_id_survives_process_workers(self):
        cfg = EngineConfig(workers=1, tile=32, cache_size=0,
                           worker_backend="process")
        engine = InferenceEngine(ModelRegistry(), KEY, config=cfg)
        with make_server(engine, "127.0.0.1", 0) as srv:
            host, port = srv.server_address[:2]
            img = (np.random.default_rng(8).random((24, 24)) * 255)
            body = encode_netpbm(img.astype(np.uint8))
            trace_id = "feedfacecafef00d"
            req = urllib.request.Request(
                f"http://{host}:{port}/v1/upscale", data=body,
                method="POST", headers={"X-Trace-Id": trace_id},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.headers["X-Trace-Id"] == trace_id
                out = decode_netpbm(resp.read())
            assert out.shape == (48, 48)
            spans = get_tracer().ring.trace(trace_id)
            names = {s.name for s in spans}
            # One trace spans client header -> engine -> worker process.
            assert "serve.request" in names
            assert "dataplane.compute" in names
