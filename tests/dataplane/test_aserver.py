"""AsyncSRServer: the exact bytes of the ``/v1`` wire contract, HTTP
framing of outside input, admission control and the close path.

Responses are pinned byte for byte with only the ``Date`` header masked;
a client ``X-Trace-Id`` pins the one random field.  The framing cases
speak raw sockets, because ``http.client`` would not send the malformed
input they need.
"""

import http.client
import json
import re
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import api
from repro.datasets import decode_netpbm, encode_netpbm
from repro.dataplane import AsyncSRServer
from repro.resilience import FaultInjector
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)

KEY = ModelKey(name="M3", scale=2)
TRACE = "0123456789abcdef"


def _engine(fault_injector=None, **overrides):
    cfg = dict(workers=1, tile=32, cache_size=0)
    cfg.update(overrides)
    return InferenceEngine(ModelRegistry(), KEY, config=EngineConfig(**cfg),
                           fault_injector=fault_injector)


@pytest.fixture(scope="module")
def async_server():
    with make_server(_engine(), "127.0.0.1", 0) as srv:
        yield srv


def _request(server, path, body=None, headers=None, method=None):
    """Returns (status, headers, body) without raising on 4xx/5xx."""
    host, port = server.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body,
        headers=headers or {}, method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _connect(server):
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_response(sock, buf=b""):
    """One response off ``sock``: ``(bytes with Date masked, leftover)``."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-response: {buf!r}"
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    match = re.search(rb"\r\nContent-Length: (\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    head = re.sub(rb"\r\nDate: [^\r]+", b"\r\nDate: *", head)
    return head + b"\r\n\r\n" + rest[:length], rest[length:]


def _exchange(server, raw):
    """Send ``raw``; return the one response and whether the server then
    closed the connection (EOF) with nothing else sent."""
    with _connect(server) as sock:
        sock.sendall(raw)
        response, rest = _read_response(sock)
        sock.settimeout(5)
        closed = rest == b"" and sock.recv(65536) == b""
    return response, closed


def _head(status, ctype=None, length=0, extra=(), close=False):
    lines = [f"HTTP/1.1 {status}", "Server: repro-serve/1.0", "Date: *"]
    if ctype:
        lines.append(f"Content-Type: {ctype}")
    lines.append(f"Content-Length: {length}")
    lines += list(extra)
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _error_bytes(status, code, message, close=False, trace=TRACE):
    body = (
        '{\n  "error": {\n'
        f'    "code": "{code}",\n'
        f'    "message": {json.dumps(message)},\n'
        f'    "trace_id": "{trace}"\n'
        '  }\n}\n'
    ).encode()
    return _head(status, "application/json", len(body),
                 [f"X-Trace-Id: {trace}"], close) + body


@pytest.fixture(scope="module")
def image_body():
    img = (np.random.default_rng(9).random((20, 20)) * 255).astype(np.uint8)
    return encode_netpbm(img)


def _post(path, body, headers=()):
    lines = [f"POST {path} HTTP/1.1", "Host: t",
             f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class TestByteCompatibility:
    """The wire contract, pinned as exact response bytes."""

    def test_healthz_bodies_identical(self, async_server):
        body = (b'{\n  "status": "ok",\n  "model": "M3",\n  "scale": 2,\n'
                b'  "precision": "fp32",\n  "api_version": "v1"\n}\n')
        response, closed = _exchange(
            async_server, b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"
                          b"Connection: close\r\n\r\n")
        assert response == _head("200 OK", "application/json", len(body),
                                 close=True) + body
        assert closed

    def test_upscale_bodies_identical(self, async_server, image_body):
        model = api.compile_model(api.collapse(api.load("M3", scale=2)))
        want = encode_netpbm(
            api.upscale(model, decode_netpbm(image_body), tile=32))
        with _connect(async_server) as sock:
            sock.sendall(_post("/v1/upscale", image_body,
                               [f"X-Trace-Id: {TRACE}"]))
            response, _ = _read_response(sock)
        assert response == _head(
            "200 OK", "application/octet-stream", len(want),
            ["X-Degraded: false", f"X-Trace-Id: {TRACE}"],
        ) + want  # pixel-for-pixel, byte-for-byte the offline path

    @pytest.mark.parametrize("raw,expected", [
        (f"GET /v1/nope HTTP/1.1\r\nX-Trace-Id: {TRACE}\r\n\r\n".encode(),
         _error_bytes("404 Not Found", "not_found",
                      "unknown path '/v1/nope'")),
        (_post("/v1/upscale", b"", [f"X-Trace-Id: {TRACE}"]),
         _error_bytes("400 Bad Request", "bad_request",
                      "missing or invalid body")),
        (_post("/v1/upscale", b"x", [f"X-Trace-Id: {TRACE}",
                                     "Content-Type: application/json"]),
         _error_bytes("415 Unsupported Media Type", "unsupported_media_type",
                      "unsupported Content-Type 'application/json'; send a "
                      "netpbm image as image/* or application/octet-stream",
                      close=True)),
    ], ids=["404", "400", "415"])
    def test_error_bodies_identical(self, async_server, raw, expected):
        with _connect(async_server) as sock:
            sock.sendall(raw)
            response, _ = _read_response(sock)
        assert response == expected

    def test_payload_too_large_is_header_first(self, async_server):
        # Content-Length above the limit is refused without reading the
        # body; the error carries the 413 schema and closes.
        raw = (f"POST /v1/upscale HTTP/1.1\r\nX-Trace-Id: {TRACE}\r\n"
               f"Content-Length: {10 ** 9}\r\n\r\nP5 1 1 255 \x00").encode()
        response, closed = _exchange(async_server, raw)
        assert response == _error_bytes(
            "413 Request Entity Too Large", "payload_too_large",
            f"body of {10 ** 9} bytes exceeds the {64 * 1024 * 1024}-byte "
            "limit", close=True)
        assert closed

    @pytest.mark.parametrize("path,method", [
        ("/healthz", "GET"), ("/stats", "GET"),
        ("/metrics", "GET"), ("/upscale", "POST"),
    ])
    def test_legacy_paths_redirect_308_identically(self, async_server, path,
                                                   method, image_body):
        if method == "POST":
            # The body is never read, so the connection closes.
            raw = _post(path, image_body)
        else:
            raw = f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        with _connect(async_server) as sock:
            sock.sendall(raw)
            response, _ = _read_response(sock)
        assert response == _head("308 Permanent Redirect",
                                 extra=[f"Location: /v1{path}"],
                                 close=method == "POST")


class TestAsyncServerBehaviour:
    def test_stats_and_metrics_serve(self, async_server):
        status, headers, body = _request(async_server, "/v1/stats")
        assert status == 200
        assert "config" in json.loads(body)
        status, headers, body = _request(async_server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_" in body or b"engine" in body

    def test_keep_alive_serves_sequential_requests(self, async_server):
        host, port = async_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_eager_bind_and_close_is_idempotent(self):
        srv = AsyncSRServer(_engine(), ("127.0.0.1", 0))
        host, port = srv.server_address
        assert port != 0  # resolved at construction, before serving
        srv.close()
        srv.close()

    def test_process_backend_end_to_end(self, image_body):
        engine = _engine(worker_backend="process")
        with make_server(engine, "127.0.0.1", 0) as srv:
            status, headers, body = _request(
                srv, "/v1/upscale", body=image_body,
                headers={"X-Trace-Id": TRACE}, method="POST",
            )
            assert status == 200
            assert headers["X-Trace-Id"] == TRACE


class TestFraming:
    """Outside input the server must frame (or refuse) correctly."""

    def test_http10_closes_after_the_response(self, async_server):
        response, closed = _exchange(async_server,
                                     b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close\r\n" in response
        assert closed

    def test_http10_keep_alive_is_honoured(self, async_server):
        with _connect(async_server) as sock:
            for _ in range(2):
                sock.sendall(b"GET /v1/healthz HTTP/1.0\r\n"
                             b"Connection: keep-alive\r\n\r\n")
                response, rest = _read_response(sock)
                assert response.startswith(b"HTTP/1.1 200 OK\r\n")
                assert b"Connection: close" not in response
                assert rest == b""

    def test_expect_100_continue_after_header_checks(self, async_server,
                                                     image_body):
        with _connect(async_server) as sock:
            sock.sendall(_post("/v1/upscale", image_body,
                               ["Expect: 100-continue"])[:-len(image_body)])
            interim, rest = _read_response(sock)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            assert rest == b""
            sock.sendall(image_body)
            response, _ = _read_response(sock)
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_expect_100_continue_refused_on_headers(self, async_server):
        raw = (b"POST /v1/upscale HTTP/1.1\r\nContent-Length: 10\r\n"
               b"Content-Type: application/json\r\n"
               b"Expect: 100-continue\r\n\r\n")
        response, closed = _exchange(async_server, raw)
        assert response.startswith(b"HTTP/1.1 415 ")  # no 100 before it
        assert closed

    @pytest.mark.parametrize("count,status", [(100, b"200 OK"),
                                              (101, b"431 ")])
    def test_header_count_cap(self, async_server, count, status):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(count - 1))
        raw = (f"GET /v1/healthz HTTP/1.1\r\n{headers}"
               "Connection: close\r\n\r\n").encode()
        response, closed = _exchange(async_server, raw)
        assert response.startswith(b"HTTP/1.1 " + status)
        assert closed
        if count > 100:
            error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
            assert error["code"] == "header_fields_too_large"

    def test_overlong_header_line_is_400(self, async_server):
        raw = (b"GET /v1/healthz HTTP/1.1\r\nX-Big: "
               + b"a" * (70 * 1024) + b"\r\n\r\n")
        response, closed = _exchange(async_server, raw)
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
        assert error["code"] == "bad_request"
        assert closed

    @pytest.mark.parametrize("line", [b"GARBAGE", b"GET /v1/healthz",
                                      b"GET /v1/healthz SPDY/3"])
    def test_malformed_request_line_is_400(self, async_server, line):
        response, closed = _exchange(async_server, line + b"\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
        assert error["code"] == "bad_request"
        assert error["message"] == "malformed request line"
        assert closed

    def test_unread_body_closes_the_connection(self, async_server):
        # The 404 leaves the body unread; parsing it as the next request
        # would desynchronise the stream, so nothing after it is served.
        raw = (_post("/v1/stats", b"hello")
               + b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        response, closed = _exchange(async_server, raw)
        assert response.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"\r\nConnection: close\r\n" in response
        assert closed


class TestAdmission:
    def test_excess_uploads_get_503_and_stats_still_answer(self):
        # Every engine slot is held by a tile sleeping in the fault
        # injector; the k excess uploads must reach the engine and be
        # refused, not wait in a queue in front of it.
        slots, excess = 8, 3
        engine = _engine(FaultInjector(latency=3.0, latency_every=1),
                         workers=slots, max_pending=slots)
        rng = np.random.default_rng(5)
        bodies = [encode_netpbm(rng.random((16, 16)))
                  for _ in range(slots + excess)]
        with make_server(engine, "127.0.0.1", 0) as srv, \
                ThreadPoolExecutor(slots + excess) as pool:
            futures = [
                pool.submit(_request, srv, "/v1/upscale", body, None, "POST")
                for body in bodies
            ]
            held = 0
            while held < slots and not all(f.done() for f in futures):
                status, _, stats = _request(srv, "/v1/stats")
                assert status == 200
                held = json.loads(stats)["gauges"][
                    "engine.inflight_requests"]
            results = [f.result(timeout=30) for f in futures]
        assert held == slots  # /v1/stats answered with every slot held
        statuses = sorted(status for status, _, _ in results)
        assert statuses == [200] * slots + [503] * excess
        for status, _, payload in results:
            if status == 503:
                assert json.loads(payload)["error"]["code"] == "unavailable"


class TestClose:
    def test_close_waits_for_serve_forever_on_a_caller_thread(self,
                                                              monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: errors.append(args.exc_value))
        srv = make_server(_engine(), "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        with _connect(srv) as sock:  # an open connection for teardown
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            _read_response(sock)
            srv.close()
            assert srv.engine.closed
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []
