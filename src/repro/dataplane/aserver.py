"""Asyncio HTTP front-end: the ``/v1`` API of ``repro serve``.

Endpoints (v1 — the documented API)
-----------------------------------
``POST /v1/upscale``
    Body: a binary/ASCII PGM or PPM image.  Response: the upscaled image in
    binary PGM (grey input) or PPM (colour input).  Colour inputs follow
    the paper's protocol exactly as ``repro.cli upscale`` does — the engine
    super-resolves the Y channel, chroma is bicubic-upscaled — so the
    response bytes are bit-identical to the CLI's output file.
``GET /v1/healthz``
    Liveness + model identity (JSON).
``GET /v1/stats``
    Full :meth:`repro.serve.InferenceEngine.stats` snapshot (JSON):
    request counters, latency percentiles, queue depth, cache and
    cross-request batching accounting.
``GET /v1/metrics``
    The same registry in Prometheus text format (version 0.0.4), plus
    live tracing-span aggregates — what a metrics scraper points at
    (see ``docs/observability.md``).

The original unversioned paths (``/upscale``, ``/healthz``, ``/stats``,
``/metrics``) no longer serve content: they answer **308 Permanent
Redirect** with a ``Location: /v1/...`` header and an empty body.  308 —
not 301/302 — because it forbids the method rewrite: a redirected ``POST
/upscale`` must be retried as ``POST /v1/upscale`` with the same body.
New clients should speak ``/v1``; the prefix is what lets the wire
format evolve again without breaking them.

Errors
------
Every non-2xx response is JSON with one stable shape::

    {"error": {"code": "<machine-readable>", "message": "<human>",
               "trace_id": "<16 hex>"}}

``code`` is one of ``bad_request``, ``not_found``, ``payload_too_large``,
``unsupported_media_type``, ``header_fields_too_large``, ``unavailable``,
``deadline_exceeded``, ``internal``.  ``trace_id`` identifies the failure
in the process tracer (a well-formed client ``X-Trace-Id`` is adopted,
otherwise one is generated) and is also echoed as the ``X-Trace-Id``
response header.  Failure mapping: malformed request or bad image → 400,
oversized body → 413, wrong media type → 415, too many headers → 431,
engine overloaded/closed → 503, deadline missed → 504, worker error →
500.

Request validation is header-first: the ``Content-Type`` of ``POST
/v1/upscale`` is checked *before* the body is read (netpbm payloads —
``image/*``, ``application/octet-stream``, or clients that send no/default
types), as is the ``Content-Length`` bound — an unsupported or oversized
upload is rejected with 415/413 without its body ever entering memory.
A client that sends ``Expect: 100-continue`` gets ``100 Continue`` only
once those checks pass.

Every ``POST /v1/upscale`` response carries an ``X-Trace-Id`` header
naming the request's span tree (request → tile fan-out → stitch) in the
process tracer; a client-supplied well-formed ``X-Trace-Id`` (16 hex
chars) is adopted instead of generating one, so the id round-trips.
When the engine's degraded mode answers with the bicubic fallback the
response carries ``X-Degraded: true`` (it is ``false`` on healthy
responses) so callers and load balancers can tell fallback pixels from
model pixels.

Connections
-----------
One event loop multiplexes every connection, so an idle keep-alive
connection costs no thread.  An HTTP/1.1 connection stays open unless
the client sends ``Connection: close``; an HTTP/1.0 one only with
``Connection: keep-alive``.  A response that leaves request-body bytes
unread (a refused upload, a redirected POST, a body sent to a GET route)
closes the connection, since those bytes would be parsed as the next
request.  A request may carry at most 100 header lines of at most 64 KiB
each; past either cap, or with a malformed request line, it is answered
with the error schema above and the connection closes.

Inference runs on the server's own pool of ``max_pending + 1`` threads:
every engine request slot can be held while one more request reaches
the engine and gets its 503, so the engine's bound — not a queue in
front of it — is the admission control.  ``/v1/stats`` and
``/v1/metrics`` run on the loop's default executor and never queue
behind uploads.

Lifecycle
---------
The listening socket binds **eagerly in the constructor**, so
``server_address`` is final — including a resolved ephemeral port —
before ``serve_forever()``/``start()`` runs.  ``serve_forever()`` runs
the loop in the calling thread (the CLI does this; ``KeyboardInterrupt``
from the SIGINT/SIGTERM handlers unwinds it cleanly), ``start()`` runs it
on a background thread, and ``close()`` — idempotent, callable from any
thread — stops the loop, waits for ``serve_forever`` to finish on
whichever thread runs it, closes the socket, and drains the engine
(which reaps process workers and unlinks shared-memory arenas when the
process backend is active).
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from typing import Dict, Optional, Tuple

from ..datasets import decode_netpbm, encode_netpbm
from ..obs import get_tracer, render_prometheus
from ..obs import profiler as _profiler
from ..obs.trace import new_trace_id
from ..serve.engine import (
    EngineClosed,
    EngineOverloaded,
    InferenceEngine,
    RequestTimeout,
)
from ..serve.http import (
    _ACCEPTED_MEDIA_PREFIXES,
    _ACCEPTED_MEDIA_TYPES,
    _ROUTES,
    _TRACE_ID_RE,
    API_VERSION,
    MAX_BODY_BYTES,
    PROMETHEUS_CONTENT_TYPE,
    upscale_array_ex,
)

__all__ = ["AsyncSRServer"]

_REASONS = {
    200: "OK", 308: "Permanent Redirect", 400: "Bad Request",
    404: "Not Found", 413: "Request Entity Too Large",
    415: "Unsupported Media Type", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

_SERVER_ID = "repro-serve/1.0"

_MAX_HEADERS = 100
_MAX_LINE = 64 * 1024  # the StreamReader limit: longer lines raise ValueError
_HTTP_VERSION_RE = re.compile(r"HTTP/1\.\d$")
#: How long a closing connection keeps discarding what the client still
#: sends.  Closing a socket with unread input resets the connection, and
#: the reset can destroy the response before the client has read it.
_LINGER_S = 1.0


def _resolve_route(path: str) -> Tuple[Optional[str], Optional[str]]:
    """``(route, redirect_location)``: a versioned path yields its route,
    a legacy unversioned path the ``/v1`` location it 308-redirects to,
    an unknown path neither (404)."""
    path = path.split("?", 1)[0]
    prefix = f"/{API_VERSION}"
    if path.startswith(prefix + "/"):
        route = path[len(prefix):]
        return (route, None) if route in _ROUTES else (None, None)
    if path in _ROUTES:
        return None, prefix + path
    return None, None


class _Response:
    """One buffered HTTP response (status + headers + body)."""

    __slots__ = ("code", "body", "ctype", "headers")

    def __init__(self, code: int, body: bytes, ctype: Optional[str],
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.code = code
        self.body = body
        self.ctype = ctype
        self.headers = headers or {}

    def render(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.code, "Unknown")
        lines = [
            f"HTTP/1.1 {self.code} {reason}",
            f"Server: {_SERVER_ID}",
            f"Date: {formatdate(usegmt=True)}",
        ]
        if self.ctype is not None:  # redirects have no body, no type
            lines.append(f"Content-Type: {self.ctype}")
        lines.append(f"Content-Length: {len(self.body)}")
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        if not keep_alive:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def _redirect_response(location: str) -> _Response:
    """308 Permanent Redirect to the versioned route; empty body."""
    return _Response(308, b"", None, {"Location": location})


def _json_response(code: int, obj: dict,
                   headers: Optional[Dict[str, str]] = None) -> _Response:
    body = json.dumps(obj, indent=2).encode() + b"\n"
    return _Response(code, body, "application/json", headers)


def _error_response(code: int, error_code: str, message: str,
                    trace_id: Optional[str] = None) -> _Response:
    """The one error shape every non-2xx response uses."""
    trace_id = trace_id or new_trace_id()
    return _json_response(code, {
        "error": {
            "code": error_code,
            "message": message,
            "trace_id": trace_id,
        },
    }, headers={"X-Trace-Id": trace_id})


class _Unframed(Exception):
    """A request head that cannot be parsed; carries the error response
    sent before the connection closes."""

    def __init__(self, code: int, error_code: str, message: str) -> None:
        super().__init__(message)
        self.response = _error_response(code, error_code, message)


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line outgrew the reader's limit (_MAX_LINE)
        raise _Unframed(
            400, "bad_request", f"request line or header longer than "
            f"{_MAX_LINE} bytes"
        ) from None


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    """The declared body length; ``None`` when the body's end cannot be
    found (a chunked or malformed body, which is never read)."""
    if "transfer-encoding" in headers:
        return None
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        return None
    return length if length >= 0 else None


def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    tokens = {token.strip() for token in connection.split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


class _Body:
    """A request body, read only when a handler asks for it: a request
    refused on its headers never pulls its body into memory."""

    __slots__ = ("length", "_reader", "_writer", "_expect", "_consumed")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 headers: Dict[str, str]) -> None:
        self.length = _content_length(headers)
        self._reader = reader
        self._writer = writer
        self._expect = headers.get("expect", "").lower() == "100-continue"
        self._consumed = False

    @property
    def unread(self) -> bool:
        """Whether body bytes still sit in the stream after the response."""
        return self.length != 0 and not self._consumed

    async def read(self) -> bytes:
        """The whole body (``length`` must be positive); a client waiting
        on ``Expect: 100-continue`` is told to send it first."""
        if self._expect:
            self._writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await self._writer.drain()
        self._consumed = True
        return await self._reader.readexactly(self.length)


async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard input until the client closes or
    ``_LINGER_S`` passes, so the response is read before the socket goes."""
    if writer.can_write_eof():
        writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), _LINGER_S)
    except asyncio.TimeoutError:
        pass


class AsyncSRServer:
    """Event-loop HTTP server over one :class:`InferenceEngine`.

    Construction binds the socket; nothing is served until
    :meth:`serve_forever` (foreground) or :meth:`start` (background
    thread) runs.  Use as a context manager in tests::

        with AsyncSRServer(engine, ("127.0.0.1", 0)) as srv:
            host, port = srv.server_address
            ...

    ``close()`` is idempotent and shuts the engine down.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        address: Tuple[str, int] = ("127.0.0.1", 8000),
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        self.engine = engine
        self.max_body_bytes = max_body_bytes
        self._sock = socket.create_server(address)
        self.server_address = self._sock.getsockname()[:2]
        self._executor = ThreadPoolExecutor(
            engine.config.max_pending + 1, thread_name_prefix="sr-upscale"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        self._stop: Optional[asyncio.Future] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread until :meth:`close`."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        with self._lock:
            if self._closed:
                asyncio.set_event_loop(None)
                loop.close()
                return
            self._loop = loop
            self._loop_thread = threading.get_ident()
            self._stop = loop.create_future()
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._handle_client, sock=self._sock, limit=_MAX_LINE,
            ))
            self._started.set()
            try:
                loop.run_until_complete(self._stop)
            finally:
                self._teardown(loop, server)
        finally:
            self._finished.set()

    def start(self) -> "AsyncSRServer":
        """Serve on a daemon thread (test harness convenience)."""
        threading.Thread(
            target=self.serve_forever, name="sr-aserver", daemon=True
        ).start()
        self._started.wait(timeout=10.0)
        return self

    def close(self) -> None:
        """Stop serving and drain the engine.  Idempotent, thread-safe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop, stop = self._loop, self._stop
        if loop is not None:
            def _finish() -> None:
                if not stop.done():
                    stop.set_result(None)
            try:
                loop.call_soon_threadsafe(_finish)
            except RuntimeError:  # loop closed between check and call
                pass
            # From the loop's own thread the loop cannot finish until this
            # call returns; from any other, the socket and engine must
            # outlive the loop's teardown.
            if self._loop_thread != threading.get_ident():
                self._finished.wait(timeout=10.0)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover — already closed by the loop
            pass
        self.engine.shutdown()
        self._executor.shutdown(wait=True, cancel_futures=True)

    def _teardown(self, loop: asyncio.AbstractEventLoop, server) -> None:
        server.close()
        try:
            loop.run_until_complete(server.wait_closed())
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            with self._lock:
                self._loop = None

    def __enter__(self) -> "AsyncSRServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_head(reader)
                except _Unframed as exc:
                    response, keep_alive = exc.response, False
                else:
                    if request is None:
                        break
                    method, path, version, headers = request
                    body = _Body(reader, writer, headers)
                    response = await self._dispatch(
                        method, path, headers, body
                    )
                    keep_alive = (_keep_alive(version, headers)
                                  and not body.unread)
                writer.write(response.render(keep_alive))
                await writer.drain()
                if not keep_alive:
                    await _linger(reader, writer)
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
        """Parse one request line + headers into ``(method, path,
        version, headers)`` with lowercase header names; ``None`` on EOF.

        Raises :class:`_Unframed` for a malformed request line, a line
        over ``_MAX_LINE`` bytes or more than ``_MAX_HEADERS`` headers.
        """
        line = await _readline(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not _HTTP_VERSION_RE.match(parts[2]):
            raise _Unframed(400, "bad_request", "malformed request line")
        method, path, version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            raw = await _readline(reader)
            if raw in (b"\r\n", b"\n", b""):
                return method, path, version, headers
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _Unframed(400, "bad_request", "malformed header line")
            headers[name.strip().lower()] = value.strip()
        raise _Unframed(431, "header_fields_too_large",
                        f"more than {_MAX_HEADERS} header lines")

    @staticmethod
    def _client_trace_id(headers: Dict[str, str]) -> Optional[str]:
        """A well-formed client ``X-Trace-Id`` (adopted so one trace spans
        client and server), else ``None``."""
        trace_id = headers.get("x-trace-id", "").strip().lower()
        return trace_id if _TRACE_ID_RE.fullmatch(trace_id) else None

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], reader: _Body) -> _Response:
        """Route one parsed request; ``reader`` is its unread body."""
        route, redirect = _resolve_route(path)
        if redirect is not None:
            return _redirect_response(redirect)
        if method == "GET" and route in ("/healthz", "/stats", "/metrics"):
            return await self._do_get(route)
        if method == "POST" and route == "/upscale":
            return await self._do_upscale(headers, reader)
        return _error_response(
            404, "not_found", f"unknown path {path!r}",
            trace_id=self._client_trace_id(headers),
        )

    async def _do_get(self, route: str) -> _Response:
        loop = asyncio.get_running_loop()
        if route == "/healthz":
            key = self.engine.key
            return _json_response(200, {
                "status": ("ok" if not self.engine.closed
                           else "shutting-down"),
                "model": key.name,
                "scale": key.scale,
                "precision": key.precision,
                "api_version": API_VERSION,
            })
        if route == "/stats":
            stats = await loop.run_in_executor(None, self.engine.stats)
            return _json_response(200, stats)
        text = await loop.run_in_executor(
            None,
            lambda: render_prometheus(
                self.engine.stats(),
                tracer=get_tracer(),
                profiler=_profiler.ACTIVE,
            ),
        )
        return _Response(
            200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE,
        )

    async def _do_upscale(self, headers: Dict[str, str],
                          body: _Body) -> _Response:
        # Header-first validation: an unacceptable upload is refused
        # before one body byte is read (the connection then closes).
        trace_id = self._client_trace_id(headers)
        ctype = headers.get("content-type", "")
        ctype = ctype.split(";", 1)[0].strip().lower()
        if (ctype not in _ACCEPTED_MEDIA_TYPES
                and not ctype.startswith(_ACCEPTED_MEDIA_PREFIXES)):
            return _error_response(
                415, "unsupported_media_type",
                f"unsupported Content-Type {ctype!r}; send a netpbm image "
                "as image/* or application/octet-stream",
                trace_id=trace_id,
            )
        length = body.length
        if length is not None and length > self.max_body_bytes:
            return _error_response(
                413, "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                trace_id=trace_id,
            )
        if not length:
            return _error_response(
                400, "bad_request", "missing or invalid body",
                trace_id=trace_id,
            )
        raw = await body.read()
        try:
            img = decode_netpbm(raw)
        except ValueError as exc:
            return _error_response(
                400, "bad_request", f"bad netpbm payload: {exc}",
                trace_id=trace_id,
            )
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: upscale_array_ex(
                    self.engine, img, trace_id=trace_id
                ),
            )
        except (EngineOverloaded, EngineClosed) as exc:
            return _error_response(
                503, "unavailable", str(exc),
                trace_id=trace_id,
            )
        except RequestTimeout as exc:
            return _error_response(
                504, "deadline_exceeded", str(exc),
                trace_id=trace_id,
            )
        except Exception as exc:  # noqa: BLE001 — reported as HTTP 500
            return _error_response(
                500, "internal", f"inference failed: {exc}",
                trace_id=trace_id,
            )
        payload = encode_netpbm(result.image)
        out = {
            "X-Degraded": "true" if result.degraded else "false",
            "X-Trace-Id": result.trace_id,
        }
        return _Response(
            200, payload, "application/octet-stream", headers=out
        )
