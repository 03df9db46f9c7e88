"""A stdlib-only asyncio HTTP front end over :class:`ChaseService`.

:class:`ChaseServer` speaks just enough HTTP/1.1 (request line, headers,
``Content-Length`` bodies, ``Connection: close``) to serve JSON without
any dependency beyond the standard library.  Endpoints:

===========  ======  ====================================================
path         method  body / effect
===========  ======  ====================================================
``/``        GET     endpoint index (also ``/index``)
``/health``  GET     liveness probe (also reports draining state)
``/stats``   GET     :meth:`ChaseService.status` — the resident's state
``/query``   POST    ``{"query": "...", "certain"?, "timeout_s"?}`` →
                     answers
``/entail``  POST    ``{"atom": "p(a, b)", "timeout_s"?}`` → ground-atom
                     entailment at the pinned watermark
``/facts``   POST    ``{"facts": "...text..." | ["p(a, b)", ...],
                     "timeout_s"?, "max_steps"?, "ingest_id"?}`` →
                     incremental maintenance (chase resumed from the
                     delta), then a fresh snapshot is published;
                     ``ingest_id`` is the idempotency key a safe retry
                     reuses
===========  ======  ====================================================

Service calls run on the event loop's default thread-pool executor, so
slow queries and ingest legs never stall the accept loop; concurrency
control is the service's own (snapshot-pinned reads, a single-writer
ingest lock, admission gate).  Error mapping:
:class:`ServiceError` → its status, parse/validation errors → 400, a
tripped request budget (:class:`~repro.errors.BudgetExceededError`) →
503 with the stop reason, unknown path → 404; body fields an endpoint
does not list are ignored.  A listed field of the wrong JSON type is a
400 naming it: ``certain`` must be a boolean, ``max_steps`` an integer
and ``timeout_s`` a number (``true`` is neither).  A shed request
(:class:`~repro.serve.admission.OverloadError`) maps to 429/503 with a
``Retry-After`` header and a ``retry_after_s`` payload field.

``/health`` and ``/stats`` deliberately bypass the admission gate and
(for ``/health``) the executor pool: they are computed inline on the
event loop from cheap attribute reads, so a fully saturated service
still answers its probes.

:class:`BackgroundServer` runs a server on a daemon thread with a
ready/stop handshake — the shape the tests use; the CLI's foreground
path calls :meth:`ChaseServer.run`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional, Tuple

from ..errors import BudgetExceededError, ReproError
from .admission import OverloadError
from .service import ChaseService, ServiceError

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_INDEX = {
    "endpoints": {
        "GET /health": "liveness probe (ok | degraded | quarantined)",
        "GET /stats": "the resident's chase state and counters",
        "POST /query": "conjunctive query over the pinned snapshot",
        "POST /entail": "ground-atom entailment",
        "POST /facts": (
            "ingest base facts; incremental maintenance "
            "(idempotent via ingest_id)"
        ),
    },
}

_Headers = Tuple[Tuple[str, str], ...]


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ChaseServer:
    """One listening socket over one :class:`ChaseService`.

    ``port=0`` binds an ephemeral port; the bound address is available
    as :attr:`address` once :meth:`start` returns (the CLI prints it so
    scripted clients — e.g. ``ci/check_serve.py`` — can parse it).
    """

    def __init__(
        self,
        service: ChaseService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — meaningful after :meth:`start`
        (resolves ``port=0`` to the kernel-assigned port)."""
        if self._server is not None and self._server.sockets:
            sock = self._server.sockets[0]
            name = sock.getsockname()
            return (name[0], name[1])
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
            self.host, self.port = self.address

    async def stop(self) -> None:
        """Stop accepting, cancel in-flight request budgets, close."""
        self.service.shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Run until ``stop`` is set, then shut down cleanly."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.stop()

    def run(self) -> None:
        """Foreground loop for the CLI: serve until SIGINT/SIGTERM
        (handled on the loop where the platform allows — a clean exit,
        not a traceback), then stop cleanly."""

        async def _main() -> None:
            import signal

            await self.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-Unix / non-main-thread: Ctrl-C unwinds
            print(
                f"% serving on http://{self.host}:{self.port}",
                flush=True,
            )
            try:
                await stop.wait()
            finally:
                await self.stop()

        asyncio.run(_main())

    # -- request handling ----------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        headers: _Headers = ()
        try:
            status, payload, headers = await self._respond(reader)
        except Exception as exc:  # pragma: no cover - handler backstop
            status, payload = 500, {"error": f"internal error: {exc}"}
        body = json.dumps(payload, indent=2).encode() + b"\n"
        extra = "".join(f"{key}: {value}\r\n" for key, value in headers)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, dict, _Headers]:
        try:
            method, path, body = await self._read_request(reader)
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}, ()
        except (asyncio.IncompleteReadError, ConnectionError):
            return 400, {"error": "truncated request"}, ()
        try:
            status, payload = await self._route(method, path, body)
            return status, payload, ()
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}, ()
        except OverloadError as exc:
            # A shed request: tell the client when to come back, both
            # on the wire (Retry-After, integer seconds) and in the
            # payload (fractional, for programmatic backoff).
            header = self.service.admission.retry_after_header(
                exc.retry_after_s
            )
            return (
                exc.status,
                {
                    "error": str(exc),
                    "retry_after_s": round(exc.retry_after_s, 3),
                },
                (("Retry-After", header),),
            )
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}, ()
        except BudgetExceededError as exc:
            return 503, {
                "error": str(exc),
                "stop_reason": exc.stop_reason,
            }, ()
        except (ReproError, ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}, ()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large")
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        length = None
        for line in lines[1:]:
            if ":" not in line:
                continue
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                # RFC 9110 section 8.6: 1*DIGIT, so no sign, no "_".
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _HttpError(400, "bad Content-Length")
                # Differing values are an unrecoverable framing error
                # (RFC 9112 section 6.3); identical duplicates are not.
                if length is not None and int(value) != length:
                    raise _HttpError(400, "conflicting Content-Length headers")
                length = int(value)
        length = length or 0
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict]:
        if path == "/" or path == "/index":
            self._require(method, "GET")
            return 200, _INDEX
        if path == "/health":
            # Inline on the event loop — cheap attribute reads only —
            # so the probe answers even when the executor pool and the
            # admission gate are saturated.
            self._require(method, "GET")
            return 200, self.service.health()
        if path == "/stats":
            self._require(method, "GET")
            return 200, await self._call(self.service.status)
        if path == "/query":
            self._require(method, "POST")
            payload = self._json(body)
            text = self._field(payload, "query")
            out = await self._call(
                self.service.query,
                text,
                certain=payload.get("certain", False),
                timeout_s=payload.get("timeout_s"),
            )
            return 200, out
        if path == "/entail":
            self._require(method, "POST")
            payload = self._json(body)
            text = self._field(payload, "atom")
            out = await self._call(
                self.service.entail,
                text,
                timeout_s=payload.get("timeout_s"),
            )
            return 200, out
        if path == "/facts":
            self._require(method, "POST")
            payload = self._json(body)
            facts = payload.get("facts")
            if not isinstance(facts, (str, list)):
                raise _HttpError(
                    400, "'facts' must be a string or a list of strings"
                )
            ingest_id = payload.get("ingest_id")
            if ingest_id is not None and (
                not isinstance(ingest_id, str) or not ingest_id.strip()
            ):
                raise _HttpError(
                    400, "'ingest_id' must be a non-empty string"
                )
            out = await self._call(
                self.service.ingest,
                facts,
                timeout_s=payload.get("timeout_s"),
                max_steps=payload.get("max_steps"),
                ingest_id=ingest_id,
            )
            return 200, out
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _call(self, fn, *args, **kwargs):
        """Run a (potentially slow) service call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: fn(*args, **kwargs)
        )

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _json(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "empty body; send a JSON object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"bad JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    @staticmethod
    def _field(payload: dict, key: str) -> str:
        value = payload.get(key)
        if not isinstance(value, str) or not value.strip():
            raise _HttpError(400, f"missing or empty {key!r} field")
        return value


class BackgroundServer:
    """A :class:`ChaseServer` on a daemon thread, for tests and
    examples::

        with BackgroundServer(service, port=0) as server:
            host, port = server.address
            ...http.client against (host, port)...

    ``__enter__`` blocks until the socket is bound; ``__exit__`` (or
    :meth:`stop`) signals the loop, waits for clean shutdown, and
    joins the thread.
    """

    def __init__(
        self,
        service: ChaseService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.server = ChaseServer(service, host=host, port=port)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until(self._stop)

        asyncio.run(_main())

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
