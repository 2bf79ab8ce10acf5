"""Asyncio HTTP front end for the analysis service.

A deliberately small HTTP/1.1 server on ``asyncio`` streams — the
container ships no third-party web framework, and the service's surface
(seven GET routes, two POSTs, JSON in and out) does not need one.  The
event loop owns the sockets; every request body that touches analysis
state runs on a bounded thread pool via ``run_in_executor``, so a cold
query folding gigabytes of partials never stalls health checks or cache
hits on other connections.  CPU-heavy sweeps fan out further from those
executor threads into ``core.mapreduce`` worker *processes* — threads for
concurrency at the socket layer, processes for parallelism in the sweep.

Endpoints (all responses are canonical JSON bytes):

- ``GET /healthz`` — liveness, no state access.
- ``GET /stats`` — cache counters, manifest size, fingerprints.
- ``GET /analyses`` — the query kinds this daemon serves.
- ``GET /query/<kind>?...`` — one Section 4 analysis (cached).
- ``GET /timeline/<car>`` — one car's session log (cached).
- ``POST /ingest`` — rescan the trace, fold new shards, report the diff.
- ``POST /invalidate`` — drop every cached response explicitly.

Determinism argument for the thread pool (RL012 allowlist): the executor
threads only *schedule* requests — every response body is canonical JSON
derived from :class:`~repro.service.state.ServiceState`'s index-ordered
fold under its lock, so response bytes are identical no matter how
requests interleave.  ``tests/service/test_service.py`` asserts
byte-identical bodies across 16 concurrent clients, and the map phase
itself runs in ``core.mapreduce``'s sanctioned worker pool, never here.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, TypeVar
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.service.routes import ANALYSIS_ROUTES, QueryError
from repro.service.state import ServiceState, canonical_json

if TYPE_CHECKING:
    from collections.abc import Callable, Mapping

_T = TypeVar("_T")

#: Reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

#: Cap on concurrent state-touching requests; beyond this they queue.
DEFAULT_EXECUTOR_THREADS = 8

#: What a request handler may raise without killing its connection: the
#: error families analysis code and the shard I/O can produce.  QueryError,
#: KeyError and ValueError are mapped to typed statuses before this net.
_REQUEST_ERRORS = (
    ArithmeticError,
    AttributeError,
    LookupError,
    OSError,
    RuntimeError,
    TypeError,
    ValueError,
)


@dataclass(frozen=True)
class _Response:
    """One HTTP response body with its status."""

    status: int
    body: bytes


def _json_response(status: int, payload: Mapping[str, object]) -> _Response:
    return _Response(status=status, body=canonical_json(payload))


def _error(status: int, message: str) -> _Response:
    return _json_response(status, {"error": message, "status": status})


def _content_length(headers: Mapping[str, str]) -> int | None:
    """The request body length, or ``None`` when the header is malformed."""
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        return None
    return length if length >= 0 else None


class ServiceApp:
    """Routes HTTP requests onto one :class:`ServiceState`."""

    def __init__(
        self,
        state: ServiceState,
        executor_threads: int = DEFAULT_EXECUTOR_THREADS,
    ) -> None:
        if executor_threads < 1:
            raise ValueError(
                f"executor_threads must be >= 1, got {executor_threads}"
            )
        self.state = state
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-service"
        )
        #: Keep-alive connections waiting for their next request line,
        #: with the task serving each — what shutdown closes.
        self._idle: dict[asyncio.StreamWriter, asyncio.Task[None]] = {}
        #: Set at shutdown: a connection closes after its current reply.
        self._closing = False

    async def start_server(self, host: str, port: int) -> asyncio.Server:
        """Bind and return the listening server (port 0 = ephemeral)."""
        return await asyncio.start_server(self._handle_connection, host, port)

    def shutdown(self) -> None:
        """Stop the executor; in-flight requests finish first."""
        self._executor.shutdown(wait=True)

    async def close_idle_connections(self) -> None:
        """Close keep-alive connections between requests, and wait for them.

        Their handlers see end-of-stream and return normally, so stopping
        the loop afterwards cancels no idle handler (a cancelled one would
        log a ``CancelledError`` traceback).  A connection mid-request
        finishes its reply, then closes instead of waiting for another.
        """
        self._closing = True
        idle = list(self._idle.items())
        for writer, _ in idle:
            writer.close()
        if idle:
            await asyncio.wait([task for _, task in idle])

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            while not self._closing:
                if task is not None:
                    self._idle[writer] = task
                try:
                    request_line = await reader.readline()
                finally:
                    self._idle.pop(writer, None)
                if not request_line or request_line.strip() == b"":
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._write(writer, _error(400, "malformed request line"))
                    break
                headers = await self._read_headers(reader)
                if headers is None:
                    await self._write(writer, _error(400, "malformed headers"))
                    break
                body_len = _content_length(headers)
                if body_len is None:
                    await self._write(
                        writer, _error(400, "malformed Content-Length")
                    )
                    break
                if body_len:
                    await reader.readexactly(body_len)
                response = await self._dispatch(method.upper(), target)
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self._closing
                )
                await self._write(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> dict[str, str] | None:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()

    async def _write(
        self, writer: asyncio.StreamWriter, response: _Response, keep_alive: bool = True
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + response.body)
        await writer.drain()

    async def _dispatch(self, method: str, target: str) -> _Response:
        split = urlsplit(target)
        path = unquote(split.path)
        params = dict(parse_qsl(split.query))
        try:
            if method == "GET":
                return await self._dispatch_get(path, params)
            if method == "POST":
                return await self._dispatch_post(path)
            return _error(405, f"method {method} not supported")
        except QueryError as exc:
            return _error(exc.status, exc.message)
        except KeyError as exc:
            return _error(404, f"not found: {exc.args[0] if exc.args else path}")
        except ValueError as exc:
            return _error(409, str(exc))
        except _REQUEST_ERRORS:
            return _error(500, "internal error")

    async def _dispatch_get(self, path: str, params: dict[str, str]) -> _Response:
        if path == "/healthz":
            return _json_response(200, {"status": "ok"})
        if path == "/stats":
            return _json_response(200, self._stats_payload())
        if path == "/analyses":
            return _json_response(
                200,
                {
                    "analyses": {
                        kind: route.description
                        for kind, route in ANALYSIS_ROUTES.items()
                    }
                },
            )
        if path.startswith("/query/"):
            kind = path[len("/query/") :]
            body = await self._run(partial(self.state.query, kind, params))
            return _Response(status=200, body=body)
        if path.startswith("/timeline/"):
            car = path[len("/timeline/") :]
            body = await self._run(
                partial(self.state.query, "timeline", {"car": car})
            )
            return _Response(status=200, body=body)
        raise KeyError(path)

    async def _dispatch_post(self, path: str) -> _Response:
        if path == "/ingest":
            summary = await self._run(self.state.refresh)
            return _json_response(
                200,
                {
                    "changed": summary.changed,
                    "n_added": summary.n_added,
                    "n_ghosts": summary.n_ghosts,
                    "n_records": summary.n_records,
                    "n_removed": summary.n_removed,
                    "n_shards": summary.n_shards,
                    "trace_fingerprint": summary.trace_fingerprint,
                },
            )
        if path == "/invalidate":
            dropped = await self._run(self.state.cache.clear)
            return _json_response(200, {"dropped": dropped})
        raise KeyError(path)

    def _stats_payload(self) -> dict[str, object]:
        stats = self.state.cache_stats()
        return {
            "cache": {
                "current_bytes": stats.current_bytes,
                "entries": stats.entries,
                "evictions": stats.evictions,
                "hits": stats.hits,
                "max_bytes": stats.max_bytes,
                "misses": stats.misses,
            },
            "config_fingerprint": self.state.config_fingerprint,
            "n_records": self.state.n_records,
            "n_shards": self.state.n_shards,
            "scenario": self.state.config.scenario,
            "trace_fingerprint": self.state.trace_fingerprint,
        }

    async def _run(self, fn: Callable[[], _T]) -> _T:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn)


async def _serve(app: ServiceApp, server: asyncio.Server, stop: asyncio.Event) -> None:
    """Serve until ``stop`` is set or the task is cancelled, then close.

    Every connection is closed before leaving the server context: from
    Python 3.12.1 its exit waits for all of them, and an idle keep-alive
    connection would never close by itself.  (``Server.serve_forever``
    waits the same way when cancelled, so it is not used.)
    """
    try:
        async with server:
            try:
                await stop.wait()
            finally:
                server.close()
                await app.close_idle_connections()
    finally:
        app.shutdown()


async def _serve_until_interrupted(app: ServiceApp, host: str, port: int) -> None:
    """Serve until the task is cancelled, as ``asyncio.run`` does on Ctrl-C."""
    server = await app.start_server(host, port)
    await _serve(app, server, asyncio.Event())


def serve_forever(state: ServiceState, host: str, port: int) -> None:
    """Blocking entry point used by ``repro-cars serve``; Ctrl-C stops it."""
    asyncio.run(_serve_until_interrupted(ServiceApp(state), host, port))


class ServiceThread:
    """A live daemon on a background thread, for tests and benchmarks.

    Starts the event loop on its own thread, binds (by default) an
    ephemeral port, and exposes the bound address once ``start`` returns.
    Use as a context manager so the loop, executor and sockets are torn
    down deterministically.
    """

    def __init__(
        self, state: ServiceState, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self._app = ServiceApp(state)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start the loop and block until the server is accepting."""
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error

    def stop(self) -> None:
        """Stop the server and join the loop thread."""
        loop, stop, thread = self._loop, self._stop, self._thread
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if thread is not None:
            thread.join()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            # Stash for start() to re-raise on the caller's thread, then
            # re-raise here too so the failure is never silent.
            self._error = exc
            raise
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await self._app.start_server(self.host, self.port)
        sockets = server.sockets
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        self._ready.set()
        await _serve(self._app, server, self._stop)
