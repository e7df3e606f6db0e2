"""Minimal asyncio HTTP/1.1 front end for the sweep service.

Stdlib only — ``asyncio.start_server`` plus a small request parser —
because the service's surface is four JSON endpoints, not a web
framework's worth of routing.  :meth:`HttpServer.dispatch` reads them
from one route table, ``_ROUTES`` (path, method, request schema,
service method):

* ``POST /sweep``  — a :class:`repro.serve.schemas.SweepRequest` body;
  returns the :class:`repro.serve.schemas.SweepResponse` (200) or an
  ``{"error": ...}`` body with 400/413/429/504 per the service's
  admission and timeout rules.  A body that is not UTF-8 JSON, or
  nests deeper than the decoder's stack, is a 400 on both POST
  routes.  A request whose headers and body do not arrive within
  ``_READ_DEADLINE_S`` of its request line gets 408.
* ``POST /dynamic/step`` — a
  :class:`repro.serve.schemas.DynamicStepRequest` body applying one
  move batch to a named
  :class:`repro.engine.dynamic.DynamicUniverse` session (creating it
  through the single-flight table when a ``create`` block rides
  along); returns the
  :class:`repro.serve.schemas.DynamicStepResponse`.
* ``GET /stats``   — aggregated engine cache counters + service
  counters (see :meth:`repro.serve.service.SweepService.stats_payload`).
* ``GET /healthz`` — liveness.

:func:`run` is the blocking CLI entry point (``repro serve``): it
installs SIGTERM/SIGINT handlers, prints the bound address (port 0
binds an ephemeral port, so smoke tests parse the line), and on
shutdown closes the listener and drains in-flight compute before
printing the clean-exit line the lifecycle tests assert on.  :class:`BackgroundServer` runs the same
stack on a daemon-thread event loop for in-process tests and benches.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Tuple

from repro.serve.schemas import DynamicStepRequest, SweepRequest
from repro.serve.service import ServeConfig, SweepService

__all__ = ["HttpServer", "BackgroundServer", "start_server", "run"]

_MAX_HEADER_BYTES = 32_768
_MAX_BODY_BYTES = 8 << 20
#: Seconds from a request line's receipt until its headers and body
#: must be read; a client that stalls mid-request gets 408 and is
#: closed instead of holding its connection.  The idle wait for the
#: next request line of a keep-alive connection is not timed.
_READ_DEADLINE_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


#: ``path -> (method, request schema, SweepService method name)``.  A
#: POST route parses its JSON body with the schema's ``from_dict`` and
#: awaits the service method on the request; a GET route (no schema)
#: answers the method's payload, or liveness when it names none.  The
#: service methods are looked up by name on each request, so a wrapper
#: installed on the class later still sees every call.
_ROUTES = {
    "/healthz": ("GET", None, None),
    "/stats": ("GET", None, "stats_payload"),
    "/sweep": ("POST", SweepRequest, "handle_sweep"),
    "/dynamic/step": ("POST", DynamicStepRequest, "handle_dynamic"),
}


class _Rejected(Exception):
    """An unreadable request; ``args`` are the ``(status, error)`` to
    answer before closing."""


async def _read_headers_and_body(
    reader: asyncio.StreamReader,
) -> Tuple[dict, bytes]:
    """The headers (lower-cased names) and body after a request line.

    Raises :class:`_Rejected` for oversized headers (431), a bad
    ``Content-Length`` (400) and an oversized body (413).
    """
    headers = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # one line over the stream's line limit
            raise _Rejected(431, "headers too large") from None
        header_bytes += len(line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise _Rejected(431, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise _Rejected(400, "bad Content-Length")
    if length > _MAX_BODY_BYTES:
        raise _Rejected(413, f"body over {_MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return headers, body


class HttpServer:
    """Routes parsed requests to a :class:`SweepService`."""

    def __init__(self, service: SweepService) -> None:
        self.service = service

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except ValueError:  # over the stream's line limit
                    await self._respond(
                        writer, 414, {"error": "request line too long"}
                    )
                    break
                if not request_line:
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}
                    )
                    break
                try:
                    headers, body = await asyncio.wait_for(
                        _read_headers_and_body(reader), _READ_DEADLINE_S
                    )
                except _Rejected as exc:
                    status, error = exc.args
                    await self._respond(
                        writer, status, {"error": error}, close=True
                    )
                    break
                except asyncio.TimeoutError:
                    timeout = {"error": "request read timed out"}
                    await self._respond(writer, 408, timeout, close=True)
                    break
                status, payload = await self.dispatch(method, target, body)
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                await self._respond(
                    writer, status, payload, close=not keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, dict]:
        path = target.split("?", 1)[0]
        route = _ROUTES.get(path)
        if route is None:
            return 404, {"error": f"no route {method} {path}"}
        allowed, schema, handler = route
        if method != allowed:
            return 405, {"error": f"{allowed} {path}"}
        if schema is None:
            if handler is None:
                return 200, {"status": "ok"}
            return 200, getattr(self.service, handler)()
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, RecursionError) as exc:
            # ValueError covers UnicodeDecodeError and JSONDecodeError;
            # RecursionError is nesting deeper than the decoder's stack.
            return 400, {"error": f"invalid JSON body: {exc}"}
        try:
            request = schema.from_dict(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return await getattr(self.service, handler)(request)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        retry_after = payload.get("retry_after_s")
        if status == 429 and retry_after is not None:
            lines.append(f"Retry-After: {max(1, round(retry_after))}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def start_server(
    config: ServeConfig,
) -> Tuple[SweepService, asyncio.AbstractServer, int]:
    """Warm-start a service and bind its listener; returns the port."""
    service = SweepService(config)
    await service.start()
    http = HttpServer(service)
    server = await asyncio.start_server(
        http.handle_connection, config.host, config.port
    )
    port = server.sockets[0].getsockname()[1]
    return service, server, port


async def _run_until_signal(config: ServeConfig) -> None:
    service, server, port = await start_server(config)
    print(
        f"repro serve listening on http://{config.host}:{port}", flush=True
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(sig, lambda *_: stop.set())
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.aclose()
    print("repro serve shut down cleanly", flush=True)


def run(config: ServeConfig) -> int:
    """Blocking ``repro serve`` entry point; returns the exit code."""
    asyncio.run(_run_until_signal(config))
    return 0


class BackgroundServer:
    """The full serve stack on a daemon-thread event loop.

    For tests and benchmarks that need a live HTTP endpoint inside one
    process: construction warm-starts and binds (``port`` attribute
    carries the ephemeral port), :meth:`stop` performs the same clean
    teardown as the signal path — in-flight compute is drained when it
    returns.
    """

    def __init__(self, config: ServeConfig) -> None:
        self._host = config.host
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            start_server(config), self._loop
        )
        self.service, self._server, self.port = future.result(timeout=60)

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def stop(self) -> None:
        async def shutdown() -> None:
            self._server.close()
            await self._server.wait_closed()
            await self.service.aclose()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(
            timeout=60
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
