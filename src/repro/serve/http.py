"""A minimal asyncio HTTP/1.1 server tuned for the cached read path.

Dependency-free by project rule, and deliberately small: the serve
layer's traffic is thousands of identical GETs against a handful of
routes, so the server optimizes exactly that — keep-alive by
default, pipelining-friendly (every request already buffered is
answered before the next send and drain: a pipelined batch costs one
of each), and handlers may return *wire-ready bytes* (a whole
precomputed response, see :class:`~repro.serve.snapshot.WireBody`)
which are written without any per-request header assembly. The repo
benchmark's ``serve_reads`` mix (``bench/serve.py``: client and server
sharing one core) runs past 20k requests/s.

Not a general web server: no request bodies, no chunked decoding, no
TLS, 64 KiB header cap. Anything malformed gets a 400, a handler that
raises a 500, and either way the connection is closed — after the
replies already owed on it.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable, Optional, Union

#: Longest request head accepted, the stream reader's ``limit``.
_MAX_HEADER = 1 << 16
#: Reply bytes a connection collects before it must send and drain:
#: a client that pipelines and never reads meets back-pressure here.
_MAX_PENDING = 1 << 20

_log = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class Request:
    """One parsed request. Headers are lower-cased at parse time."""

    __slots__ = ("method", "path", "query", "headers")

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        headers: dict[str, str],
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name, default)

    def query_params(self) -> dict[str, str]:
        params: dict[str, str] = {}
        if not self.query:
            return params
        for pair in self.query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = value
        return params


class Response:
    """A conventional response; rendered to wire bytes once."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int = 200,
        body: bytes | str = b"",
        content_type: str = "text/plain; charset=utf-8",
        headers: Optional[list[tuple[str, str]]] = None,
    ) -> None:
        self.status = status
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.content_type = content_type
        self.headers = headers or []

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


class StreamingResponse:
    """A long-lived response the handler keeps writing (SSE).

    The dispatcher sends *head*, then hands the writer to *pump*,
    which owns the connection until the client goes away. The
    connection never returns to keep-alive.
    """

    __slots__ = ("head", "pump")

    def __init__(
        self,
        head: bytes,
        pump: Callable[[asyncio.StreamWriter], Awaitable[None]],
    ) -> None:
        self.head = head
        self.pump = pump


#: What a route handler may return: wire-ready bytes (fast path), a
#: Response, or a StreamingResponse that takes over the connection.
HandlerResult = Union[bytes, Response, StreamingResponse]
Handler = Callable[[Request], Awaitable[HandlerResult]]


def _parse(head: str) -> Optional[Request]:
    request_line, _, rest = head.partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None
    method, target = parts[0], parts[1]
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    for line in rest.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return Request(method, path, query, headers)


class HttpServer:
    """Route table + connection loop over ``asyncio.start_server``.

    The caller awaits :meth:`start` and :meth:`close` on the loop that
    feeds the state its handlers read (``run_serve``'s shards, or the
    monitor loop behind ``repro monitor --metrics-port``), so a handler
    always runs between two batches, never beside one. :meth:`close`
    stops accepting and ends every connection still open.
    """

    def __init__(self) -> None:
        self._routes: dict[str, Handler] = {}
        self._prefix_routes: list[tuple[str, Handler]] = []
        self._server: Optional[asyncio.Server] = None
        #: Each open connection's task and its transport.
        self._connections: dict[asyncio.Task, asyncio.BaseTransport] = {}
        self.port = 0

    def route(self, path: str, handler: Handler) -> None:
        """Register an exact-path GET handler."""
        self._routes[path] = handler

    def route_prefix(self, prefix: str, handler: Handler) -> None:
        """Register a handler for every path under *prefix*."""
        self._prefix_routes.append((prefix, handler))

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=_MAX_HEADER
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        """Stop accepting, then end every open connection and await it.

        Each connection's transport is aborted, dropping what it has
        not sent: whatever its task waits on — a request, a drain, the
        close — returns, so the task ends by itself and nothing is left
        for the loop's shutdown to cancel. A streaming pump must end
        too: :class:`~repro.serve.app.ServeApp` closes its feed first.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        connections = list(self._connections.items())
        for _, transport in connections:
            transport.abort()
        await asyncio.gather(
            *(task for task, _ in connections), return_exceptions=True
        )

    def _resolve(self, path: str) -> Optional[Handler]:
        handler = self._routes.get(path)
        if handler is not None:
            return handler
        for prefix, prefix_handler in self._prefix_routes:
            if path.startswith(prefix):
                return prefix_handler
        return None

    async def _answer(
        self, head: bytes
    ) -> tuple[Union[bytes, StreamingResponse], bool]:
        """The reply to one request head, and whether it is the last."""
        request = _parse(head.decode("latin-1"))
        if request is None:
            return Response(400, b"malformed request").encode(), True
        close_after = request.header("connection").lower() == "close"
        if request.method not in ("GET", "HEAD"):
            return (
                Response(405, b"method not allowed").encode(),
                close_after,
            )
        handler = self._resolve(request.path)
        result: HandlerResult
        if handler is None:
            result = Response(404, b"not found")
        else:
            try:
                result = await handler(request)
            except Exception:
                _log.exception("handler for %s failed", request.path)
                result = Response(500, b"internal server error")
                close_after = True
        if isinstance(result, Response):
            result = result.encode()
        if request.method == "HEAD":
            # The header block alone, Content-Length kept; a stream is
            # not started.
            if isinstance(result, StreamingResponse):
                result = result.head
                close_after = True
            return result[: result.index(b"\r\n\r\n") + 4], close_after
        return result, close_after

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer.transport
        # Replies not yet written, in request order; every way out of
        # the loop writes them before anything else.
        pending: list[bytes] = []
        size = 0
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    pending.append(
                        Response(400, b"header too large").encode()
                    )
                    break
                reply, close_after = await self._answer(head)
                if isinstance(reply, StreamingResponse):
                    pending.append(reply.head)
                    writer.write(b"".join(pending))
                    pending.clear()
                    await writer.drain()
                    await reply.pump(writer)
                    break
                pending.append(reply)
                size += len(reply)
                if close_after:
                    break
                # Answer every request already buffered whole
                # (pipelining) before paying for a send and a drain.
                unread = reader._buffer  # type: ignore[attr-defined]
                if size < _MAX_PENDING and unread.find(b"\r\n\r\n") >= 0:
                    continue
                writer.write(b"".join(pending))
                pending.clear()
                size = 0
                await writer.drain()
            if pending:
                writer.write(b"".join(pending))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            del self._connections[task]
