"""The connection loop: batching, back-pressure, HEAD, caps, failures."""

import asyncio
import logging
import socket

import pytest

import repro.serve.http as http
from repro.serve import (
    HttpServer,
    Request,
    Response,
    ServeApp,
    ShardSet,
    SnapshotHub,
    StreamingResponse,
    TransitionFeed,
)
from tests.serve.conftest import (
    even_odd_events,
    even_odd_source,
    http_get,
    read_reply,
    serve_config,
)


def request(target: str, method: str = "GET", **headers: str) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def exchange(
    port: int, requests: list[bytes], pipelined: bool
) -> list[bytes]:
    """Each request's raw reply, written in one go or one at a time."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    try:
        if pipelined:
            writer.write(b"".join(requests))
        for one in requests:
            if not pipelined:
                writer.write(one)
            replies.append(
                await read_reply(reader, head_only=one.startswith(b"HEAD"))
            )
    finally:
        await close(writer)
    return replies


def served_by(server: HttpServer, writer: asyncio.StreamWriter) -> bool:
    """Whether *writer* is the server's end of a connection."""
    return writer.get_extra_info("sockname")[1] == server.port


async def ok(_: Request) -> Response:
    return Response(200, b"ok")


async def boom(_: Request) -> Response:
    raise RuntimeError("boom")


class TestPipelinedBatch:
    def test_fifty_mixed_requests_one_write_same_bytes(self, monkeypatch):
        shard_set = ShardSet(even_odd_source(), serve_config(), shards=2)
        for event in even_odd_events():
            shard_set.offer(event)
        shard_set.finish()
        app = ServeApp(SnapshotHub(shard_set), TransitionFeed())
        row = shard_set.incident_rows()[0]
        server_writes: list[int] = []
        write = asyncio.StreamWriter.write

        def counting(writer: asyncio.StreamWriter, data: bytes) -> None:
            if served_by(app.server, writer):
                server_writes.append(len(data))
            write(writer, data)

        async def main() -> None:
            port = await app.start()
            # Build both snapshots first, so /status reads the same
            # throughout.
            _, headers, _ = await http_get(port, "/picture.svg")
            await http_get(port, "/incidents")
            etag = {"If-None-Match": headers["etag"]}
            mix = [
                request("/picture.svg", **etag),
                request("/incidents"),
                request("/incidents?status=resolved"),
                request(f"/incidents/{row['id']}?shard={row['shard']}"),
                request("/healthz", "HEAD"),
                request("/status"),
                request("/picture.svg", "HEAD"),
                request("/nope"),
                request("/incidents", "HEAD"),
                request("/healthz"),
            ] * 5
            mix[6] = request("/picture.svg")  # one full picture
            one_at_a_time = await exchange(port, mix, pipelined=False)
            monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
            batched = await exchange(port, mix, pipelined=True)
            monkeypatch.undo()
            assert batched == one_at_a_time
            assert batched[0].startswith(b"HTTP/1.1 304")
            assert batched[7].startswith(b"HTTP/1.1 404")
            assert len(server_writes) == 1
            assert server_writes[0] == sum(map(len, batched))
            await app.server.close()

        asyncio.run(main())
        shard_set.close()

    def test_a_client_that_never_reads_meets_back_pressure(
        self, monkeypatch
    ):
        """Pending replies are capped; other connections go on."""
        reply = Response(200, b"x" * (32 << 10)).encode()

        async def big(_: Request) -> bytes:
            return reply

        server = HttpServer()
        server.route("/incidents", big)
        server.route("/healthz", ok)
        # The server's end of the deaf connection, once it writes.
        deaf_end: list[asyncio.StreamWriter] = []
        write = asyncio.StreamWriter.write

        def noting(writer: asyncio.StreamWriter, data: bytes) -> None:
            if not deaf_end and served_by(server, writer):
                deaf_end.append(writer)
            write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", noting)

        async def main() -> None:
            loop = asyncio.get_running_loop()
            port = await server.start()
            deaf = socket.socket()
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.setblocking(False)
            try:
                await loop.sock_connect(deaf, ("127.0.0.1", port))
                await loop.sock_sendall(deaf, request("/incidents") * 2000)
                # Let the server run until it stands still in a drain.
                sizes = [-1, -2]
                while sizes[-1] != sizes[-2] or sizes[-1] <= 0:
                    await asyncio.sleep(0.05)
                    sizes.extend(
                        w.transport.get_write_buffer_size()
                        for w in deaf_end
                    )
                (writer,) = deaf_end
                # What the transport held below its own high-water
                # mark, then one capped batch written on top.
                _, high_water = writer.transport.get_write_buffer_limits()
                assert max(sizes) <= (
                    high_water + http._MAX_PENDING + len(reply)
                )
                assert await http_get(port, "/healthz") == (
                    200,
                    {
                        "content-type": "text/plain; charset=utf-8",
                        "content-length": "2",
                    },
                    b"ok",
                )
            finally:
                deaf.close()
            await server.close()

        asyncio.run(main())


class TestHead:
    def test_head_sends_the_header_block_only(self):
        wire = Response(200, b"wire-ready").encode()

        async def prebuilt(_: Request) -> bytes:
            return wire

        server = HttpServer()
        server.route("/healthz", ok)
        server.route("/wire", prebuilt)

        async def main() -> None:
            port = await server.start()
            # A keep-alive client that follows RFC 9110 reads no body
            # after a HEAD: the GET's reply must start right there.
            replies = await exchange(
                port,
                [
                    request("/healthz", "HEAD"),
                    request("/healthz"),
                    request("/wire", "HEAD"),
                    request("/wire"),
                ],
                pipelined=True,
            )
            get_healthz = Response(200, b"ok").encode()
            assert replies == [
                get_healthz[:-2],
                get_healthz,
                wire[: -len(b"wire-ready")],
                wire,
            ]
            assert b"Content-Length: 2\r\n" in replies[0]
            await server.close()

        asyncio.run(main())

    def test_head_on_a_stream_gets_its_header_and_no_stream(self):
        pumped = []

        async def pump(writer: asyncio.StreamWriter) -> None:
            pumped.append(writer)

        async def stream(_: Request) -> StreamingResponse:
            head = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nretry: 1\n\n"
            return StreamingResponse(head, pump)

        server = HttpServer()
        server.route("/events", stream)

        async def main() -> None:
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(request("/events", "HEAD"))
            assert await reader.read() == (
                b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"
            )
            assert not pumped
            await close(writer)
            await server.close()

        asyncio.run(main())


class TestHeaderCap:
    @pytest.mark.parametrize(
        "head_bytes, expected",
        [
            (http._MAX_HEADER - 1, b"HTTP/1.1 200 OK"),
            (http._MAX_HEADER + 5, b"HTTP/1.1 400 Bad Request"),
        ],
        ids=["under", "over"],
    )
    def test_a_head_under_the_cap_is_served_one_over_is_refused(
        self, head_bytes, expected
    ):
        server = HttpServer()
        server.route("/healthz", ok)
        bare = request("/healthz", **{"X-Pad": "", "Connection": "close"})
        padded = request(
            "/healthz",
            **{"X-Pad": "p" * (head_bytes - len(bare)), "Connection": "close"},
        )
        assert len(padded) == head_bytes

        async def main() -> None:
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(padded)
            raw = await reader.read()
            assert raw.startswith(expected)
            if expected.endswith(b"Bad Request"):
                assert raw.endswith(b"header too large")
            await close(writer)
            await server.close()

        asyncio.run(main())


class TestWaysOut:
    """Whatever ends a connection, the replies already owed go first."""

    def served(self, tail: bytes) -> tuple[bytes, list]:
        """What comes back for two good requests and then *tail*."""
        pumped = []

        async def pump(writer: asyncio.StreamWriter) -> None:
            pumped.append(writer)
            writer.write(b"data: 1\n\n")

        async def stream(_: Request) -> StreamingResponse:
            return StreamingResponse(b"HTTP/1.1 200 OK\r\n\r\n", pump)

        server = HttpServer()
        server.route("/healthz", ok)
        server.route("/boom", boom)
        server.route("/events", stream)

        async def main() -> bytes:
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(request("/healthz") * 2 + tail)
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            await close(writer)
            await server.close()
            return raw

        return asyncio.run(main()), pumped

    def test_handler_failure_is_a_500_then_close(self, caplog):
        with caplog.at_level(logging.ERROR, logger="repro.serve.http"):
            raw, _ = self.served(request("/boom") + request("/healthz"))
        good = Response(200, b"ok").encode()
        assert raw == good * 2 + Response(
            500, b"internal server error"
        ).encode()
        (record,) = caplog.records
        assert "/boom" in record.getMessage()
        assert record.exc_info[0] is RuntimeError

    def test_malformed_request(self):
        raw, _ = self.served(b"nonsense\r\n\r\n" + request("/healthz"))
        good = Response(200, b"ok").encode()
        assert raw == good * 2 + Response(400, b"malformed request").encode()

    def test_method_not_allowed_and_close(self):
        raw, _ = self.served(
            request("/healthz", "POST", Connection="close")
            + request("/healthz")
        )
        good = Response(200, b"ok").encode()
        assert raw == good * 2 + Response(
            405, b"method not allowed"
        ).encode()

    def test_connection_close(self):
        raw, _ = self.served(
            request("/healthz", Connection="close") + request("/healthz")
        )
        assert raw == Response(200, b"ok").encode() * 3

    def test_stream_hand_over(self):
        raw, pumped = self.served(request("/events"))
        good = Response(200, b"ok").encode()
        assert raw == good * 2 + b"HTTP/1.1 200 OK\r\n\r\ndata: 1\n\n"
        assert len(pumped) == 1
