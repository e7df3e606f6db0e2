"""HTTP-level tests against a live in-process server.

The acceptance-critical ones: a sweep over HTTP is bit-for-bit the CLI
sweep, and N concurrent identical requests compute each canonical cell
exactly once (asserted through the engine's cache counters).
"""

import http.client
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import native
from repro.engine.sweep import Sweep
from repro.serve import SweepResponse, app

from tests.serve.conftest import http as fetch

SWEEP_BODY = {"dims": [2], "sides": [8], "curves": ["hilbert", "z", "gray"]}

#: One line longer than asyncio's default 64 KiB stream line limit.
_OVER_LINE_LIMIT = 70_000

_TIMEOUT_STATUS = b"HTTP/1.1 408 Request Timeout"


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw request bytes; return everything the server answers
    before it closes the connection."""
    import socket

    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.settimeout(30)
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoints:
    def test_healthz(self, server):
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_stats_shape(self):
        from repro.serve import BackgroundServer, ServeConfig

        config = ServeConfig(
            port=0,
            hot_set=(("hilbert", 2, 8),),
            batch_window_s=0.001,
            backend="numpy",
        )
        with BackgroundServer(config) as server:
            status, stats = fetch(server.url + "/stats")
        assert status == 200
        assert set(stats) >= {"cache", "counters", "inflight"}
        assert stats["warm_pairs"] == ["hilbert@2x8"]
        assert stats["cache"]["computes"]["key_grid"] == 1

    def test_unknown_route_404(self, server):
        status, payload = fetch(server.url + "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_405(self, server):
        status, _ = fetch(server.url + "/stats", payload={})
        assert status == 405
        status, _ = fetch(server.url + "/healthz", payload={})
        assert status == 405

    def test_invalid_json_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            connection.request("POST", "/sweep", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    @pytest.mark.parametrize("route", ("/sweep", "/dynamic/step"))
    def test_deeply_nested_json_400(self, server, route):
        # 100 KB of "[" is far under the body cap but nests deeper
        # than the JSON decoder's stack.
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            connection.request("POST", route, body=b"[" * 100_000)
            response = connection.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_unknown_field_400(self, server):
        status, payload = fetch(
            server.url + "/sweep", payload={"dims": [2], "side": [8]}
        )
        assert status == 400
        assert "unknown request fields" in payload["error"]

    def test_malformed_request_line_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(4096)
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_negative_content_length_400(self, server):
        reply = _raw_exchange(
            server,
            b"POST /sweep HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert b"bad Content-Length" in reply
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_header_line_over_stream_limit_431(self, server):
        reply = _raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nX-Big: "
            + b"a" * _OVER_LINE_LIMIT
            + b"\r\n\r\n",
        )
        assert reply.split(b"\r\n", 1)[0].startswith(b"HTTP/1.1 431 ")
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_request_line_over_stream_limit_414(self, server):
        reply = _raw_exchange(
            server,
            b"GET /" + b"a" * _OVER_LINE_LIMIT + b" HTTP/1.1\r\n\r\n",
        )
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 414 URI Too Long"
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_partial_header_block_408(self, server, monkeypatch):
        monkeypatch.setattr(app, "_READ_DEADLINE_S", 0.2)
        reply = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
        )
        assert reply.split(b"\r\n", 1)[0] == _TIMEOUT_STATUS
        assert b"Connection: close" in reply
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_short_body_408(self, server, monkeypatch):
        monkeypatch.setattr(app, "_READ_DEADLINE_S", 0.2)
        reply = _raw_exchange(
            server,
            b"POST /sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            b'{"dims": [2]',
        )
        assert reply.split(b"\r\n", 1)[0] == _TIMEOUT_STATUS
        assert fetch(server.url + "/healthz") == (200, {"status": "ok"})

    def test_idle_keep_alive_is_not_timed(self, server, monkeypatch):
        import time

        monkeypatch.setattr(app, "_READ_DEADLINE_S", 0.2)
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(0.4)  # idle past the deadline between requests
        finally:
            connection.close()

    def test_repeated_spec_key_400(self, server):
        status, payload = fetch(
            server.url + "/sweep",
            payload=dict(SWEEP_BODY, curves=["random:seed=1,seed=2"]),
        )
        assert status == 400
        assert "'seed' is given more than once" in payload["error"]

    def test_keep_alive_reuses_connection(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestSweepParity:
    def test_http_matches_cli_bit_for_bit(self, server):
        status, payload = fetch(server.url + "/sweep", payload=SWEEP_BODY)
        assert status == 200
        response = SweepResponse.from_dict(payload)
        cli = Sweep(
            dims=[2], sides=[8], curves=SWEEP_BODY["curves"], reports=False
        ).run()
        assert not cli.skipped and not response.skipped
        assert len(response.records) == len(cli.records)
        for http_rec, cli_rec in zip(response.records, cli.records):
            assert http_rec.spec == cli_rec.spec
            assert http_rec.curve == cli_rec.curve_name
            assert (http_rec.d, http_rec.side, http_rec.n) == (
                cli_rec.d,
                cli_rec.side,
                cli_rec.n,
            )
            assert set(http_rec.values) == set(cli_rec.values)
            for label, value in cli_rec.values.items():
                expected = (
                    list(value) if isinstance(value, tuple) else value
                )
                # == (not approx): JSON round-trips float64 exactly.
                assert http_rec.values[label] == expected

    def test_repeat_request_hits_caches(self, server):
        fetch(server.url + "/sweep", payload=SWEEP_BODY)
        _, before = fetch(server.url + "/stats")
        fetch(server.url + "/sweep", payload=SWEEP_BODY)
        _, after = fetch(server.url + "/stats")
        # Second pass builds no new key grids; the scalar memos answer.
        assert (
            after["cache"]["computes"]["key_grid"]
            == before["cache"]["computes"]["key_grid"]
        )
        assert after["cache"]["hits"] >= before["cache"]["hits"]


class TestConcurrentDedup:
    def test_identical_requests_compute_each_cell_once(self):
        from repro.serve import BackgroundServer, ServeConfig

        # A wide batch window guarantees all eight requests land while
        # the first cell is still pending, so the single-flight numbers
        # are exact (the engine-counter assertions hold regardless).
        config = ServeConfig(
            port=0, hot_set=(("hilbert", 2, 8),), batch_window_s=0.5
        )
        body = {"dims": [2], "sides": [8], "curves": ["z"]}
        with BackgroundServer(config) as server:
            _, before = fetch(server.url + "/stats")
            assert before["cache"]["computes"]["key_grid"] == 1  # warm set
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(
                        lambda _: fetch(server.url + "/sweep", payload=body),
                        range(8),
                    )
                )
            assert [status for status, _ in results] == [200] * 8
            values = {
                payload["records"][0]["values"]["davg"]
                for _, payload in results
            }
            assert len(values) == 1
            _, after = fetch(server.url + "/stats")
            # Eight requests, one z context, one key-grid build.
            assert after["cache"]["computes"]["key_grid"] == 2
            assert after["counters"]["cells_started"] == 1
            assert after["counters"]["deduped_cells"] == 7
            assert after["counters"]["requests"] >= 8


class TestBackendOverHTTP:
    """`repro serve --backend native` stays bit-for-bit the CLI and
    reports the serving backend in /stats (degrades to numpy cleanly
    on compilerless hosts, so no skip guard)."""

    def test_native_server_matches_cli_and_reports_backend(self):
        from repro.serve import BackgroundServer, ServeConfig

        config = ServeConfig(
            port=0,
            hot_set=(("hilbert", 2, 8),),
            batch_window_s=0.001,
            backend="native",
        )
        with BackgroundServer(config) as server:
            status, payload = fetch(
                server.url + "/sweep", payload=SWEEP_BODY
            )
            assert status == 200
            response = SweepResponse.from_dict(payload)
            cli = Sweep(
                dims=[2],
                sides=[8],
                curves=SWEEP_BODY["curves"],
                reports=False,
            ).run()
            assert len(response.records) == len(cli.records)
            for http_rec, cli_rec in zip(response.records, cli.records):
                for label, value in cli_rec.values.items():
                    expected = (
                        list(value) if isinstance(value, tuple) else value
                    )
                    assert http_rec.values[label] == expected
            status, stats = fetch(server.url + "/stats")
            assert status == 200
            assert stats["backend"] == "native"
            served = stats["cache"]["backends"]
            # Which backend actually served depends on host compiler
            # availability, but every cell must be accounted for.
            assert sum(served.values()) == len(SWEEP_BODY["curves"])
            assert set(served) <= {"numpy", "native"}

    def test_per_request_backend_override(self, server):
        body = dict(SWEEP_BODY, backend="numpy")
        status, _ = fetch(server.url + "/sweep", payload=body)
        assert status == 200
        status, stats = fetch(server.url + "/stats")
        assert stats["cache"]["backends"].get("numpy", 0) >= len(
            SWEEP_BODY["curves"]
        )

    def test_bad_backend_400(self, server):
        status, payload = fetch(
            server.url + "/sweep",
            payload=dict(SWEEP_BODY, backend="cuda"),
        )
        assert status == 400
        assert "backend" in payload["error"]


class TestPersistentStore:
    """`--store`: grids survive server restarts as mmap artifacts."""

    def test_restart_warm_starts_from_store(self, tmp_path):
        from repro.serve import BackgroundServer, ServeConfig

        # NumPy backend: native codecs would exempt hilbert/z/gray from
        # the store (see test_native_codec_curves_skip_store).
        config = ServeConfig(
            port=0,
            batch_window_s=0.001,
            store_dir=str(tmp_path),
            backend="numpy",
        )
        with BackgroundServer(config) as server:
            status, first = fetch(
                server.url + "/sweep", payload=SWEEP_BODY
            )
            assert status == 200
            _, cold = fetch(server.url + "/stats")
        assert cold["store"]["dir"] == str(tmp_path)
        assert cold["store"]["entries"] > 0
        assert cold["store"]["quarantined"] == 0
        assert cold["cache"]["computes"]["key_grid"] >= 1

        # a second server lifetime over the same directory: identical
        # records, and the grids come back as mmap hits, not computes
        with BackgroundServer(config) as server:
            status, second = fetch(
                server.url + "/sweep", payload=SWEEP_BODY
            )
            assert status == 200
            _, warm = fetch(server.url + "/stats")
        assert second["records"] == first["records"]
        assert sum(warm["cache"]["mmap"].values()) > 0
        assert warm["cache"]["computes"].get("key_grid", 0) == 0

    @pytest.mark.skipif(
        not native.available(), reason="native kernels unavailable"
    )
    def test_native_codec_curves_skip_store(self, tmp_path):
        """On the native backend a codec curve's grid is built per
        server lifetime: neither the hot set nor a request writes a
        store entry, and a restart maps nothing."""
        from repro.serve import BackgroundServer, ServeConfig

        config = ServeConfig(
            port=0,
            hot_set=(("hilbert", 2, 8),),
            batch_window_s=0.001,
            store_dir=str(tmp_path),
            backend="native",
        )
        records = []
        for _ in range(2):
            with BackgroundServer(config) as server:
                status, payload = fetch(
                    server.url + "/sweep", payload=SWEEP_BODY
                )
                assert status == 200
                _, stats = fetch(server.url + "/stats")
            records.append(payload["records"])
            assert stats["store"]["entries"] == 0
            assert stats["cache"]["mmap"] == {}
            assert stats["cache"]["computes"]["key_grid"] == 3
        assert records[0] == records[1]

    def test_stats_has_no_store_section_when_unconfigured(self, server):
        _, stats = fetch(server.url + "/stats")
        assert "store" not in stats
        assert stats["cache"]["mmap"] == {}
