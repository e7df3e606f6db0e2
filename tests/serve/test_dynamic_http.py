"""``POST /dynamic/step``: sessions, parity over HTTP, serialization.

The acceptance-critical one: concurrent step batches against one
session must *serialize* — each batch applies atomically in some order
— which the final point count, step count and an exact
incremental-vs-recompute parity check together witness.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import DynamicStepRequest, DynamicStepResponse

from tests.serve.conftest import http as fetch


def step_url(server):
    return server.url + "/dynamic/step"


CREATE = {"d": 2, "side": 16, "curve": "hilbert", "seed_points": 100, "seed": 1}


class TestSchemas:
    def test_roundtrip(self):
        request = DynamicStepRequest.from_dict(
            {
                "session": "s",
                "create": dict(CREATE),
                "moves": [
                    {"op": "insert", "coords": [1, 2]},
                    {"op": "move", "id": 3, "coords": [0, 0]},
                    {"op": "delete", "id": 4},
                ],
                "verify": True,
            }
        )
        assert request.moves == (
            ("insert", (1, 2)),
            ("move", 3, (0, 0)),
            ("delete", 4),
        )
        assert request.create.seed_points == 100

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"session": ""},
            {"session": "s", "bogus": 1},
            {"session": "s", "moves": [{"op": "teleport"}]},
            {"session": "s", "moves": [{"op": "insert"}]},
            {"session": "s", "moves": [{"op": "delete"}]},
            {"session": "s", "moves": [{"op": "insert", "coords": [1.5]}]},
            {"session": "s", "create": {"d": 2}},
            {"session": "s", "create": {"d": 2, "side": 8, "x": 1}},
            {"session": "s", "verify": "yes"},
        ],
    )
    def test_rejects_bad_bodies(self, body):
        with pytest.raises(ValueError):
            DynamicStepRequest.from_dict(body)

    def test_response_roundtrip(self):
        response = DynamicStepResponse(
            session="s",
            spec="hilbert",
            step=3,
            metrics={"n_points": 5},
            drift=0.1,
            reselections=0,
            created=True,
            parity=True,
        )
        assert (
            DynamicStepResponse.from_dict(
                json.loads(json.dumps(response.to_dict()))
            )
            == response
        )


class TestEndpoint:
    def test_create_step_verify(self, server):
        status, body = fetch(
            step_url(server),
            {"session": "a", "create": dict(CREATE), "verify": True},
        )
        assert status == 200
        assert body["created"] is True
        assert body["parity"] is True
        assert body["metrics"]["n_points"] == 100

        status, body = fetch(
            step_url(server),
            {
                "session": "a",
                "moves": [
                    {"op": "insert", "coords": [3, 3]},
                    {"op": "delete", "id": 0},
                ],
                "verify": True,
            },
        )
        assert status == 200
        assert body["created"] is False
        assert body["parity"] is True
        assert body["metrics"]["n_points"] == 100
        assert body["step"] == 1

    def test_missing_session_404(self, server):
        status, body = fetch(step_url(server), {"session": "ghost"})
        assert status == 404
        assert "create" in body["error"]

    def test_engine_errors_are_400(self, server):
        fetch(
            step_url(server), {"session": "b", "create": dict(CREATE)}
        )
        status, body = fetch(
            step_url(server),
            {"session": "b", "moves": [{"op": "insert", "coords": [99, 0]}]},
        )
        assert status == 400
        assert "outside" in body["error"]
        status, body = fetch(
            step_url(server),
            {"session": "b", "moves": [{"op": "delete", "id": 10**6}]},
        )
        assert status == 400

    def test_bad_curve_kwargs_400(self, server):
        # A keyword the curve does not take fails construction; the
        # session is not created and the server keeps answering.
        status, body = fetch(
            step_url(server),
            {"session": "k", "create": dict(CREATE, curve="z:bogus=1")},
        )
        assert status == 400
        assert "bogus" in body["error"]
        status, _ = fetch(step_url(server), {"session": "k"})
        assert status == 404

    def test_malformed_json_400(self, server):
        status, _ = fetch(step_url(server), {"session": ["not-a-str"]})
        assert status == 400

    def test_get_is_405(self, server):
        status, _ = fetch(step_url(server))
        assert status == 405

    def test_stats_exposes_sessions(self, server):
        fetch(
            step_url(server), {"session": "c", "create": dict(CREATE)}
        )
        status, stats = fetch(server.url + "/stats")
        assert status == 200
        assert stats["dynamic"]["sessions"]["c"]["points"] == 100
        assert stats["counters"]["dynamic_requests"] >= 1

    def test_session_cap_429(self, server):
        cap = server.service.config.max_sessions
        for index in range(cap):
            status, _ = fetch(
                step_url(server),
                {"session": f"cap-{index}", "create": {"d": 1, "side": 4}},
            )
            assert status == 200
        status, body = fetch(
            step_url(server),
            {"session": "cap-overflow", "create": {"d": 1, "side": 4}},
        )
        assert status == 429
        assert "session bound" in body["error"]


class TestConcurrency:
    def test_concurrent_batches_serialize(self, server):
        status, body = fetch(
            step_url(server),
            {"session": "conc", "create": dict(CREATE)},
        )
        assert status == 200

        def one_batch(index):
            return fetch(
                step_url(server),
                {
                    "session": "conc",
                    "moves": [
                        # Every batch mutates the same pid, so an
                        # interleaved (non-serialized) application
                        # would corrupt the incremental state.
                        {"op": "move", "id": 0, "coords": [index, index]},
                        {"op": "insert", "coords": [index, 15 - index]},
                    ],
                },
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(one_batch, range(8)))
        assert all(status == 200 for status, _ in outcomes)

        status, body = fetch(
            step_url(server), {"session": "conc", "verify": True}
        )
        assert status == 200
        assert body["parity"] is True
        assert body["metrics"]["n_points"] == 100 + 8
        assert body["step"] == 8

    def test_concurrent_creates_build_one_session(self, server):
        def create(_):
            return fetch(
                step_url(server),
                {"session": "once", "create": dict(CREATE)},
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(create, range(6)))
        assert all(status == 200 for status, _ in outcomes)
        points = {body["metrics"]["n_points"] for _, body in outcomes}
        assert points == {100}
        status, stats = fetch(server.url + "/stats")
        assert (
            stats["dynamic"]["sessions"]["once"]["points"] == 100
        )
