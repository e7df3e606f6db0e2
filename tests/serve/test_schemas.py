"""Schema tests: validation, round-trips, JSON-rendering of records."""

import json

import numpy as np
import pytest

from repro import Universe
from repro.engine.sweep import Sweep
from repro.serve.schemas import (
    CellRecord,
    CellSkip,
    SweepRequest,
    SweepResponse,
    jsonable,
)


class TestSweepRequest:
    def test_round_trip(self):
        request = SweepRequest(
            dims=(2,),
            sides=(8, 16),
            universes=((3, 4),),
            curves=("hilbert", "random:seed=3"),
            metrics=("davg", "dmax"),
            chunk_cells=64,
            threads=2,
            strict=True,
            timeout_s=5.0,
        )
        assert SweepRequest.from_dict(request.to_dict()) == request

    def test_round_trip_through_json(self):
        request = SweepRequest(dims=(2,), sides=(8,), threads="auto")
        wire = json.loads(json.dumps(request.to_dict()))
        assert SweepRequest.from_dict(wire) == request

    def test_minimal_universes_only(self):
        request = SweepRequest.from_dict({"universes": [[2, 8]]})
        assert request.universes == ((2, 8),)
        assert request.curves is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            SweepRequest.from_dict({"dims": [2], "sides": [8], "side": [8]})

    def test_no_universe_source_rejected(self):
        with pytest.raises(ValueError, match="selects no universes"):
            SweepRequest.from_dict({"curves": ["hilbert"]})

    @pytest.mark.parametrize(
        "payload",
        (
            [],
            {"dims": "2", "sides": [8]},
            {"dims": [2.5], "sides": [8]},
            {"dims": [True], "sides": [8]},
            {"dims": [0], "sides": [8]},
            {"universes": [[2, 8, 9]]},
            {"universes": 7},
            {"dims": [2], "sides": [8], "curves": [""]},
            {"dims": [2], "sides": [8], "curves": "hilbert"},
            {"dims": [2], "sides": [8], "chunk_cells": -1},
            {"dims": [2], "sides": [8], "chunk_cells": True},
            {"dims": [2], "sides": [8], "threads": 0},
            {"dims": [2], "sides": [8], "threads": "many"},
            {"dims": [2], "sides": [8], "strict": 1},
            {"dims": [2], "sides": [8], "timeout_s": 0},
            {"dims": [2], "sides": [8], "timeout_s": "soon"},
            {"dims": [2], "sides": [8], "timeout_s": float("nan")},
            {"dims": [2], "sides": [8], "timeout_s": float("inf")},
            {"dims": [2], "sides": [8], "timeout_s": 10**400},
        ),
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            SweepRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "pair,message",
        [
            ([2, "8"], "universes [d, side] pair entries must be integers"),
            ([2, 0], "universes [d, side] pair entries must be >= 1"),
            ("2x8", "universes [d, side] pair must be a list of integers"),
        ],
    )
    def test_universes_entry_messages(self, pair, message):
        with pytest.raises(ValueError) as info:
            SweepRequest.from_dict({"universes": [pair]})
        assert str(info.value) == message

    def test_to_sweep_plans_like_the_cli(self):
        request = SweepRequest.from_dict(
            {"dims": [2], "sides": [8], "curves": ["hilbert", "z"]}
        )
        from repro.engine.context import DEFAULT_CACHE_BYTES

        sweep = request.to_sweep(max_bytes=DEFAULT_CACHE_BYTES)
        http_tasks, _ = sweep._plan()
        cli_tasks, _ = Sweep(
            dims=[2], sides=[8], curves=["hilbert", "z"], reports=False
        )._plan()
        assert http_tasks == cli_tasks

    def test_to_sweep_threads_default(self):
        request = SweepRequest.from_dict({"dims": [2], "sides": [8]})
        assert request.to_sweep(None, default_threads=3).threads == 3
        explicit = SweepRequest.from_dict(
            {"dims": [2], "sides": [8], "threads": 2}
        )
        assert explicit.to_sweep(None, default_threads=3).threads == 2


class TestJsonable:
    def test_scalars_pass_through(self):
        assert jsonable(1.5) == 1.5
        assert jsonable(7) == 7
        assert jsonable("x") == "x"
        assert jsonable(None) is None

    def test_numpy_scalars_become_python(self):
        assert jsonable(np.float64(2.25)) == 2.25
        assert type(jsonable(np.float64(2.25))) is float
        assert jsonable(np.int64(9)) == 9
        assert type(jsonable(np.int64(9))) is int

    def test_tuples_become_lists(self):
        assert jsonable((np.int64(1), 2.0)) == [1, 2.0]

    def test_float_json_round_trip_is_exact(self):
        # The property the HTTP-vs-CLI bit-for-bit parity rests on.
        value = 1.2345678901234567
        assert json.loads(json.dumps(jsonable(value))) == value

    def test_unrenderable_raises(self):
        with pytest.raises(TypeError, match="not JSON-renderable"):
            jsonable(np.zeros(3))


class TestResponses:
    def _records(self):
        return Sweep(
            universes=[Universe(d=2, side=4)],
            curves=["z", "simple"],
            metrics=("davg", "lambdas"),
            reports=False,
        ).run().records

    def test_cell_record_renders_sweep_record(self):
        record = self._records()[0]
        cell = CellRecord.from_record(record)
        assert cell.spec == record.spec
        assert cell.n == record.n
        assert cell.values["davg"] == record.values["davg"]
        assert cell.values["lambdas"] == list(record.values["lambdas"])

    def test_response_round_trip(self):
        records = tuple(
            CellRecord.from_record(r) for r in self._records()
        )
        response = SweepResponse(
            records=records,
            skipped=(CellSkip(spec="bogus", d=2, side=4, reason="nope"),),
            deduped_cells=3,
            served_from_warm=1,
        )
        wire = json.loads(json.dumps(response.to_dict()))
        assert SweepResponse.from_dict(wire) == response
