"""Property tests for the HTTP boundary (hypothesis).

The bar for any bytes a client can send: the request reader either
returns, rejects with a 4xx it can answer, or sees the stream end
early; ``dispatch`` on a POST route answers a JSON-renderable payload
that is never a 500, and every flight the request opened resolves.
Sweep integers are drawn from a small range, so no sweep builds a
universe above side 4 in 4 dimensions.  A ``/dynamic/step`` session's
``d``, ``side``, ``parts``, ``window`` and ``seed_points`` range up to
``10**400``: the service's byte estimate must refuse the large ones
before anything is built, which the fuzzed service asserts on every
build, under a 16 MiB budget.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.threads import quiesce_schedulers
from repro.serve.app import HttpServer, _Rejected, _read_headers_and_body
from repro.serve.schemas import DynamicCreate, DynamicStepRequest, SweepRequest
from repro.serve.service import ServeConfig, SweepService

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ROUTES = st.sampled_from(["/sweep", "/dynamic/step"])

# -- the request reader -------------------------------------------------
HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Connection", "Host", "X-Big", ""]
)
HEADER_VALUES = st.one_of(
    st.integers(-3, 1 << 24).map(str),
    st.sampled_from(["", " 5 ", "+3", "1_0", "abc", "0x10", "9" * 30]),
    st.text(max_size=20),
    st.integers(0, 40_000).map(lambda n: "a" * n),
)


def _header_block(lines, terminator: bytes, body: bytes) -> bytes:
    block = b"".join(
        f"{name}: {value}".encode("utf-8", "surrogatepass") + b"\r\n"
        for name, value in lines
    )
    return block + terminator + body


HEAD_BYTES = st.one_of(
    st.binary(max_size=512),
    st.builds(
        _header_block,
        st.lists(st.tuples(HEADER_NAMES, HEADER_VALUES), max_size=4),
        st.sampled_from([b"\r\n", b"\n", b""]),
        st.binary(max_size=64),
    ),
)


@FUZZ
@given(data=HEAD_BYTES, limit=st.sampled_from([64, 1 << 16]))
def test_reader_returns_rejects_or_ends(data, limit):
    async def read():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        try:
            await _read_headers_and_body(reader)
        except _Rejected as exc:
            assert exc.args[0] in (400, 413, 431)
        except asyncio.IncompleteReadError:
            pass

    asyncio.run(read())


# -- dispatch on the POST routes ----------------------------------------
SMALL = st.integers(-1, 4)
WORDS = st.sampled_from(
    [
        "auto", "numpy", "native", "z", "hilbert", "random:seed=1",
        "z:bogus=1", "reversed:inner=bogus", "davg", "dmax",
        "dilation:window=0", "insert", "delete", "move", "s",
    ]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.floats(),
    st.text(max_size=8),
    WORDS,
)
KEYS = st.one_of(
    st.sampled_from(
        sorted(
            {
                f.name
                for cls in (SweepRequest, DynamicStepRequest, DynamicCreate)
                for f in fields(cls)
            }
            | {"op", "id", "coords"}
        )
    ),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(KEYS, inner, max_size=5),
    ),
    max_leaves=16,
)
BODIES = st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
)


def _mostly(strategy):
    """``strategy``, or now and then any JSON value in its place."""
    return st.integers(0, 7).flatmap(
        lambda pick: JSON_VALUES if pick == 0 else strategy
    )


def _object(required=(), **strategies):
    """JSON objects with the ``required`` fields and any subset of
    the others, their values mostly well-typed."""
    values = {name: _mostly(value) for name, value in strategies.items()}
    return st.fixed_dictionaries(
        {name: values.pop(name) for name in required}, optional=values
    )


def _specs(*words):
    return st.lists(st.one_of(st.sampled_from(words), SCALARS), max_size=3)


#: Mostly-valid sizes; ``SMALL`` and ``_mostly`` supply the bad ones.
SIZES = st.integers(0, 3).flatmap(
    lambda pick: SMALL if pick == 0 else st.integers(1, 4)
)
CURVES = _specs("z", "hilbert", "gray", "random:seed=1", "z:bogus=1")
#: Session geometry: mostly small, now and then far past any budget.
WIDE = st.one_of(
    SIZES,
    st.integers(5, 2**80),
    st.sampled_from([2**63, 2**64, 2**70, 10**400]),
)
#: The fuzzed service's byte budget (``max_request_bytes``).
BUDGET = 1 << 24
METRICS = _specs("davg", "dmax", "lambdas", "dilation:window=0")
TIMEOUTS = st.one_of(st.none(), SMALL, st.floats())
SWEEPS = _object(
    ("dims", "sides"),
    dims=st.lists(SIZES, min_size=1, max_size=2),
    sides=st.lists(SIZES, min_size=1, max_size=2),
    universes=st.lists(st.lists(SIZES, max_size=3), max_size=2),
    curves=st.one_of(st.none(), CURVES),
    metrics=st.one_of(st.none(), METRICS),
    chunk_cells=st.one_of(st.none(), SMALL, st.just(16)),
    threads=st.one_of(st.none(), SMALL, st.just("auto")),
    backend=st.sampled_from([None, "numpy", "native", "auto"]),
    strict=st.booleans(),
    timeout_s=TIMEOUTS,
)
MOVES = _object(
    ("op",),
    op=st.sampled_from(["insert", "delete", "move"]),
    id=SMALL,
    coords=st.lists(SMALL, max_size=3),
)
STEPS = _object(
    ("session", "create"),
    session=st.just("s"),
    create=_object(
        ("d", "side"),
        d=WIDE,
        side=WIDE,
        curve=st.sampled_from(["hilbert", "z", "z:bogus=1", "bogus"]),
        parts=WIDE,
        window=WIDE,
        reselect_threshold=st.one_of(st.none(), st.floats()),
        candidates=st.one_of(st.none(), CURVES),
        seed_points=WIDE,
        seed=SMALL,
    ),
    moves=st.lists(MOVES, max_size=3),
    verify=st.booleans(),
    timeout_s=TIMEOUTS,
)
REQUESTS = st.one_of(
    st.tuples(st.just("/sweep"), SWEEPS),
    st.tuples(st.just("/dynamic/step"), STEPS),
    st.tuples(ROUTES, st.dictionaries(KEYS, JSON_VALUES, max_size=6)),
)


STATUSES = {200, 400, 404, 413, 429, 504}


def _dispatch(route: str, body: bytes):
    """``(status, payload, open flights)`` after the request's work
    has drained."""

    async def main():
        service = SweepService(
            ServeConfig(
                port=0,
                backend="numpy",
                batch_window_s=0.0,
                max_request_bytes=BUDGET,
            )
        )
        build = service._build_session

        def admitted_build(create):
            # Admission runs first: nothing over the budget is built.
            assert service.estimate_session_bytes(create) <= BUDGET
            return build(create)

        service._build_session = admitted_build
        await service.start()
        try:
            status, payload = await HttpServer(service).dispatch(
                "POST", route, body
            )
            # A 504 leaves its work running: wait for the flights to
            # resolve, as they must.
            deadline = time.monotonic() + 30.0
            while len(service.flight) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            return status, payload, len(service.flight)
        finally:
            await service.aclose()
            quiesce_schedulers()

    return asyncio.run(main())


def _check(route: str, body: bytes) -> None:
    status, payload, flights = _dispatch(route, body)
    assert status in STATUSES, (status, payload)
    json.dumps(payload)  # the writer must be able to render it
    assert flights == 0


@FUZZ
@given(route=ROUTES, body=BODIES)
def test_dispatch_never_500_on_arbitrary_bodies(route, body):
    _check(route, body)


@FUZZ
@given(request=REQUESTS)
def test_dispatch_never_500_on_request_shaped_objects(request):
    route, payload = request
    _check(route, json.dumps(payload).encode("utf-8"))
