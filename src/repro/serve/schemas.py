"""JSON request/response schemas of the sweep service.

The wire grammar is deliberately the ``repro sweep`` grammar: a
:class:`SweepRequest` carries the same curve/metric spec strings,
universe geometry and engine knobs the CLI accepts, and converts to a
:class:`repro.engine.Sweep` with one method call — so an HTTP sweep and
a CLI sweep *plan the identical task list* and their records can be
compared bit for bit.

Everything here is plain stdlib ``json``-compatible data: requests
validate dicts (rejecting unknown keys, so client typos fail loudly
instead of silently sweeping defaults), responses render
:class:`repro.engine.SweepRecord` values into JSON scalars/lists and
round-trip through :meth:`SweepResponse.from_dict` for clients and
tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.engine.sweep import DEFAULT_METRICS, SkippedCell, Sweep, SweepRecord
from repro.grid.universe import Universe

__all__ = [
    "SweepRequest",
    "CellRecord",
    "CellSkip",
    "SweepResponse",
    "DynamicCreate",
    "DynamicStepRequest",
    "DynamicStepResponse",
    "jsonable",
]


@lru_cache(maxsize=None)
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _object(cls, payload: object, what: str) -> dict:
    """``payload`` as a JSON object holding only fields of ``cls``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    accepted = _field_names(cls)
    unknown = sorted(set(payload) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown {what} fields {unknown}; accepted: {sorted(accepted)}"
        )
    return payload


def _int(
    value, name: str, minimum: Optional[int] = None, kind: str = "an integer"
) -> int:
    """``value`` as a non-bool ``int``, at least ``minimum`` if given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be {kind}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def _positive(value, name: str) -> float:
    """``value`` as a positive finite float (NaN, inf and ints past
    the float range are refused, not converted)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value <= sys.float_info.max
    ):
        raise ValueError(f"{name} must be a positive number")
    return float(value)


def _text(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string")
    return value


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean")
    return value


def _optional(check, value, *args):
    """``None`` passes; anything else goes through ``check``."""
    return None if value is None else check(value, *args)


def _int_tuple(
    value, name: str, minimum: Optional[int] = 1
) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of integers")
    return tuple(
        _int(item, f"{name} entries", minimum, "integers") for item in value
    )


def _str_tuple(value, name: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of strings")
    return tuple(_text(item, f"{name} entries") for item in value)


def _to_wire(self) -> dict:
    """The dataclass's fields as JSON-ready data: tuples become lists
    and nested dataclasses their ``to_dict``; nothing else is copied."""
    return {
        name: _wire(getattr(self, name)) for name in _field_names(type(self))
    }


def _wire(value: object) -> object:
    if isinstance(value, tuple):
        return [_wire(item) for item in value]
    if is_dataclass(value):
        return value.to_dict()
    return value


def _from_wire(cls, payload: dict, **items):
    """``cls`` from a :func:`_to_wire` dict; ``items`` maps each field
    holding a list of nested objects to their class."""
    values = {
        name: payload[name] for name in _field_names(cls) if name in payload
    }
    for name, item in items.items():
        values[name] = tuple(item(**entry) for entry in values.get(name, ()))
    return cls(**values)


@dataclass(frozen=True)
class SweepRequest:
    """One ``POST /sweep`` body, validated.

    Mirrors the ``repro sweep`` surface: universes come from
    ``dims × sides`` and/or explicit ``universes`` pairs; ``curves`` and
    ``metrics`` take the registry spec grammar (``"gray"``,
    ``"random:seed=3"``, ``"dilation:window=16"``); ``chunk_cells``,
    ``threads`` and ``backend`` are the engine execution knobs.
    ``timeout_s`` overrides the server's default per-request timeout.
    """

    dims: Tuple[int, ...] = ()
    sides: Tuple[int, ...] = ()
    universes: Tuple[Tuple[int, int], ...] = ()
    curves: Optional[Tuple[str, ...]] = None
    metrics: Optional[Tuple[str, ...]] = None
    chunk_cells: Optional[int] = None
    threads: Union[None, int, str] = None
    backend: Optional[str] = None
    strict: bool = False
    timeout_s: Optional[float] = None

    @classmethod
    def from_dict(cls, payload: object) -> "SweepRequest":
        """Validate a decoded JSON body; raises ``ValueError`` loudly."""
        payload = _object(cls, payload, "request")
        universes = payload.get("universes", [])
        if not isinstance(universes, (list, tuple)):
            raise ValueError("universes must be a list of [d, side] pairs")
        universes = tuple(
            _int_tuple(pair, "universes [d, side] pair") for pair in universes
        )
        if any(len(pair) != 2 for pair in universes):
            raise ValueError("universes entries must be [d, side] pairs")
        threads = payload.get("threads")
        if threads not in (None, "auto"):
            threads = _int(threads, "threads", 1, 'a positive int or "auto"')
        backend = payload.get("backend")
        if backend not in (None, "numpy", "native", "auto"):
            raise ValueError(
                'backend must be one of "numpy", "native", "auto"'
            )
        request = cls(
            dims=_int_tuple(payload.get("dims", []), "dims"),
            sides=_int_tuple(payload.get("sides", []), "sides"),
            universes=universes,
            curves=_optional(_str_tuple, payload.get("curves"), "curves"),
            metrics=_optional(_str_tuple, payload.get("metrics"), "metrics"),
            chunk_cells=_optional(
                _int, payload.get("chunk_cells"), "chunk_cells", 0
            ),
            threads=threads,
            backend=backend,
            strict=_flag(payload.get("strict", False), "strict"),
            timeout_s=_optional(
                _positive, payload.get("timeout_s"), "timeout_s"
            ),
        )
        if not (request.dims or request.sides or request.universes):
            raise ValueError(
                "request selects no universes: give dims+sides "
                "and/or universes"
            )
        return request

    to_dict = _to_wire

    def to_sweep(
        self,
        max_bytes: Optional[int],
        default_threads: Union[None, int, str] = None,
        default_backend: str = "auto",
        store_dir: Optional[str] = None,
    ) -> Sweep:
        """The equivalent :class:`repro.engine.Sweep` declaration.

        ``reports=False``: a service response carries metric values;
        clients wanting the prose report run the CLI.  The sweep's own
        planner performs all cross-field validation (dims without
        sides, unknown curves/metrics, bad params), so HTTP requests
        fail with exactly the CLI's error messages.
        """
        threads = self.threads if self.threads is not None else default_threads
        backend = self.backend if self.backend is not None else default_backend
        return Sweep(
            dims=list(self.dims) or None,
            sides=list(self.sides) or None,
            universes=[Universe(d=d, side=side) for d, side in self.universes]
            or None,
            curves=None if self.curves is None else list(self.curves),
            metrics=DEFAULT_METRICS if self.metrics is None else self.metrics,
            reports=False,
            strict=self.strict,
            chunk_cells=self.chunk_cells,
            max_bytes=max_bytes,
            threads=threads,
            backend=backend,
            store_dir=store_dir,
        )


def jsonable(value: object) -> object:
    """A metric value rendered as JSON-compatible data.

    Metric callables return Python/NumPy scalars or tuples (``lambdas``
    returns one int per dimension); tuples become lists and NumPy
    scalars their Python equivalents.  Floats pass through untouched —
    ``json`` round-trips float64 exactly (``repr`` shortest-round-trip),
    which is what makes the HTTP-vs-CLI bit-for-bit parity test an
    equality, not an approximation.
    """
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"metric value of type {type(value).__name__} is not JSON-renderable"
    )


@dataclass(frozen=True)
class CellRecord:
    """One computed cell, as serialized to clients."""

    spec: str
    curve: str
    d: int
    side: int
    n: int
    values: Dict[str, object]

    @classmethod
    def from_record(cls, record: SweepRecord) -> "CellRecord":
        return cls(
            spec=record.spec,
            curve=record.curve_name,
            d=record.d,
            side=record.side,
            n=record.n,
            values={
                label: jsonable(value)
                for label, value in record.values.items()
            },
        )

    to_dict = _to_wire


@dataclass(frozen=True)
class CellSkip:
    """One skipped cell (non-strict construction failure)."""

    spec: str
    d: int
    side: int
    reason: str

    @classmethod
    def from_skip(cls, skip: SkippedCell) -> "CellSkip":
        return cls(spec=skip.spec, d=skip.d, side=skip.side, reason=skip.reason)

    to_dict = _to_wire


@dataclass(frozen=True)
class DynamicCreate:
    """Session geometry of a ``POST /dynamic/step`` ``create`` block."""

    d: int
    side: int
    curve: str = "hilbert"
    parts: int = 8
    window: int = 1
    reselect_threshold: Optional[float] = None
    candidates: Optional[Tuple[str, ...]] = None
    #: Random points bulk-loaded at creation (0 starts empty).
    seed_points: int = 0
    seed: int = 0

    @classmethod
    def from_dict(cls, payload: object) -> "DynamicCreate":
        payload = _object(cls, payload, "create")
        for name in ("d", "side"):
            if payload.get(name) is None:
                raise ValueError(f"create requires {name}")

        def count(name: str, minimum: int) -> int:
            return _int(
                payload.get(name, getattr(cls, name, None)),
                f"create.{name}",
                minimum,
            )

        return cls(
            d=count("d", 1),
            side=count("side", 1),
            curve=_text(payload.get("curve", cls.curve), "create.curve"),
            parts=count("parts", 1),
            window=count("window", 1),
            reselect_threshold=_optional(
                _positive,
                payload.get("reselect_threshold"),
                "create.reselect_threshold",
            ),
            candidates=_optional(
                _str_tuple, payload.get("candidates"), "create.candidates"
            ),
            seed_points=count("seed_points", 0),
            seed=count("seed", 0),
        )


def _parse_moves(raw: object) -> Tuple[tuple, ...]:
    """Wire move objects -> the ``DynamicUniverse.apply`` op tuples."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError("moves must be a list of op objects")
    ops = []
    for item in raw:
        if not isinstance(item, dict) or "op" not in item:
            raise ValueError('each move needs an "op" field')
        kind = item["op"]
        if kind not in ("insert", "delete", "move"):
            raise ValueError(
                f'move op {kind!r} is not "insert", "delete" or "move"'
            )
        extra = sorted(set(item) - {"op", "id", "coords"})
        if extra:
            raise ValueError(f"unknown move fields {extra}")
        op = [kind]
        if kind in ("delete", "move"):
            op.append(_int(item.get("id"), f"{kind} move id"))
        if kind in ("insert", "move"):
            coords = item.get("coords")
            op.append(_int_tuple(coords, f"{kind} move coords", None))
        ops.append(tuple(op))
    return tuple(ops)


@dataclass(frozen=True)
class DynamicStepRequest:
    """One ``POST /dynamic/step`` body, validated.

    Names a session and applies one batch of moves to it; a ``create``
    block makes the request self-bootstrapping (idempotent when the
    session already exists).  ``verify`` asks the server for an exact
    incremental-vs-recompute parity check on the updated state.
    """

    session: str
    create: Optional[DynamicCreate] = None
    moves: Tuple[tuple, ...] = ()
    verify: bool = False
    timeout_s: Optional[float] = None

    @classmethod
    def from_dict(cls, payload: object) -> "DynamicStepRequest":
        payload = _object(cls, payload, "request")
        return cls(
            session=_text(payload.get("session"), "session"),
            create=_optional(DynamicCreate.from_dict, payload.get("create")),
            moves=_parse_moves(payload.get("moves", [])),
            verify=_flag(payload.get("verify", False), "verify"),
            timeout_s=_optional(
                _positive, payload.get("timeout_s"), "timeout_s"
            ),
        )


@dataclass(frozen=True)
class DynamicStepResponse:
    """One ``POST /dynamic/step`` 200 body."""

    session: str
    spec: str
    step: int
    metrics: Dict[str, object]
    drift: float
    reselections: int
    created: bool = False
    #: Present only when the request asked ``verify``; ``True`` means
    #: the incremental aggregates matched a full recompute with ``==``.
    parity: Optional[bool] = None

    def to_dict(self) -> dict:
        payload = _to_wire(self)
        if self.parity is None:
            del payload["parity"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DynamicStepResponse":
        return _from_wire(cls, payload)


@dataclass(frozen=True)
class SweepResponse:
    """One ``POST /sweep`` 200 body."""

    records: Tuple[CellRecord, ...]
    skipped: Tuple[CellSkip, ...] = ()
    #: Cells of this request that attached to an in-flight computation
    #: started by a concurrent request (the single-flight table).
    deduped_cells: int = 0
    #: Cells whose (curve, universe) pair was in the warm-started hot
    #: set, so their grids were resident before the request arrived.
    served_from_warm: int = 0

    to_dict = _to_wire

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResponse":
        return _from_wire(cls, payload, records=CellRecord, skipped=CellSkip)
