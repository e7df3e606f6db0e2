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

from dataclasses import dataclass, field
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


def _int_tuple(value, name: str, minimum: int = 1) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of integers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ValueError(f"{name} entries must be integers")
        if item < minimum:
            raise ValueError(f"{name} entries must be >= {minimum}")
        out.append(int(item))
    return tuple(out)


def _str_tuple(value, name: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of strings")
    for item in value:
        if not isinstance(item, str) or not item:
            raise ValueError(f"{name} entries must be non-empty strings")
    return tuple(value)


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

    _FIELDS = (
        "dims",
        "sides",
        "universes",
        "curves",
        "metrics",
        "chunk_cells",
        "threads",
        "backend",
        "strict",
        "timeout_s",
    )

    @classmethod
    def from_dict(cls, payload: object) -> "SweepRequest":
        """Validate a decoded JSON body; raises ``ValueError`` loudly."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown request fields {unknown}; "
                f"accepted: {sorted(cls._FIELDS)}"
            )
        dims = _int_tuple(payload.get("dims", []), "dims")
        sides = _int_tuple(payload.get("sides", []), "sides")
        universes = []
        raw_universes = payload.get("universes", [])
        if not isinstance(raw_universes, (list, tuple)):
            raise ValueError("universes must be a list of [d, side] pairs")
        for pair in raw_universes:
            geom = _int_tuple(pair, "universes [d, side] pair")
            if len(geom) != 2:
                raise ValueError("universes entries must be [d, side] pairs")
            universes.append(geom)
        if not dims and not sides and not universes:
            raise ValueError(
                "request selects no universes: give dims+sides "
                "and/or universes"
            )
        curves = payload.get("curves")
        if curves is not None:
            curves = _str_tuple(curves, "curves")
        metrics = payload.get("metrics")
        if metrics is not None:
            metrics = _str_tuple(metrics, "metrics")
        chunk_cells = payload.get("chunk_cells")
        if chunk_cells is not None:
            if isinstance(chunk_cells, bool) or not isinstance(
                chunk_cells, int
            ):
                raise ValueError("chunk_cells must be an integer")
            if chunk_cells < 0:
                raise ValueError("chunk_cells must be >= 0 (0 forces dense)")
        threads = payload.get("threads")
        if threads is not None and threads != "auto":
            if isinstance(threads, bool) or not isinstance(threads, int):
                raise ValueError('threads must be a positive int or "auto"')
            if threads < 1:
                raise ValueError("threads must be >= 1")
        backend = payload.get("backend")
        if backend is not None and backend not in ("numpy", "native", "auto"):
            raise ValueError(
                'backend must be one of "numpy", "native", "auto"'
            )
        strict = payload.get("strict", False)
        if not isinstance(strict, bool):
            raise ValueError("strict must be a boolean")
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            if isinstance(timeout_s, bool) or not isinstance(
                timeout_s, (int, float)
            ):
                raise ValueError("timeout_s must be a number")
            if timeout_s <= 0:
                raise ValueError("timeout_s must be positive")
            timeout_s = float(timeout_s)
        return cls(
            dims=dims,
            sides=sides,
            universes=tuple(universes),
            curves=curves,
            metrics=metrics,
            chunk_cells=chunk_cells,
            threads=threads,
            backend=backend,
            strict=strict,
            timeout_s=timeout_s,
        )

    def to_dict(self) -> dict:
        """JSON-ready form; ``from_dict(to_dict(r)) == r``."""
        return {
            "dims": list(self.dims),
            "sides": list(self.sides),
            "universes": [list(pair) for pair in self.universes],
            "curves": None if self.curves is None else list(self.curves),
            "metrics": None if self.metrics is None else list(self.metrics),
            "chunk_cells": self.chunk_cells,
            "threads": self.threads,
            "backend": self.backend,
            "strict": self.strict,
            "timeout_s": self.timeout_s,
        }

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

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "curve": self.curve,
            "d": self.d,
            "side": self.side,
            "n": self.n,
            "values": dict(self.values),
        }


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

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "d": self.d,
            "side": self.side,
            "reason": self.reason,
        }


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

    _FIELDS = (
        "d",
        "side",
        "curve",
        "parts",
        "window",
        "reselect_threshold",
        "candidates",
        "seed_points",
        "seed",
    )

    @classmethod
    def from_dict(cls, payload: object) -> "DynamicCreate":
        if not isinstance(payload, dict):
            raise ValueError("create must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown create fields {unknown}; "
                f"accepted: {sorted(cls._FIELDS)}"
            )
        values = {}
        for name, minimum in (
            ("d", 1),
            ("side", 1),
            ("parts", 1),
            ("window", 1),
        ):
            value = payload.get(name, getattr(cls, name, None))
            if value is None:
                raise ValueError(f"create requires {name}")
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"create.{name} must be an integer")
            if value < minimum:
                raise ValueError(f"create.{name} must be >= {minimum}")
            values[name] = int(value)
        curve = payload.get("curve", cls.curve)
        if not isinstance(curve, str) or not curve:
            raise ValueError("create.curve must be a non-empty string")
        threshold = payload.get("reselect_threshold")
        if threshold is not None:
            if isinstance(threshold, bool) or not isinstance(
                threshold, (int, float)
            ):
                raise ValueError(
                    "create.reselect_threshold must be a number"
                )
            if threshold <= 0:
                raise ValueError(
                    "create.reselect_threshold must be positive"
                )
            threshold = float(threshold)
        candidates = payload.get("candidates")
        if candidates is not None:
            candidates = _str_tuple(candidates, "create.candidates")
        for name in ("seed_points", "seed"):
            value = payload.get(name, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"create.{name} must be an integer")
            if value < 0:
                raise ValueError(f"create.{name} must be >= 0")
            values[name] = int(value)
        return cls(
            d=values["d"],
            side=values["side"],
            curve=curve,
            parts=values["parts"],
            window=values["window"],
            reselect_threshold=threshold,
            candidates=candidates,
            seed_points=values["seed_points"],
            seed=values["seed"],
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
        if kind in ("delete", "move"):
            pid = item.get("id")
            if isinstance(pid, bool) or not isinstance(pid, int):
                raise ValueError(f'{kind} moves need an integer "id"')
        if kind in ("insert", "move"):
            coords = item.get("coords")
            if not isinstance(coords, (list, tuple)) or not all(
                isinstance(c, int) and not isinstance(c, bool)
                for c in coords
            ):
                raise ValueError(
                    f'{kind} moves need integer-list "coords"'
                )
            coords = tuple(int(c) for c in coords)
        if kind == "insert":
            ops.append(("insert", coords))
        elif kind == "delete":
            ops.append(("delete", int(pid)))
        else:
            ops.append(("move", int(pid), coords))
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

    _FIELDS = ("session", "create", "moves", "verify", "timeout_s")

    @classmethod
    def from_dict(cls, payload: object) -> "DynamicStepRequest":
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown request fields {unknown}; "
                f"accepted: {sorted(cls._FIELDS)}"
            )
        session = payload.get("session")
        if not isinstance(session, str) or not session:
            raise ValueError("session must be a non-empty string")
        create = payload.get("create")
        if create is not None:
            create = DynamicCreate.from_dict(create)
        moves = _parse_moves(payload.get("moves", []))
        verify = payload.get("verify", False)
        if not isinstance(verify, bool):
            raise ValueError("verify must be a boolean")
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            if isinstance(timeout_s, bool) or not isinstance(
                timeout_s, (int, float)
            ):
                raise ValueError("timeout_s must be a number")
            if timeout_s <= 0:
                raise ValueError("timeout_s must be positive")
            timeout_s = float(timeout_s)
        return cls(
            session=session,
            create=create,
            moves=moves,
            verify=verify,
            timeout_s=timeout_s,
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
        payload = {
            "session": self.session,
            "spec": self.spec,
            "step": self.step,
            "metrics": dict(self.metrics),
            "drift": self.drift,
            "reselections": self.reselections,
            "created": self.created,
        }
        if self.parity is not None:
            payload["parity"] = self.parity
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DynamicStepResponse":
        return cls(
            session=payload["session"],
            spec=payload["spec"],
            step=int(payload["step"]),
            metrics=dict(payload["metrics"]),
            drift=float(payload["drift"]),
            reselections=int(payload["reselections"]),
            created=bool(payload.get("created", False)),
            parity=payload.get("parity"),
        )


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

    def to_dict(self) -> dict:
        return {
            "records": [record.to_dict() for record in self.records],
            "skipped": [skip.to_dict() for skip in self.skipped],
            "deduped_cells": self.deduped_cells,
            "served_from_warm": self.served_from_warm,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResponse":
        return cls(
            records=tuple(
                CellRecord(
                    spec=item["spec"],
                    curve=item["curve"],
                    d=item["d"],
                    side=item["side"],
                    n=item["n"],
                    values=dict(item["values"]),
                )
                for item in payload.get("records", [])
            ),
            skipped=tuple(
                CellSkip(
                    spec=item["spec"],
                    d=item["d"],
                    side=item["side"],
                    reason=item["reason"],
                )
                for item in payload.get("skipped", [])
            ),
            deduped_cells=int(payload.get("deduped_cells", 0)),
            served_from_warm=int(payload.get("served_from_warm", 0)),
        )
