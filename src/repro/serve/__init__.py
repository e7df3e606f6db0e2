"""``repro serve`` — a persistent sweep service over the pooled engine.

The CLI's ``repro sweep`` computes each canonical (curve, universe)
cell once *per invocation*; everything it builds — key grids, NN
arrays, metric memos — dies with the process.
This package keeps that state alive behind a long-lived HTTP/JSON
service (stdlib asyncio, no new dependencies), so canonical specs are
computed once per *process lifetime*:

* :mod:`repro.serve.service` — the engine side: persistent
  :class:`repro.engine.ContextPool`\\ s, a warm-started hot set
  resident in them, and admission control (byte budget, bounded
  in-flight cells);
* :mod:`repro.serve.singleflight` — concurrent identical requests
  await one in-flight computation per canonical cell key;
* :mod:`repro.serve.batching` — cells arriving within a window run as
  one batch on a single compute thread;
* :mod:`repro.serve.schemas` — the wire forms, deliberately the
  ``repro sweep`` grammar so HTTP and CLI sweeps are comparable bit
  for bit;
* :mod:`repro.serve.app` — the HTTP front end, signal-clean shutdown,
  and the in-process :class:`BackgroundServer` used by tests and
  benchmarks.

See ``docs/serving.md`` for endpoints and operational notes.
"""

from repro.serve.app import BackgroundServer, HttpServer, run, start_server
from repro.serve.schemas import (
    CellRecord,
    CellSkip,
    DynamicCreate,
    DynamicStepRequest,
    DynamicStepResponse,
    SweepRequest,
    SweepResponse,
)
from repro.serve.service import ServeConfig, SweepService, parse_hot_set

__all__ = [
    "BackgroundServer",
    "HttpServer",
    "run",
    "start_server",
    "CellRecord",
    "CellSkip",
    "DynamicCreate",
    "DynamicStepRequest",
    "DynamicStepResponse",
    "SweepRequest",
    "SweepResponse",
    "ServeConfig",
    "SweepService",
    "parse_hot_set",
]
