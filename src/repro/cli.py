"""Command-line interface: ``repro-sfc`` / ``python -m repro``.

Subcommands
-----------
* ``survey``    — stretch metrics for every applicable curve on a grid.
* ``sweep``     — declarative curve × universe × metric sweep
  (``--dims 2,3 --sides 8,16 --curves z,random:seed=3
  --metrics davg,dilation:window=16,partition:parts=8``).
* ``metrics``   — list the registered sweep metrics (name, params,
  description), i.e. everything ``sweep --metrics`` accepts.
* ``curves``    — list the registered curves with their declared
  capabilities (supported dims / side bases).
* ``bounds``    — the paper's lower bounds and closed forms for a grid.
* ``render``    — ASCII render of a 2-D curve (Figures 3/4 style).
* ``partition`` — domain-decomposition quality across curves.
* ``certificate`` — execute Theorem 1's proof chain on one curve.
* ``profile``   — stretch conditioned on grid distance, per curve.
* ``optimal``   — adversarial search for a better curve (bound probe).
* ``export``    — save a curve's key grid to a portable ``.npz``.
* ``doctor``    — one-screen host report: native-backend availability
  (compiler, cached ``.so``, build log), sanitizer build mode, usable
  cores/threads, shared-memory status, and the static-analysis
  surface.
* ``check``     — run the invariant lint rules (R001–R004) over the
  source tree; exits 1 on findings (``--format=json`` for CI).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.asymptotics import davg_z_limit
from repro.core.decomposition import theorem1_certificate
from repro.core.lower_bounds import (
    allpairs_euclidean_lower_bound,
    allpairs_manhattan_lower_bound,
    davg_lower_bound,
)
from repro.curves.registry import available_curves, make_curve
from repro.engine.store import store_dir_from_env
from repro.engine.sweep import METRICS, DEFAULT_METRICS, Sweep
from repro.grid.universe import Universe
from repro.viz.ascii_art import render_key_grid, render_path
from repro.viz.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sfc",
        description="SFC proximity-preservation analysis (IPDPS 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("-d", type=int, default=2, help="dimensions (default 2)")
        p.add_argument(
            "--side", type=int, default=8, help="cells per axis (default 8)"
        )

    p_survey = sub.add_parser("survey", help="stretch metrics for all curves")
    add_grid_args(p_survey)
    p_survey.add_argument(
        "--allpairs",
        action="store_true",
        help="include all-pairs stretch columns",
    )

    def csv_ints(text: str) -> list[int]:
        return [int(part) for part in text.split(",") if part.strip()]

    def csv_specs(text: str) -> list[str]:
        """Split a spec list on commas, keeping multi-parameter specs whole.

        Spec parameters are comma-separated too
        (``reflected:inner=hilbert,axes=0``), so a chunk starting with
        ``key=`` cannot open a new spec — names never contain ``=``, and
        in a fresh spec any ``=`` follows the ``name:`` prefix — and is
        rejoined to the spec before it.  The value may itself contain a
        colon (``inner=random:seed=3``), so the test is whether ``=``
        appears before the first ``:``, not whether ``:`` is absent.
        """

        def continues_previous(part: str) -> bool:
            eq, colon = part.find("="), part.find(":")
            return eq != -1 and (colon == -1 or eq < colon)

        specs: list[str] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if specs and continues_previous(part):
                specs[-1] += f",{part}"
            else:
                specs.append(part)
        return specs

    p_sweep = sub.add_parser(
        "sweep",
        help="declarative curve x universe x metric sweep",
        description=(
            "Declarative curve x universe x metric sweep over the "
            "metric engine.  Execution modes are auto-selected: the "
            "engine switches to chunked (block-streaming) execution "
            "for any universe whose dense key grid would exceed the "
            "cache budget, and process sweeps (--processes N) publish "
            "one shared-memory grid set per curve spec so workers "
            "attach zero-copy views instead of recomputing "
            "(--no-shared opts out).  --threads N additionally "
            "parallelizes each cell's block reductions over worker "
            "threads, bit-for-bit identical to serial."
        ),
    )
    p_sweep.add_argument(
        "--dims", type=csv_ints, default=[2], help="dimensions, e.g. 2,3"
    )
    p_sweep.add_argument(
        "--sides", type=csv_ints, default=[8], help="sides, e.g. 8,16"
    )
    p_sweep.add_argument(
        "--curves",
        type=csv_specs,
        default=None,
        help="curve specs, e.g. z,hilbert,random:seed=3 (default: all)",
    )
    p_sweep.add_argument(
        "--metrics",
        type=csv_specs,
        default=list(DEFAULT_METRICS),
        help=f"metric names among {sorted(METRICS)}",
    )
    p_sweep.add_argument(
        "--allpairs", action="store_true", help="include all-pairs columns"
    )
    p_sweep.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan cells out over N worker processes, one ContextPool "
        "per cell (shared memory carries the grids unless --no-shared "
        "is given)",
    )

    def threads_spec(text: str):
        return text if text == "auto" else int(text)

    p_sweep.add_argument(
        "--threads",
        type=threads_spec,
        default=None,
        metavar="N|auto",
        help="worker threads per cell for block-parallel metric "
        "reductions (results bit-for-bit identical to serial); "
        "'auto' sizes threads so processes x threads <= cores",
    )
    p_sweep.add_argument(
        "--backend",
        choices=("numpy", "native", "auto"),
        default="auto",
        help="compute backend for the hot block kernels: 'native' uses "
        "the compiled C kernels (built on demand, cached per machine), "
        "'numpy' forces the pure-NumPy reference, 'auto' (default) "
        "picks native when available; results are bit-for-bit "
        "identical either way",
    )
    p_sweep.add_argument(
        "--shared",
        dest="shared",
        action="store_true",
        default=None,
        help="force the shared-memory grid store for process sweeps "
        "(default: used automatically whenever --processes > 1)",
    )
    p_sweep.add_argument(
        "--no-shared",
        dest="shared",
        action="store_false",
        help="disable the shared-memory grid store of process sweeps; "
        "every worker builds its cells' key grids itself",
    )
    p_sweep.add_argument(
        "--strict",
        action="store_true",
        help="raise on curve construction errors instead of skipping",
    )
    p_sweep.add_argument(
        "--stats",
        action="store_true",
        help="print aggregate engine cache statistics after the table",
    )
    p_sweep.add_argument(
        "--no-pool",
        action="store_true",
        help="scope a serial sweep's ContextPool to each cell instead "
        "of each universe (process workers always use one per cell)",
    )
    p_sweep.add_argument(
        "--chunk-cells",
        type=int,
        default=None,
        metavar="N",
        help="run the engine in chunked mode with N cells per block "
        "(0 forces dense; default: auto-select chunked when the dense "
        "key grid would exceed the cache budget; chunked cells never "
        "use the shared grid store)",
    )
    p_sweep.add_argument(
        "--store",
        default=store_dir_from_env(),
        metavar="DIR",
        help="persistent grid-store directory: computed key grids are "
        "written through as checksummed .npy artifacts and later runs "
        "memory-map them instead of recomputing (bit-for-bit "
        "identical; counted as 'mmap' under --stats); chunked cells "
        "slice their key slabs from a grid a dense run stored.  "
        "Tables and, on the native backend, codec curves are never "
        "stored (default: $REPRO_STORE when set)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="persistent sweep service over HTTP/JSON",
        description=(
            "Long-lived sweep service: POST /sweep accepts the repro "
            "sweep grammar and returns JSON records bit-for-bit "
            "identical to the CLI; the server keeps its ContextPools "
            "(with the warm-started hot set) alive across requests, "
            "dedups concurrent identical cells and micro-batches "
            "bursts.  GET /stats exposes engine cache counters, "
            "GET /healthz liveness.  See docs/serving.md."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8842,
        help="TCP port (0 binds an ephemeral port; the bound address "
        "is printed on startup)",
    )
    p_serve.add_argument(
        "--hot-set",
        default="",
        metavar="SPEC@DxS[;...]",
        help="curve/universe pairs warmed at startup, e.g. "
        "'hilbert@2x64;random:seed=3@2x64' (';'-separated because "
        "curve specs may contain commas)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="bound on concurrently in-flight canonical cells; "
        "requests over the bound get 429 (default 64)",
    )
    p_serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="micro-batch collection window in milliseconds "
        "(default 5)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="default per-request timeout in seconds (requests may "
        "override with timeout_s)",
    )
    p_serve.add_argument(
        "--max-request-mib",
        type=float,
        default=1024.0,
        metavar="MIB",
        help="reject requests whose cells' estimated engine state "
        "exceeds this many MiB (0 disables; default 1024)",
    )
    p_serve.add_argument(
        "--threads",
        type=threads_spec,
        default=None,
        metavar="N|auto",
        help="default worker threads per cell for requests that do "
        "not choose their own",
    )
    p_serve.add_argument(
        "--backend",
        choices=("numpy", "native", "auto"),
        default="auto",
        help="default compute backend for requests that do not choose "
        "their own (see 'sweep --backend')",
    )
    p_serve.add_argument(
        "--store",
        default=store_dir_from_env(),
        metavar="DIR",
        help="persistent grid-store directory: the warm start maps "
        "previously computed hot-set grids from disk and fresh "
        "computes are written through, so a restarted server comes "
        "back warm (default: $REPRO_STORE when set)",
    )

    p_dyn = sub.add_parser(
        "dynamic",
        help="incremental metric engine under a live move workload",
        description=(
            "Bulk-load a random point population onto a curve, then "
            "drive batches of insert/move/delete ops through the "
            "incremental DynamicUniverse engine (O(k*d) per batch of "
            "k ops) and report the maintained population metrics.  "
            "--verify asserts bit-for-bit parity of the incremental "
            "aggregates against a full recompute after every batch; "
            "--reselect-threshold turns on online curve re-selection.  "
            "See docs/dynamic.md."
        ),
    )
    p_dyn.add_argument("-d", type=int, default=2, help="dimensions")
    p_dyn.add_argument("--side", type=int, default=64, help="cells per side")
    p_dyn.add_argument(
        "--curve", default="hilbert", help="starting curve spec"
    )
    p_dyn.add_argument(
        "--points",
        type=int,
        default=2000,
        metavar="N",
        help="points bulk-loaded at start (default 2000)",
    )
    p_dyn.add_argument(
        "--steps",
        type=int,
        default=10,
        metavar="T",
        help="move batches applied (default 10)",
    )
    p_dyn.add_argument(
        "--batch",
        type=int,
        default=64,
        metavar="K",
        help="ops per batch (default 64)",
    )
    p_dyn.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    p_dyn.add_argument(
        "--parts",
        type=int,
        default=8,
        metavar="P",
        help="partition count for the per-part load counters",
    )
    p_dyn.add_argument(
        "--window",
        type=int,
        default=1,
        metavar="W",
        help="dilation window over occupied cells in key order",
    )
    p_dyn.add_argument(
        "--verify",
        action="store_true",
        help="assert incremental == recompute parity after every batch",
    )
    p_dyn.add_argument(
        "--reselect-threshold",
        type=float,
        default=None,
        metavar="R",
        help="relative D^avg drift that triggers online curve "
        "re-selection (off by default)",
    )
    p_dyn.add_argument(
        "--candidates",
        type=csv_specs,
        default=None,
        metavar="SPECS",
        help="comma-separated candidate curve specs for re-selection",
    )
    p_dyn.add_argument(
        "--backend",
        choices=("numpy", "native", "auto"),
        default="auto",
        help="compute backend for key encoding and recompute passes",
    )

    p_doctor = sub.add_parser(
        "doctor",
        help="host report: native backend, cores/threads, shared memory",
        description=(
            "One-screen report of what the engine can use on this "
            "host: native compiled-kernel backend availability "
            "(compiler, cached .so, build log path), sanitizer build "
            "mode (REPRO_NATIVE_SANITIZE, -fsanitize support, "
            "clean-vs-sanitized cache dirs), usable CPU cores and the "
            "resolved thread default, shared-memory segment support, "
            "the persistent artifact store, and the static-analysis "
            "rule surface behind 'repro check'."
        ),
    )
    p_doctor.add_argument(
        "--store",
        default=store_dir_from_env(),
        metavar="DIR",
        help="report on this persistent grid-store directory "
        "(entries, bytes, quarantined artifacts; default: "
        "$REPRO_STORE when set)",
    )

    p_check = sub.add_parser(
        "check",
        help="run the invariant lint rules over the source tree",
        description=(
            "Static analysis of the engine's hand-enforced invariants: "
            "R001 float determinism (block reductions add integers "
            "and divide once), R002 lock discipline (guarded "
            "attributes stay behind their lock), R003 read-only "
            "returns (public methods freeze shared arrays), R004 "
            "allocation-free hot kernels.  Exits 1 when findings "
            "remain after '# repro: allow[RULE]' suppressions; see "
            "docs/static-analysis.md."
        ),
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package source)",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="findings as 'path:line:col: RULE message' lines (text, "
        "default) or a machine-readable report (json)",
    )
    p_check.add_argument(
        "--rules",
        type=csv_specs,
        default=None,
        metavar="R001,R003",
        help="run only these rule ids (default: all)",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    p_metrics = sub.add_parser(
        "metrics", help="list registered sweep metrics (name, params, description)"
    )
    p_metrics.add_argument(
        "--markdown",
        action="store_true",
        help="emit the Markdown reference page (docs/reference/metrics.md)",
    )

    p_curves = sub.add_parser(
        "curves", help="list registered curves and their capabilities"
    )
    p_curves.add_argument(
        "--markdown",
        action="store_true",
        help="emit the Markdown reference page (docs/reference/curves.md)",
    )

    p_bounds = sub.add_parser("bounds", help="paper lower bounds for a grid")
    add_grid_args(p_bounds)

    p_render = sub.add_parser("render", help="ASCII render of a 2-D curve")
    add_grid_args(p_render)
    p_render.add_argument(
        "--curve",
        default="z",
        choices=available_curves(),
        help="curve name (default z)",
    )
    p_render.add_argument(
        "--path", action="store_true", help="render step arrows, not keys"
    )

    p_part = sub.add_parser("partition", help="domain decomposition quality")
    add_grid_args(p_part)
    p_part.add_argument(
        "--parts", type=int, default=8, help="number of processors"
    )

    p_cert = sub.add_parser(
        "certificate", help="Theorem 1 proof chain on one curve"
    )
    add_grid_args(p_cert)
    p_cert.add_argument("--curve", default="z", choices=available_curves())

    p_profile = sub.add_parser(
        "profile", help="stretch profile E[dpi/d | d=r] per curve"
    )
    add_grid_args(p_profile)
    p_profile.add_argument(
        "--curve", default="z", choices=available_curves()
    )

    p_opt = sub.add_parser(
        "optimal", help="hill-climb search for a lower-D^avg bijection"
    )
    add_grid_args(p_opt)
    p_opt.add_argument("--iterations", type=int, default=20_000)
    p_opt.add_argument("--seed", type=int, default=0)

    p_export = sub.add_parser(
        "export", help="save a curve's key grid to .npz"
    )
    add_grid_args(p_export)
    p_export.add_argument("--curve", default="z", choices=available_curves())
    p_export.add_argument("--out", required=True, help="output path")

    p_heat = sub.add_parser(
        "heatmap", help="ASCII heat map of per-cell stretch (2-D)"
    )
    add_grid_args(p_heat)
    p_heat.add_argument("--curve", default="z", choices=available_curves())

    return parser


def _cmd_survey(args: argparse.Namespace) -> int:
    universe = Universe(d=args.d, side=args.side)
    result = Sweep(
        universes=[universe],
        metrics=(),
        include_allpairs=args.allpairs,
    ).run()
    print(f"# {universe}")
    print(format_table([r.as_row() for r in result.reports]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    metrics = tuple(args.metrics)
    if args.allpairs:
        metrics += ("allpairs_manhattan", "allpairs_euclidean")
    result = Sweep(
        dims=args.dims,
        sides=args.sides,
        curves=args.curves,
        metrics=metrics,
        reports=False,
        processes=args.processes,
        strict=args.strict,
        pooled=not args.no_pool,
        chunk_cells=args.chunk_cells,
        shared="auto" if args.shared is None else args.shared,
        threads=args.threads,
        backend=args.backend,
        store_dir=args.store,
    ).run()
    print(f"# sweep over dims={args.dims} sides={args.sides}")
    print(result.to_table())
    if result.skipped:
        print()
        for cell in result.skipped:
            print(
                f"skipped {cell.spec} on d={cell.d} side={cell.side}: "
                f"{cell.reason}"
            )
    if args.stats:
        print()
        print(f"engine cache: {result.cache_stats!r}")
        if result.cache_stats.backends:
            served = ", ".join(
                f"{name}={count}"
                for name, count in sorted(result.cache_stats.backends.items())
            )
            print(f"cells by backend: {served}")
    return 0


_GENERATED_BANNER = (
    "<!-- Auto-generated by `python -m repro {command} --markdown`; "
    "do not edit by hand.  CI regenerates this file and fails on "
    "drift. -->"
)


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """A GitHub-flavored Markdown table (cells pipe-escaped)."""
    def esc(cell: object) -> str:
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(esc(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines += [
        "| " + " | ".join(esc(c) for c in row) + " |" for row in rows
    ]
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(METRICS):
        entry = METRICS[name]
        rows.append(
            {
                "metric": name,
                "params": entry.signature or "-",
                "description": entry.description or "-",
            }
        )
    if args.markdown:
        print("# Sweep metric reference")
        print()
        print(_GENERATED_BANNER.format(command="metrics"))
        print()
        print(
            "Every metric is a function of a `MetricContext` registered "
            "in `repro.engine.sweep.METRICS`; parameterize it in sweep "
            "specs as `name:key=val,...` (e.g. `dilation:window=16`). "
            "Out-of-domain parameter values fail at plan time."
        )
        print()
        print(
            _markdown_table(
                ["metric", "parameters (defaults)", "description"],
                [
                    [f"`{r['metric']}`", f"`{r['params']}`", r["description"]]
                    for r in rows
                ],
            )
        )
        return 0
    print("# registered sweep metrics (use as --metrics name:key=val,...)")
    print(format_table(rows))
    return 0


def _curve_doc(name: str) -> str:
    """First docstring line of the registered factory (class or function)."""
    import inspect

    from repro.curves.registry import _require

    doc = inspect.getdoc(_require(name).factory) or ""
    first = doc.splitlines()[0].strip() if doc else ""
    return first or "-"


def _curve_rows() -> list[dict[str, object]]:
    from repro.curves.registry import curve_capabilities

    rows = []
    for name in available_curves():
        caps = curve_capabilities(name)
        if caps is None:
            dims = side = "unknown"
            min_side = "?"
        else:
            dims = (
                ",".join(str(d) for d in caps.dims)
                if caps.dims is not None
                else "any"
            )
            side = (
                " or ".join(f"{b}^m" for b in caps.side_bases)
                if caps.side_bases is not None
                else "any"
            )
            min_side = caps.min_side
        rows.append(
            {"curve": name, "dims": dims, "side": side, "min_side": min_side}
        )
    return rows


def _cmd_curves(args: argparse.Namespace) -> int:
    import inspect

    from repro.curves.registry import _require, curve_is_hidden

    rows = _curve_rows()
    if args.markdown:
        print("# Curve reference")
        print()
        print(_GENERATED_BANNER.format(command="curves"))
        print()
        print(
            "Curves registered in `repro.curves.registry`; instantiate "
            "with `make_curve(name, universe, **kwargs)` or reference "
            "them in sweep specs as `name:key=val,...` "
            "(e.g. `random:seed=3`)."
        )
        print()
        md_rows = []
        for row in rows:
            name = str(row["curve"])
            factory = _require(name).factory
            init = factory.__init__ if inspect.isclass(factory) else factory
            params = [
                f"{p.name}={p.default!r}"
                for p in inspect.signature(init).parameters.values()
                if p.name not in ("self", "universe")
                and p.kind is not inspect.Parameter.VAR_KEYWORD
                and p.default is not inspect.Parameter.empty
            ]
            md_rows.append(
                [
                    f"`{name}`",
                    row["dims"],
                    row["side"],
                    row["min_side"],
                    f"`{','.join(params)}`" if params else "-",
                    _curve_doc(name),
                ]
            )
        print(
            _markdown_table(
                [
                    "curve",
                    "dims",
                    "side",
                    "min side",
                    "parameters (defaults)",
                    "description",
                ],
                md_rows,
            )
        )
        print()
        print("## Transform wrappers")
        print()
        print(
            "Hidden registrations (not part of `curves=None` sweeps): "
            "each wraps an `inner` curve spec and is metric-invariant "
            "by the paper's Section IV-B argument.  Nested `inner` "
            "specs may carry one parameter of their own "
            "(`reversed:inner=random:seed=3`)."
        )
        print()
        wrapper_rows = []
        for name in available_curves(include_hidden=True):
            if not curve_is_hidden(name):
                continue
            factory = _require(name).factory
            params = [
                f"{p.name}={p.default!r}"
                for p in inspect.signature(factory).parameters.values()
                if p.name != "universe"
                and p.default is not inspect.Parameter.empty
            ]
            wrapper_rows.append(
                [
                    f"`{name}`",
                    f"`{','.join(params)}`" if params else "-",
                    _curve_doc(name),
                ]
            )
        print(
            _markdown_table(
                ["wrapper", "parameters (defaults)", "description"],
                wrapper_rows,
            )
        )
        return 0
    print("# registered curves and declared capabilities")
    print(format_table(rows))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    universe = Universe(d=args.d, side=args.side)
    n, d = universe.n, universe.d
    rows = [
        {
            "quantity": "Theorem 1 lower bound on D^avg (and D^max)",
            "value": davg_lower_bound(n, d),
        },
        {
            "quantity": "Theorem 2/3 asymptote n^(1-1/d)/d",
            "value": davg_z_limit(n, d),
        },
        {
            "quantity": "Prop 3 all-pairs LB (Manhattan)",
            "value": allpairs_manhattan_lower_bound(n, d),
        },
        {
            "quantity": "Prop 3 all-pairs LB (Euclidean)",
            "value": allpairs_euclidean_lower_bound(n, d),
        },
    ]
    print(f"# {universe}")
    print(format_table(rows))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    universe = Universe(d=args.d, side=args.side)
    curve = make_curve(args.curve, universe)
    print(f"# {curve.name} on {universe}")
    print(render_path(curve) if args.path else render_key_grid(curve))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.apps.partition import partition_quality
    from repro.curves.registry import curves_for_universe
    from repro.engine.pool import ContextPool

    universe = Universe(d=args.d, side=args.side)
    pool = ContextPool()
    rows = []
    for name, curve in curves_for_universe(universe).items():
        q = partition_quality(pool.get(curve), args.parts)
        rows.append(
            {
                "curve": name,
                "parts": q.n_parts,
                "imbalance": q.imbalance,
                "edge_cut": q.edge_cut,
                "cut_frac": q.cut_fraction,
            }
        )
    rows.sort(key=lambda r: r["cut_frac"])
    print(f"# {universe}, {args.parts} parts")
    print(format_table(rows))
    return 0


def _cmd_certificate(args: argparse.Namespace) -> int:
    universe = Universe(d=args.d, side=args.side)
    curve = make_curve(args.curve, universe)
    cert = theorem1_certificate(curve)
    print(f"# Theorem 1 proof chain on {curve.name}, {universe}")
    rows = [
        {"quantity": "S_A' (Lemma 2, exact)", "value": cert.sa_prime},
        {"quantity": "sum_NN Dpi (measured)", "value": cert.nn_sum},
        {"quantity": "Lemma 4 edge bound", "value": cert.lemma4_edge_bound},
        {"quantity": "inequality (4) RHS", "value": cert.inequality4_rhs},
        {"quantity": "inequality (4) holds", "value": cert.inequality4_holds},
        {"quantity": "D^avg (measured)", "value": cert.davg},
        {"quantity": "Theorem 1 bound", "value": cert.theorem1_bound},
        {"quantity": "Theorem 1 holds", "value": cert.theorem1_holds},
    ]
    print(format_table(rows))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.profile import stretch_profile_exact

    universe = Universe(d=args.d, side=args.side)
    curve = make_curve(args.curve, universe)
    profile = stretch_profile_exact(curve)
    rows = [{"r": r, "E[dpi/d | d=r]": v} for r, v in sorted(profile.items())]
    print(f"# stretch profile of {curve.name} on {universe}")
    print(format_table(rows))
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    from repro.core.optimal import local_search

    universe = Universe(d=args.d, side=args.side)
    result = local_search(
        universe, iterations=args.iterations, seed=args.seed
    )
    bound = davg_lower_bound(universe.n, universe.d)
    rows = [
        {"quantity": "start D^avg (simple curve)", "value": result.start_davg},
        {"quantity": "best D^avg found", "value": result.davg},
        {"quantity": "Theorem 1 bound", "value": bound},
        {"quantity": "best / bound", "value": result.davg / bound},
        {"quantity": "improvements", "value": result.improvements},
    ]
    print(f"# adversarial search on {universe} ({args.iterations} steps)")
    print(format_table(rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, parse_hot_set, run

    config = ServeConfig(
        host=args.host,
        port=args.port,
        hot_set=parse_hot_set(args.hot_set),
        max_inflight=args.max_inflight,
        batch_window_s=args.batch_window_ms / 1000.0,
        timeout_s=args.timeout,
        max_request_bytes=(
            None
            if args.max_request_mib == 0
            else int(args.max_request_mib * 2**20)
        ),
        threads=args.threads,
        backend=args.backend,
        store_dir=args.store,
    )
    return run(config)


def _cmd_dynamic(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.engine.dynamic import DynamicUniverse
    from repro.engine.pool import ContextPool

    if args.points < 0 or args.steps < 0 or args.batch < 1:
        raise ValueError("need points >= 0, steps >= 0, batch >= 1")
    universe = Universe(d=args.d, side=args.side)
    pool = ContextPool(backend=args.backend)
    dyn = DynamicUniverse(
        args.curve,
        universe=universe,
        pool=pool,
        parts=args.parts,
        window=args.window,
        reselect_threshold=args.reselect_threshold,
        candidates=args.candidates,
    )
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    dyn.bulk_load(
        rng.integers(
            0, args.side, size=(args.points, args.d), dtype=np.int64
        )
    )
    load_s = time.perf_counter() - start
    snapshot = dyn.metrics()
    print(f"# repro dynamic — {dyn.spec} on {universe}")
    print(
        f"bulk-load: {len(dyn)} points in {load_s * 1e3:.1f} ms "
        f"(D^avg {snapshot.davg:.4f}, dilation {snapshot.dilation}, "
        f"{snapshot.n_cells} cells)"
    )
    total_ops = 0
    start = time.perf_counter()
    for step in range(args.steps):
        moves = []
        used: set = set()
        pids = dyn.pids()
        for _ in range(args.batch):
            roll = rng.random()
            target = None
            if roll >= 0.25 and len(pids):
                candidate = int(pids[int(rng.integers(0, len(pids)))])
                if candidate not in used:
                    target = candidate
                    used.add(candidate)
            if target is None:
                coords = rng.integers(0, args.side, size=args.d)
                moves.append(("insert", tuple(int(c) for c in coords)))
            elif roll < 0.5:
                moves.append(("delete", target))
            else:
                coords = rng.integers(0, args.side, size=args.d)
                moves.append(
                    ("move", target, tuple(int(c) for c in coords))
                )
        metrics = dyn.apply(moves)
        total_ops += len(moves)
        if args.verify and metrics != dyn.recompute():
            print(
                f"error: incremental/recompute parity violated at "
                f"step {step + 1}",
                file=sys.stderr,
            )
            return 1
        print(
            f"step {step + 1:>3}: {len(moves)} ops -> "
            f"{metrics.n_points} points, D^avg {metrics.davg:.4f}, "
            f"dilation {metrics.dilation}, drift {dyn.drift():.3f}"
        )
    elapsed = time.perf_counter() - start
    if args.steps:
        rate = total_ops / elapsed if elapsed > 0 else float("inf")
        print(
            f"applied {total_ops} ops in {args.steps} batches "
            f"({elapsed * 1e3:.1f} ms, {rate:,.0f} ops/s incremental)"
        )
    if args.verify:
        print("parity: incremental == recompute at every step")
    for event in dyn.reselections:
        scores = ", ".join(
            f"{spec}={davg:.4f}" for spec, davg in event.scores.items()
        )
        action = (
            f"switched {event.from_spec} -> {event.to_spec}"
            if event.switched
            else f"kept {event.from_spec}"
        )
        print(
            f"reselect @ step {event.step}: drift {event.drift:.3f}, "
            f"{action} ({scores})"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io import save_curve

    universe = Universe(d=args.d, side=args.side)
    curve = make_curve(args.curve, universe)
    path = save_curve(curve, args.out)
    print(f"saved {curve.name} on {universe} to {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import repro
    from pathlib import Path

    from repro.devtools import (
        LINT_VERSION,
        format_json,
        format_text,
        lint_paths,
    )
    from repro.devtools.rules import all_rules, rules_by_id

    rules = all_rules() if args.rules is None else rules_by_id(args.rules)
    if args.list_rules:
        print(f"# repro check — rule catalogue (framework v{LINT_VERSION})")
        for rule in rules:
            print(f"  {rule.rule_id}  {rule.title}")
            print(f"        scope: {', '.join(rule.scope)}")
            print(f"        why:   {rule.rationale}")
        return 0
    paths = args.paths or [Path(repro.__file__).resolve().parent]
    findings = lint_paths(paths, rules=rules)
    if args.format == "json":
        print(format_json(findings, rules=rules))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    import os

    from repro.engine import native
    from repro.engine.threads import resolve_threads

    info = native.build_info()
    print("# repro doctor — host capability report")
    print()
    print("[native backend]")
    status = "available" if info["available"] else "unavailable"
    print(f"  status:    {status}")
    if not info["available"]:
        print(f"  reason:    {info['reason']}")
    print(
        f"  disabled:  {'yes (REPRO_NATIVE=0)' if info['disabled'] else 'no'}"
    )
    print(f"  compiler:  {info['compiler'] or 'none found (cc/gcc/clang)'}")
    print(f"  cache dir: {info['cache_dir']}")
    so_path = info["so_path"]
    built = so_path is not None and os.path.exists(so_path)
    print(f"  kernels:   {so_path or 'n/a'}{'' if built else ' (not built)'}")
    print(f"  fold clone: {info['fold_clone'] or 'n/a'}")
    log = info["build_log"]
    if log is not None and os.path.exists(log):
        print(f"  build log: {log}")
    print()
    print("[sanitizer builds]")
    mode = info["sanitize"]
    print(f"  REPRO_NATIVE_SANITIZE: {mode or '(off)'}")
    supported = info["sanitize_supported"]
    if supported is None:
        print("  -fsanitize support:    unknown (no compiler)")
    else:
        print(
            f"  -fsanitize support:    "
            f"{'yes' if supported else 'NO (probe compile failed)'}"
        )
    if info["clean_dir"] is not None:
        print(f"  clean cache:     {info['clean_dir']}")
        print(f"  sanitized cache: {info['sanitized_dir']}")
    print()
    print("[static analysis]")
    from repro.devtools import LINT_VERSION
    from repro.devtools.rules import all_rules

    rules = all_rules()
    ids = ", ".join(rule.rule_id for rule in rules)
    print(f"  lint rules: {len(rules)} ({ids}), framework v{LINT_VERSION}")
    print("  run:        repro check [--format=json] [--list-rules]")
    print()
    print("[cores and threads]")
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count() or 1
    print(f"  usable cores:     {usable}")
    print(f"  threads ('auto'): {resolve_threads('auto')}")
    print()
    print("[artifact store]")
    from repro.engine.store import FORMAT_VERSION, GridStore

    print(f"  format version: {FORMAT_VERSION}")
    if args.store is None:
        print("  directory:      (not configured; pass --store or set "
              "$REPRO_STORE)")
    else:
        store = GridStore(args.store)
        entries = store.entries()
        print(f"  directory:      {store.root}")
        print(f"  entries:        {len(entries)}")
        print(f"  payload bytes:  {store.nbytes}")
        print(f"  quarantined:    {store.quarantined_count()}")
    print()
    print("[shared memory]")
    try:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
        seg.close()
        seg.unlink()
        print("  segments:  usable (create/attach/unlink ok)")
    except Exception as exc:  # pragma: no cover - host-specific
        print(f"  segments:  UNAVAILABLE ({exc})")
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        leftovers = [
            name
            for name in os.listdir(shm_dir)
            if name.startswith("psm_")
        ]
        print(f"  /dev/shm psm_ segments: {len(leftovers)}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from repro.viz.heatmap import stretch_heatmap

    universe = Universe(d=args.d, side=args.side)
    curve = make_curve(args.curve, universe)
    print(f"# per-cell delta^avg of {curve.name} on {universe}")
    print(stretch_heatmap(curve))
    return 0


_COMMANDS = {
    "survey": _cmd_survey,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "dynamic": _cmd_dynamic,
    "metrics": _cmd_metrics,
    "curves": _cmd_curves,
    "bounds": _cmd_bounds,
    "render": _cmd_render,
    "partition": _cmd_partition,
    "certificate": _cmd_certificate,
    "profile": _cmd_profile,
    "optimal": _cmd_optimal,
    "export": _cmd_export,
    "heatmap": _cmd_heatmap,
    "doctor": _cmd_doctor,
    "check": _cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
