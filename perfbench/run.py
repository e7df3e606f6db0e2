"""The repository benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``BENCHMARK.json`` and the module docstrings of
``sweeps.py`` and ``serve_mixed.py``): ``sweep_cold``, ``sweep_warm``
and ``serve_mixed``.  ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` measures untraced, then installs spans
around the library's public calls and reports the per-layer metrics
with the tracing overhead.

Lines starting with ``#`` are the human-readable report: the
environment, the workload's shape, every metric with its unit, the
latency percentiles with their sample counts and failures by kind.
The last line is the result object.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the checkout has no
library sources (nothing is printed then) and 3 when a workload could
not run (a traceback goes to standard error).  Before it exits, the
benchmark waits for every process it started, and for the helper
processes (``resource_tracker``) its children left behind.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("sweep_cold", "sweep_warm", "serve_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _say(label: str, value) -> None:
    print(f"# {label}: {value}", flush=True)


def _latency_lines(name: str, values) -> None:
    """``<name>_p50_ms`` and ``<name>_p99_ms`` with their sample counts;
    a p99 needs at least ten samples beyond it."""
    from tracing import percentile

    n = len(values)
    p50 = percentile(values, 0.5)
    p99 = percentile(values, 0.99)
    _say(f"{name}_p50_ms", "n/a (no samples)" if p50 is None else f"{p50 * 1e3:.3f} (n={n})")
    _say(
        f"{name}_p99_ms",
        f"n/a (n={n}: fewer than 10 samples beyond p99)"
        if p99 is None
        else f"{p99 * 1e3:.3f} (n={n})",
    )


def _report(name: str, out) -> None:
    from common import environment

    _say("environment", json.dumps(environment(out.backends)))
    _say("workload", name)
    for key, value in out.report.items():
        if key == "latency":
            continue
        if isinstance(value, list):
            value = [round(v, 4) if isinstance(v, float) else v for v in value]
        _say(key, value)
    latency = out.report.get("latency")
    if latency is not None:
        _latency_lines("sweep", latency["hot"] + latency["cold"])
        _latency_lines("hot_sweep", latency["hot"])
        _latency_lines("cold_sweep", latency["cold"])
        _latency_lines("step", latency["step"])
        done = sum(len(v) for v in latency.values())
        _say("req_per_s", f"{done / out.report['wall_s']:.2f} (wall clock)")
    _say("attempted", out.attempted)
    _say("failures by kind", json.dumps(out.failures, sort_keys=True))
    _say("failed_ratio", out.failed / max(out.attempted, 1))
    for problem in out.problems:
        _say("problem", problem)


def run_workload(args) -> int:
    spec = _spec()
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in table}
    run_dir = common.RunDir(args.workload)
    try:
        common.enter_process_env(run_dir)
        from repro.engine import native

        native.load_kernels()  # the one-off compile, before any timing
        if args.workload == "serve_mixed":
            from serve_mixed import run_serve_workload

            out = run_serve_workload(
                args.seed, args.seconds, bool(args.trace), run_dir
            )
        else:
            from sweeps import run_sweep_workload

            out = run_sweep_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), run_dir
            )
    finally:
        run_dir.close()
    _report(args.workload, out)
    if set(out.metrics) != set(units):
        missing = sorted(set(units) - set(out.metrics))
        extra = sorted(set(out.metrics) - set(units))
        print(f"metric mismatch: missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    for name in units:
        print(f"# {name} = {out.metrics[name]:.6g} {units[name]}")
    correct = not out.failures.get("wrong_output")
    common.emit(correct, max(out.attempted, 1), out.failed, out.metrics, units)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a combined result line."""
    combined = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"# {name}: exited {proc.returncode}", flush=True)
            sys.stderr.write(proc.stderr[-4000:])
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": combined,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.source_present():
        print(
            f"no library sources under {common.SRC}: run from a checkout",
            file=sys.stderr,
        )
        return 2
    common.adopt_orphans()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        common.reap_children()


if __name__ == "__main__":
    sys.exit(main())
