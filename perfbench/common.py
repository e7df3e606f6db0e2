"""Paths, child-process environment, timing helpers and the run record.

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout: the native kernel cache (built once, before any
timing), and one scratch directory per run (grid stores, temp files,
span dumps) that is removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
NATIVE_CACHE = WORK / "native"

#: Variables that would change what the library does; the benchmark
#: runs every process without them.
_SCRUBBED = (
    "REPRO_STORE",
    "REPRO_STORE_CRASH",
    "REPRO_NATIVE",
    "REPRO_NATIVE_CC",
    "REPRO_NATIVE_SANITIZE",
)


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment for the benchmark process and every child."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


class RunDir:
    """The per-run scratch directory, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK / f"run-{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.tmp = self.path / "tmp"
        self.tmp.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def enter_process_env(run: RunDir) -> None:
    """Make this process see exactly what its children see."""
    env = child_env(run.tmp)
    for key in _SCRUBBED:
        os.environ.pop(key, None)
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempfile

    tempfile.tempdir = str(run.tmp)


def timed_child(argv: List[str], env: Dict[str, str], timeout: float) -> float:
    """Run ``argv`` to completion; its wall time, or raise on failure."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return elapsed


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants.

    A process that uses shared memory starts a ``resource_tracker``
    helper that outlives it for a moment; as a child subreaper
    (Linux ``prctl``) the benchmark inherits such helpers of its
    children and can wait for them in :func:`reap_children`.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Live or unreaped children of this process, from ``/proc``."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 20.0) -> None:
    """Stop and wait for every process this one started or adopted.

    This process's own ``resource_tracker`` ends when its pipe closes;
    the rest are waited for, and killed if still running after
    ``grace_s`` seconds.
    """
    import signal
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            pass
        pids = _child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.02)


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and every
    waited-for child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) of the running process ``pid``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def median(values: List[float]) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and every waited-for child.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been
    waited for (servers, setup processes, sweep workers), in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _compiler_version(cc: Optional[str]) -> Optional[str]:
    if cc is None:
        return None
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return out.splitlines()[0] if out else None


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the library sources (stands in for a commit id)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(backends: Dict[str, int]) -> dict:
    """What every result is recorded with."""
    import numpy

    from repro.engine import native

    return {
        "cores": len(os.sched_getaffinity(0)),
        "native_available": native.available(),
        "backends": dict(backends),
        "compiler": _compiler_version(native.compiler_path()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


class Outcome:
    """What a workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, object] = {}
        self.backends: Dict[str, int] = {}

    def fail(self, kind: str, message: str, cells: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + cells
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {message}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Dict[str, str],
) -> None:
    """Print the result object as the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(payload), flush=True)
