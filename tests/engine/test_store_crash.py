"""Crash-consistency harness: writers SIGKILLed mid-publish.

The store's durability contract (``repro.engine.store``) says a writer
killed at *any* instant leaves either no entry or a complete one —
never a torn artifact a reader could map.  These tests make that
concrete: a subprocess writer arms one ``REPRO_STORE_CRASH`` failpoint,
publishes, and dies by SIGKILL at exactly that point; the parent then
reopens the store and asserts what the next process is allowed to see.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Universe
from repro.curves.zcurve import ZCurve
from repro.engine import GridStore, MetricContext

SRC = str(Path(__file__).resolve().parents[2] / "src")

FAILPOINTS = ("before-temp", "after-temp", "before-rename", "before-commit")

PUT_SCRIPT = """
import sys
import numpy as np
from repro.engine.store import GridStore
GridStore(sys.argv[1]).put(("spec",), "key_grid",
                           np.arange(64, dtype=np.int64))
"""

CONTEXT_SCRIPT = """
import sys
from repro import Universe
from repro.curves.zcurve import ZCurve
from repro.engine.context import MetricContext
MetricContext(
    ZCurve(Universe(d=2, side=8)), store_dir=sys.argv[1], backend="numpy"
).davg()
"""


def run_writer(script: str, root: Path, failpoint: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_STORE_CRASH"] = failpoint
    return subprocess.run(
        [sys.executable, "-c", script, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_no_torn_reads(root: Path) -> None:
    """Every *committed* entry must survive a fully-verified get."""
    store = GridStore(root)
    for entry in store.entries():
        meta_path = root / entry["dir"] / f"{entry['kind']}.json"
        assert meta_path.exists()
        payload = meta_path.with_suffix(".npy")
        assert payload.stat().st_size == entry["nbytes"]
    assert store.counters.get("rejected", 0) == 0


class TestKilledWriter:
    @pytest.mark.parametrize("failpoint", FAILPOINTS)
    def test_writer_dies_at_failpoint_by_sigkill(self, tmp_path, failpoint):
        proc = run_writer(PUT_SCRIPT, tmp_path, failpoint)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

    @pytest.mark.parametrize("failpoint", FAILPOINTS)
    def test_partial_publish_is_invisible(self, tmp_path, failpoint):
        run_writer(PUT_SCRIPT, tmp_path, failpoint)
        store = GridStore(tmp_path)
        # the torn entry never resolves, whatever stage it died at
        assert store.get(("spec",), "key_grid") is None
        assert store.contains(("spec",), "key_grid") is False
        assert_no_torn_reads(tmp_path)

    @pytest.mark.parametrize("failpoint", FAILPOINTS)
    def test_completed_entries_survive_a_crash(self, tmp_path, failpoint):
        # an entry committed *before* the crash stays fully readable
        survivor = np.arange(9, dtype=np.int64)
        GridStore(tmp_path).put(("done",), "order", survivor)
        run_writer(PUT_SCRIPT, tmp_path, failpoint)
        store = GridStore(tmp_path)
        np.testing.assert_array_equal(
            store.get(("done",), "order"), survivor
        )
        assert store.get(("spec",), "key_grid") is None

    def test_clean_quarantines_tmp_debris(self, tmp_path):
        run_writer(PUT_SCRIPT, tmp_path, "before-rename")
        # both temp files were fsynced but never renamed into place
        debris = list((tmp_path / "tmp").iterdir())
        assert debris
        store = GridStore(tmp_path)
        swept = store.clean()
        assert swept["tmp"] == len(debris)
        assert not list((tmp_path / "tmp").iterdir())
        assert store.quarantined_count() == len(debris)

    def test_clean_quarantines_orphan_payload(self, tmp_path):
        # died between the payload and header renames: the payload sits
        # in its entry directory with no header committing it
        run_writer(PUT_SCRIPT, tmp_path, "before-commit")
        orphans = [
            p
            for p in tmp_path.rglob("*.npy")
            if not set(p.relative_to(tmp_path).parts)
            & {"tmp", "quarantine"}
        ]
        assert len(orphans) == 1
        store = GridStore(tmp_path)
        assert store.get(("spec",), "key_grid") is None
        swept = store.clean()
        assert swept["orphans"] == 1
        assert not orphans[0].exists()

    @pytest.mark.parametrize("failpoint", FAILPOINTS)
    def test_rewrite_repairs_after_crash(self, tmp_path, failpoint):
        run_writer(PUT_SCRIPT, tmp_path, failpoint)
        store = GridStore(tmp_path)
        fresh = np.arange(64, dtype=np.int64)
        assert store.put(("spec",), "key_grid", fresh) is True
        np.testing.assert_array_equal(
            GridStore(tmp_path).get(("spec",), "key_grid"), fresh
        )


class TestKilledEngineWriter:
    def test_context_killed_mid_persist_then_recompute(self, tmp_path):
        proc = run_writer(CONTEXT_SCRIPT, tmp_path, "before-commit")
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert_no_torn_reads(tmp_path)
        # a fresh engine process recomputes through the damage and
        # repairs the store with identical values
        baseline = MetricContext(ZCurve(Universe(d=2, side=8))).davg()
        # NumPy backend: a native codec would exempt z from the store.
        repaired = MetricContext(
            ZCurve(Universe(d=2, side=8)),
            store_dir=tmp_path,
            backend="numpy",
        )
        assert repaired.davg() == baseline
        warm = MetricContext(
            ZCurve(Universe(d=2, side=8)),
            store_dir=tmp_path,
            backend="numpy",
        )
        assert warm.davg() == baseline
        assert warm.stats.total_mmap > 0
