"""Corruption-rejection harness: a damaged store can never serve bytes.

Every form of on-disk damage — truncation, bit flips, stale format
versions, header/payload mismatches, junk headers — must degrade to a
cache miss: the artifact is quarantined, the caller recomputes, and the
rewrite repairs the entry.  Correctness is never negotiable; only the
warm-start speedup is lost.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Universe
from repro.curves.zcurve import ZCurve
from repro.engine import FORMAT_VERSION, GridStore, MetricContext

KEY = ("spec",)
KIND = "key_grid"


@pytest.fixture
def seeded(tmp_path):
    """A store holding one committed entry; returns (root, payload, meta)."""
    store = GridStore(tmp_path)
    store.put(KEY, KIND, np.arange(64, dtype=np.int64))
    payload, meta = store._paths(KEY, KIND)
    assert payload.exists() and meta.exists()
    return tmp_path, payload, meta


def fresh_get(root):
    return GridStore(root).get(KEY, KIND)


def edit_meta(meta_path, **changes):
    meta = json.loads(meta_path.read_text())
    meta.update(changes)
    meta_path.write_text(json.dumps(meta, sort_keys=True))


class TestDamageIsAMiss:
    def test_truncated_payload(self, seeded):
        root, payload, _ = seeded
        payload.write_bytes(payload.read_bytes()[:-8])
        assert fresh_get(root) is None
        assert GridStore(root).quarantined_count() >= 1

    def test_payload_truncated_to_zero(self, seeded):
        root, payload, _ = seeded
        payload.write_bytes(b"")
        assert fresh_get(root) is None

    def test_flipped_payload_byte(self, seeded):
        # same length, same .npy header, one corrupted value byte:
        # only the checksum can catch this
        root, payload, _ = seeded
        raw = bytearray(payload.read_bytes())
        raw[-1] ^= 0xFF
        payload.write_bytes(bytes(raw))
        store = GridStore(root)
        assert store.get(KEY, KIND) is None
        assert store.counters["rejected"] == 1

    def test_stale_format_version(self, seeded):
        root, _, meta = seeded
        edit_meta(meta, format=FORMAT_VERSION - 1)
        assert fresh_get(root) is None

    def test_dtype_mismatch(self, seeded):
        root, _, meta = seeded
        edit_meta(meta, dtype="<i4")
        assert fresh_get(root) is None

    def test_shape_mismatch(self, seeded):
        root, _, meta = seeded
        edit_meta(meta, shape=[8, 8])
        assert fresh_get(root) is None

    def test_checksum_mismatch_in_header(self, seeded):
        root, _, meta = seeded
        edit_meta(meta, sha256="0" * 64)
        assert fresh_get(root) is None

    def test_junk_header(self, seeded):
        root, _, meta = seeded
        meta.write_text("not json {")
        assert fresh_get(root) is None

    def test_header_without_payload(self, seeded):
        root, payload, _ = seeded
        payload.unlink()
        assert fresh_get(root) is None

    def test_kind_swapped_header(self, seeded):
        # a header copied over from another kind must not vouch for
        # this payload
        root, _, meta = seeded
        edit_meta(meta, kind="flat_keys")
        assert fresh_get(root) is None

    def test_verification_memo_invalidated_by_rewrite(self, seeded):
        root, payload, _ = seeded
        store = GridStore(root)
        assert store.get(KEY, KIND) is not None  # checksummed + memoized
        raw = bytearray(payload.read_bytes())
        raw[-1] ^= 0xFF
        payload.write_bytes(bytes(raw))
        # same store object: the stat signature changed, so the memo
        # must not shortcut the re-verification
        assert store.get(KEY, KIND) is None


class TestRecomputeRepairs:
    @pytest.mark.parametrize(
        "damage",
        ["truncate", "flip", "format", "dtype"],
        ids=str,
    )
    def test_rewrite_after_rejection(self, seeded, damage):
        root, payload, meta = seeded
        original = np.arange(64, dtype=np.int64)
        if damage == "truncate":
            payload.write_bytes(payload.read_bytes()[:-8])
        elif damage == "flip":
            raw = bytearray(payload.read_bytes())
            raw[100] ^= 0x01
            payload.write_bytes(bytes(raw))
        elif damage == "format":
            edit_meta(meta, format=99)
        else:
            edit_meta(meta, dtype="<f8")
        store = GridStore(root)
        assert store.get(KEY, KIND) is None  # damage detected
        assert store.put(KEY, KIND, original) is True  # repair
        repaired = GridStore(root).get(KEY, KIND)
        np.testing.assert_array_equal(repaired, original)
        assert not repaired.flags.writeable

    def test_engine_recomputes_through_corruption(self, tmp_path, u2_8):
        curve = ZCurve(u2_8)
        baseline = MetricContext(curve).davg()
        # NumPy backend: a native codec would exempt z from the store.
        MetricContext(curve, store_dir=tmp_path, backend="numpy").davg()
        # flip one byte in every stored payload
        for payload in tmp_path.rglob("*.npy"):
            raw = bytearray(payload.read_bytes())
            raw[-1] ^= 0xFF
            payload.write_bytes(bytes(raw))
        poisoned = MetricContext(curve, store_dir=tmp_path, backend="numpy")
        assert poisoned.davg() == baseline
        assert poisoned.stats.total_mmap == 0  # nothing was trusted
        assert poisoned.grid_store.counters["rejected"] >= 1
        # the recompute rewrote the store: a third context maps cleanly
        warm = MetricContext(curve, store_dir=tmp_path, backend="numpy")
        assert warm.davg() == baseline
        assert warm.stats.total_mmap > 0
