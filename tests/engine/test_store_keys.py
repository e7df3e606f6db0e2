"""Property tests for store keying (hypothesis).

The on-disk address of every artifact is
``render_key(shared_key(curve))``.  Three properties carry the whole
correctness argument: the rendering is **injective** (distinct specs
can never collide onto one entry), **process-stable** (a warm process
computes the same address the cold one wrote), and **filesystem-safe**
(any spec, however hostile its strings, produces a portable directory
name).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.base import PermutationCurve
from repro.engine import (
    GridStore,
    canonical_key,
    render_key,
    shared_key,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

# The value space of shared_key(): None, bool, int, float, str and
# arbitrarily nested tuples thereof.  NaN is excluded — it is not
# self-equal, so no equality-based property can even be stated for it
# (and no curve spec produces it).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=24),
)
keys = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)
spec_keys = st.lists(keys, max_size=4).map(tuple)


def structurally_equal(a, b) -> bool:
    """Type-aware equality: 1 != True != 1.0 even though Python's ==
    conflates them (and the store must not)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


class TestCanonicalKey:
    @given(key=keys)
    @settings(max_examples=300)
    def test_deterministic(self, key):
        assert canonical_key(key) == canonical_key(key)

    @given(a=keys, b=keys)
    @settings(max_examples=300)
    def test_injective(self, a, b):
        if canonical_key(a) == canonical_key(b):
            assert structurally_equal(a, b)

    @given(a=keys, b=keys, c=keys)
    @settings(max_examples=200)
    def test_no_structural_forgery(self, a, b, c):
        # nesting is part of the identity: ((a, b), c) != (a, (b, c))
        left, right = ((a, b), c), (a, (b, c))
        if not structurally_equal(left, right):
            assert canonical_key(left) != canonical_key(right)

    def test_type_tags_separate_lookalikes(self):
        lookalikes = [1, True, 1.0, "1", "True", (1,), None, "None", "~"]
        renderings = [canonical_key(v) for v in lookalikes]
        assert len(set(renderings)) == len(lookalikes)

    def test_hostile_strings_cannot_forge_tuples(self):
        # a string spelling the rendering of a tuple is still a string
        assert canonical_key(("(i1,i2)",)) != canonical_key(((1, 2),))
        assert canonical_key(("a,b",)) != canonical_key(("a", "b"))

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            canonical_key([1, 2])
        with pytest.raises(TypeError):
            canonical_key({"a": 1})


class TestRenderKey:
    @given(key=spec_keys)
    @settings(max_examples=300)
    def test_filesystem_safe(self, key):
        import re

        name = render_key(key)
        assert re.fullmatch(r"[A-Za-z0-9._-]+", name)
        assert len(name) < 128
        assert name not in (".", "..", "tmp", "quarantine")

    @given(a=spec_keys, b=spec_keys)
    @settings(max_examples=200)
    def test_distinct_keys_distinct_dirs(self, a, b):
        if not structurally_equal(a, b):
            assert render_key(a) != render_key(b)

    def test_stable_across_processes(self):
        samples = [
            ("repro.curves.zcurve.ZCurve", ("universe", 2, 8), None),
            ("universe", 3, 16),
            ("s", -1, 2.5, True, None, ("nested", "x,y")),
        ]
        script = (
            "import sys, json\n"
            "from repro.engine.store import render_key\n"
            "keys = ["
            "('repro.curves.zcurve.ZCurve', ('universe', 2, 8), None),"
            "('universe', 3, 16),"
            "('s', -1, 2.5, True, None, ('nested', 'x,y'))]\n"
            "print(json.dumps([render_key(k) for k in keys]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        import json

        assert json.loads(proc.stdout) == [render_key(k) for k in samples]


class TestCurveKeys:
    def test_registry_curves_round_trip(self, tmp_path, zoo_2d):
        store = GridStore(tmp_path)
        seen = {}
        for curve in zoo_2d.values():
            skey = shared_key(curve)
            if skey is None:
                continue
            name = render_key(skey)
            assert seen.setdefault(name, skey) == skey  # no collisions
            grid = np.asarray(curve.key_grid())
            store.put(skey, "key_grid", grid)
            np.testing.assert_array_equal(
                GridStore(tmp_path).get(skey, "key_grid"), grid
            )
        assert seen  # the zoo has shareable curves

    def test_universe_keys_render_readably(self):
        name = render_key(("universe", 2, 64))
        assert name.startswith("universe-2x64-")

    def test_instance_keyed_curves_are_exempt(self, u2_8):
        table = PermutationCurve(u2_8, order=u2_8.all_coords())
        assert shared_key(table) is None
        # and the store treats None as a no-op, not an address
        assert GridStore("/nonexistent-store").get(None, "key_grid") is None
