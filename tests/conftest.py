"""Shared fixtures: canonical universes and curve zoos."""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import Universe
from repro.curves.registry import curves_for_universe

# The lint fixtures under tests/devtools/fixtures/ contain *seeded
# violations* for `repro check`; they are lint input, never test code,
# and --doctest-modules must not import them.
collect_ignore_glob = ["devtools/fixtures/*"]


def _default_native_cache() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sfc"


def _tree_snapshot(root: Path):
    if not root.is_dir():
        return None
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


#: The native cache state :func:`pytest_configure` set up: whether
#: ``REPRO_NATIVE_CACHE`` was preset, the session build dir, and the
#: snapshot of the real default cache dir taken before any test module
#: was imported.
_NATIVE_CACHE: dict = {}


def pytest_configure(config):
    """Route the native build cache before collection imports anything.

    Test modules call ``native.available()`` at import time (``skipif``
    marks), which builds the kernels; a session fixture would run too
    late and let that first build land in ``~/.cache/repro-sfc``.
    """
    preset = bool(os.environ.get("REPRO_NATIVE_CACHE"))
    _NATIVE_CACHE["preset"] = preset
    if not preset:
        build_dir = tempfile.mkdtemp(prefix="repro-native-cache-")
        _NATIVE_CACHE["build_dir"] = build_dir
        os.environ["REPRO_NATIVE_CACHE"] = build_dir
    _NATIVE_CACHE["before"] = _tree_snapshot(_default_native_cache())


def pytest_unconfigure(config):
    build_dir = _NATIVE_CACHE.pop("build_dir", None)
    if build_dir is not None:
        del os.environ["REPRO_NATIVE_CACHE"]
        shutil.rmtree(build_dir, ignore_errors=True)


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_caches():
    """Keep every on-disk cache the suite can touch off the host.

    Two subsystems persist outside the repo: the native build cache
    (``REPRO_NATIVE_CACHE`` → ``~/.cache/repro-sfc``) and the artifact
    store (``$REPRO_STORE`` as the CLI default).  A test run must leave
    neither fingerprint on the host — compiled kernels land in the
    session build dir :func:`pytest_configure` made, the
    store/crash-injection variables are cleared so CLI-default behavior
    is hermetic, and a before/after snapshot of the *real* default
    cache dir asserts nothing leaked.
    """
    saved = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_STORE", "REPRO_STORE_CRASH")
    }
    default_cache = _default_native_cache()
    try:
        yield
    finally:
        if not _NATIVE_CACHE["preset"]:
            after = _tree_snapshot(default_cache)
            before = _NATIVE_CACHE["before"]
            assert after == before, (
                f"test run leaked into {default_cache}: "
                f"{set(after or []) ^ set(before or [])}"
            )
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value


@pytest.fixture(autouse=True)
def _isolate_native_warn_once():
    """Restore the native backend's warn-once state around every test.

    ``resolve_backend("native")`` warns exactly once per process when
    the kernels are unavailable.  Without isolation that single shot is
    order-sensitive across the suite: whichever test triggers it first
    spends it, and a reordering (or ``-k`` selection) can mask the
    warning in one test or duplicate it in another.  Snapshot/restore
    makes every test see the state it started with.
    """
    from repro.engine import native

    fired_before = native.warned_once()
    yield
    if not fired_before and native.warned_once():
        native.reset_warned()


@pytest.fixture
def u2_8() -> Universe:
    """The paper's Figure 3/4 grid: d=2, side=8, n=64."""
    return Universe.power_of_two(d=2, k=3)


@pytest.fixture
def u3_4() -> Universe:
    """A 3-D power-of-two grid: d=3, side=4, n=64."""
    return Universe.power_of_two(d=3, k=2)


@pytest.fixture
def u2_2() -> Universe:
    """The Figure 1 grid: d=2, side=2, n=4."""
    return Universe.power_of_two(d=2, k=1)


@pytest.fixture
def zoo_2d(u2_8):
    """Every registered curve instantiable on the 8x8 grid."""
    return curves_for_universe(u2_8)


@pytest.fixture
def zoo_3d(u3_4):
    """Every registered curve instantiable on the 4^3 grid."""
    return curves_for_universe(u3_4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def brute_force_davg(curve) -> float:
    """Slow, obviously-correct D^avg oracle (Definitions 1-2)."""
    from repro.grid.neighbors import neighbors_of

    universe = curve.universe
    total = 0.0
    for cell in universe.iter_cells():
        nbrs = neighbors_of(np.asarray(cell), universe)
        keys = curve.index(nbrs)
        me = int(curve.index(np.asarray(cell)))
        total += float(np.abs(keys - me).mean())
    return total / universe.n


def brute_force_dmax(curve) -> float:
    """Slow, obviously-correct D^max oracle (Definitions 3-4)."""
    from repro.grid.neighbors import neighbors_of

    universe = curve.universe
    total = 0.0
    for cell in universe.iter_cells():
        nbrs = neighbors_of(np.asarray(cell), universe)
        keys = curve.index(nbrs)
        me = int(curve.index(np.asarray(cell)))
        total += float(np.abs(keys - me).max())
    return total / universe.n


def brute_force_allpairs(curve, metric: str = "manhattan") -> float:
    """Slow all-pairs stretch oracle (Section V-B definition verbatim)."""
    from repro.grid.metrics import euclidean, manhattan

    universe = curve.universe
    cells = list(universe.iter_cells())
    n = len(cells)
    total = 0.0
    dist = manhattan if metric == "manhattan" else euclidean
    for i in range(n):
        for j in range(i + 1, n):
            a = np.asarray(cells[i])
            b = np.asarray(cells[j])
            dpi = abs(int(curve.index(a)) - int(curve.index(b)))
            total += dpi / float(dist(a, b))
    return 2.0 * total / (n * (n - 1))
