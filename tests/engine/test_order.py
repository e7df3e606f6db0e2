"""Oracle: the curve order scattered from the key grid equals a decode.

:meth:`repro.engine.MetricContext.order` builds ``order[π(α)] = α``
from the context's key grid instead of decoding every key.  The
decode, ``curve.coords_of(arange(n))``, is the independent reference:
both must agree exactly (values, dtype, shape) for every registry
curve and every transform, in 2D and 3D, on both backends, standalone
and through a :class:`repro.engine.ContextPool` (where a transform's
grid is derived from its inner curve's).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves.registry import available_curves, curve_applicability
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.pool import ContextPool
from repro.engine.sweep import CurveSpec
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)
BACKENDS = ["numpy", pytest.param("native", marks=requires_native)]
UNIVERSES = [
    Universe(d=2, side=8),
    Universe(d=2, side=9),
    Universe(d=3, side=4),
    Universe(d=3, side=3),
]
TRANSFORMS = {
    2: [
        "reversed:inner=hilbert",
        "reversed:inner=random:seed=3",
        "reflected:inner=hilbert,axes=0",
        "reflected:inner=z,axes=0-1",
        "axisperm:inner=hilbert,perm=1-0",
    ],
    3: [
        "reversed:inner=hilbert",
        "reversed:inner=random:seed=3",
        "reflected:inner=hilbert,axes=0-2",
        "axisperm:inner=hilbert,perm=2-0-1",
    ],
}


def _cases():
    for universe in UNIVERSES:
        for name in available_curves():
            if curve_applicability(name, universe)[0] is not False:
                yield name, universe
        if universe.side in (4, 8):  # hilbert/z inners need 2^k
            for spec in TRANSFORMS[universe.d]:
                yield spec, universe


CASES = list(_cases())


def _ids(case):
    spec, universe = case
    return f"{spec}-{universe.d}x{universe.side}"


@pytest.mark.parametrize("pooled", [False, True], ids=["standalone", "pooled"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_order_equals_decode(case, backend, pooled):
    spec, universe = case
    curve = CurveSpec.parse(spec).make(universe)
    if pooled:
        ctx = ContextPool(backend=backend).get(curve)
    else:
        ctx = MetricContext(curve, backend=backend)
    reference = CurveSpec.parse(spec).make(universe).coords_of(
        np.arange(universe.n, dtype=np.int64), backend=backend
    )
    path = ctx.order()
    assert path.dtype == reference.dtype
    assert path.shape == (universe.n, universe.d)
    assert np.array_equal(path, reference)
    assert not path.flags.writeable


def test_every_family_is_covered():
    covered = {CurveSpec.parse(spec).name for spec, _ in CASES}
    assert set(available_curves()) | {"reversed", "reflected", "axisperm"} <= covered
    assert {u.d for _, u in CASES} == {2, 3}
