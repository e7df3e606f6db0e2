"""Tests for the Moore curve (closed Hilbert loop)."""

import numpy as np
import pytest
from curve_oracles import moore_order

from repro import Universe
from repro.curves.hilbert import HilbertCurve
from repro.curves.moore import MooreCurve


class TestMooreOrder:
    def test_k1_is_the_square_loop(self):
        assert [tuple(r) for r in moore_order(1)] == [
            (0, 0), (0, 1), (1, 1), (1, 0),
        ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_continuous(self, k):
        order = moore_order(k)
        steps = np.abs(np.diff(order, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_closed_loop(self, k):
        """The defining Moore property: a Hamiltonian cycle."""
        order = moore_order(k)
        wrap = int(np.abs(order[-1] - order[0]).sum())
        assert wrap == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_complete(self, k):
        order = moore_order(k)
        assert len({tuple(r) for r in order}) == 4**k

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            moore_order(0)


class TestMooreCurve:
    def test_bijection_continuity_closedness(self):
        m = MooreCurve(Universe.power_of_two(d=2, k=3))
        assert m.is_bijection()
        assert m.is_continuous()
        assert m.is_closed()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_is_closed_decodes_only_the_end_keys(self, k, monkeypatch):
        """``is_closed`` agrees with the order-based answer and decodes
        two keys, not the whole order."""
        m = MooreCurve(Universe.power_of_two(d=2, k=k))
        path = m.order()
        expected = int(np.abs(path[-1] - path[0]).sum()) == 1
        decoded = []
        impl = MooreCurve._coords_impl

        def counting(self, index):
            decoded.append(index.size)
            return impl(self, index)

        monkeypatch.setattr(MooreCurve, "_coords_impl", counting)
        assert m.is_closed() is expected is True
        assert decoded == [2]

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="d == 2"):
            MooreCurve(Universe.power_of_two(d=3, k=2))

    def test_rejects_side_one(self):
        with pytest.raises(ValueError):
            MooreCurve(Universe(d=2, side=1))

    def test_registered(self):
        from repro.curves.registry import curves_for_universe

        zoo = curves_for_universe(Universe.power_of_two(d=2, k=3))
        assert "moore" in zoo

    def test_roundtrip(self):
        u = Universe.power_of_two(d=2, k=3)
        m = MooreCurve(u)
        idx = np.arange(u.n)
        assert np.array_equal(m.index(m.coords(idx)), idx)

    def test_stretch_close_to_hilbert(self):
        """Moore is Hilbert rearranged; its D^avg stays in the same
        near-optimal band."""
        from repro.core.stretch import average_average_nn_stretch

        u = Universe.power_of_two(d=2, k=4)
        m_val = average_average_nn_stretch(MooreCurve(u))
        h_val = average_average_nn_stretch(HilbertCurve(u))
        assert m_val == pytest.approx(h_val, rel=0.25)

    def test_theorem1_holds(self):
        from repro.core.lower_bounds import davg_lower_bound
        from repro.core.stretch import average_average_nn_stretch

        u = Universe.power_of_two(d=2, k=4)
        assert average_average_nn_stretch(MooreCurve(u)) >= davg_lower_bound(
            u.n, u.d
        )

    def test_hilbert_is_not_closed(self):
        """Contrast: the open Hilbert curve ends far from its start."""
        u = Universe.power_of_two(d=2, k=3)
        h = HilbertCurve(u)
        path = h.order()
        assert int(np.abs(path[-1] - path[0]).sum()) > 1
