"""Tests for the Universe model (Section III grid)."""

import numpy as np
import pytest

from repro import Universe


class TestConstruction:
    def test_basic_fields(self):
        u = Universe(d=3, side=4)
        assert u.d == 3
        assert u.side == 4
        assert u.n == 64

    def test_power_of_two_constructor(self):
        u = Universe.power_of_two(d=2, k=3)
        assert u.side == 8
        assert u.n == 64
        assert u.k == 3

    def test_power_of_two_k_zero(self):
        u = Universe.power_of_two(d=4, k=0)
        assert u.side == 1
        assert u.n == 1

    def test_from_cell_count(self):
        u = Universe.from_cell_count(d=2, n=64)
        assert u.side == 8

    def test_from_cell_count_large(self):
        u = Universe.from_cell_count(d=3, n=2**30)
        assert u.side == 2**10

    def test_from_cell_count_rejects_non_power(self):
        with pytest.raises(ValueError, match="perfect"):
            Universe.from_cell_count(d=2, n=63)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            Universe(d=0, side=4)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            Universe(d=2, side=0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be"):
            Universe.power_of_two(d=2, k=-1)

    def test_k_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Universe(d=2, side=6).k

    def test_shape(self):
        assert Universe(d=3, side=5).shape == (5, 5, 5)

    def test_frozen(self):
        u = Universe(d=2, side=4)
        with pytest.raises(AttributeError):
            u.side = 8


class TestEnumeration:
    def test_all_coords_shape(self):
        u = Universe(d=2, side=3)
        coords = u.all_coords()
        assert coords.shape == (9, 2)

    def test_all_coords_simple_curve_order(self):
        # Axis 0 (paper dimension 1) varies fastest.
        u = Universe(d=2, side=2)
        expected = [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [tuple(r) for r in u.all_coords()] == expected

    def test_all_coords_unique(self):
        u = Universe(d=3, side=3)
        coords = u.all_coords()
        assert len({tuple(r) for r in coords}) == u.n

    def test_iter_cells_matches_all_coords(self):
        u = Universe(d=2, side=3)
        assert list(u.iter_cells()) == [tuple(r) for r in u.all_coords()]

    def test_coordinate_grids_values(self):
        u = Universe(d=2, side=3)
        gx, gy = u.coordinate_grids()
        assert gx[2, 1] == 2
        assert gy[2, 1] == 1

    def test_coordinate_grids_shapes(self):
        u = Universe(d=3, side=2)
        grids = u.coordinate_grids()
        assert len(grids) == 3
        assert all(g.shape == (2, 2, 2) for g in grids)


class TestValidation:
    def test_contains(self):
        u = Universe(d=2, side=4)
        mask = u.contains(np.array([[0, 0], [3, 3], [4, 0], [-1, 2]]))
        assert mask.tolist() == [True, True, False, False]

    def test_contains_wrong_dim(self):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="last axis"):
            u.contains(np.zeros((3, 3)))

    def test_validate_coords_pass(self):
        u = Universe(d=2, side=4)
        out = u.validate_coords([[1, 2]])
        assert out.dtype == np.int64

    def test_validate_coords_fail(self):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="outside"):
            u.validate_coords([[4, 0]])

    @pytest.mark.parametrize(
        "coords",
        [[[-1, 0]], [[0, -3]], [[4, 0]], [[0, 4]], [[1, 2], [3, 4]]],
    )
    def test_validate_coords_out_of_range(self, coords):
        u = Universe(d=2, side=4)
        assert not np.all(u.contains(np.asarray(coords)))
        with pytest.raises(
            ValueError, match="^coordinates outside the universe$"
        ):
            u.validate_coords(coords)

    def test_validate_coords_edges_pass(self):
        u = Universe(d=3, side=4)
        out = u.validate_coords([[0, 0, 0], [3, 3, 3], [0, 3, 1]])
        assert out.tolist() == [[0, 0, 0], [3, 3, 3], [0, 3, 1]]

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
    def test_validate_coords_empty(self, shape):
        u = Universe(d=2, side=4)
        out = u.validate_coords(np.empty(shape, dtype=np.int64))
        assert out.shape == shape and out.dtype == np.int64

    @pytest.mark.parametrize("coords", [np.zeros((3, 3)), np.zeros((0, 1))])
    def test_validate_coords_wrong_last_axis(self, coords):
        u = Universe(d=2, side=4)
        with pytest.raises(
            ValueError, match=r"^coords last axis must be d=2, got shape"
        ):
            u.validate_coords(coords)

    @pytest.mark.parametrize(
        "coords", [[[0.5, 1.9]], [[1.0, np.nan]], [[np.inf, 0.0]]]
    )
    def test_validate_coords_rejects_non_integral(self, coords):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="whole numbers"):
            u.validate_coords(coords)

    def test_index_does_not_truncate(self):
        from repro.curves.registry import make_curve

        curve = make_curve("hilbert", Universe(d=2, side=4))
        with pytest.raises(ValueError, match="whole numbers"):
            curve.index([[0.5, 1.9]])
        with pytest.raises(ValueError, match="whole numbers"):
            curve.keys_of([[0.5, 1.9]])

    @pytest.mark.parametrize("coords", [3, np.int64(0), np.array(1.0)])
    def test_validate_coords_rejects_0d(self, coords):
        u = Universe(d=1, side=4)
        with pytest.raises(ValueError, match="last axis must be d=1"):
            u.validate_coords(coords)

    @pytest.mark.parametrize(
        "ranks,coords",
        [
            (["1"], [["1", "2"]]),
            ([1 + 0j], [[1 + 0j, 0]]),
            ([2**70], [[2**70, 0]]),
        ],
    )
    def test_validate_rejects_non_numeric_dtypes(self, ranks, coords):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="must be integers"):
            u.validate_ranks(ranks)
        with pytest.raises(ValueError, match="must be integers"):
            u.validate_coords(coords)

    def test_validate_accepts_whole_floats_and_bools(self):
        u = Universe(d=2, side=4)
        out = u.validate_coords(np.array([[1.0, 3.0]]))
        assert out.dtype == np.int64 and out.tolist() == [[1, 3]]
        assert u.validate_coords([[True, False]]).tolist() == [[1, 0]]
        assert u.validate_ranks(np.array([2.0, 15.0])).tolist() == [2, 15]

    def test_validate_ranks_rejects_non_integral(self):
        from repro.curves.registry import make_curve

        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="whole numbers"):
            u.validate_ranks([1.5])
        with pytest.raises(ValueError, match="whole numbers"):
            make_curve("z", u).coords([2.5])

    def test_validate_ranks_pass(self):
        u = Universe(d=2, side=4)
        assert u.validate_ranks([0, 15]).tolist() == [0, 15]

    def test_validate_ranks_fail_high(self):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="ranks"):
            u.validate_ranks([16])

    def test_validate_ranks_fail_negative(self):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError, match="ranks"):
            u.validate_ranks([-1])


class TestBoundary:
    def test_boundary_axis_count_corners(self):
        u = Universe(d=2, side=4)
        b = u.boundary_axis_count()
        assert b[0, 0] == 2
        assert b[0, 1] == 1
        assert b[1, 1] == 0
        assert b[3, 3] == 2

    def test_interior_mask_count(self):
        u = Universe(d=2, side=4)
        assert int(u.interior_mask().sum()) == 4  # (4-2)^2

    def test_interior_cell_count_formula(self):
        for d, side in [(1, 5), (2, 4), (3, 3), (2, 2)]:
            u = Universe(d=d, side=side)
            assert u.interior_cell_count() == int(u.interior_mask().sum())

    def test_boundary_mask_complements_interior(self):
        u = Universe(d=3, side=4)
        assert bool(np.all(u.boundary_mask() ^ u.interior_mask()))

    def test_side_one_all_boundary(self):
        # With side == 1 every coordinate is 0 == side-1 on every axis.
        u = Universe(d=2, side=1)
        assert u.boundary_axis_count()[0, 0] == 2

    def test_side_two_everything_boundary(self):
        u = Universe(d=2, side=2)
        assert u.interior_cell_count() == 0
        assert bool(np.all(u.boundary_mask()))
