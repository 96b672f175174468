"""Tests for the rough path algebra: Chen composition, lifts, norms, CSV I/O."""

import inspect
import warnings

import numpy as np
import pytest
from helpers import chen_fold
from hypothesis import given, settings
from hypothesis import strategies as st

from rdeinv.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidGrid,
    InvalidParameter,
)
from rdeinv.roughpath import (
    GridRoughPath,
    RoughIncrement,
    area_components,
    area_matrix,
    chen_mul,
    circle_samples,
    coarsen,
    holder_norms,
    make_linear_rough_path,
    read_path_csv,
    refine,
    sample_brownian_fine,
    sample_brownian_lift,
    write_path_csv,
)


def random_increment(rng, ell):
    x = rng.standard_normal(ell)
    raw = rng.standard_normal((ell, ell))
    return RoughIncrement(x, 0.5 * (raw - raw.T))


class TestRoughIncrement:
    def test_antisymmetrizes_roundoff(self):
        a = np.array([[0.0, 1.0], [-1.0 + 1e-12, 0.0]])
        inc = RoughIncrement([0.0, 0.0], a)
        assert np.max(np.abs(inc.a + inc.a.T)) == 0.0

    def test_rejects_symmetric_residue(self):
        a = np.array([[0.0, 1.0], [-0.9, 0.0]])
        with pytest.raises(InvalidParameter):
            RoughIncrement([0.0, 0.0], a)

    def test_rejects_nan_area(self):
        # NaN > tol is false, so the check must be phrased as not residue <= tol
        with pytest.raises(InvalidParameter):
            RoughIncrement([0.0, 1.0], [[np.nan, 1.0], [5.0, 0.0]])
        with pytest.raises(InvalidParameter):
            RoughIncrement([0.0, 1.0], [[0.0, np.nan], [-np.nan, 0.0]])

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [[0.0, 1.0], [np.inf, 0.0]]], ids=["one", "stack"])
    def test_rejects_non_finite_x(self, x):
        # as a non-finite area is rejected: no step can take NaN from the increment silently
        with pytest.raises(InvalidParameter, match="increment x has non-finite entries"):
            RoughIncrement(x)

    def test_rejects_infinite_area_before_the_residue_test(self):
        # inf + (-inf) in the residue would warn; the finiteness check comes first
        with pytest.raises(InvalidParameter, match="non-finite entries"):
            RoughIncrement([0.0, 1.0], [[0.0, np.inf], [-np.inf, 0.0]])

    def test_rejects_area_that_overflows_when_antisymmetrized(self):
        with pytest.raises(InvalidParameter, match="overflow when antisymmetrized"):
            RoughIncrement([0.0, 1.0], [[0.0, 1e308], [-1e308, 0.0]])

    def test_second_level_symmetric_part_is_structural(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inc = random_increment(rng, 3)
            # the stored area is exactly antisymmetric, so the symmetric part
            # of the materialised second level can only be 0.5 * outer(x, x)
            assert np.array_equal(inc.a, -inc.a.T)
            xx = inc.second_level
            sym = 0.5 * (xx + xx.T)
            scale = 1e-15 * (1.0 + np.max(np.abs(xx)))
            np.testing.assert_allclose(sym, 0.5 * np.outer(inc.x, inc.x), atol=scale)

    def test_shape_errors(self):
        for x in (1.0, np.zeros(0), np.zeros((0, 2)), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatch, match="shape"):
                RoughIncrement(x)
        with pytest.raises(DimensionMismatch):
            RoughIncrement(np.zeros(2), np.zeros((3, 3)))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_stack_rows_are_single_increments(self, n, ell, seed):
        # row k of a stack is bitwise the increment of row k alone, the round-off
        # residues of its area included, and a NaN in any row's area is rejected
        rng = np.random.default_rng(seed)
        xs, raw = rng.standard_normal((n, ell)), rng.standard_normal((n, ell, ell))
        areas = raw - np.swapaxes(raw, 1, 2) + 1e-12 * rng.standard_normal((n, ell, ell))
        stack = RoughIncrement(xs, areas)
        assert stack.ell == ell
        for k in range(n):
            one = RoughIncrement(xs[k], areas[k])
            for attr in ("x", "a", "second_level"):
                assert getattr(stack, attr)[k].tobytes() == getattr(one, attr).tobytes(), attr
        areas[rng.integers(n), rng.integers(ell), rng.integers(ell)] = np.nan
        with pytest.raises(InvalidParameter):
            RoughIncrement(xs, areas)

    def test_stack_errors(self):
        with pytest.raises(DimensionMismatch):
            RoughIncrement(np.zeros((4, 2)), np.zeros((2, 2)))
        raw = np.zeros((4, 2, 2))
        raw[1, 0, 1] = 1.0  # upper triangle only: not an area
        with pytest.raises(InvalidParameter):
            RoughIncrement(np.zeros((4, 2)), raw)


class TestChenMul:
    def test_identity(self):
        z = RoughIncrement(np.zeros(2))
        out = chen_mul(z, z)
        assert np.all(out.x == 0) and np.all(out.a == 0)

    def test_collinear_segments_have_no_area(self):
        v = np.array([0.3, -1.2, 0.7])
        seg = RoughIncrement(v)
        out = chen_mul(seg, seg)
        np.testing.assert_array_equal(out.x, 2 * v)
        assert np.max(np.abs(out.a)) == 0.0

    def test_unit_square_corner_area(self):
        # e1 then e2: area of the triangle under the two segments is 1/2
        e1 = RoughIncrement([1.0, 0.0])
        e2 = RoughIncrement([0.0, 1.0])
        out = chen_mul(e1, e2)
        np.testing.assert_allclose(out.x, [1.0, 1.0])
        assert out.a[0, 1] == 0.5
        assert out.a[1, 0] == -0.5

    def test_associativity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b, c = (random_increment(rng, 3) for _ in range(3))
            left = chen_mul(chen_mul(a, b), c)
            right = chen_mul(a, chen_mul(b, c))
            scale = 1.0 + np.linalg.norm(left.second_level)
            assert np.linalg.norm(left.x - right.x) <= 1e-10 * scale
            assert np.linalg.norm(left.a - right.a) <= 1e-10 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chen_mul(RoughIncrement(np.zeros(2)), RoughIncrement(np.zeros(3)))


class TestGridRoughPath:
    def test_validation(self):
        with pytest.raises(InvalidGrid):
            GridRoughPath([0.0, 0.0], np.zeros((2, 1)))
        with pytest.raises(InvalidGrid):
            GridRoughPath([0.0, 1.0], np.zeros((3, 1)))
        with pytest.raises(InvalidGrid, match="need at least two grid times"):
            GridRoughPath([0.0], np.zeros((1, 1)))
        with pytest.raises(InvalidGrid, match=r"step_areas must have shape \(2, 2, 2\)"):
            GridRoughPath([0.0, 0.5, 1.0], np.zeros((3, 2)), np.zeros((3, 2, 2)))

    def test_one_dimensional_values_are_one_channel(self):
        path = GridRoughPath([0.0, 0.5, 1.0], [0.0, 1.0, 3.0])
        assert path.ell == 1
        np.testing.assert_array_equal(path.values, [[0.0], [1.0], [3.0]])

    def test_a_path_is_its_data(self):
        # no stored Holder exponent: the constructor, the slots and the repr carry none
        assert list(inspect.signature(GridRoughPath).parameters) == ["times", "values", "step_areas"]
        path = sample_brownian_lift(2, 2, 2, 1.0, seed=0)
        assert GridRoughPath.__slots__ == ("times", "values", "step_areas", "_prefix")
        assert repr(path) == "GridRoughPath(n=2, ell=2)"
        with pytest.raises(TypeError):
            GridRoughPath([0.0, 1.0], np.zeros((2, 1)), None, 0.4)

    @pytest.mark.parametrize(
        "times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.0, 1.0], [np.nan] * 3]
    )
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(InvalidGrid, match="finite"):
            GridRoughPath(times, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        values = np.zeros((3, 2))
        values[1, 0] = bad
        with pytest.raises(InvalidGrid, match="path values must be finite"):
            GridRoughPath([0.0, 0.5, 1.0], values)

    def test_rejects_nan_step_area(self):
        areas = np.zeros((2, 2, 2))
        areas[1] = [[np.nan, 1.0], [5.0, 0.0]]
        with pytest.raises(InvalidParameter):
            GridRoughPath([0.0, 0.5, 1.0], np.zeros((3, 2)), areas)

    def test_overflowing_span_raises_without_warning(self):
        # finite values whose span over [t_1, t_2] overflows
        values = [[0.0, 0.0], [0.0, 1e308], [0.0, -1e308], [0.0, 0.0]]
        path = GridRoughPath([0.0, 1.0, 2.0, 3.0], values)
        with pytest.raises(InvalidParameter, match="non-finite entries"):
            path.increment(1, 2)
        with pytest.raises(InvalidParameter, match="non-finite entries"):
            coarsen(path, 3)

    def test_single_step_is_stored_data(self):
        rng = np.random.default_rng(1)
        times = np.array([0.0, 0.5, 1.3])
        values = rng.standard_normal((3, 2))
        raw = rng.standard_normal((2, 2, 2))
        areas = 0.5 * (raw - np.swapaxes(raw, 1, 2))
        path = GridRoughPath(times, values, areas)
        inc = path.increment(1, 2)
        np.testing.assert_array_equal(inc.x, values[2] - values[1])
        np.testing.assert_allclose(inc.a, areas[1], atol=1e-16)

    def test_fold_grouping_agrees(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((4, 2))
        raw = rng.standard_normal((3, 2, 2))
        areas = 0.5 * (raw - np.swapaxes(raw, 1, 2))
        path = GridRoughPath(np.arange(4.0), values, areas)
        direct = path.increment(0, 3)
        grouped = chen_mul(
            path.increment(0, 1), chen_mul(path.increment(1, 2), path.increment(2, 3))
        )
        np.testing.assert_allclose(direct.x, grouped.x, atol=1e-12)
        np.testing.assert_allclose(direct.a, grouped.a, atol=1e-12)

    def test_chen_consistency_midpoint(self):
        rng = np.random.default_rng(3)
        path = sample_brownian_lift(2, 8, 4, 1.0, seed=5)
        for i, j, k in [(0, 3, 8), (1, 2, 6), (0, 4, 5)]:
            whole = path.increment(i, k)
            glued = chen_mul(path.increment(i, j), path.increment(j, k))
            np.testing.assert_allclose(whole.x, glued.x, atol=1e-12)
            np.testing.assert_allclose(whole.a, glued.a, atol=1e-12)

    def test_linear_path_total_has_no_area(self):
        v = np.array([1.0, 2.0])
        times = np.linspace(0.0, 3.0, 7)
        path = GridRoughPath(times, np.outer(times, v))
        inc = path.increment(0, path.n)
        np.testing.assert_allclose(inc.x, 3.0 * v, atol=1e-14)
        assert np.max(np.abs(inc.a)) < 1e-14

    def test_index_errors(self):
        path = GridRoughPath([0.0, 1.0], np.zeros((2, 1)))
        with pytest.raises(IndexOutOfRange):
            path.increment(0, 2)
        with pytest.raises(IndexOutOfRange):
            path.increment(1, 1)

    @pytest.mark.parametrize("i, j", [(0.5, 2), (True, 3), (0, 2.0), (0, np.float64(3)), (False, 1)])
    def test_index_must_be_an_integer(self, i, j):
        path = GridRoughPath(np.arange(4.0), np.arange(8.0).reshape(4, 2))
        with pytest.raises(IndexOutOfRange, match="need integers"):
            path.increment(i, j)

    def test_numpy_integer_index_is_accepted(self):
        path = GridRoughPath(np.arange(4.0), np.arange(8.0).reshape(4, 2) ** 2)
        got, want = path.increment(np.int64(1), np.int32(3)), path.increment(1, 3)
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.a, want.a)


class TestLift:
    @pytest.mark.parametrize("value", [4.0, 2.5, True, 0, np.nan])
    @pytest.mark.parametrize("entry", ["circle_samples", "make_linear_rough_path"])
    def test_sizes_must_be_integers(self, entry, value):
        name = "n" if entry == "circle_samples" else "ell"
        with pytest.raises(InvalidParameter, match=f"{name} must be an integer >= 1"):
            if entry == "circle_samples":
                circle_samples(value)
            else:
                make_linear_rough_path([1.0], value, [0.0, 1.0])

    def test_two_samples_single_step(self):
        path = GridRoughPath([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]])
        assert path.n == 1
        assert np.all(path.step_areas == 0)

    def test_circle_loop_closes_with_area_pi(self):
        times, values = circle_samples(10_000)
        path = GridRoughPath(times, values)
        inc = path.increment(0, path.n)
        assert np.linalg.norm(inc.x) <= 1e-6
        # signed area of the inscribed polygon: 0.5 * loop integral of (x-x0)dy - (y-y0)dx
        assert abs(inc.a[0, 1] - np.pi) <= 1e-4

    def test_inserting_sample_on_segment_is_invariant(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 1.0, 9))
        times[0], times[-1] = 0.0, 1.0
        values = rng.standard_normal((9, 3))
        base = GridRoughPath(times, values).increment(0, 8)
        # insert the midpoint of segment 4
        tm = 0.5 * (times[4] + times[5])
        vm = 0.5 * (values[4] + values[5])
        times2 = np.insert(times, 5, tm)
        values2 = np.insert(values, 5, vm, axis=0)
        fine = GridRoughPath(times2, values2).increment(0, 9)
        np.testing.assert_allclose(base.x, fine.x, atol=1e-10)
        np.testing.assert_allclose(base.a, fine.a, atol=1e-10)

    def test_invalid_grid(self):
        with pytest.raises(InvalidGrid):
            GridRoughPath([0.0, 1.0, 1.0], np.zeros((3, 2)))


class TestRefineCoarsen:
    def test_refine_preserves_increments(self):
        path = sample_brownian_lift(2, 6, 8, 1.0, seed=11)
        fine = refine(path, 5)
        for i, j in [(0, 6), (2, 4), (1, 5)]:
            a = path.increment(i, j)
            b = fine.increment(5 * i, 5 * j)
            np.testing.assert_allclose(a.x, b.x, atol=1e-12)
            np.testing.assert_allclose(a.a, b.a, atol=1e-12)

    def test_coarsen_matches_explicit_fold(self):
        path = sample_brownian_fine(3, 4, 8, 2.0, seed=3)
        coarse = coarsen(path, 8)
        for k in range(4):
            x, a = chen_fold(path, 8 * k, 8 * (k + 1))
            np.testing.assert_allclose(coarse.step_areas[k], a, atol=1e-12)
            np.testing.assert_allclose(coarse.values[k + 1] - coarse.values[k], x, atol=1e-12)

    @pytest.mark.parametrize("factor", [2.5, 1.9, 0, -2, 0.5, np.nan, np.inf, True, np.True_])
    def test_factor_must_be_a_positive_integer(self, factor):
        path = GridRoughPath(np.linspace(0, 1, 9), np.zeros((9, 2)))
        for op in (refine, coarsen):
            with pytest.raises(InvalidParameter, match="must be an integer >= 1"):
                op(path, factor)

    def test_integral_float_factor_is_accepted(self):
        path = sample_brownian_lift(2, 4, 4, 1.0, seed=7)
        for op, factor in ((refine, 3), (coarsen, 2)):
            want = op(path, factor)
            got = op(path, float(factor))
            for attr in ("times", "values", "step_areas"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_coarsen_requires_divisibility(self):
        path = GridRoughPath(np.linspace(0, 1, 8), np.zeros((8, 2)))
        with pytest.raises(InvalidGrid):
            coarsen(path, 3)


class TestBrownian:
    def test_deterministic_given_seed(self):
        a = sample_brownian_lift(2, 8, 4, 1.0, seed=99)
        b = sample_brownian_lift(2, 8, 4, 1.0, seed=99)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.step_areas, b.step_areas)

    def test_coarse_is_coarsened_fine(self):
        fine = sample_brownian_fine(2, 8, 4, 1.0, seed=21)
        coarse = sample_brownian_lift(2, 8, 4, 1.0, seed=21)
        again = coarsen(fine, 4)
        assert np.array_equal(coarse.values, again.values)
        assert np.array_equal(coarse.step_areas, again.step_areas)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_fine", [1, 2, 3, 8])
    def test_lift_is_bitwise_the_coarsened_fine_lift(self, ell, n_fine):
        # the coarse areas are formed straight from the fine samples, sign of zero included
        for seed, n_coarse, horizon in [(0, 1, 1.0), (1, 16, 50.0), (2, 33, 1e-3)]:
            coarse = sample_brownian_lift(ell, n_coarse, n_fine, horizon, seed)
            again = coarsen(sample_brownian_fine(ell, n_coarse, n_fine, horizon, seed), n_fine)
            for attr in ("times", "values", "step_areas"):
                assert getattr(coarse, attr).tobytes() == getattr(again, attr).tobytes(), attr

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("sampler", [sample_brownian_lift, sample_brownian_fine])
    def test_seed_must_be_a_non_negative_integer(self, sampler, seed):
        with pytest.raises(InvalidParameter, match="seed must be an integer >= 0"):
            sampler(2, 4, 2, 1.0, seed)

    def test_numpy_integer_seed_is_accepted(self):
        got = sample_brownian_lift(2, 4, 2, 1.0, np.int64(3))
        assert np.array_equal(got.values, sample_brownian_lift(2, 4, 2, 1.0, 3).values)

    def test_one_dimensional_has_no_area(self):
        path = sample_brownian_lift(1, 8, 8, 1.0, seed=0)
        assert np.all(path.step_areas == 0)

    def test_area_second_moment(self):
        # E[A_T^2] = T^2/4; verified against an independent Monte-Carlo
        # estimator built from raw Stratonovich sums before this test was frozen.
        n_mc, total = 2000, []
        for seed in range(n_mc):
            path = sample_brownian_lift(2, 4, 16, 1.0, seed=seed)
            total.append(path.increment(0, 4).a[0, 1] ** 2)
        total = np.asarray(total)
        # Var(A^2) = T^4/4 for the continuous limit; allow 3 standard errors
        se = 0.5 / np.sqrt(n_mc)
        bias = 1.0 - 1.0 / 64  # polygonal approximation with 64 steps
        assert abs(total.mean() - 0.25 * bias) <= 3 * se

    def test_area_rms_scales_like_half_interval(self):
        h, n_mc = 0.3, 800
        sq = []
        for seed in range(n_mc):
            path = sample_brownian_lift(2, 1, 64, h, seed=10_000 + seed)
            sq.append(path.increment(0, 1).a[0, 1] ** 2)
        sq = np.asarray(sq)
        se = (h * h / 2) / np.sqrt(n_mc)
        assert abs(sq.mean() - (h / 2) ** 2 * (1 - 1 / 64)) <= 3 * se

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            sample_brownian_lift(0, 4, 4, 1.0, seed=0)
        with pytest.raises(InvalidParameter):
            sample_brownian_lift(2, 4, 0, 1.0, seed=0)
        with pytest.raises(InvalidParameter):
            sample_brownian_lift(2, 4, 4, -1.0, seed=0)
        # no bare TypeError from NumPy and no truncation; True is not a size, and an
        # infinite horizon no longer warns and then fails as an InvalidGrid
        for k, key in enumerate(["ell", "n_coarse", "n_fine"]):
            for value in (2.5, 2.0, True, np.nan, "4"):
                sizes = [2, 4, 2]
                sizes[k] = value
                for sample in (sample_brownian_fine, sample_brownian_lift):
                    with pytest.raises(InvalidParameter, match=f"{key} must be an integer >= 1"):
                        sample(*sizes, 1.0, 0)
        for horizon in (np.inf, np.nan):
            for sample in (sample_brownian_fine, sample_brownian_lift):
                with pytest.raises(InvalidParameter, match="horizon must be finite and > 0"):
                    sample(2, 4, 2, horizon, 0)


class TestMakeLinear:
    def test_null_vector_gives_null_path(self):
        path = make_linear_rough_path(np.zeros(3), 2, np.linspace(0, 1, 5))
        inc = path.increment(0, 4)
        assert np.all(inc.x == 0) and np.all(inc.a == 0)

    def test_pure_area_direction(self):
        path = make_linear_rough_path([0.0, 0.0, 1.0], 2, np.linspace(0, 2, 9))
        inc = path.increment(2, 7)
        dt = path.times[7] - path.times[2]
        assert np.max(np.abs(inc.x)) == 0.0
        np.testing.assert_allclose(inc.a[0, 1], dt, atol=1e-14)

    def test_one_dimensional_line(self):
        path = make_linear_rough_path([1.0], 1, np.linspace(0, 1, 4))
        inc = path.increment(0, 3)
        np.testing.assert_allclose(inc.x, [1.0])
        assert np.all(inc.a == 0)

    def test_interval_linearity_everywhere(self):
        v = np.array([0.5, -1.0, 0.3, 0.2, -0.7, 1.1])
        times = np.linspace(0.0, 1.0, 11)
        path = make_linear_rough_path(v, 3, times)
        a_mat = area_matrix(v[3:], 3)
        for i, j in [(0, 10), (3, 7), (2, 3)]:
            dt = times[j] - times[i]
            inc = path.increment(i, j)
            np.testing.assert_allclose(inc.x, v[:3] * dt, atol=1e-13)
            np.testing.assert_allclose(inc.a, a_mat * dt, atol=1e-13)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            make_linear_rough_path([1.0, 2.0], 2, [0.0, 1.0])


class TestAreaPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for ell in (2, 3, 4):
            comps = rng.standard_normal(ell * (ell - 1) // 2)
            a = area_matrix(comps, ell)
            assert np.all(a == -a.T)
            np.testing.assert_array_equal(area_components(a), comps)

    def test_lexicographic_order(self):
        a = area_matrix([1.0, 2.0, 3.0], 3)
        assert a[0, 1] == 1.0 and a[0, 2] == 2.0 and a[1, 2] == 3.0

    def test_component_count_is_checked(self):
        with pytest.raises(DimensionMismatch, match="need 3 area components for ell=3"):
            area_matrix([1.0, 2.0], 3)


class TestHolderNorms:
    def test_constant_path(self):
        values = np.tile([2.0, -1.0], (5, 1))
        path = GridRoughPath(np.linspace(0, 1, 5), values)
        norms = holder_norms(path, 0.5)
        assert norms.sup_norm == pytest.approx(np.sqrt(5.0))
        assert norms.holder1 == 0.0
        assert norms.holder2 == 0.0

    def test_linear_path_alpha_half(self):
        v = np.array([3.0, 4.0])
        times = np.linspace(0.0, 1.0, 9)
        path = GridRoughPath(times, np.outer(times, v))
        norms = holder_norms(path, alpha=0.5)
        # (t-s)/(t-s)^0.5 is largest on the full interval, giving |v|
        assert norms.holder1 == pytest.approx(5.0, rel=1e-12)

    def test_monotone_under_refinement(self):
        coarse = GridRoughPath(*circle_samples(64))
        fine = GridRoughPath(*circle_samples(128))
        a, b = holder_norms(coarse, 0.5), holder_norms(fine, 0.5)
        assert b.sup_norm >= 0.95 * a.sup_norm
        assert b.holder1 >= 0.95 * a.holder1
        assert b.holder2 >= 0.95 * a.holder2

    def test_exponent_is_required_and_in_the_unit_interval(self):
        path = GridRoughPath(np.linspace(0.0, 1.0, 9), circle_samples(8)[1])
        with pytest.raises(TypeError):
            holder_norms(path)
        for alpha in (0.0, 1.0, -0.5, np.nan):
            with pytest.raises(InvalidParameter, match=r"alpha must lie in \(0, 1\)"):
                holder_norms(path, alpha)
        # any exponent in (0, 1) is the caller's; on steps shorter than 1 a larger one weighs more
        assert holder_norms(path, 0.9).holder1 > holder_norms(path, 0.2).holder1


class TestPathCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        path = sample_brownian_lift(3, 6, 4, 1.5, seed=13)
        file = tmp_path / "path.csv"
        write_path_csv(path, file)
        back = read_path_csv(file)
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.values, path.values)
        assert np.array_equal(back.step_areas, path.step_areas)

    def test_one_dimensional_roundtrip(self, tmp_path):
        path = sample_brownian_lift(1, 4, 4, 1.0, seed=2)
        file = tmp_path / "one.csv"
        write_path_csv(path, file)
        assert file.read_text().splitlines()[0] == "t,X1"
        back = read_path_csv(file)
        assert np.array_equal(back.values, path.values)

    def test_missing_area_columns_default_to_zero(self, tmp_path):
        file = tmp_path / "plain.csv"
        file.write_text("t,X1,X2\n0,0,0\n1,1,2\n")
        path = read_path_csv(file)
        assert np.all(path.step_areas == 0)
        np.testing.assert_array_equal(path.values, [[0.0, 0.0], [1.0, 2.0]])

    def test_alpha_is_checked_and_inert(self, tmp_path):
        # read_path_csv keeps the alpha the benchmark passes: checked, then ignored
        file = tmp_path / "path.csv"
        write_path_csv(sample_brownian_lift(2, 8, 2, 1.0, seed=4), file)
        plain, given = read_path_csv(file), read_path_csv(file, 0.4)
        for attr in ("times", "values", "step_areas"):
            assert getattr(given, attr).tobytes() == getattr(plain, attr).tobytes(), attr
        for alpha in (0.9, 1.0 / 3.0, np.nan):
            with pytest.raises(InvalidParameter, match=r"alpha must lie in \(1/3, 1/2\]"):
                read_path_csv(file, alpha)

    def test_malformed_header(self, tmp_path):
        file = tmp_path / "bad.csv"
        file.write_text("time,X1\n0,0\n1,1\n")
        with pytest.raises(InvalidGrid):
            read_path_csv(file)


def chen_scale(path, i, j):
    """1 + |A_{0i}| + |A_{0j}| + |X_{0i}||X_{ij}|: the size of the terms the Chen inverse cancels."""
    prefix = [np.linalg.norm(path.increment(0, k).a) if k else 0.0 for k in (i, j)]
    x0i = np.linalg.norm(path.values[i] - path.values[0])
    return 1.0 + sum(prefix) + x0i * np.linalg.norm(path.values[j] - path.values[i])


def circle_turns(n, turns):
    """The unit circle sampled at n+1 uniform parameter values over `turns` loops."""
    times = np.linspace(0.0, 2.0 * np.pi * turns, n + 1)
    return times, np.column_stack([np.cos(times), np.sin(times)])


class TestPrefixAgainstFold:
    """Prefix-sum increments against the step-by-step Chen fold on long, large-area paths."""

    # name: (builder, coarsening factor)
    PATHS = {
        "circle_1_turn": (lambda: GridRoughPath(*circle_samples(10_000)), 16),
        "circle_3_turns": (lambda: GridRoughPath(*circle_turns(10_000, 3.0)), 16),
        "brownian_65536": (lambda: sample_brownian_fine(2, 16384, 4, 1.0, 0), 256),
        "brownian_ell3": (lambda: sample_brownian_lift(3, 2048, 8, 1.0, 7), 8),
    }

    def assert_matches_fold(self, path, i, j, x, a):
        want_x, want_a = chen_fold(path, i, j)
        tol = 1e-12 * chen_scale(path, i, j)
        assert np.max(np.abs(x - want_x)) <= tol, (i, j)
        assert np.max(np.abs(a - want_a)) <= tol, (i, j)

    @pytest.mark.parametrize("name", PATHS)
    def test_increment(self, name):
        path = self.PATHS[name][0]()
        rng = np.random.default_rng(17)
        pairs = [sorted(rng.choice(path.n + 1, 2, replace=False).tolist()) for _ in range(6)]
        pairs += [(0, path.n), (path.n - 2, path.n - 1), (path.n - 1, path.n)]
        for i, j in pairs:
            inc = path.increment(i, j)
            self.assert_matches_fold(path, i, j, inc.x, inc.a)

    @pytest.mark.parametrize("name", PATHS)
    def test_coarsen(self, name):
        build, factor = self.PATHS[name]
        path = build()
        coarse = coarsen(path, factor)
        for k in range(coarse.n):
            i, j = factor * k, factor * (k + 1)
            dx = coarse.values[k + 1] - coarse.values[k]
            self.assert_matches_fold(path, i, j, dx, coarse.step_areas[k])

    def test_huge_values_build_without_warnings(self):
        values = [[0.0, 0.0], [1e300, -1e300], [-1e300, 1e300]]
        areas = area_matrix([[1e300], [-1e300]], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = GridRoughPath([0.0, 1.0, 2.0], values, areas)
        np.testing.assert_array_equal(path.step_areas, areas)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
moderate = st.floats(min_value=-100.0, max_value=100.0)


@st.composite
def rough_paths(draw, min_steps=1):
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(min_steps, 8))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(draw(st.lists(moderate, min_size=(n + 1) * ell, max_size=(n + 1) * ell)))
    n_comps = n * ell * (ell - 1) // 2
    comps = np.array(draw(st.lists(moderate, min_size=n_comps, max_size=n_comps)))
    areas = area_matrix(comps.reshape(n, -1), ell)
    return GridRoughPath(times, values.reshape(n + 1, ell), areas)


def roundoff(path):
    """Round-off scale of any Chen product of this path's data."""
    return 1e-12 * (1.0 + np.abs(path.values).max() ** 2 + np.abs(path.step_areas).sum())


@PROPERTY
@given(rough_paths(), st.integers(1, 5))
def test_coarsen_undoes_refine(path, factor):
    back = coarsen(refine(path, factor), factor)
    np.testing.assert_array_equal(back.times, path.times)
    np.testing.assert_array_equal(back.values, path.values)
    np.testing.assert_allclose(back.step_areas, path.step_areas, rtol=0, atol=roundoff(path))


@PROPERTY
@given(rough_paths(min_steps=2), st.data())
def test_increment_is_chen_product_of_its_halves(path, data):
    ends = st.lists(st.integers(0, path.n), min_size=3, max_size=3, unique=True)
    i, j, k = sorted(data.draw(ends))
    whole = path.increment(i, k)
    glued = chen_mul(path.increment(i, j), path.increment(j, k))
    np.testing.assert_allclose(glued.x, whole.x, rtol=0, atol=roundoff(path))
    np.testing.assert_allclose(glued.a, whole.a, rtol=0, atol=roundoff(path))
