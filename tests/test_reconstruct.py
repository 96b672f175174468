"""Tests for driver recovery: rank test, local minimisation, stitching, search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    fit_slope,
    minimize_least_squares,
    named_systems,
    reconstruct_oracle,
    rolling_ball_generator,
)
from rdeinv import reconstruct
from rdeinv.errors import (
    DegenerateField,
    DimensionMismatch,
    DomainViolation,
    InvalidGrid,
    InvalidParameter,
    NonFinite,
    NotConverged,
    OutOfNeighborhood,
    RankDeficient,
    RdeinvError,
)
from rdeinv.rde import (
    ObservationSet, euler2_step, logode_step, observe_flow, observe_flows, solve,
)
from rdeinv.reconstruct import (
    ReconstructionResult,
    doss_sussmann_1d,
    flow_map,
    local_reconstruct_flow,
    local_reconstruct_taylor,
    read_observations_csv,
    reconstruct_many,
    reconstruction_matrix,
    reconstruction_report,
    search_points,
    stitch,
    taylor_map,
    trust_region,
    write_observations_csv,
)
from rdeinv.roughpath import (
    RoughIncrement,
    area_matrix,
    circle_samples,
    lift_piecewise_linear,
    make_linear_rough_path,
    sample_brownian_lift,
)
from rdeinv.systems import (
    ROLLING_BALL_A1,
    ROLLING_BALL_A2,
    constant_fields,
    cvt,
    kohn,
    rolling_ball,
    triple_product,
    unicycle,
)
from rdeinv.vectorfields import VectorFieldSet, bracket


def scalar_linear_field():
    return VectorFieldSet([lambda x: x.copy()], d=1, jacs=[lambda x: np.eye(1)])


def unit_field():
    return VectorFieldSet([lambda x: np.ones(1)], d=1, jacs=[lambda x: np.zeros((1, 1))])


def taylor_map_at_zero(V, points):
    return taylor_map(V, points, np.zeros(V.ell), np.zeros((V.ell, V.ell)))


def flow_map_at_zero(V, points):
    return flow_map(V, points, np.zeros(V.ell), np.zeros((V.ell, V.ell)))


class TestReconstructionMatrix:
    def test_triple_product_rank_six_with_three_points(self):
        sys = triple_product()
        rm = reconstruction_matrix(sys.fields, sys.recommended_points)
        assert rm.m == 6 and rm.rank == 6
        assert rm.mat.shape == (9, 6)

    def test_triple_product_two_points_always_rank_five(self):
        # every 2-point matrix of this system is singular; at (1,1,1),(1,2,3)
        # the kernel direction is exactly (5, -32, 27, 2, 3, -30)
        sys = triple_product()
        rm = reconstruction_matrix(sys.fields, [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        assert rm.rank == 5
        kernel = np.array([5.0, -32.0, 27.0, 2.0, 3.0, -30.0])
        assert np.max(np.abs(rm.mat @ kernel)) == 0.0
        rng = np.random.default_rng(12)
        for _ in range(20):
            pts = rng.uniform(-2.0, 2.0, (2, 3))
            assert reconstruction_matrix(sys.fields, pts).rank <= 5

    def test_kohn_always_degenerate_for_two_pairs(self):
        sys = kohn(2)
        rng = np.random.default_rng(0)
        for c in (1, 3, 8):
            points = rng.standard_normal((c, 5))
            rm = reconstruction_matrix(sys.fields, points)
            assert rm.m == 10
            assert rm.rank == 5 < rm.m

    def test_kohn_one_pair_is_full_rank(self):
        # the single bracket spans the vertical direction: rank m at any point
        sys = kohn(1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rm = reconstruction_matrix(sys.fields, [rng.standard_normal(3)])
            assert rm.rank == rm.m == 3

    def test_constant_fields_rank_ell(self):
        sys = constant_fields(2, 4)
        rm = reconstruction_matrix(sys.fields, np.zeros((1, 4)))
        assert rm.rank == 2 and rm.m == 3
        assert np.all(rm.mat[:, 2] == 0)

    def test_column_order_unicycle_at_origin(self):
        sys = unicycle()
        rm = reconstruction_matrix(sys.fields, [np.zeros(3)])
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(rm.mat, expected, atol=1e-14)

    def test_zero_matrix_rank_zero(self):
        sys = triple_product()
        rm = reconstruction_matrix(sys.fields, [[1.0, 0.0, 0.0]])
        assert rm.rank == 0

    def test_blocks_equal_per_point_fields_and_brackets(self):
        # reference: single-state field values and one bracket call per bracket column and point
        V = triple_product().fields
        points = np.random.default_rng(41).uniform(0.5, 2.0, (3, 3))
        rm = reconstruction_matrix(V, points)
        for r, y in enumerate(points):
            cols = list(V.fields_at(y))
            cols += [bracket(V, j, k, y) for j in range(3) for k in range(j + 1, 3)]
            np.testing.assert_allclose(rm.mat[3 * r : 3 * r + 3], np.column_stack(cols), atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_rejected(self, bad):
        V, points = unicycle().fields, [[0.0, 0.0, 0.0], [0.0, bad, 0.0]]
        for fn in (reconstruction_matrix, trust_region, taylor_map_at_zero, flow_map_at_zero):
            with pytest.raises(InvalidParameter, match="base points must be finite"):
                fn(V, points)

    def test_overflowing_field_values_raise_non_finite(self):
        # triple_product's fields multiply coordinates, which overflow at 1e200;
        # no RuntimeWarning escapes (the suite turns one into an error)
        V = triple_product().fields
        points = np.array([[1e200, 1e200, 1.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        for fn in (reconstruction_matrix, trust_region, taylor_map_at_zero):
            with pytest.raises(NonFinite, match="not finite"):
                fn(V, points)
        obs = ObservationSet(points, 0.0, 1.0, points.copy())
        for method in ("taylor", "flow"):
            with pytest.raises(NonFinite, match="not finite"):
                reconstruct_many(V, [obs], method)


class TestTaylorMap:
    def test_zero_parameters_return_base_points(self):
        sys = triple_product()
        points = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        got = taylor_map(sys.fields, points, np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_array_equal(got, points.ravel())

    def test_constant_fields_linear(self):
        sys = constant_fields(2, 3)
        points = np.array([[0.0, 0.0, 1.0]])
        got = taylor_map(
            sys.fields, points, np.array([0.5, -1.0]), area_matrix([2.0], 2)
        )
        np.testing.assert_array_equal(got, [0.5, -1.0, 1.0])

    def test_rolling_ball_algebraic_form(self):
        # for linear fields the map is exactly I + L + 0.5 L^2 + B^{12} [A2, A1]
        sys = rolling_ball()
        a = np.array([0.07, -0.04])
        b = 0.03
        lin = a[0] * ROLLING_BALL_A1 + a[1] * ROLLING_BALL_A2
        comm = ROLLING_BALL_A2 @ ROLLING_BALL_A1 - ROLLING_BALL_A1 @ ROLLING_BALL_A2
        expected = np.eye(3) + lin + 0.5 * lin @ lin + b * comm
        got = taylor_map(sys.fields, [np.eye(3).ravel()], a, area_matrix([b], 2))
        np.testing.assert_allclose(got, expected.ravel(), atol=1e-14)

    def test_agrees_with_exp_truncation_to_third_order(self):
        sys = rolling_ball()
        base = [np.eye(3).ravel()]
        gaps, scales = [], []
        for eps in (0.2, 0.1, 0.05, 0.025):
            a = np.array([eps, -0.5 * eps])
            b = 0.3 * eps * eps
            w = rolling_ball_generator(a, b)
            trunc = np.eye(3) + w + 0.5 * w @ w
            got = taylor_map(sys.fields, base, a, area_matrix([b], 2))
            gaps.append(np.max(np.abs(got - trunc.ravel())))
            scales.append(eps)
        assert fit_slope(scales, gaps) >= 2.9

    def test_jacobian_at_zero_is_reconstruction_matrix(self):
        # finite differences of the map at 0 reproduce the matrix columns
        sys = triple_product()
        points = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        rm = reconstruction_matrix(sys.fields, points)
        h = 1e-7
        for col in range(6):
            theta = np.zeros(6)
            theta[col] = h
            up = taylor_map(sys.fields, points, theta[:3], area_matrix(theta[3:], 3))
            theta[col] = -h
            dn = taylor_map(sys.fields, points, theta[:3], area_matrix(theta[3:], 3))
            np.testing.assert_allclose((up - dn) / (2 * h), rm.mat[:, col], atol=1e-6)

    @pytest.mark.parametrize("system", named_systems(), ids=lambda s: s.name)
    def test_equals_the_euler2_step_at_every_base_point(self, system):
        # both are the level-2 expansion x + A^i V_i + XX^{jk} V_jV_k of one table
        V = system.fields
        points = np.array(system.recommended_points) + 0.03
        rng = np.random.default_rng(V.ell * V.d)
        a = 0.3 * rng.standard_normal(V.ell)
        b = area_matrix(0.1 * rng.standard_normal(V.ell * (V.ell - 1) // 2), V.ell)
        got = taylor_map(V, points, a, b)
        want = np.concatenate([euler2_step(V, y, RoughIncrement(a, b)) for y in points])
        np.testing.assert_array_equal(got, want)


class TestModelParameters:
    """taylor_map and flow_map check (A, B) by the same rule, RoughIncrement's."""

    @pytest.mark.parametrize("model", [taylor_map, flow_map])
    def test_non_antisymmetric_area_is_rejected(self, model):
        points = [np.eye(3).ravel()]
        with pytest.raises(InvalidParameter, match="not antisymmetric"):
            model(rolling_ball().fields, points, np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("model", [taylor_map, flow_map])
    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros(3), np.zeros((3, 3))),  # ell = 3 against a 2-field set
            (np.zeros(2), np.zeros((3, 3))),
            (np.zeros(2), np.zeros(2)),
            (0.3, np.zeros((2, 2))),  # a scalar is neither one increment nor a stack
        ],
        ids=["wrong_ell", "area_shape", "area_vector", "scalar"],
    )
    def test_wrong_sizes_are_rejected(self, model, a, b):
        with pytest.raises(DimensionMismatch):
            model(rolling_ball().fields, [np.eye(3).ravel()], a, b)

    def test_per_problem_points_are_rejected(self):
        # the points are one (c, d) set shared by every parameter row
        V = triple_product().fields
        with pytest.raises(DimensionMismatch, match=r"got \(4, 2, 3\)"):
            flow_map(V, np.ones((4, 2, 3)), np.zeros((4, 3)), np.zeros((4, 3, 3)))
        assert flow_map(V, np.ones((2, 3)), np.zeros((4, 3)), np.zeros((4, 3, 3))).shape == (4, 6)


class TestFlowMap:
    def test_zero_parameters_return_base_points(self):
        sys = unicycle()
        points = np.array([[0.1, 0.2, 0.3]])
        got = flow_map(sys.fields, points, np.zeros(2), np.zeros((2, 2)))
        np.testing.assert_array_equal(got, points.ravel())

    def test_rolling_ball_matches_matrix_exponential(self):
        sys = rolling_ball()
        a = np.array([0.3, -0.2])
        b = 0.12
        got = flow_map(sys.fields, [np.eye(3).ravel()], a, area_matrix([b], 2), n_sub=32)
        oracle = expm(rolling_ball_generator(a, b)).ravel()
        assert np.max(np.abs(got - oracle)) < 1e-8

    @pytest.mark.parametrize("n_sub", [2.5, np.nan, np.inf, 0])
    def test_non_integer_n_sub_is_rejected(self, n_sub):
        V, points = unicycle().fields, np.array([[0.1, 0.2, 0.3]])
        for a, b in ((np.zeros(2), np.zeros((2, 2))), (np.zeros((4, 2)), np.zeros((4, 2, 2)))):
            with pytest.raises(InvalidParameter, match="n_sub must be an integer >= 1"):
                flow_map(V, points, a, b, n_sub=n_sub)

    def test_points_equal_single_state_steps(self):
        V = triple_product().fields
        points = np.random.default_rng(42).uniform(0.5, 2.0, (3, 3))
        a, b = np.array([0.1, -0.2, 0.15]), area_matrix([0.02, -0.01, 0.03], 3)
        got = flow_map(V, points, a, b, n_sub=8)
        want = np.concatenate([logode_step(V, y, RoughIncrement(a, b), 8) for y in points])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_probe_stack_equals_one_flow_map_per_probe(self):
        # the flow method's finite-difference Jacobian runs all probes as one stack
        V = triple_product().fields
        points = np.array(triple_product().recommended_points)
        rng = np.random.default_rng(43)
        xs = 0.1 * rng.standard_normal((12, 3))
        areas = area_matrix(0.01 * rng.standard_normal((12, 3)), 3)
        stack = RoughIncrement(np.repeat(xs, 3, axis=0), np.repeat(areas, 3, axis=0))
        got = logode_step(V, np.tile(points, (12, 1)), stack, 8).reshape(12, -1)
        for k in range(12):
            want = flow_map(V, points, xs[k], areas[k], n_sub=8)
            np.testing.assert_allclose(got[k], want, rtol=1e-13, atol=1e-15)

    def test_parameter_stacks_equal_one_flow_map_per_problem(self):
        # (K, ell) / (K, ell, ell) stacks at shared base points
        sys = triple_product()
        points = np.array(sys.recommended_points)
        rng = np.random.default_rng(44)
        xs = 0.1 * rng.standard_normal((5, 3))
        areas = area_matrix(0.01 * rng.standard_normal((5, 3)), 3)
        shared = flow_map(sys.fields, points, xs, areas, n_sub=8)
        assert shared.shape == (5, 9)
        for k in range(5):
            np.testing.assert_array_equal(shared[k], flow_map(sys.fields, points, xs[k], areas[k], 8))

    def test_flow_and_taylor_agree_to_third_order(self):
        sys = rolling_ball()
        base = [np.eye(3).ravel()]
        gaps, scales = [], []
        for eps in (0.2, 0.1, 0.05, 0.025):
            a = np.array([0.8 * eps, 0.6 * eps])
            bmat = area_matrix([0.25 * eps * eps], 2)
            fm = flow_map(sys.fields, base, a, bmat, n_sub=64)
            tm = taylor_map(sys.fields, base, a, bmat)
            gaps.append(np.max(np.abs(fm - tm)))
            scales.append(eps)
        assert fit_slope(scales, gaps) >= 2.9


class TestTrustRegion:
    def test_orthonormal_columns_give_unit_eps1(self):
        sys = unicycle()
        eps1, eps2 = trust_region(sys.fields, [np.zeros(3)])
        assert eps1 == pytest.approx(1.0, abs=1e-12)
        assert 0 < eps2 < np.inf

    def test_rolling_ball_eps2_frozen_value(self):
        sys = rolling_ball()
        eps1, eps2 = trust_region(sys.fields, [np.eye(3).ravel()])
        expected = 1.0 / (2.0 * (2.0 + 2.0 * np.sqrt(2.0)))
        assert abs(eps2 - expected) <= 1e-12

    def test_eps1_is_reciprocal_pseudoinverse_norm(self):
        sys = triple_product()
        points = sys.recommended_points
        eps1, _ = trust_region(sys.fields, points)
        rm = reconstruction_matrix(sys.fields, points)
        pinv_norm = np.linalg.norm(np.linalg.pinv(rm.mat), 2)
        assert abs(eps1 - 1.0 / pinv_norm) <= 1e-10

    def test_rank_deficient_raises(self):
        sys = constant_fields(2, 2)
        with pytest.raises(RankDeficient):
            trust_region(sys.fields, [np.zeros(2)])


def circle_truth_and_observations(n_fine, top, base_points, n_internal=1, n_sub=4):
    """Fine circle lift, its dyadic increments from 0 and flow observations."""
    sys = rolling_ball()
    fine = lift_piecewise_linear(*circle_samples(n_fine))
    data = []
    for k in range(5):
        j = top >> k
        inc = fine.increment(0, j)
        obs = observe_flow(sys.fields, base_points, fine, 0, j, n_internal, n_sub)
        data.append((float(fine.times[j]), inc, obs))
    return sys, data


class TestLocalReconstructTaylor:
    def test_identity_observations_recover_zero(self):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        obs = ObservationSet(base, 0.0, 1.0, base.copy())
        res = local_reconstruct_taylor(sys.fields, obs)
        assert np.all(res.a_hat == 0) and np.all(res.b_hat == 0)
        assert res.residual == 0.0
        assert res.method == "taylor"

    def test_constant_fields_rank_deficient(self):
        sys = constant_fields(2, 2)
        base = np.zeros((1, 2))
        obs = ObservationSet(base, 0.0, 1.0, base + 0.1)
        with pytest.raises(RankDeficient):
            local_reconstruct_taylor(sys.fields, obs)

    def test_circle_driver_order_three(self):
        sys, data = circle_truth_and_observations(2**13, 512, [np.eye(3).ravel()])
        lengths, errors = [], []
        for t, inc, obs in data:
            res = local_reconstruct_taylor(sys.fields, obs)
            err = np.linalg.norm(res.a_hat - inc.x) + np.linalg.norm(res.b_hat - inc.a)
            lengths.append(t)
            errors.append(err)
        assert fit_slope(lengths, errors) >= 2.5

    def test_trust_region_warning_fires(self):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        big = flow_map(sys.fields, base, np.array([0.8, -0.6]), area_matrix([0.2], 2))
        obs = ObservationSet(base, 0.0, 1.0, big.reshape(1, 9))
        res = local_reconstruct_taylor(sys.fields, obs)
        assert "trust_region_exceeded" in res.warnings


class TestEuler2TrajectoryInversion:
    """Over one grid step the Taylor model is the euler2 step term for term, so Taylor
    recovery on the single-step intervals of an euler2 trajectory, base point x(s) and
    image x(t), returns the driver's step increments: recovery from one observed path."""

    @pytest.mark.parametrize("system", [rolling_ball(), unicycle()], ids=lambda s: s.name)
    def test_recovers_every_step_of_a_brownian_driver(self, system):
        V = system.fields
        path = sample_brownian_lift(2, 256, 4, 1.0, 0)
        traj = solve(V, system.recommended_points[0], path, method="euler2")
        obs_list = [
            ObservationSet(traj.states[s], traj.times[s], traj.times[s + 1], traj.states[s + 1])
            for s in range(path.n)
        ]
        got = reconstruct_many(V, obs_list, "taylor")
        np.testing.assert_allclose(
            [res.a_hat for res in got], np.diff(path.values, axis=0), rtol=0, atol=1e-10
        )
        np.testing.assert_allclose([res.b_hat for res in got], path.step_areas, rtol=0, atol=1e-10)


class TestLocalReconstructFlow:
    def test_identity_observations_recover_zero(self):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        obs = ObservationSet(base, 0.0, 1.0, base.copy())
        res = local_reconstruct_flow(sys.fields, obs)
        assert np.linalg.norm(res.a_hat) < 1e-12 and np.linalg.norm(res.b_hat) < 1e-12

    def test_scalar_translation_is_exact(self):
        fields = unit_field()
        obs = ObservationSet(np.array([[0.7]]), 0.0, 1.0, np.array([[1.3]]))
        res = local_reconstruct_flow(fields, obs)
        np.testing.assert_allclose(res.a_hat, [0.6], atol=1e-12)

    def test_circle_driver_order_three(self):
        sys, data = circle_truth_and_observations(2**13, 512, [np.eye(3).ravel()])
        lengths, errors = [], []
        for t, inc, obs in data:
            res = local_reconstruct_flow(sys.fields, obs, n_sub=16)
            err = np.linalg.norm(res.a_hat - inc.x) + np.linalg.norm(res.b_hat - inc.a)
            lengths.append(t)
            errors.append(err)
        assert fit_slope(lengths, errors) >= 2.5

    def test_methods_agree_to_third_order(self):
        sys, data = circle_truth_and_observations(2**13, 512, [np.eye(3).ravel()])
        lengths, gaps = [], []
        for t, _, obs in data:
            rt = local_reconstruct_taylor(sys.fields, obs)
            rf = local_reconstruct_flow(sys.fields, obs, n_sub=16)
            gaps.append(
                np.linalg.norm(rt.a_hat - rf.a_hat) + np.linalg.norm(rt.b_hat - rf.b_hat)
            )
            lengths.append(t)
        assert fit_slope(lengths, gaps) >= 2.5


def triple_product_intervals():
    """16 consecutive flow observations of a triple_product Brownian driver."""
    sys = triple_product()
    path = sample_brownian_lift(3, 64, 8, 0.05, 0)
    pairs = [(4 * q, 4 * q + 4) for q in range(16)]
    points = np.vstack(sys.recommended_points)
    return sys.fields, observe_flows(sys.fields, points, [path], pairs, 16)


def rolling_ball_seeds_by_levels():
    """Rolling-ball observations of 8 Brownian seeds over 4 dyadic intervals."""
    sys = rolling_ball()
    paths = [sample_brownian_lift(2, 128, 8, 1.0, seed) for seed in range(8)]
    pairs = [(0, 128 >> k) for k in range(4)]
    points = np.vstack(sys.recommended_points)
    return sys.fields, observe_flows(sys.fields, points, paths, pairs, 32)


def loop_recovery(V, obs_list, method, **kw):
    """Results and error of recovering one interval at a time."""
    results, error = [], None
    try:
        for obs in obs_list:
            results.append(reconstruct_oracle(V, obs, method, **kw))
    except NotConverged as exc:
        error = exc
    return results, error


def batched_recovery(V, obs_list, method, **kw):
    results, error = None, None
    try:
        results = reconstruct_many(V, obs_list, method, **kw)
    except NotConverged as exc:
        error = exc
    return results, error


def flagged(results):
    """How many results lie outside the injectivity radius eps2."""
    return sum("trust_region_exceeded" in res.warnings for res in results)


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.a_hat, w.a_hat)
        np.testing.assert_array_equal(g.b_hat, w.b_hat)
        np.testing.assert_array_equal(g.residual, w.residual)
        np.testing.assert_array_equal(g.residual_sup, w.residual_sup)
        np.testing.assert_array_equal(g.iterations, w.iterations)
        assert (g.eps1, g.eps2, g.method, g.warnings) == (w.eps1, w.eps2, w.method, w.warnings)


class TestReconstructMany:
    """The lockstep solver against the one-problem solver, interval by interval."""

    def test_triple_product_flow_sixteen_intervals(self):
        V, obs_list = triple_product_intervals()
        got, _ = batched_recovery(V, obs_list, "flow", n_sub=8)
        want, _ = loop_recovery(V, obs_list, "flow", n_sub=8)
        assert_same_results(got, want)
        # the intervals finish at different iterations, so problems leave the stacks
        assert len({res.iterations for res in got}) > 1

    def test_triple_product_flow_rounds(self, monkeypatch):
        # each round is one flow_map call; the recovery stops at the accuracy
        # of its finite-difference Jacobian in 5 rounds, where chasing the
        # round-off below tol took 26
        calls = []

        def counted(*args):
            calls.append(args)
            return flow_map(*args)

        monkeypatch.setattr(reconstruct, "flow_map", counted)
        V, obs_list = triple_product_intervals()
        reconstruct_many(V, obs_list, "flow", n_sub=8)
        assert 1 <= len(calls) <= 7

    def test_rolling_ball_taylor_seeds_by_levels(self):
        V, obs_list = rolling_ball_seeds_by_levels()
        got, _ = batched_recovery(V, obs_list, "taylor")
        want, _ = loop_recovery(V, obs_list, "taylor")
        assert_same_results(got, want)
        assert flagged(got) == 32

    def test_one_taylor_call_per_round(self, monkeypatch):
        # convergence_brownian's 32 sets at one base point: each round makes
        # one batched Taylor call for all pending sets, so the calls number
        # the rounds, the largest iteration count, where one set at a time
        # they would number the trial points, here the sum of the counts
        calls, level2_step = [], reconstruct._level2_step
        monkeypatch.setattr(
            reconstruct, "_level2_step", lambda *args: calls.append(1) or level2_step(*args)
        )
        V, obs_list = rolling_ball_seeds_by_levels()
        got = reconstruct_many(V, obs_list, "taylor")
        assert len(calls) == max(res.iterations for res in got) == 39
        assert sum(res.iterations for res in got) == 288

    def test_mixed_finishing_iterations_and_warnings(self):
        # an identity observation stops at the first iteration, without a warning,
        # beside problems of several sizes that run longer and leave the trust region
        sys = rolling_ball()
        points = np.vstack(sys.recommended_points)
        path = sample_brownian_lift(2, 64, 8, 1.0, 5)
        pairs = [(0, 64), (0, 4), (8, 40), (60, 62), (0, 16)]
        obs_list = observe_flows(sys.fields, points, [path], pairs, n_sub=128)
        obs_list.insert(2, ObservationSet(points, 0.0, 1.0, points.copy()))
        for method in ("taylor", "flow"):
            got, _ = batched_recovery(sys.fields, obs_list, method, n_sub=8)
            want, _ = loop_recovery(sys.fields, obs_list, method, n_sub=8)
            assert_same_results(got, want)
            assert got[2].iterations == 1 and got[2].warnings == ()
            # flow stops at its first accepted step within the Jacobian's
            # accuracy, which here leaves two distinct counts, 1 and 3
            assert len({res.iterations for res in got}) >= (3 if method == "taylor" else 2)
            assert 0 < flagged(got) < len(obs_list)

    @pytest.mark.parametrize("method", ["taylor", "flow"])
    @pytest.mark.parametrize(
        "build", [rolling_ball, unicycle, cvt, triple_product, lambda: kohn(1)],
        ids=["rolling_ball", "unicycle", "cvt", "triple_product", "kohn1"],
    )
    def test_every_system_shape_matches_one_at_a_time(self, build, method):
        # the named systems whose recommended points pass the rank test, with
        # (c, ell, d) from (1, 2, 9) to (3, 3, 3): the batched model calls give
        # every set the results, flags and error it gets alone.  Seed 11
        # keeps every system's observed flows in its domain; the cvt and
        # triple_product flow recoveries end in NotConverged on this path
        sys = build()
        points = np.vstack(sys.recommended_points)
        path = sample_brownian_lift(sys.fields.ell, 64, 8, 0.5, 11)
        pairs = [(0, 64), (0, 4), (8, 40), (60, 62), (0, 16)]
        obs_list = observe_flows(sys.fields, points, [path], pairs, n_sub=128)
        obs_list.insert(2, ObservationSet(points, 0.0, 1.0, points.copy()))
        got, got_error = batched_recovery(sys.fields, obs_list, method, n_sub=8)
        want, want_error = loop_recovery(sys.fields, obs_list, method, n_sub=8)
        if want_error is None:
            assert got_error is None
            assert_same_results(got, want)
            assert got[2].iterations == 1 and got[2].warnings == ()
        else:
            assert got is None and type(got_error) is type(want_error)
            assert str(got_error) == str(want_error)

    def test_single_problem_is_the_local_recovery(self):
        V, obs_list = triple_product_intervals()
        obs = obs_list[5]
        [flow] = reconstruct_many(V, [obs], "flow", n_sub=8)
        assert_same_results([flow], [local_reconstruct_flow(V, obs, n_sub=8)])
        assert_same_results([flow], [reconstruct_oracle(V, obs, "flow", n_sub=8)])
        [taylor] = reconstruct_many(V, [obs], "taylor")
        assert_same_results([taylor], [local_reconstruct_taylor(V, obs)])
        assert_same_results([taylor], [reconstruct_oracle(V, obs, "taylor")])

    def test_flow_trial_point_that_blows_up_is_damped(self, monkeypatch):
        # the first Gauss-Newton step of this long interval takes |A| from 0.9
        # to 2.9, where the log-ODE run blows up; that trial point is a
        # rejected step, not the end of the set, and the damped solve runs on
        errors, flow_map_alone = [], reconstruct.flow_map

        def recorded(*args):
            try:
                return flow_map_alone(*args)
            except RdeinvError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(reconstruct, "flow_map", recorded)
        sys = triple_product()
        path = sample_brownian_lift(3, 64, 8, 0.5, 2)
        obs_list = observe_flows(
            sys.fields, np.vstack(sys.recommended_points), [path], [(0, 64)], n_sub=128
        )
        got, got_error = batched_recovery(sys.fields, obs_list, "flow", n_sub=8)
        _, want_error = loop_recovery(sys.fields, obs_list, "flow", n_sub=8)
        assert errors and all(isinstance(exc, NonFinite) for exc in errors)
        assert got is None and str(got_error) == str(want_error)
        assert str(got_error) == "step norm above 1e-12 after 50 iterations"
        [taylor] = reconstruct_many(sys.fields, obs_list, "taylor")
        assert_same_results([taylor], [reconstruct_oracle(sys.fields, obs_list[0], "taylor")])

    def test_not_converged_is_the_first_failing_interval(self, monkeypatch):
        # MAX_ITER = 1: only the identity observation converges in time
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        hard = [
            ObservationSet(base, 0.0, 1.0, flow_map(sys.fields, base, a, area_matrix([b], 2)).reshape(1, 9))
            for a, b in ((np.array([0.3, -0.2]), 0.05), (np.array([-0.1, 0.4]), -0.02))
        ]
        obs_list = [ObservationSet(base, 0.0, 1.0, base.copy())] + hard
        monkeypatch.setattr(reconstruct, "MAX_ITER", 1)
        got, got_error = batched_recovery(sys.fields, obs_list, "taylor")
        _, want_error = loop_recovery(sys.fields, obs_list, "taylor", max_iter=1)
        assert got is None and type(got_error) is NotConverged
        assert str(got_error) == str(want_error) == "step norm above 1e-12 after 1 iterations"

    def test_failure_raises_after_the_warnings_before_it(self, monkeypatch):
        # the fastest interval goes first, and an iteration cap just above its
        # count fails a later one: that one's error is raised, and the intervals
        # before it recover, flagged, as they do one at a time
        V, obs_list = triple_product_intervals()
        full = reconstruct_many(V, obs_list, "flow", n_sub=8)
        order = np.argsort([res.iterations for res in full], kind="stable")
        cap = full[order[0]].iterations
        obs_list = [obs_list[k] for k in order[:1]] + [obs_list[k] for k in range(16) if k != order[0]]
        monkeypatch.setattr(reconstruct, "MAX_ITER", cap)
        got, got_error = batched_recovery(V, obs_list, "flow", n_sub=8)
        want, want_error = loop_recovery(V, obs_list, "flow", n_sub=8, max_iter=cap)
        assert got is None and 1 <= len(want) < 16
        assert type(got_error) is type(want_error) is NotConverged
        assert str(got_error) == str(want_error)
        before = reconstruct_many(V, obs_list[: len(want)], "flow", n_sub=8)
        assert_same_results(before, want)
        assert flagged(before) == len(want)

    def test_error_in_one_stacked_problem_is_that_problem_alone(self):
        # observing q = 1.2 drives the belt out of the domain of the cvt fields:
        # that problem raises as it would alone, the others run on
        sys = cvt()
        base = np.array([[0.0, 0.0, 0.0, 0.5]])

        def obs_of(a, b):
            img = flow_map(sys.fields, base, np.array(a), area_matrix([b], 2))
            return ObservationSet(base, 0.0, 1.0, img.reshape(1, 4))

        good = [obs_of([0.5, 0.3], 0.3), obs_of([2.0, -0.2], 0.1)]
        # the first bad problem leaves the domain late in its flow, the second
        # one early, so in one stack the second one raises first
        late, early = (ObservationSet(base, 0.0, 1.0, [[0.0, 0.0, 0.0, q]]) for q in (1.05, 5.0))
        with pytest.raises(DomainViolation) as alone:
            reconstruct_oracle(sys.fields, late, "flow")
        with pytest.raises(DomainViolation) as stacked:
            reconstruct_many(sys.fields, [good[0], late, good[1], early], "flow")
        assert str(stacked.value) == str(alone.value)
        got = reconstruct_many(sys.fields, good, "flow")
        assert_same_results(got, [reconstruct_oracle(sys.fields, obs, "flow") for obs in good])
        # a base point outside the domain fails the set-up of its set, after
        # a set before it that recovers
        outside = ObservationSet([[0.0, 0.0, 0.0, 1.5]], 0.0, 1.0, [[0.0, 0.0, 0.0, 1.6]])
        with pytest.raises(DomainViolation, match="got 1.5"):
            reconstruct_many(sys.fields, [good[0], outside], "taylor")

    def test_one_set_up_per_base_point_set(self, monkeypatch):
        # the 16 intervals share their base points, so the fields are evaluated
        # there once, not once per interval
        calls, point_blocks = [], reconstruct._point_blocks

        def counted(V, points):
            calls.append(np.array(points))
            return point_blocks(V, points)

        monkeypatch.setattr(reconstruct, "_point_blocks", counted)
        V, obs_list = triple_product_intervals()
        for method in ("taylor", "flow"):
            calls.clear()
            reconstruct_many(V, obs_list, method, n_sub=8)
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], obs_list[0].base_points)

    def test_same_shape_points_apart_are_set_up_apart(self, monkeypatch):
        # the groups are keyed by the base points themselves, not their shape:
        # two interleaved (1, 9) point sets are two set-ups, each recovered as
        # if alone
        sys = rolling_ball()
        one = np.eye(3).ravel()[None]
        other = expm(0.7 * ROLLING_BALL_A1 - 0.4 * ROLLING_BALL_A2).ravel()[None]
        path = sample_brownian_lift(2, 64, 8, 1.0, 7)
        pairs = [(0, 8), (16, 24), (40, 44)]
        ones = observe_flows(sys.fields, one, [path], pairs, n_sub=128)
        others = observe_flows(sys.fields, other, [path], pairs, n_sub=128)
        obs_list = [obs for pair in zip(ones, others) for obs in pair]
        calls, point_blocks = [], reconstruct._point_blocks
        monkeypatch.setattr(
            reconstruct, "_point_blocks", lambda V, p: calls.append(np.array(p)) or point_blocks(V, p)
        )
        for method in ("taylor", "flow"):
            calls.clear()
            got, _ = batched_recovery(sys.fields, obs_list, method, n_sub=8)
            assert len(calls) == 2
            np.testing.assert_array_equal(calls[0], one)
            np.testing.assert_array_equal(calls[1], other)
            want, _ = loop_recovery(sys.fields, obs_list, method, n_sub=8)
            assert_same_results(got, want)

    def test_failed_set_up_is_made_once_for_its_group(self, monkeypatch):
        # two sets at the zero state share one failing set-up; the error raised
        # is the one the first of them gives alone
        sys = rolling_ball()
        one = np.eye(3).ravel()[None]
        path = sample_brownian_lift(2, 64, 8, 1.0, 7)
        [good] = observe_flows(sys.fields, one, [path], [(0, 8)], 128)
        zeros = [ObservationSet(np.zeros((1, 9)), 0.0, t, np.zeros((1, 9))) for t in (0.5, 1.0)]
        calls, point_blocks = [], reconstruct._point_blocks
        monkeypatch.setattr(
            reconstruct, "_point_blocks", lambda V, p: calls.append(1) or point_blocks(V, p)
        )
        for method in ("taylor", "flow"):
            with pytest.raises(RankDeficient) as alone:
                reconstruct_oracle(sys.fields, zeros[0], method, n_sub=8)
            calls.clear()
            with pytest.raises(RankDeficient) as stacked:
                reconstruct_many(sys.fields, [zeros[0], good, zeros[1]], method, n_sub=8)
            assert str(stacked.value) == str(alone.value)
            assert len(calls) == 2  # one set-up at the zero state, one at `one`

    def test_mixed_base_point_shapes(self, monkeypatch):
        # sets with one and with two base points interleave, so the two
        # base-point groups run one after the other; results, flags and the
        # error of a rank-0 set at the zero state are still those of set order
        sys = rolling_ball()
        one = np.eye(3).ravel()[None]
        two = np.vstack([one, expm(0.7 * ROLLING_BALL_A1 - 0.4 * ROLLING_BALL_A2).ravel()])
        path = sample_brownian_lift(2, 64, 8, 1.0, 7)
        pairs = [(0, 64), (0, 8), (16, 48), (40, 44)]
        ones = observe_flows(sys.fields, one, [path], pairs, n_sub=128)
        twos = observe_flows(sys.fields, two, [path], pairs, n_sub=128)
        obs_list = [obs for pair in zip(ones, twos) for obs in pair]
        zero = ObservationSet(np.zeros((1, 9)), 0.0, 1.0, np.zeros((1, 9)))
        assert reconstruction_matrix(sys.fields, zero.base_points).rank == 0
        calls, point_blocks = [], reconstruct._point_blocks
        monkeypatch.setattr(
            reconstruct, "_point_blocks", lambda V, p: calls.append(1) or point_blocks(V, p)
        )
        for method in ("taylor", "flow"):
            calls.clear()
            got, _ = batched_recovery(sys.fields, obs_list, method, n_sub=8)
            assert len(calls) == 2  # one set-up at `one`, one at `two`
            want, _ = loop_recovery(sys.fields, obs_list, method, n_sub=8)
            assert_same_results(got, want)
            assert 0 < flagged(got)
            with pytest.raises(RankDeficient) as alone:
                reconstruct_oracle(sys.fields, zero, method, n_sub=8)
            with pytest.raises(RankDeficient) as stacked:
                reconstruct_many(sys.fields, obs_list[:3] + [zero] + obs_list[3:], method, n_sub=8)
            assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("method", ["taylor", "flow"])
    @pytest.mark.parametrize(
        "key, value", [("n_sub", 0), ("n_sub", 2.5), ("n_sub", np.nan), ("n_sub", np.inf)]
    )
    def test_solver_arguments_are_checked_up_front(self, method, key, value):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        obs = ObservationSet(base, 0.0, 1.0, base.copy())
        with pytest.raises(InvalidParameter, match=key):
            reconstruct_many(sys.fields, [obs], method, **{key: value})

    def test_unknown_method_and_empty_list(self):
        V, obs_list = triple_product_intervals()
        with pytest.raises(InvalidParameter):
            reconstruct_many(V, obs_list, "newton")
        assert reconstruct_many(V, [], "flow") == []


def linear_problem():
    mat, rhs = np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([1.0, 2.0])
    return (lambda t: mat @ t - rhs), (lambda t: mat.copy()), np.zeros(2)


def rosenbrock_problem(theta0=(-1.2, 1.0)):
    def residual(t):
        return np.array([10.0 * (t[1] - t[0] ** 2), 1.0 - t[0]])

    def jacobian(t):
        return np.array([[-20.0 * t[0], 10.0], [-1.0, 0.0]])

    return residual, jacobian, np.array(theta0)


def scaled_problem(scale):
    """A rank-one linear problem whose Hessian entries are scale**2: for a
    scale of 2**50 or more, H + 1e-8*I is exactly singular."""
    row = np.array([[scale, scale], [0.0, 0.0]])
    return (lambda t: row @ t - np.array([1.0, 0.0])), (lambda t: row.copy()), np.zeros(2)


def failing_jacobian_problem(first_failing_call):
    residual, jacobian, theta0 = rosenbrock_problem()
    calls = []

    def failing(t):
        calls.append(t)
        if len(calls) >= first_failing_call:
            raise DomainViolation(f"Jacobian calls from {first_failing_call} on leave the domain")
        return jacobian(t)

    return residual, failing, theta0


def walled_problem():
    """The Rosenbrock problem, whose residual cannot be evaluated below theta[1] = -1,
    where its first Gauss-Newton step from (-1.2, 1) lands."""
    residual, jacobian, theta0 = rosenbrock_problem()

    def walled(t):
        if t[1] < -1.0:
            raise DomainViolation(f"theta[1] = {t[1]} is below -1")
        return residual(t)

    return walled, jacobian, theta0


def driver_against_oracle(make_problems, max_iter=50, tol=1e-12, floor=0.0):
    """Solve the problems from make_problems() together with `_solve` and each
    one alone with minimize_least_squares; assert the outcomes are bitwise equal.

    Each problem is a (residual, jacobian, theta0) triple, and all share the
    shapes of theta0 and of the residual.  One evaluate(ks, thetas) call per
    round serves them all, with the residual and the Jacobian of each problem
    at its point.  Returns the solver's outcomes and, for each evaluate call,
    the problem indices of its stack and whether the call raised.
    """
    problems, stacks = make_problems(), []

    def evaluate(ks, thetas):
        try:
            rows = [(problems[k][0](t), problems[k][1](t)) for k, t in zip(ks, thetas)]
        except RdeinvError:
            stacks.append((ks, True))
            raise
        stacks.append((ks, False))
        return [r for r, _ in rows], [jac for _, jac in rows]

    thetas = np.array([theta for _, _, theta in problems])
    got = reconstruct._solve(thetas, evaluate, max_iter, tol, floor)
    assert len(got) == len(problems)
    for outcome, (residual, jacobian, theta) in zip(got, make_problems()):
        try:
            want = minimize_least_squares(
                lambda t: (residual(t), jacobian(t)), theta, max_iter, tol, floor
            )
        except RdeinvError as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            continue
        assert not isinstance(outcome, Exception), outcome
        for a, b in zip(outcome, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return got, stacks


class TestBatchedSolver:
    """The batched Levenberg-Marquardt solver `_solve`, whose rows are the
    problems of one round, against the one-problem solver."""

    def test_singular_damped_matrix_is_that_problem_alone(self):
        residual, jacobian, theta0 = scaled_problem(2.0**50)
        jac = jacobian(theta0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac.T @ jac + 1e-8 * np.eye(2), -jac.T @ residual(theta0))
        got, stacks = driver_against_oracle(
            lambda: [linear_problem(), scaled_problem(2.0**50), rosenbrock_problem()]
        )
        assert [outcome[1] for outcome in got] == [3, 1, 28]
        # the scaled problem's damped steps fall below tol once the damping
        # makes its matrix solvable: it leaves after its first request
        assert [idx for idx, _ in stacks[:2]] == [[0, 1, 2], [0, 2]]

    def test_model_error_is_that_problem_alone(self):
        # an error at the start point ends that problem; one at a trial point
        # rejects the step, which is damped until its trial point can be evaluated
        got, stacks = driver_against_oracle(
            lambda: [
                linear_problem(),
                failing_jacobian_problem(1),
                walled_problem(),
                rosenbrock_problem((0.5, 0.5)),
            ]
        )
        assert str(got[1]) == "Jacobian calls from 1 on leave the domain"
        assert [outcome[1] for k, outcome in enumerate(got) if k != 1] == [3, 28, 4]
        np.testing.assert_allclose(got[2][0], [1.0, 1.0])
        raised = [idx for idx, raised in stacks if raised]
        # the start points raised for problem 1, alone too; later stacks
        # raised for the walled problem's trial points beyond the wall
        assert raised[:2] == [[0, 1, 2, 3], [1]]
        assert len(raised) > 2 and all(2 in idx for idx in raised[2:])

    def test_overflowing_trial_cost_is_a_rejected_step(self):
        # beyond the wall the residual is 1e300 per entry, so the trial cost
        # overflows to inf; the step is damped as for a failing trial point
        residual, jacobian, theta0 = rosenbrock_problem()

        def overflowing(t):
            return np.full(2, 1e300) if t[1] < -1.0 else residual(t)

        with np.errstate(over="ignore"):
            got, _ = driver_against_oracle(
                lambda: [linear_problem(), (overflowing, jacobian, theta0)]
            )
        assert [outcome[1] for outcome in got] == [3, 28]
        np.testing.assert_allclose(got[1][0], [1.0, 1.0])

    def test_overflowing_normal_equations_raise_non_finite(self):
        # J^T r and J^T J overflow to inf, so no damping gives a finite step
        huge = (lambda t: t + 1e200), (lambda t: 1e200 * np.eye(2)), np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            got, stacks = driver_against_oracle(lambda: [linear_problem(), huge])
        assert got[0][1] == 3
        assert type(got[1]) is NonFinite
        assert str(got[1]) == "Gauss-Newton step is not finite at iteration 1"
        assert stacks[0] == ([0, 1], False) and all(idx == [0] for idx, _ in stacks[1:])

    def test_not_converged_is_that_problem_alone(self):
        uphill = (lambda t: t - 3.0), (lambda t: -np.eye(2)), np.zeros(2)  # Jacobian of the wrong sign
        slow = (lambda t: t**2), (lambda t: np.diag(2.0 * t)), np.ones(2)  # halves per iteration
        got, _ = driver_against_oracle(
            lambda: [
                linear_problem(),
                slow,
                rosenbrock_problem((0.5, 0.5)),
                uphill,
                scaled_problem(2.0**100),
            ],
            max_iter=8,
        )
        assert (got[0][1], got[2][1]) == (3, 4)
        assert str(got[1]) == "step norm above 1e-12 after 8 iterations"
        # uphill rejects every step until the damping passes 1e12; the scaled
        # problem's damped matrix stays singular through all 40 tries
        assert str(got[3]) == str(got[4]) == "no acceptable damped step at iteration 1"


def drawn_problem(kind, m, a, b, seed):
    """One problem in m >= 2 parameters with 2(m - 1) residuals, from a drawn
    stack: "linear" (a random linear fit), "rosenbrock" (the chained
    Rosenbrock function with scale a), "walled" (the same, raising below
    theta[-1] = b), "raising" (raising everywhere, at the start too) or
    "singular" (a rank-one fit whose damped matrix starts singular)."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-2.0, 2.0, m)
    if kind in ("linear", "singular"):
        mat, rhs = rng.standard_normal((2 * m - 2, m)), rng.standard_normal(2 * m - 2)
        if kind == "singular":
            mat = np.zeros_like(mat)
            mat[0] = 2.0 ** (50 + int(a))
        return (lambda t: mat @ t - rhs), (lambda t: mat.copy()), start
    eye = np.eye(m)

    def residual(t):
        if kind == "raising" or (kind == "walled" and t[-1] < b):
            raise DomainViolation(f"theta = {t.tolist()} is outside the domain")
        return np.concatenate([a * (t[1:] - t[:-1] ** 2), 1.0 - t[:-1]])

    def jacobian(t):
        return np.vstack([a * (eye[1:] - 2.0 * t[:-1, None] * eye[:-1]), -eye[:-1]])

    return residual, jacobian, start


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    m=st.integers(2, 6),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["linear", "rosenbrock", "walled", "raising", "singular"]),
            st.floats(1.0, 20.0),
            st.floats(-2.0, 0.5),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    ),
    max_iter=st.integers(0, 50),
    floor=st.sampled_from([0.0, float(np.sqrt(np.finfo(float).eps))]),
)
def test_batched_solver_matches_each_problem_alone(m, specs, max_iter, floor):
    # every outcome of one `_solve` call, results and errors, is what the
    # one-problem solver gives that problem alone, bitwise
    def make_problems():
        return [drawn_problem(kind, m, a, b, seed) for kind, a, b, seed in specs]

    with np.errstate(over="ignore", invalid="ignore"):
        _, stacks = driver_against_oracle(make_problems, max_iter=max_iter, floor=floor)
    assert stacks[0][0] == list(range(len(specs)))  # every start point in one call


def perturbed_jacobian_problem(seen):
    """A linear problem at its least-squares point, with the exact residual
    2**-28 there, and a Jacobian off by 1e-9 in one entry.  The Gauss-Newton
    step there is about 4e-12 long and raises the cost by far more than its
    round-off.  residual appends every point it is evaluated at to seen."""
    mat = np.array([[1.0, 0.0], [0.0, 2.0**-10], [0.0, 0.0]])
    rhs = np.array([0.25, 2.0**-13, 2.0**-28])
    jac = mat + np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1e-9]])

    def residual(t):
        seen.append(t)
        return mat @ t - rhs

    return residual, (lambda t: jac.copy()), np.array([0.25, 0.125])


def stretched_jacobian_problem(seen):
    """A linear problem whose Jacobian is 1.5 times the true one: every
    Gauss-Newton step is accepted and goes two thirds of the way, so the steps
    shrink threefold per iteration.  residual appends every point it is
    evaluated at to seen."""
    mat, rhs = np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([1.0, 2.0])

    def residual(t):
        seen.append(t)
        return mat @ t - rhs

    return residual, (lambda t: 1.5 * mat), np.zeros(2)


class TestStopAtJacobianAccuracy:
    """The floor rule of `_solve`: a damped step no longer than
    floor*|theta| ends the solve, as the tol stop does; a rejected one at
    theta, an accepted one at its new point."""

    def solve(self, floor):
        seen = []
        got, stacks = driver_against_oracle(lambda: [perturbed_jacobian_problem(seen)], floor=floor)
        theta0 = perturbed_jacobian_problem([])[2]
        theta, iterations, r = got[0]
        assert iterations == 1 and theta.tobytes() == theta0.tobytes()
        np.testing.assert_array_equal(r, [0.0, 0.0, -(2.0**-28)])
        steps = [float(np.linalg.norm(t - theta0)) for t in seen[1 : len(stacks)]]
        assert len(seen) == 2 * len(stacks)  # the batched run, then the oracle
        return steps

    def test_first_rejected_step_within_the_floor_stops(self):
        steps = self.solve(np.sqrt(np.finfo(float).eps))
        assert len(steps) == 1 and 1e-12 < steps[0] < 1e-11

    def test_first_accepted_step_within_the_floor_stops(self):
        # every step of this problem is accepted, and the solve returns the
        # point of the first one no longer than floor*|theta|, with its residual
        floor = np.sqrt(np.finfo(float).eps)
        seen = []
        got, stacks = driver_against_oracle(lambda: [stretched_jacobian_problem(seen)], floor=floor)
        theta, iterations, r = got[0]
        points = seen[: len(stacks)]  # the batched run's, then the oracle's
        assert len(points) == iterations + 1  # the start, then one trial point per iteration
        assert theta.tobytes() == points[-1].tobytes()
        np.testing.assert_array_equal(r, stretched_jacobian_problem([])[0](theta))
        steps = [float(np.linalg.norm(b - a)) for a, b in zip(points, points[1:])]
        norms = [float(np.linalg.norm(t)) for t in points[:-1]]
        assert steps[-1] <= floor * norms[-1] and steps[-2] > floor * norms[-2]
        assert steps[-1] > 1e-12  # above tol
        # without the floor the solve runs on until a step is below tol
        unfloored, _ = driver_against_oracle(lambda: [stretched_jacobian_problem([])])
        assert unfloored[0][1] > iterations

    def test_zero_floor_damps_until_the_step_is_below_tol(self):
        # every trial point is rejected; lambda goes up tenfold each time until
        # the step drops below tol = 1e-12, and the same triple comes back
        steps = self.solve(0.0)
        assert len(steps) == 3 and 1e-11 > steps[0] > steps[1] > steps[2] > 1e-12


class TestReconstructionResult:
    def test_rejects_nan_area(self):
        with pytest.raises(InvalidParameter):
            ReconstructionResult(
                np.zeros(2), [[np.nan, 1.0], [5.0, 0.0]], 0.0, 0.0, 1, 1.0, 1.0, "taylor"
            )

    def test_round_off_residue_is_antisymmetrised_as_an_increment_area(self):
        b = [[0.0, 0.3], [-0.3 + 1e-11, 0.0]]
        res = ReconstructionResult(np.zeros(2), b, 0.0, 0.0, 1, 1.0, 1.0, "taylor")
        np.testing.assert_array_equal(res.b_hat, RoughIncrement(np.zeros(2), b).a)


class TestStability:
    def test_perturbation_bounded_by_two_over_eps1(self):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        fine = lift_piecewise_linear(*circle_samples(2**12))
        obs = observe_flow(sys.fields, base, fine, 0, 64, n_internal=1)
        res0 = local_reconstruct_taylor(sys.fields, obs)
        eps1 = res0.eps1
        rng = np.random.default_rng(11)
        for _ in range(20):
            delta = rng.standard_normal(9)
            delta *= 1e-6 / np.linalg.norm(delta)
            obs_p = ObservationSet(base, obs.s, obs.t, obs.observed + delta)
            res_p = local_reconstruct_taylor(sys.fields, obs_p)
            moved = np.sqrt(
                np.linalg.norm(res_p.a_hat - res0.a_hat) ** 2
                + 0.5 * np.linalg.norm(res_p.b_hat - res0.b_hat) ** 2
            )
            assert moved <= (2.0 / eps1) * 1e-6


class TestDossSussmann:
    def test_unit_field_translation(self):
        fields = unit_field()
        assert doss_sussmann_1d(fields, 0.5, 2.25) == pytest.approx(1.75, abs=1e-12)

    def test_linear_field_log_oracle(self):
        fields = scalar_linear_field()
        rng = np.random.default_rng(3)
        for _ in range(10):
            obs = rng.uniform(0.5, 2.0)
            got = doss_sussmann_1d(fields, 1.0, obs)
            assert abs(got - np.log(obs)) <= 1e-10

    def test_fixed_point_returns_zero(self):
        fields = scalar_linear_field()
        assert doss_sussmann_1d(fields, 1.0, 1.0) == 0.0

    def test_degenerate_field(self):
        fields = scalar_linear_field()
        with pytest.raises(DegenerateField):
            doss_sussmann_1d(fields, 0.0, 1.0)

    def test_unreachable_target(self):
        # dz/da = z^2 from z=1 blows up at a=1; the target -1 is unreachable
        fields = VectorFieldSet([lambda x: x * x], d=1, jacs=[lambda x: 2 * x * np.eye(1)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OutOfNeighborhood):
                doss_sussmann_1d(fields, 1.0, -1.0)

    def test_wrong_dimensions(self):
        sys = unicycle()
        with pytest.raises(DimensionMismatch):
            doss_sussmann_1d(sys.fields, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_point_or_target_rejected(self, bad):
        # an infinite target returned 0.0 and a NaN one a bare ValueError
        fields = unit_field()
        for y, observed, what in ((bad, 1.0, "y"), (0.5, bad, "observed")):
            with pytest.raises(InvalidParameter, match=f"{what} must be finite"):
                doss_sussmann_1d(fields, y, observed)


class TestStitch:
    def test_single_segment(self):
        inc = RoughIncrement([1.0, 2.0], area_matrix([0.5], 2))
        path = stitch([inc], [0.0, 1.0])
        got = path.increment(0, 1)
        np.testing.assert_array_equal(got.x, [1.0, 2.0])
        assert got.a[0, 1] == 0.5

    def test_exact_locals_recompose(self):
        fine = lift_piecewise_linear(*circle_samples(4096))
        f = 4096 // 64
        segments = [fine.increment(k * f, (k + 1) * f) for k in range(64)]
        stitched = stitch(segments, fine.times[::f])
        for i, j in [(0, 64), (0, 32), (16, 48), (3, 5)]:
            a = stitched.increment(i, j)
            b = fine.increment(i * f, j * f)
            np.testing.assert_allclose(a.x, b.x, atol=1e-10)
            np.testing.assert_allclose(a.a, b.a, atol=1e-10)

    def test_invalid_times(self):
        inc = RoughIncrement(np.zeros(2))
        with pytest.raises(InvalidGrid):
            stitch([inc], [0.0, 1.0, 2.0])

    def test_no_segments(self):
        for times in ([0.0], [0.0, 1.0]):
            with pytest.raises(InvalidParameter, match="need at least one segment"):
                stitch([], times)

    def test_mixed_dimensions_rejected(self):
        one = RoughIncrement(np.zeros(2))
        for other in (RoughIncrement(np.zeros(3)), RoughIncrement(np.zeros((3, 2)))):
            # another dimension, or a stack of three increments passed as one segment
            for segs in ([one, other], [other, one]):
                with pytest.raises(DimensionMismatch):
                    stitch(segs, [0.0, 1.0, 2.0])


def search_points_oracle(V, box_lo, box_hi, c_max, seed, n_trials=64):
    """The per-candidate search loop: one reconstruction matrix per candidate.

    Returns (points, matrix at the points) as the batched search must.
    """
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (V.d,)).copy()
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (V.d,)).copy()
    rng = np.random.default_rng(seed)
    chosen = []
    best_mat = None
    for _ in range(c_max):
        best_cand, best_sig, best_cand_mat = None, -1.0, None
        for _ in range(n_trials):
            cand = rng.uniform(lo, hi)
            try:
                mat = reconstruction_matrix(V, chosen + [cand])
            except DomainViolation:
                continue
            sig = float(mat.singular_values[-1])
            if sig > best_sig:
                best_cand, best_sig, best_cand_mat = cand, sig, mat
        if best_cand is None:
            raise InvalidParameter("no admissible candidate points found in the box")
        chosen.append(best_cand)
        best_mat = best_cand_mat
        if best_mat.rank == best_mat.m:
            break
    return np.vstack(chosen), best_mat


CVT_Q0 = ([-1.0, -1.0, -1.0, -0.4], [1.0, 1.0, 1.0, 0.6])  # straddles q = 0
CVT_Q1 = ([-1.0, -1.0, -1.0, 0.5], [1.0, 1.0, 1.0, 1.3])  # straddles q = 1


class TestSearchPoints:
    @pytest.mark.parametrize(
        "system, box, c_max, seed, n_trials",
        [
            (triple_product, (-2.0, 2.0), 3, 5, 32),
            (triple_product, (0.5, 3.0), 3, 0, 256),
            (triple_product, (-2.0, 2.0), 1, 4, 16),  # budget hit below full rank
            (unicycle, (-1.0, 1.0), 2, 0, 16),
            (unicycle, (-3.0, 3.0), 1, 7, 64),
            (kohn, (-1.0, 1.0), 3, 1, 16),  # never full rank
            (cvt, CVT_Q0, 2, 2, 16),
            (cvt, CVT_Q1, 3, 6, 16),
        ],
    )
    def test_batched_scoring_equals_the_per_candidate_loop(
        self, system, box, c_max, seed, n_trials
    ):
        fields = system().fields
        res = search_points(fields, *box, c_max=c_max, seed=seed, n_trials=n_trials)
        points, mat = search_points_oracle(fields, *box, c_max, seed, n_trials)
        np.testing.assert_array_equal(res.points, points)
        np.testing.assert_array_equal(res.points, mat.points)
        assert (res.rank, res.m, res.full_rank) == (mat.rank, mat.m, mat.full_rank)
        # sigma_m: the last of the m singular values, 0.0 while the matrix has fewer rows
        sigma_m = float(mat.singular_values[-1]) if len(mat.mat) >= mat.m else 0.0
        assert res.sigma_min == mat.sigma_min == sigma_m
        np.testing.assert_array_equal(res.mat, mat.mat)
        np.testing.assert_array_equal(res.singular_values, mat.singular_values)
        if not res.full_rank:
            assert len(res.points) == c_max

    @pytest.mark.parametrize("box, seed", [(CVT_Q0, 2), (CVT_Q1, 6)])
    def test_cvt_boxes_draw_inadmissible_candidates(self, box, seed):
        # the straddling boxes above do exercise the skipping of bad candidates
        q = np.random.default_rng(seed).uniform(*box, size=(16, 4))[:, 3]
        assert np.any((q <= 0.0) | (q >= 1.0)) and np.any((0.0 < q) & (q < 1.0))

    @pytest.mark.parametrize("box, seed", [(CVT_Q0, 2), (CVT_Q1, 6)], ids=["CVT_Q0", "CVT_Q1"])
    def test_each_candidate_is_evaluated_once_after_a_domain_error(self, box, seed, monkeypatch):
        # a round is one call on its 16 candidates; after a DomainViolation, one call per
        # candidate, and the admissible ones are not evaluated again
        sizes, point_blocks = [], reconstruct._point_blocks

        def counted(V, points):
            sizes.append(len(np.atleast_2d(points)))
            return point_blocks(V, points)

        monkeypatch.setattr(reconstruct, "_point_blocks", counted)
        res = search_points(cvt().fields, *box, c_max=3, seed=seed, n_trials=16)
        stacks = np.flatnonzero(np.array(sizes) == 16)
        assert len(stacks) == len(res.points) and stacks[0] == 0
        singles = np.diff(np.append(stacks, len(sizes))) - 1  # calls after each stack call
        assert singles[0] == 16 and set(singles.tolist()) <= {0, 16}
        assert set(sizes) == {1, 16}

    def test_all_inadmissible_box_is_rejected(self):
        sys = cvt()
        lo, hi = [-1.0, -1.0, -1.0, 1.5], [1.0, 1.0, 1.0, 2.5]
        with pytest.raises(InvalidParameter):
            search_points(sys.fields, lo, hi, c_max=2, seed=0, n_trials=8)
        with pytest.raises(InvalidParameter):
            search_points_oracle(sys.fields, lo, hi, 2, 0, 8)

    @pytest.mark.parametrize("lo, hi", [([0.0, 0.0], 1.0), (-1.0, np.ones((3, 3)))])
    def test_box_corner_of_wrong_size_is_rejected(self, lo, hi):
        with pytest.raises(DimensionMismatch, match="broadcast"):
            search_points(unicycle().fields, lo, hi, c_max=1, seed=0, n_trials=4)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (np.nan, 1.0),
            (-1.0, np.inf),
            (-np.inf, 0.0),
            (-1e308, 1e308),
            ([0.0, -1e308, 0.0], [1.0, 1e308, 1.0]),
            ([0.0, 1.0, 0.0], 1.0),
        ],
    )
    def test_non_finite_overflowing_or_empty_box_is_rejected(self, lo, hi):
        # no RuntimeWarning from the width either (the suite turns one into an error)
        with pytest.raises(InvalidParameter, match="lo < hi and a finite width"):
            search_points(unicycle().fields, lo, hi, c_max=1, seed=0, n_trials=4)

    def test_triple_product_finds_rank_six_triple(self):
        sys = triple_product()
        res = search_points(sys.fields, -2.0, 2.0, c_max=3, seed=5, n_trials=32)
        assert res.full_rank and res.rank == 6
        assert res.sigma_min > 0
        assert res.points.shape == (3, 3)

    def test_triple_product_two_point_budget_reports_failure(self):
        sys = triple_product()
        res = search_points(sys.fields, -2.0, 2.0, c_max=2, seed=5, n_trials=32)
        assert not res.full_rank and res.rank == 5

    def test_kohn_reports_failure(self):
        sys = kohn(2)
        res = search_points(sys.fields, -1.0, 1.0, c_max=3, seed=1, n_trials=16)
        assert not res.full_rank
        assert res.rank == 5 < res.m

    def test_unicycle_single_point(self):
        sys = unicycle()
        res = search_points(sys.fields, -1.0, 1.0, c_max=1, seed=0, n_trials=8)
        assert res.full_rank and res.rank == 3

    def test_deterministic(self):
        sys = triple_product()
        a = search_points(sys.fields, -2.0, 2.0, c_max=2, seed=9)
        b = search_points(sys.fields, -2.0, 2.0, c_max=2, seed=9)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("key", ["c_max", "n_trials"])
    @pytest.mark.parametrize("value", [2.5, True, 0, -1, np.nan, np.inf])
    def test_counts_must_be_integers(self, key, value):
        counts = {"c_max": 2, "n_trials": 4, key: value}
        with pytest.raises(InvalidParameter, match=f"{key} must be an integer >= 1"):
            search_points(unicycle().fields, -1.0, 1.0, seed=0, **counts)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidParameter, match="seed must be an integer >= 0"):
            search_points(unicycle().fields, -1.0, 1.0, c_max=1, seed=seed, n_trials=4)

    def test_numpy_integer_counts_are_accepted(self):
        V = triple_product().fields
        got = search_points(V, -2.0, 2.0, c_max=np.int64(2), seed=3, n_trials=np.int32(8))
        want = search_points(V, -2.0, 2.0, c_max=2, seed=3, n_trials=8)
        np.testing.assert_array_equal(got.points, want.points)

    def test_cvt_candidates_respect_domain(self):
        sys = cvt()
        lo = np.array([-1.0, -1.0, -1.0, 0.05])
        hi = np.array([1.0, 1.0, 1.0, 0.95])
        res = search_points(sys.fields, lo, hi, c_max=1, seed=2, n_trials=8)
        assert res.full_rank


class TestNecessity:
    def test_constant_fields_cannot_see_the_area(self):
        sys = constant_fields(2, 2)
        times = np.linspace(0.0, 0.3, 5)
        null_path = make_linear_rough_path(np.zeros(3), 2, times)
        area_path = make_linear_rough_path(np.array([0.0, 0.0, 0.7]), 2, times)
        points = np.array([[0.0, 0.0], [1.0, -1.0]])
        obs0 = observe_flow(sys.fields, points, null_path, 0, 4, n_internal=4)
        obs1 = observe_flow(sys.fields, points, area_path, 0, 4, n_internal=4)
        assert np.max(np.abs(obs0.observed - obs1.observed)) <= 1e-9
        with pytest.raises(RankDeficient):
            local_reconstruct_taylor(sys.fields, obs1)

    def test_kohn_kernel_direction_is_invisible(self):
        sys = kohn(2)
        rng = np.random.default_rng(4)
        points = rng.standard_normal((4, 5))
        rm = reconstruction_matrix(sys.fields, points)
        # kernel direction of the stacked matrix: same at every point for this system
        _, _, vt = np.linalg.svd(rm.mat)
        v = vt[-1]
        assert np.linalg.norm(rm.mat @ v) < 1e-10
        times = np.linspace(0.0, 0.4, 5)
        null_path = make_linear_rough_path(np.zeros(10), 4, times)
        v_path = make_linear_rough_path(v, 4, times)
        obs0 = observe_flow(sys.fields, points[:2], null_path, 0, 4, n_internal=4)
        obs1 = observe_flow(sys.fields, points[:2], v_path, 0, 4, n_internal=4)
        assert np.max(np.abs(obs0.observed - obs1.observed)) <= 1e-9


class TestObservationCsv:
    def test_roundtrip(self, tmp_path):
        sys = rolling_ball()
        fine = lift_piecewise_linear(*circle_samples(64))
        base = [np.eye(3).ravel()]
        obs = [
            observe_flow(sys.fields, base, fine, 0, 16, n_internal=2),
            observe_flow(sys.fields, base, fine, 16, 32, n_internal=2),
        ]
        file = tmp_path / "obs.csv"
        write_observations_csv(obs, file)
        back = read_observations_csv(file)
        assert len(back) == 2
        for a, b in zip(obs, back):
            assert a.s == b.s and a.t == b.t
            assert np.array_equal(a.observed, b.observed)
            assert np.array_equal(a.base_points, b.base_points)

    def test_two_point_sets_roundtrip(self, tmp_path):
        # intervals observed at two base-point sets of different sizes read
        # back as written, and each set recovers as it would alone
        sys = rolling_ball()
        fine = lift_piecewise_linear(*circle_samples(64))
        one = np.eye(3).ravel()[None]
        two = np.vstack([one, expm(0.7 * ROLLING_BALL_A1 - 0.4 * ROLLING_BALL_A2).ravel()])
        obs = [
            observe_flow(sys.fields, points, fine, i, i + 16, n_internal=2)
            for points, i in ((one, 0), (two, 16), (one, 32), (two, 48))
        ]
        file = tmp_path / "obs.csv"
        write_observations_csv(obs, file)
        back = read_observations_csv(file)
        assert len(back) == 4
        for a, b in zip(obs, back):
            assert a.s == b.s and a.t == b.t
            assert np.array_equal(a.observed, b.observed)
            assert np.array_equal(a.base_points, b.base_points)
        for method in ("taylor", "flow"):
            got, _ = batched_recovery(sys.fields, back, method, n_sub=8)
            want, _ = loop_recovery(sys.fields, back, method, n_sub=8)
            assert_same_results(got, want)

    def test_report_fields(self):
        sys = rolling_ball()
        base = np.array([np.eye(3).ravel()])
        obs = ObservationSet(base, 0.0, 0.5, base.copy())
        res = local_reconstruct_taylor(sys.fields, obs)
        rm = reconstruction_matrix(sys.fields, base)
        report = reconstruction_report(res, obs.s, obs.t)
        assert report["interval"] == [0.0, 0.5]
        # the recovery passed the rank test on the same matrix
        assert report["rank"] == rm.rank == rm.m == 3
        assert report["sigma_min"] == rm.singular_values[-1] == res.eps1
        assert set(report) == {
            "interval",
            "a_hat",
            "b_hat",
            "residual",
            "residual_sup",
            "iterations",
            "rank",
            "sigma_min",
            "eps1",
            "eps2",
            "warnings",
        }
