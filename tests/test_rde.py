"""Tests for the RDE integrators: exactness cases, order of accuracy, observation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import fit_slope, named_systems, rolling_ball_generator
from rdeinv.errors import (
    DimensionMismatch,
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
)
from rdeinv.rde import (
    ObservationSet,
    euler2_step,
    logode_step,
    observe_flow,
    observe_flows,
    read_trajectory_csv,
    solve,
    write_trajectory_csv,
)
from rdeinv.roughpath import (
    GridRoughPath,
    RoughIncrement,
    circle_samples,
    lift_piecewise_linear,
    refine,
    sample_brownian_fine,
    sample_brownian_lift,
)
from rdeinv.systems import constant_fields, cvt, rolling_ball, triple_product, unicycle
from rdeinv.vectorfields import VectorFieldSet, bracket


def scalar_linear_field():
    return VectorFieldSet([lambda x: x.copy()], d=1, jacs=[lambda x: np.eye(1)])


class TestEuler2Step:
    def test_constant_fields_exact(self):
        sys = constant_fields(2, 3)
        inc = RoughIncrement([0.3, -0.4], [[0.0, 0.7], [-0.7, 0.0]])
        got = euler2_step(sys.fields, np.zeros(3), inc)
        np.testing.assert_array_equal(got, [0.3, -0.4, 0.0])

    def test_zero_increment(self):
        sys = rolling_ball()
        x = np.eye(3).ravel()
        got = euler2_step(sys.fields, x, RoughIncrement(np.zeros(2)))
        np.testing.assert_array_equal(got, x)

    def test_scalar_exponential_series(self):
        # d = ell = 1, V(x) = x: the step reproduces the order-2 Taylor of x e^h
        fields = scalar_linear_field()
        got = euler2_step(fields, np.array([2.0]), RoughIncrement([0.3]))
        np.testing.assert_allclose(got, [2.0 * (1 + 0.3 + 0.3**2 / 2)], rtol=1e-14)

    def test_dimension_mismatch(self):
        sys = constant_fields(2, 3)
        with pytest.raises(DimensionMismatch):
            euler2_step(sys.fields, np.zeros(3), RoughIncrement(np.zeros(3)))
        with pytest.raises(DimensionMismatch):
            euler2_step(sys.fields, np.zeros(2), RoughIncrement(np.zeros(2)))
        # one state and one increment only: stacks are rejected
        with pytest.raises(DimensionMismatch):
            euler2_step(sys.fields, np.zeros((4, 3)), RoughIncrement(np.zeros(2)))
        with pytest.raises(DimensionMismatch):
            euler2_step(sys.fields, np.zeros(3), RoughIncrement(np.zeros((4, 2))))
        with pytest.raises(DimensionMismatch):
            euler2_step(sys.fields, np.zeros((4, 3)), RoughIncrement(np.zeros((4, 2))))


class TestLogodeStep:
    def test_zero_increment_is_identity(self):
        sys = rolling_ball()
        x = np.eye(3).ravel()
        got = logode_step(sys.fields, x, RoughIncrement(np.zeros(2)), n_sub=8)
        np.testing.assert_array_equal(got, x)

    def test_constant_fields_exact(self):
        sys = constant_fields(2, 2)
        inc = RoughIncrement([1.25, -0.5], [[0.0, 3.0], [-3.0, 0.0]])
        got = logode_step(sys.fields, np.zeros(2), inc, n_sub=16)
        np.testing.assert_allclose(got, [1.25, -0.5], atol=1e-14)

    def test_rolling_ball_matches_matrix_exponential(self):
        sys = rolling_ball()
        x_inc = np.array([0.2, -0.1])
        area = 0.15
        inc = RoughIncrement(x_inc, [[0.0, area], [-area, 0.0]])
        got = logode_step(sys.fields, np.eye(3).ravel(), inc, n_sub=32)
        oracle = expm(rolling_ball_generator(x_inc, area))
        assert np.max(np.abs(got - oracle.ravel())) < 1e-8

    def test_orthogonality_defect_shrinks_like_n_sub_fourth(self):
        sys = rolling_ball()
        inc = RoughIncrement([0.8, -0.5], [[0.0, 0.3], [-0.3, 0.0]])
        defects = []
        for n_sub in (1, 2, 4, 8):
            m = logode_step(sys.fields, np.eye(3).ravel(), inc, n_sub).reshape(3, 3)
            defects.append(np.linalg.norm(m.T @ m - np.eye(3)))
        slope = fit_slope([1.0, 0.5, 0.25, 0.125], defects)
        assert slope >= 3.5

    def test_nonfinite_blowup(self):
        # warnings are errors in this suite: both routes raise NonFinite, not a numpy warning
        rk4, matrix = VectorFieldSet([lambda x: x * x], d=1), VectorFieldSet.affine([[[1e300]]])
        for fields in (rk4, matrix):
            with pytest.raises(NonFinite, match="blew up"):
                logode_step(fields, np.array([1.0]), RoughIncrement([50.0]), n_sub=64)

    def test_bad_n_sub(self):
        sys = constant_fields(1, 1)
        with pytest.raises(InvalidParameter):
            logode_step(sys.fields, np.zeros(1), RoughIncrement([1.0]), n_sub=0)

    @pytest.mark.parametrize(
        "entry", ["logode_step", "solve", "observe_flows", "observe_flow", "n_internal"]
    )
    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf, 0, True, "4"])
    def test_step_counts_must_be_integers(self, entry, value):
        # no truncation of 2.5 to 2 substeps, and no bare ValueError or OverflowError
        V = unicycle().fields
        path = sample_brownian_lift(2, 4, 2, 1.0, seed=3)
        inc = RoughIncrement([0.1, 0.2], [[0.0, 0.05], [-0.05, 0.0]])
        run = {
            "logode_step": lambda n: logode_step(V, np.zeros(3), inc, n),
            "solve": lambda n: solve(V, np.zeros(3), path, n_sub=n),
            "observe_flows": lambda n: observe_flows(V, np.zeros(3), [path], [(0, 2)], n),
            "observe_flow": lambda n: observe_flow(V, np.zeros(3), path, 0, 2, 2, n),
            "n_internal": lambda n: observe_flow(V, np.zeros(3), path, 0, 2, n, 2),
        }[entry]
        name = "n_internal" if entry == "n_internal" else "n_sub"
        with pytest.raises(InvalidParameter, match=f"{name} must be an integer >= 1"):
            run(value)
        run(np.int64(3))  # a NumPy integer is a count

    def test_one_field_on_the_line_is_scalar_rk4(self):
        # doss_sussmann_1d integrates exp(a V_1) through this case of logode_step
        fields = VectorFieldSet([lambda x: 1.0 + 0.3 * x * x], d=1)
        rng = np.random.default_rng(5)
        for z0, da, n in zip(rng.uniform(-2, 2, 8), rng.uniform(-1, 1, 8), (8, 9, 17, 64) * 2):
            z, h = z0, 1.0 / n
            for _ in range(n):
                k1 = da * (1.0 + 0.3 * z * z)
                k2 = da * (1.0 + 0.3 * (z + 0.5 * h * k1) * (z + 0.5 * h * k1))
                k3 = da * (1.0 + 0.3 * (z + 0.5 * h * k2) * (z + 0.5 * h * k2))
                k4 = da * (1.0 + 0.3 * (z + h * k3) * (z + h * k3))
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert logode_step(fields, [z0], RoughIncrement([da]), n)[0] == z


def rk4_oracle(V, y, x_inc, a, n_sub):
    """Per-point reference: RK4 on x^i V_i + sum_{j<k} a^{jk} [V_j, V_k] from single-state calls."""

    def w(z):
        fields = V.fields_at(z)
        out = sum(x_inc[i] * fields[i] for i in range(V.ell))
        for j in range(V.ell):
            for k in range(j + 1, V.ell):
                out = out + a[j, k] * bracket(V, j, k, z)
        return out

    h = 1.0 / n_sub
    z = np.array(y, dtype=float)
    for _ in range(n_sub):
        k1 = w(z)
        k2 = w(z + 0.5 * h * k1)
        k3 = w(z + 0.5 * h * k2)
        k4 = w(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def random_rows(V, n, rng, scale=0.3):
    z = rng.uniform(0.5, 1.5, (n, V.d))
    x = scale * rng.standard_normal((n, V.ell))
    upper = np.triu(scale * rng.standard_normal((n, V.ell, V.ell)), 1)
    return z, x, upper - np.swapaxes(upper, 1, 2)


def random_affine(rng, ell=3, d=4):
    A, b = 0.5 * rng.standard_normal((ell, d, d)), rng.standard_normal((ell, d))
    return VectorFieldSet.affine(A, b)


# rolling_ball and the random affine set (b != 0) take the matrix route, triple_product RK4
STEP_SETS = [
    lambda: rolling_ball().fields,
    lambda: triple_product().fields,
    lambda: random_affine(np.random.default_rng(41)),
]
STEP_IDS = ["rolling_ball", "triple_product", "random_affine"]


class TestBatchedLogodeStep:
    @pytest.mark.parametrize(
        "fields, area",
        [(f, True) for f in STEP_SETS] + [(f, False) for f in STEP_SETS],
        ids=STEP_IDS + [f"{i}_zero_area" for i in STEP_IDS],
    )
    def test_rows_agree_with_per_point_oracle(self, fields, area):
        V = fields()
        z, x, a = random_rows(V, 6, np.random.default_rng(31))
        a = a if area else np.zeros_like(a)
        got = logode_step(V, z, RoughIncrement(x, a), n_sub=4)
        for n in range(6):
            want = rk4_oracle(V, z[n], x[n], a[n], 4)
            np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            # each row is bitwise its one-state call
            one = logode_step(V, z[n], RoughIncrement(x[n], a[n]), n_sub=4)
            np.testing.assert_array_equal(got[n], one)

    @pytest.mark.parametrize("fields", STEP_SETS, ids=STEP_IDS)
    def test_shared_increment_equals_its_repeated_stack(self, fields):
        V = fields()
        z, x, a = random_rows(V, 4, np.random.default_rng(35))
        shared = logode_step(V, z, RoughIncrement(x[0], a[0]), n_sub=4)
        repeated = RoughIncrement(np.tile(x[0], (4, 1)), np.tile(a[0], (4, 1, 1)))
        stacked = logode_step(V, z, repeated, n_sub=4)
        np.testing.assert_allclose(shared, stacked, rtol=1e-14, atol=1e-15)
        for n in range(4):
            one = logode_step(V, z[n], RoughIncrement(x[0], a[0]), n_sub=4)
            np.testing.assert_array_equal(shared[n], one)

    def test_tends_to_the_exponential_of_the_frozen_matrix(self):
        # the matrix route is RK4 on [y; 1]' = M [y; 1]: fourth order towards expm(M)
        rng = np.random.default_rng(43)
        V = random_affine(rng)
        z, x, a = random_rows(V, 1, rng, scale=0.6)
        G = V.generators
        frozen = np.einsum("i,iab->ab", x[0], G) + np.einsum("jk,kab,jbc->ac", a[0], G, G)
        want = (expm(frozen) @ np.append(z[0], 1.0))[:-1]
        inc = RoughIncrement(x[0], a[0])
        errors = [np.abs(logode_step(V, z[0], inc, 2**k) - want).max() for k in range(7)]
        assert all(e1 > 10.0 * e2 for e1, e2 in zip(errors, errors[1:]))  # fourth order
        assert errors[-1] < 1e-8

    def test_finite_difference_jacobians_go_through_the_stack(self):
        V = VectorFieldSet(triple_product().fields._evals, d=3)
        z, x, a = random_rows(V, 5, np.random.default_rng(32))
        got = logode_step(V, z, RoughIncrement(x, a), n_sub=2)
        for n in range(5):
            want = logode_step(V, z[n], RoughIncrement(x[n], a[n]), n_sub=2)
            np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-12)

    def test_broadcastable_fields_go_through_the_stack(self):
        V = VectorFieldSet(
            [lambda x: x.copy(), lambda x: np.array([1.0, 0.0])],
            d=2,
            jacs=[lambda x: np.eye(2), lambda x: np.zeros((2, 2))],
        )
        z, x, a = random_rows(V, 4, np.random.default_rng(33))
        got = logode_step(V, z, RoughIncrement(x, a), n_sub=8)
        for n in range(4):
            want = rk4_oracle(V, z[n], x[n], a[n], 8)
            np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        V = rolling_ball().fields
        z, x, a = random_rows(V, 3, np.random.default_rng(34))
        with pytest.raises(DimensionMismatch):
            logode_step(V, z, RoughIncrement(x[:2], a[:2]))
        with pytest.raises(DimensionMismatch):
            logode_step(V, z[0], RoughIncrement(x, a))
        with pytest.raises(DimensionMismatch):
            logode_step(V, z[:, :4], RoughIncrement(x, a))

    @pytest.mark.parametrize("per_field", [True, False], ids=["one_per_field", "one_for_all"])
    def test_constant_jacobian_steps_bitwise_as_its_filled_stack(self, per_field):
        if per_field:  # rolling_ball: one constant (ell, d, d) stack
            V = rolling_ball().fields
            const = V.jacobians_at(np.zeros(V.d))
        else:  # V_k(x) = B x + c_k: one (d, d) matrix for every field, filled out
            rng = np.random.default_rng(38)
            const, c = 0.5 * rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
            V = VectorFieldSet.fused(lambda x: (x @ const.T)[..., None, :] + c, 2, 3)
        shared = VectorFieldSet.fused(V.fields_at, V.ell, V.d, lambda x: const)
        full = lambda x: np.broadcast_to(const, x.shape[:-1] + (V.ell, V.d, V.d)).copy()
        filled = VectorFieldSet.fused(V.fields_at, V.ell, V.d, full)
        z, x, a = random_rows(V, 5, np.random.default_rng(36))
        for inc in (RoughIncrement(x, a), RoughIncrement(x[0], a[0])):
            np.testing.assert_array_equal(
                logode_step(shared, z, inc, n_sub=4), logode_step(filled, z, inc, n_sub=4)
            )

    @pytest.mark.parametrize(
        "fields, jacobians, what",
        [
            (lambda x: np.zeros(x.shape[:-1] + (3, 4)), None, "fields"),
            (lambda x: np.zeros((2, 3, 3)), None, "fields"),
            (None, lambda x: np.zeros(x.shape[:-1] + (3, 3)), "jacobians"),
            (None, lambda x: np.zeros((3, 3, 4)), "jacobians"),
        ],
        ids=["fields_wide", "fields_two_rows", "jacobians_missing_axis", "jacobians_constant_wide"],
    )
    def test_wrong_shaped_results_are_rejected_inside_the_step(self, fields, jacobians, what):
        V = triple_product().fields
        bad = VectorFieldSet.fused(fields or V.fields_at, 3, 3, jacobians or V.jacobians_at)
        z, x, a = random_rows(V, 4, np.random.default_rng(37))
        with pytest.raises(DimensionMismatch, match=f"{what} returned shape"):
            logode_step(bad, z, RoughIncrement(x, a), n_sub=2)


def _one_for_all_jacobian():
    # V_k(x) = B x + c_k: the Jacobian evaluator returns one (d, d) matrix for every row and field
    rng = np.random.default_rng(38)
    const, c = 0.5 * rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
    return VectorFieldSet.fused(lambda x: (x @ const.T)[..., None, :] + c, 2, 3, lambda x: const)


LOOP_SETS = {  # name -> (field set, start state)
    "rolling_ball": lambda: (rolling_ball().fields, np.eye(3).ravel()),
    "unicycle": lambda: (unicycle().fields, np.array([0.1, -0.2, 0.3])),
    "triple_product": lambda: (triple_product().fields, np.array([0.3, -0.2, 0.5])),
    "list_form": lambda: (
        VectorFieldSet(triple_product().fields._evals, 3, jacs=triple_product().fields._jacs),
        np.array([0.3, -0.2, 0.5]),
    ),
    "finite_difference": lambda: (
        VectorFieldSet(triple_product().fields._evals, 3), np.array([0.3, -0.2, 0.5])
    ),
    "broadcastable": lambda: (_one_for_all_jacobian(), np.array([0.1, 0.4, -0.3])),
}


class TestSolve:
    def test_constant_fields_translate(self):
        sys = constant_fields(2, 2)
        path = sample_brownian_fine(2, 4, 4, 1.0, seed=3)
        traj = solve(sys.fields, np.array([1.0, -1.0]), path, method="euler2")
        expected = np.array([1.0, -1.0]) + path.values - path.values[0]
        np.testing.assert_allclose(traj.states, expected, atol=1e-12)
        traj2 = solve(sys.fields, np.array([1.0, -1.0]), path, method="logode")
        np.testing.assert_allclose(traj2.states, expected, atol=1e-12)

    def test_rolling_ball_stays_orthogonal_on_circle(self):
        sys = rolling_ball()
        path = lift_piecewise_linear(*circle_samples(256))
        traj = solve(sys.fields, np.eye(3).ravel(), path, method="logode", n_sub=8)
        worst = max(
            np.linalg.norm(m.reshape(3, 3).T @ m.reshape(3, 3) - np.eye(3))
            for m in traj.states
        )
        assert worst <= 1e-6

    def test_refinement_consistency(self):
        # halving the grid step should shrink the solve-vs-refined gap ~ h^2
        sys = rolling_ball()
        x0 = np.eye(3).ravel()
        gaps = []
        for n in (32, 64, 128):
            path = lift_piecewise_linear(*circle_samples(n))
            a = solve(sys.fields, x0, path, method="logode", n_sub=8)
            b = solve(sys.fields, x0, refine(path, 2), method="logode", n_sub=8)
            gaps.append(np.max(np.abs(a.states[-1] - b.states[-1])))
        slope = fit_slope([2 * np.pi / n for n in (32, 64, 128)], gaps)
        assert slope >= 1.5

    @pytest.mark.parametrize(
        "method, fields",
        [("euler2", "rolling_ball"), ("logode", "rolling_ball")]
        + [("euler2", name) for name in LOOP_SETS if name != "rolling_ball"],
        ids=["euler2", "logode"] + [f"euler2-{name}" for name in LOOP_SETS if name != "rolling_ball"],
    )
    def test_equals_a_loop_of_single_steps(self, method, fields):
        # bitwise: solve is the stepper applied to each stored grid step in turn
        V, x0 = LOOP_SETS[fields]()
        path = sample_brownian_lift(V.ell, 16, 4, 1.0, seed=9)
        traj = solve(V, x0, path, method=method, n_sub=3)
        z, dx = x0, np.diff(path.values, axis=0)
        for i in range(path.n):
            inc = RoughIncrement(dx[i], path.step_areas[i])
            if method == "euler2":
                z = euler2_step(V, z, inc)
            else:
                z = logode_step(V, z, inc, n_sub=3)
            np.testing.assert_array_equal(traj.states[i + 1], z)

    @pytest.mark.parametrize("method", ["euler2", "logode"])
    def test_path_and_fields_must_share_ell(self, method):
        path = sample_brownian_lift(3, 4, 2, 1.0, seed=3)
        with pytest.raises(DimensionMismatch, match="path has ell=3"):
            solve(unicycle().fields, np.zeros(3), path, method=method)

    def test_euler2_blowup_is_non_finite_not_a_warning(self):
        # the state overflows within the first steps; no numpy warning escapes the loop
        V = triple_product().fields
        path = sample_brownian_lift(3, 64, 2, 50.0, seed=1)
        with pytest.raises(NonFinite, match="trajectory contains non-finite states"):
            solve(V, np.full(3, 3.0), path, method="euler2")

    @pytest.mark.parametrize("builder", [rolling_ball, unicycle])
    def test_logode_solve_equals_one_substep_observation(self, builder):
        # bitwise: both run the same grid integrator
        V = builder().fields
        x0 = np.eye(3).ravel() if V.d == 9 else np.array([0.1, -0.2, 0.3])
        path = sample_brownian_lift(V.ell, 64, 4, 1.0, seed=10)
        traj = solve(V, x0, path, method="logode", n_sub=4)
        ends = [1, 7, 32, 64]
        row = observe_flows(V, x0, [path], [(0, j) for j in ends], n_sub=4)
        for j, obs in zip(ends, row):
            np.testing.assert_array_equal(obs.observed[0], traj.states[j])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_states_of_a_step_rejected(self, bad):
        # before any evaluation: no NaN state returned, no "blew up" after stepping
        V, inc = unicycle().fields, RoughIncrement([0.1, 0.2], [[0.0, 0.05], [-0.05, 0.0]])
        one, stack = np.array([0.0, bad, 0.0]), np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])
        for step, x in ((euler2_step, one), (logode_step, one), (logode_step, stack)):
            with pytest.raises(InvalidParameter, match="states must be finite"):
                step(V, x, inc)

    @pytest.mark.parametrize("method", ["euler2", "logode"])
    def test_non_finite_start_state_rejected(self, method):
        sys = unicycle()
        path = sample_brownian_lift(2, 4, 2, 1.0, seed=3)
        with pytest.raises(InvalidParameter, match="x0 must be finite"):
            solve(sys.fields, np.array([np.nan, 0.0, 0.0]), path, method=method)

    def test_unknown_method(self):
        sys = constant_fields(1, 1)
        path = lift_piecewise_linear([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(InvalidParameter):
            solve(sys.fields, np.zeros(1), path, method="rk45")


def counted(fn, calls, key):
    """fn, counting its calls in calls[key]."""

    def wrapped(x):
        calls[key] = calls.get(key, 0) + 1
        return fn(x)

    return wrapped


def counted_set(form, calls):
    """A field set of the given form whose evaluators count their calls, and a start state."""
    if form == "list_form":  # one callable per field and per Jacobian, counted one by one
        V = triple_product().fields
        evals = [counted(f, calls, ("fields", i)) for i, f in enumerate(V._evals)]
        jacs = [counted(j, calls, ("jacobians", i)) for i, j in enumerate(V._jacs)]
        return VectorFieldSet(evals, 3, jacs=jacs), np.array([0.3, -0.2, 0.5])
    if form == "broadcastable":  # one (d, d) Jacobian for every field, filled out at every step
        V = _one_for_all_jacobian()
        const = V.jacobians_at(np.zeros(3))[0]
        fields = counted(V.fields_at, calls, "fields")
        jacobians = counted(lambda x: const, calls, "jacobians")
        return VectorFieldSet.fused(fields, 2, 3, jacobians), np.array([0.1, 0.4, -0.3])
    V = unicycle().fields
    if form == "nested_lists":  # exact values, but not arrays: the full check takes them
        fields = counted(lambda x: V.fields_at(x).tolist(), calls, "fields")
        jacobians = counted(lambda x: V.jacobians_at(x).tolist(), calls, "jacobians")
    else:
        fields = counted(V.fields_at, calls, "fields")
        jacobians = counted(V.jacobians_at, calls, "jacobians")
        jacobians = None if form == "finite_difference" else jacobians
    return VectorFieldSet.fused(fields, 2, 3, jacobians), np.array([0.1, -0.2, 0.3])


class TestEuler2Loop:
    """solve(method="euler2"): per grid step one field and one Jacobian evaluation, each checked."""

    @pytest.mark.parametrize(
        "form", ["fused", "list_form", "broadcastable", "nested_lists", "finite_difference"]
    )
    def test_evaluator_calls_per_step(self, form):
        calls = {}
        V, x0 = counted_set(form, calls)
        path = sample_brownian_lift(V.ell, 8, 2, 1.0, seed=9)
        traj = solve(V, x0, path, method="euler2")
        n = path.n
        if form == "list_form":
            want = {(kind, i): n for kind in ("fields", "jacobians") for i in range(V.ell)}
        elif form == "finite_difference":  # each Jacobian is 2d field calls
            want = {"fields": n * (1 + 2 * V.d)}
        else:
            want = {"fields": n, "jacobians": n}
        assert calls == want
        if form == "nested_lists":  # the full check gives the values the fast one passes
            want = solve(unicycle().fields, x0, path, method="euler2")
            np.testing.assert_array_equal(traj.states, want.states)

    def test_wrong_shape_at_a_late_step_is_rejected(self):
        # from the fifth call on the field evaluator returns (2, 4) for (2, 3); the fifth
        # step raises, and the evaluator is not called again
        V, calls = unicycle().fields, {}

        def fields(x):
            calls["fields"] = calls.get("fields", 0) + 1
            return V.fields_at(x) if calls["fields"] < 5 else np.zeros(x.shape[:-1] + (2, 4))

        bad = VectorFieldSet.fused(fields, 2, 3, V.jacobians_at)
        path = sample_brownian_lift(2, 8, 2, 1.0, seed=9)
        with pytest.raises(DimensionMismatch, match=r"fields returned shape \(2, 4\)"):
            solve(bad, np.zeros(3), path, method="euler2")
        assert calls == {"fields": 5}

    def test_leaving_the_domain_mid_trajectory_raises(self):
        # the second control moves the belt q by its increment alone: from q = 0.5 it
        # reaches 1.1 after three steps of 0.2, and the fourth step's evaluation raises
        V = cvt().fields
        values = [[0.1 * k, 0.2 * k] for k in range(6)]
        path = lift_piecewise_linear(np.linspace(0.0, 1.0, 6), values)
        x0 = np.array([0.0, 0.0, 0.0, 0.5])
        head = lift_piecewise_linear(np.linspace(0.0, 0.4, 3), values[:3])
        assert solve(V, x0, head, method="euler2").states[-1, 3] == pytest.approx(0.9)
        with pytest.raises(DomainViolation, match="q must lie in"):
            solve(V, x0, path, method="euler2")


SYSTEMS = named_systems()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(range(len(SYSTEMS))), st.integers(0, 2**32 - 1))
def test_euler2_step_equals_the_table_formula(which, seed):
    # the block-row kernel against y + x @ F + XX : table, the formula of the ell^2
    # composition table; measured worst error 8.4e-16 of the largest term, over
    # 2000 draws per named system
    system = SYSTEMS[which]
    V, rng = system.fields, np.random.default_rng(seed)
    y = system.recommended_points[0] + 0.2 * rng.uniform(-1.0, 1.0, V.d)
    upper = np.triu(0.3 * rng.standard_normal((V.ell, V.ell)), 1)
    inc = RoughIncrement(0.5 * rng.standard_normal(V.ell), upper - upper.T)
    fields, comps = V.compositions(y)
    first, second = inc.x @ fields, inc.second_level.ravel() @ comps.reshape(-1, V.d)
    scale = max(np.abs(y).max(), np.abs(first).max(), np.abs(second).max())
    got = euler2_step(V, y, inc)
    assert np.abs(got - (y + first + second)).max() <= 1e-14 * scale


class TestOneStepOrder:
    def test_smooth_driver_local_order(self):
        # reference: log-ODE solve along the finely sampled driver itself
        sys = rolling_ball()
        x0 = np.eye(3).ravel()
        n_fine = 2**14
        fine = lift_piecewise_linear(*circle_samples(n_fine))
        top = 1024  # largest tested interval in fine steps
        sub = GridRoughPath(
            fine.times[: top + 1], fine.values[: top + 1], fine.step_areas[:top]
        )
        ref = solve(sys.fields, x0, sub, method="logode", n_sub=4)
        lengths, err_euler, err_logode = [], [], []
        for k in range(5):
            j = top >> k
            inc = fine.increment(0, j)
            truth = ref.states[j]
            err_euler.append(np.linalg.norm(euler2_step(sys.fields, x0, inc) - truth))
            err_logode.append(
                np.linalg.norm(logode_step(sys.fields, x0, inc, n_sub=32) - truth)
            )
            lengths.append(fine.times[j])
        assert fit_slope(lengths, err_euler) >= 2.5
        assert fit_slope(lengths, err_logode) >= 2.5

    def test_brownian_driver_local_order_median(self):
        # pathwise local error ~ |t-s|^{3*alpha} for alpha = 0.4 lifts
        sys = rolling_ball()
        x0 = np.eye(3).ravel()
        n_total, horizon = 4096, 0.5
        lengths = [horizon / 2**k for k in range(5)]
        ends = [n_total >> k for k in range(5)]
        slopes_euler, slopes_logode = [], []
        paths = [
            sample_brownian_fine(2, 8, n_total // 8, horizon, seed=seed) for seed in range(50)
        ]
        # all 50 reference solutions (log-ODE, one RK4 substep per grid step) in lockstep
        refs = observe_flows(sys.fields, x0, paths, [(0, j) for j in ends], n_sub=1)
        for p, fine in enumerate(paths):
            e_euler, e_logode = [], []
            for j, obs in zip(ends, refs[p * len(ends):]):
                inc = fine.increment(0, j)
                truth = obs.observed[0]
                e_euler.append(np.linalg.norm(euler2_step(sys.fields, x0, inc) - truth))
                e_logode.append(
                    np.linalg.norm(logode_step(sys.fields, x0, inc, n_sub=8) - truth)
                )
            slopes_euler.append(fit_slope(lengths, e_euler))
            slopes_logode.append(fit_slope(lengths, e_logode))
        assert np.median(slopes_euler) >= 0.9
        assert np.median(slopes_logode) >= 0.9


class TestObserveFlow:
    def test_zero_step_returns_base_points(self):
        sys = constant_fields(2, 2)
        path = GridRoughPath([0.0, 1.0], np.zeros((2, 2)))
        points = np.array([[0.5, -0.5], [1.0, 2.0]])
        obs = observe_flow(sys.fields, points, path, 0, 1, n_internal=4)
        np.testing.assert_array_equal(obs.observed, points)

    def test_constant_fields_translate(self):
        sys = constant_fields(2, 3)
        path = sample_brownian_fine(2, 4, 2, 1.0, seed=8)
        points = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        obs = observe_flow(sys.fields, points, path, 1, 6, n_internal=2)
        shift = np.zeros(3)
        shift[:2] = path.values[6] - path.values[1]
        np.testing.assert_allclose(obs.observed, points + shift, atol=1e-12)

    def test_rolling_ball_observations_stay_orthogonal(self):
        sys = rolling_ball()
        path = lift_piecewise_linear(*circle_samples(64))
        rng = np.random.default_rng(5)
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        obs = observe_flow(
            sys.fields, [np.eye(3).ravel(), q1.ravel(), q2.ravel()], path, 0, 16
        )
        for row in obs.observed:
            m = row.reshape(3, 3)
            assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-9

    def test_degenerate_interval_rejected(self):
        sys = constant_fields(2, 2)
        path = GridRoughPath([0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(IndexOutOfRange):
            observe_flow(sys.fields, np.zeros((1, 2)), path, 1, 1)
        with pytest.raises(IndexOutOfRange):
            observe_flows(sys.fields, np.zeros((1, 2)), [path], [(0, 1), (0, 2)])
        with pytest.raises(InvalidParameter):
            observe_flows(sys.fields, np.zeros((1, 2)), [path], [])

    def test_nested_ends_of_many_paths_equal_separate_runs(self):
        sys = rolling_ball()
        rng = np.random.default_rng(6)
        points = [np.eye(3).ravel(), np.linalg.qr(rng.standard_normal((3, 3)))[0].ravel()]
        paths = [sample_brownian_lift(2, 16, 4, 1.0, seed=s) for s in (1, 2, 3)]
        ends = [12, 4, 7]
        pairs = [(2, j) for j in ends]
        got = observe_flows(sys.fields, points, paths, pairs, n_sub=4)
        assert len(got) == 9
        for p, path in enumerate(paths):
            for j, obs in zip(ends, got[3 * p:]):
                want = observe_flow(sys.fields, points, path, 2, j, n_internal=2, n_sub=2)
                assert (obs.s, obs.t) == (want.s, want.t)
                np.testing.assert_array_equal(obs.base_points, want.base_points)
                np.testing.assert_allclose(obs.observed, want.observed, rtol=1e-12, atol=1e-14)

    def test_intervals_of_any_start_and_order_equal_separate_runs(self):
        # bitwise: the CLI's observation files must not depend on which
        # intervals share the stack; rolling_ball's Jacobians are one constant
        # stack, triple_product's depend on the state
        rng = np.random.default_rng(7)
        rotations = [np.eye(3).ravel(), np.linalg.qr(rng.standard_normal((3, 3)))[0].ravel()]
        cases = [
            (rolling_ball(), rotations, 1.0),
            (triple_product(), triple_product().recommended_points, 0.05),
        ]
        for sys, points, horizon in cases:
            paths = [sample_brownian_lift(sys.fields.ell, 16, 4, horizon, seed=s) for s in (4, 5)]
            # out of order, overlapping, nested, repeated and sharing starts
            pairs = [(9, 16), (0, 3), (2, 11), (0, 16), (5, 6), (2, 4), (9, 16), (14, 15)]
            got = observe_flows(sys.fields, points, paths, pairs, n_sub=4)
            assert len(got) == 2 * len(pairs)
            for p, path in enumerate(paths):
                for (i, j), obs in zip(pairs, got[p * len(pairs):]):
                    want = observe_flow(sys.fields, points, path, i, j, n_internal=2, n_sub=2)
                    assert (obs.s, obs.t) == (want.s, want.t) == (path.times[i], path.times[j])
                    np.testing.assert_array_equal(obs.base_points, want.base_points)
                    np.testing.assert_array_equal(obs.observed, want.observed)

    @pytest.mark.parametrize("builder", [rolling_ball, triple_product])
    def test_n_internal_multiplies_n_sub(self, builder):
        # bitwise: 8 Chen pieces of 4 substeps each are one log-ODE step of 32
        sys = builder()
        V, points = sys.fields, np.array(sys.recommended_points)
        paths = [sample_brownian_lift(V.ell, 16, 2, 0.5, seed=s) for s in (1, 2)]
        pairs = [(0, 5), (3, 16), (0, 16)]
        folded = observe_flows(V, points, paths, pairs, 32)
        for p, path in enumerate(paths):
            for (i, j), want in zip(pairs, folded[p * len(pairs):]):
                obs = observe_flow(V, points, path, i, j, 8, 4)
                np.testing.assert_array_equal(obs.observed, want.observed)
                z, dx = points, np.diff(path.values, axis=0)
                for k in range(i, j):
                    inc = RoughIncrement(dx[k] / 8, path.step_areas[k] / 8)
                    for _ in range(8):
                        z = logode_step(V, z, inc, 4)
                np.testing.assert_array_equal(obs.observed, z)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_flat_path_major_order(self, data):
        # bitwise: entry p * len(pairs) + q is paths[p] over pairs[q] observed alone,
        # on the matrix route (rolling_ball) and the RK4 route alike, and observe_flow's
        # two counts are one substep count, their product
        builder, horizon = data.draw(st.sampled_from(
            [(rolling_ball, 1.0), (unicycle, 1.0), (triple_product, 0.05)]))
        system, rng = builder(), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        V = system.fields
        n = data.draw(st.integers(1, 8))
        paths = [sample_brownian_lift(V.ell, n, 2, horizon, seed=int(rng.integers(2**32)))
                 for _ in range(data.draw(st.integers(1, 3)))]
        ends = st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda e: e[0] < e[1])
        pairs = data.draw(st.lists(ends, min_size=1, max_size=5))
        points = system.recommended_points[0] + 0.1 * rng.uniform(
            -1.0, 1.0, (data.draw(st.integers(1, 3)), V.d))
        a, b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        got = observe_flows(V, points, paths, pairs, a * b)
        assert len(got) == len(paths) * len(pairs)
        for p, path in enumerate(paths):
            for q, (i, j) in enumerate(pairs):
                obs = got[p * len(pairs) + q]
                for want in (observe_flow(V, points, path, i, j, 1, a * b),
                             observe_flow(V, points, path, i, j, a, b)):
                    assert (obs.s, obs.t) == (want.s, want.t) == (path.times[i], path.times[j])
                    np.testing.assert_array_equal(obs.base_points, want.base_points)
                    np.testing.assert_array_equal(obs.observed, want.observed)

    @pytest.mark.parametrize("pair", [(0.5, 2.7), (0, 2.0), (True, 3), (np.float64(1), 3)])
    def test_interval_indices_must_be_integers(self, pair):
        V, path = unicycle().fields, sample_brownian_lift(2, 4, 1, 1.0, seed=3)
        with pytest.raises(IndexOutOfRange, match="need integers"):
            observe_flows(V, np.zeros(3), [path], [(0, 1), pair])
        with pytest.raises(IndexOutOfRange, match="need integers"):
            observe_flow(V, np.zeros(3), path, *pair)

    def test_numpy_integer_interval_indices_are_accepted(self):
        V, path = unicycle().fields, sample_brownian_lift(2, 4, 1, 1.0, seed=3)
        got = observe_flow(V, np.zeros(3), path, np.int64(1), np.int32(3), 2, 2)
        want = observe_flow(V, np.zeros(3), path, 1, 3, 2, 2)
        assert (got.s, got.t) == (want.s, want.t)
        np.testing.assert_array_equal(got.observed, want.observed)

    def test_non_finite_base_points_rejected(self):
        sys = unicycle()
        path = sample_brownian_lift(2, 4, 2, 1.0, seed=3)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="base points must be finite"):
                observe_flows(sys.fields, [[0.0, 0.0, 0.0], [0.0, bad, 0.0]], [path], [(0, 2)])

    @pytest.mark.parametrize("builder", [rolling_ball, unicycle, triple_product])
    def test_base_points_of_the_wrong_width_rejected(self, builder):
        # on the matrix route (rolling_ball) and the RK4 route alike, before any step
        V = builder().fields
        path = sample_brownian_lift(V.ell, 4, 2, 1.0, seed=3)
        for bad in (np.zeros((2, V.d - 1)), np.zeros((1, 2, V.d))):
            with pytest.raises(DimensionMismatch, match="states must have shape"):
                observe_flows(V, bad, [path], [(0, 2)])

    def test_observation_set_validation(self):
        with pytest.raises(InvalidParameter):
            ObservationSet(np.zeros((1, 2)), 1.0, 1.0, np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            ObservationSet(np.zeros((1, 2)), 0.0, 1.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_data_is_an_input_error(self, bad):
        with pytest.raises(InvalidParameter, match="base points must be finite"):
            ObservationSet([[0.0, bad]], 0.0, 1.0, np.zeros((1, 2)))
        with pytest.raises(InvalidParameter, match="observed images must be finite"):
            ObservationSet(np.zeros((1, 2)), 0.0, 1.0, [[bad, 0.0]])


class TestTrajectoryCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        sys = rolling_ball()
        path = lift_piecewise_linear(*circle_samples(16))
        traj = solve(sys.fields, np.eye(3).ravel(), path, n_sub=4)
        file = tmp_path / "traj.csv"
        write_trajectory_csv(traj, file)
        back = read_trajectory_csv(file)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
