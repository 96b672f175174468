"""Tests for field sets: Jacobians, brackets, compositions, batched evaluation."""

import numpy as np
import pytest

from helpers import named_systems
from rdeinv.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
)
from rdeinv.rde import euler2_step, solve
from rdeinv.roughpath import RoughIncrement, area_matrix, sample_brownian_lift
from rdeinv.systems import constant_fields, kohn, rolling_ball, triple_product, unicycle
from rdeinv.vectorfields import VectorFieldSet, bracket, fd_jacobian


def constant_set(vectors, d):
    vecs = [np.asarray(v, float) for v in vectors]
    return VectorFieldSet([lambda x, v=v: v for v in vecs], d=d)


class TestFdJacobian:
    def test_exact_on_linear_map(self):
        rng = np.random.default_rng(0)
        amat = rng.standard_normal((4, 4))
        jac = fd_jacobian(lambda x: amat @ x, rng.standard_normal(4))
        np.testing.assert_allclose(jac, amat, atol=1e-12)

    def test_zero_on_constant(self):
        jac = fd_jacobian(lambda x: np.ones(3), np.zeros(3))
        assert np.all(jac == 0)

    def test_matches_analytic_unicycle(self):
        sys = unicycle()
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(3)
            fd = fd_jacobian(sys.fields.fields_at, x)
            np.testing.assert_allclose(fd, sys.fields.jacobians_at(x), atol=1e-8)

    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            fd_jacobian(lambda x: np.array([np.nan]), np.zeros(1))

    def test_bad_step(self):
        for step in (0.0, -1e-5, np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="step must be finite and > 0"):
                fd_jacobian(lambda x: x, np.zeros(2), step=step)


class TestVectorFieldSet:
    def test_modes(self):
        fd_set = VectorFieldSet([lambda x: x], d=2)
        assert fd_set.jac_mode == "finite-difference"
        an_set = VectorFieldSet([lambda x: x], d=2, jacs=[lambda x: np.eye(2)])
        assert an_set.jac_mode == "analytic"

    def test_jac_mode_is_none_affine_or_the_sets_own(self):
        # no mode the set does not have: "analytic" without jacs would be finite differences
        evals, jacs = [lambda x: x], [lambda x: np.eye(2)]
        for given, mode in ((None, "finite-difference"), (jacs, "analytic"), (jacs, "affine")):
            assert VectorFieldSet(evals, d=2, jacs=given, jac_mode=mode).jac_mode == mode
        bad = [(None, "bogus"), (jacs, "bogus"), (None, "analytic"), (jacs, "finite-difference"),
               (jacs, "")]
        for given, mode in bad:
            with pytest.raises(InvalidParameter, match="jac_mode must be"):
                VectorFieldSet(evals, d=2, jacs=given, jac_mode=mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_states_are_rejected(self, bad):
        V = unicycle().fields
        for x in (np.array([0.0, bad, 0.0]), np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])):
            for call in (V.fields_at, V.jacobians_at, V.compositions):
                with pytest.raises(InvalidParameter, match="states must be finite"):
                    call(x)

    def test_fd_agrees_with_analytic_within_bound(self):
        # quadratic field: fd error is O(h^2), well within the 10*h contract
        def ev(x):
            return np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)

        def ja(x):
            return np.array([[2 * x[0], 0.0], [x[1], x[0]]])

        x = np.array([0.7, -1.3])
        fd_set = VectorFieldSet([ev], d=2, fd_step=1e-5)
        analytic = ja(x)
        assert np.max(np.abs(fd_set.jacobians_at(x)[0] - analytic)) <= 10 * 1e-5

    def test_index_out_of_range(self):
        fields = constant_set([[1.0, 0.0]], d=2)
        with pytest.raises(IndexOutOfRange):
            bracket(fields, 0, 5, np.zeros(2))

    @pytest.mark.parametrize("index", [True, False, 1.0, 0.5, np.float64(0.0), "0", None])
    def test_index_must_be_an_integer(self, index):
        V, x = unicycle().fields, np.zeros(3)
        for call in (lambda: bracket(V, index, 0, x), lambda: bracket(V, 0, index, x)):
            with pytest.raises(IndexOutOfRange, match="not an integer"):
                call()

    def test_numpy_integer_index_is_accepted(self):
        V, x = unicycle().fields, np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(bracket(V, np.int32(0), np.int64(1), x), bracket(V, 0, 1, x))

    def test_bad_shape_from_eval(self):
        fields = VectorFieldSet([lambda x: np.zeros(3)], d=2)
        with pytest.raises(DimensionMismatch):
            fields.fields_at(np.zeros(2))


class TestBatchedEvaluation:
    def test_fd_jacobians_of_a_stack_equal_row_by_row(self):
        sys = triple_product()
        fd_fields = VectorFieldSet(sys.fields._evals, d=3)
        stack = np.random.default_rng(10).standard_normal((5, 3))
        jacs = fd_fields.jacobians_at(stack)
        for n, y in enumerate(stack):
            np.testing.assert_array_equal(jacs[n], fd_fields.jacobians_at(y))
            np.testing.assert_allclose(jacs[n], sys.fields.jacobians_at(y), atol=1e-8)

    def test_broadcastable_results_fill_the_stack(self):
        fields = VectorFieldSet(
            [lambda x: x.copy(), lambda x: np.ones(2)],
            d=2,
            jacs=[lambda x: np.eye(2), lambda x: np.zeros((1, 1))],
        )
        stack = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(fields.fields_at(stack)[:, 0], stack)
        np.testing.assert_array_equal(fields.fields_at(stack)[:, 1], np.ones((3, 2)))
        np.testing.assert_array_equal(fields.jacobians_at(stack)[:, 0], np.tile(np.eye(2), (3, 1, 1)))
        np.testing.assert_array_equal(fields.jacobians_at(stack)[:, 1], np.zeros((3, 2, 2)))

    def test_fd_mode_with_broadcastable_field(self):
        fields = VectorFieldSet([lambda x: np.array([1.0, -2.0])], d=2)
        assert np.all(fields.jacobians_at(np.ones((4, 2))) == 0)

    @pytest.mark.parametrize(
        "ev, jac",
        [
            (lambda x: np.zeros((x.shape[0] + 1, 2)), None),
            (lambda x: np.zeros(3), None),
            (lambda x: np.zeros((1,) + x.shape), None),
            (lambda x: x, lambda x: np.zeros((x.shape[0], 2))),
        ],
        ids=["extra_row", "wrong_width", "extra_axis", "jacobian_missing_axis"],
    )
    def test_non_broadcastable_result_is_rejected(self, ev, jac):
        fields = VectorFieldSet([ev], d=2, jacs=None if jac is None else [jac])
        evaluate = fields.fields_at if jac is None else fields.jacobians_at
        with pytest.raises(DimensionMismatch):
            evaluate(np.zeros((3, 2)))

    def test_state_shape_checked(self):
        fields = constant_set([[1.0, 0.0]], d=2)
        with pytest.raises(DimensionMismatch):
            fields.fields_at(np.zeros((3, 4)))

    def test_bracket_of_a_stack(self):
        sys = unicycle()
        stack = np.random.default_rng(11).standard_normal((4, 3))
        got = bracket(sys.fields, 0, 1, stack)
        for n, y in enumerate(stack):
            np.testing.assert_allclose(got[n], bracket(sys.fields, 0, 1, y), atol=1e-15)


class TestFusedForm:
    def test_one_call_per_evaluation(self):
        calls = []

        def fields(x):
            calls.append(x.shape)
            return np.stack([x, np.ones_like(x)], axis=-2)

        V = VectorFieldSet.fused(fields, 2, 3)
        stack = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(V.fields_at(stack)[:, 0], stack)
        assert calls == [(4, 3)]
        V.jacobians_at(stack)  # central differences of the fused callable: 2d calls
        assert len(calls) == 1 + 2 * 3
        np.testing.assert_array_equal(V.fields_at(stack[0])[1], np.ones(3))

    def test_broadcastable_results_fill_the_stack(self):
        vecs, zero = np.eye(2, 3), np.zeros((2, 3, 3))
        V = VectorFieldSet.fused(lambda x: vecs, 2, 3, lambda x: zero)
        fields, jacs = V.fields_at(np.ones((4, 3))), V.jacobians_at(np.ones((4, 3)))
        assert fields.shape == (4, 2, 3) and jacs.shape == (4, 2, 3, 3)
        fields[0] = 7.0  # a fresh array: the constant stack stays as it was
        np.testing.assert_array_equal(vecs, np.eye(2, 3))
        np.testing.assert_array_equal(V._evals[1](np.ones((4, 3))), np.tile([0.0, 1.0, 0.0], (4, 1)))

    @pytest.mark.parametrize(
        "fields, jacobians, what",
        [
            (lambda x: np.zeros(x.shape), None, "fields"),
            (lambda x: np.zeros(x.shape[:-1] + (3, 3)), None, "fields"),
            (lambda x: np.zeros((1,) + x.shape[:-1] + (2, 3)), None, "fields"),
            (lambda x: np.zeros(x.shape[:-1] + (2, 3)),
             lambda x: np.zeros(x.shape[:-1] + (2, 3)), "jacobians"),
        ],
        ids=["missing_field_axis", "wrong_ell", "extra_axis", "jacobian_missing_axis"],
    )
    def test_wrong_shape_is_rejected(self, fields, jacobians, what):
        V = VectorFieldSet.fused(fields, 2, 3, jacobians)
        evaluate = V.fields_at if what == "fields" else V.jacobians_at
        with pytest.raises(DimensionMismatch, match=f"{what} returned shape"):
            evaluate(np.zeros((4, 3)))

    def test_sizes_are_checked(self):
        with pytest.raises(InvalidParameter):
            VectorFieldSet.fused(lambda x: x, 0, 3)
        # no truncation of 2.7 fields to 2, and True is not a size
        for value in (2.7, 3.0, True, np.nan):
            with pytest.raises(InvalidParameter, match="ell must be an integer >= 1"):
                VectorFieldSet.fused(lambda x: x, value, 3)
            with pytest.raises(InvalidParameter, match="d must be an integer >= 1"):
                VectorFieldSet.fused(lambda x: x, 1, value)
            with pytest.raises(InvalidParameter, match="d must be an integer >= 1"):
                VectorFieldSet([lambda x: x], value)
        with pytest.raises(DimensionMismatch, match="need one Jacobian per field"):
            VectorFieldSet([lambda x: x, lambda x: x], 3, jacs=[lambda x: np.eye(3)])
        for fd_step in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="fd_step must be finite and > 0"):
                VectorFieldSet.fused(lambda x: x, 1, 3, fd_step=fd_step)
            with pytest.raises(InvalidParameter, match="fd_step must be finite and > 0"):
                VectorFieldSet([lambda x: x], 3, fd_step=fd_step)


class TestAffine:
    def test_fields_jacobians_and_generators_come_from_the_data(self):
        rng = np.random.default_rng(44)
        A, b = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4))
        V = VectorFieldSet.affine(A, b)
        assert (V.ell, V.d, V.jac_mode) == (3, 4, "affine")
        stack = rng.standard_normal((5, 4))
        for x in (stack, stack[0]):
            np.testing.assert_allclose(V.fields_at(x), np.einsum("ide,...e->...id", A, x) + b,
                                       rtol=1e-14, atol=1e-14)
            np.testing.assert_array_equal(
                V.jacobians_at(x), np.broadcast_to(A, x.shape[:-1] + A.shape)
            )
        assert V.generators.shape == (3, 5, 5)
        np.testing.assert_array_equal(V.generators[:, :4, :4], A)
        np.testing.assert_array_equal(V.generators[:, :4, 4], b)
        assert not V.generators[:, 4].any()
        linear = VectorFieldSet.affine(A)  # b defaults to zero
        np.testing.assert_array_equal(
            linear.fields_at(stack), VectorFieldSet.affine(A, 0 * b).fields_at(stack)
        )
        assert not linear.generators[:, :, 4].any()

    @pytest.mark.parametrize("builder", [rolling_ball, kohn, constant_fields],
                             ids=["rolling_ball", "kohn", "constant"])
    def test_a_written_jacobian_cannot_change_the_set(self, builder):
        # the Jacobian of one state is the set's own read-only matrix stack, not a copy
        V = builder().fields
        x = np.linspace(0.1, 0.9, V.d)
        path = sample_brownian_lift(V.ell, 16, 1, 1.0, seed=4)
        before, states = V.jacobians_at(x).copy(), solve(V, x, path, method="euler2").states
        J = V.jacobians_at(x)
        with pytest.raises(ValueError, match="read-only"):
            J[0] *= 2.0
        np.testing.assert_array_equal(V.jacobians_at(x), before)
        np.testing.assert_array_equal(solve(V, x, path, method="euler2").states, states)

    def test_other_sets_have_no_generators(self):
        assert unicycle().fields.generators is None
        assert constant_set([[1.0, 0.0]], 2).generators is None
        assert VectorFieldSet.fused(lambda x: x[..., None, :], 1, 2).generators is None

    def test_list_form_declared_affine_reads_its_generators_at_the_origin(self):
        A, b = np.array([[[0.0, 2.0], [-1.0, 0.5]]]), np.array([[3.0, -4.0]])
        V = VectorFieldSet([lambda x: x @ A[0].T + b[0]], 2, jacs=[lambda x: A[0]],
                           jac_mode="affine")
        assert V.jac_mode == "affine"
        np.testing.assert_array_equal(V.generators, VectorFieldSet.affine(A, b).generators)
        with pytest.raises(InvalidParameter, match="affine"):
            VectorFieldSet(V._evals, 2, jac_mode="affine")

    @pytest.mark.parametrize(
        "A, b, error, match",
        [
            (np.zeros((3, 3)), None, DimensionMismatch, "A must have shape"),
            (np.zeros((2, 3, 4)), None, DimensionMismatch, "A must have shape"),
            (np.zeros((2, 3, 3)), np.zeros((2, 4)), DimensionMismatch, "b must have shape"),
            (np.zeros((2, 3, 3)), np.zeros(3), DimensionMismatch, "b must have shape"),
            (np.full((2, 3, 3), np.nan), None, InvalidParameter, "A must be finite"),
            (np.zeros((2, 3, 3)), np.full((2, 3), np.inf), InvalidParameter, "b must be finite"),
        ],
        ids=["A_two_axes", "A_not_square", "b_wrong_d", "b_missing_axis", "A_nan", "b_inf"],
    )
    def test_bad_data_is_rejected(self, A, b, error, match):
        with pytest.raises(error, match=match):
            VectorFieldSet.affine(A, b)


class TestBracket:
    def test_constant_fields_commute(self):
        fields = constant_set([[1.0, 0.0], [0.0, 1.0]], d=2)
        assert np.all(bracket(fields, 0, 1, np.zeros(2)) == 0)

    def test_self_bracket_vanishes_exactly(self):
        sys = triple_product()
        rng = np.random.default_rng(2)
        for j in range(3):
            x = rng.standard_normal(3)
            assert np.all(bracket(sys.fields, j, j, x) == 0)

    def test_antisymmetry(self):
        sys = triple_product()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(3)
            fwd = bracket(sys.fields, 0, 2, x)
            bwd = bracket(sys.fields, 2, 0, x)
            np.testing.assert_allclose(fwd, -bwd, atol=1e-12)

    def test_antisymmetry_fd_mode(self):
        sys = triple_product()
        fd_fields = VectorFieldSet(sys.fields._evals, d=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            fwd = bracket(fd_fields, 0, 1, x)
            bwd = bracket(fd_fields, 1, 0, x)
            np.testing.assert_allclose(fwd, -bwd, atol=1e-7)

    def test_unicycle_heading_bracket(self):
        sys = unicycle()
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(3)
            expected = np.array([np.sin(x[2]), -np.cos(x[2]), 0.0])
            np.testing.assert_allclose(bracket(sys.fields, 0, 1, x), expected, atol=1e-12)

    def test_matches_second_comp_difference(self):
        sys = triple_product()
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal(3)
            comps = sys.fields.compositions(x)[1]
            np.testing.assert_allclose(bracket(sys.fields, 1, 2, x), comps[1, 2] - comps[2, 1],
                                       atol=1e-10)

    def test_jacobi_identity_fd(self):
        # nested brackets evaluated with finite differences on the outer layer
        sys = triple_product()
        fields = sys.fields
        rng = np.random.default_rng(7)

        def nested(j, k, i, x):
            def inner(z):
                return bracket(fields, j, k, z)

            jac_inner = fd_jacobian(inner, x, step=1e-5)
            return jac_inner @ fields.fields_at(x)[i] - fields.jacobians_at(x)[i] @ inner(x)

        for _ in range(5):
            x = rng.uniform(0.5, 1.5, 3)
            total = nested(1, 2, 0, x) + nested(2, 0, 1, x) + nested(0, 1, 2, x)
            assert np.max(np.abs(total)) < 1e-6


class TestSecondComp:
    def test_constant_fields(self):
        fields = constant_set([[1.0, 0.0], [0.0, 1.0]], d=2)
        assert np.all(fields.compositions(np.zeros(2))[1] == 0)

    def test_rolling_ball_composition_at_identity(self):
        from rdeinv.systems import ROLLING_BALL_A1, ROLLING_BALL_A2

        sys = rolling_ball()
        got = sys.fields.compositions(np.eye(3).ravel())[1][0, 1]
        np.testing.assert_allclose(got, (ROLLING_BALL_A2 @ ROLLING_BALL_A1).ravel(), atol=1e-12)

    def test_linear_scalar_field(self):
        fields = VectorFieldSet([lambda x: x.copy()], d=1, jacs=[lambda x: np.eye(1)])
        for y in (0.3, -2.0, 1.0):
            got = fields.compositions(np.array([y]))[1][0, 0]
            np.testing.assert_allclose(got, [y])


def counting(V):
    """A fused copy of V that counts its field and Jacobian calls."""
    calls = {"fields": 0, "jacobians": 0}

    def fields(x):
        calls["fields"] += 1
        return V.fields_at(x)

    def jacobians(x):
        calls["jacobians"] += 1
        return V.jacobians_at(x)

    return VectorFieldSet.fused(fields, V.ell, V.d, jacobians), calls



class TestCompositions:
    @pytest.mark.parametrize("system", named_systems(), ids=lambda s: s.name)
    def test_table_entries_are_jacobian_field_products(self, system):
        V = system.fields
        stack = np.array(system.recommended_points) + 0.05
        fields, comps = V.compositions(stack)
        assert fields.shape == (len(stack), V.ell, V.d)
        assert comps.shape == (len(stack), V.ell, V.ell, V.d)
        for n, y in enumerate(stack):
            one_fields, one = V.compositions(y)
            np.testing.assert_array_equal(one_fields, fields[n])
            np.testing.assert_array_equal(one, comps[n])
            for j in range(V.ell):
                for k in range(V.ell):
                    want = V.jacobians_at(y)[k] @ V.fields_at(y)[j]
                    np.testing.assert_allclose(comps[n, j, k], want, rtol=1e-14, atol=1e-15)

    def test_state_shape_checked(self):
        V = unicycle().fields
        for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))):
            with pytest.raises(DimensionMismatch):
                V.compositions(bad)

    @pytest.mark.parametrize("entry", ["bracket", "compositions", "euler2_step"])
    def test_one_field_and_one_jacobian_call(self, entry):
        V, calls = counting(triple_product().fields)
        x = np.array([1.0, 2.0, 3.0])
        inc = RoughIncrement([0.1, -0.2, 0.3], area_matrix([0.01, 0.02, -0.03], 3))
        {
            "bracket": lambda: bracket(V, 0, 2, x),
            "compositions": lambda: V.compositions(x),
            "euler2_step": lambda: euler2_step(V, x, inc),
        }[entry]()
        assert calls == {"fields": 1, "jacobians": 1}

    def test_bracket_is_the_difference_of_two_table_entries(self):
        V = triple_product().fields
        stack = np.random.default_rng(12).standard_normal((4, 3))
        comps = V.compositions(stack)[1]
        for j in range(3):
            for k in range(3):
                np.testing.assert_array_equal(bracket(V, j, k, stack), comps[:, j, k] - comps[:, k, j])
