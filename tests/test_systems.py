"""Tests for the named systems: printed bracket formulas, Jacobians, domains."""

import numpy as np
import pytest

from rdeinv.errors import DimensionMismatch, DomainViolation
from rdeinv.rde import logode_step
from rdeinv.roughpath import RoughIncrement
from rdeinv.systems import (
    ROLLING_BALL_A1,
    ROLLING_BALL_A2,
    SYSTEM_BUILDERS,
    constant_fields,
    cvt,
    kohn,
    rolling_ball,
    triple_product,
    unicycle,
)
from rdeinv.vectorfields import VectorFieldSet, bracket, fd_jacobian

ALL_SYSTEMS = [rolling_ball, unicycle, cvt, triple_product, kohn]


def random_domain_point(name, rng):
    if name == "rolling_ball":
        return rng.standard_normal(9)
    if name == "cvt":
        x = rng.standard_normal(4)
        x[3] = rng.uniform(0.05, 0.95)
        return x
    if name.startswith("kohn"):
        return rng.standard_normal(5)
    return rng.standard_normal(3)


@pytest.mark.parametrize("builder", ALL_SYSTEMS)
def test_analytic_jacobians_match_finite_differences(builder):
    sys = builder()
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = random_domain_point(sys.name, rng)
        fd = fd_jacobian(sys.fields.fields_at, x)
        np.testing.assert_allclose(fd, sys.fields.jacobians_at(x), atol=1e-7)


@pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
def test_every_named_system_recommends_points(name):
    # the CLI takes them whenever no points are given, with no fallback
    sys = SYSTEM_BUILDERS[name]()
    assert len(sys.recommended_points) >= 1
    assert all(np.shape(p) == (sys.fields.d,) for p in sys.recommended_points)


@pytest.mark.parametrize("builder", ALL_SYSTEMS + [lambda: constant_fields(2, 2)])
def test_recommended_points_evaluate_finite(builder):
    sys = builder()
    for p in sys.recommended_points:
        assert np.all(np.isfinite(sys.fields.fields_at(p)))


@pytest.mark.parametrize(
    "builder",
    ALL_SYSTEMS + [lambda: kohn(1), lambda: constant_fields(2, 3)],
    ids=["rolling_ball", "unicycle", "cvt", "triple_product", "kohn", "kohn_1", "constant"],
)
def test_stack_evaluation_equals_row_by_row(builder):
    sys = builder()
    rng = np.random.default_rng(23)
    name = "kohn" if sys.name.startswith("kohn") else sys.name
    stack = np.array([random_domain_point(name, rng)[: sys.fields.d] for _ in range(7)])
    fields = sys.fields.fields_at(stack)
    jacs = sys.fields.jacobians_at(stack)
    assert fields.shape == (7, sys.fields.ell, sys.fields.d)
    assert jacs.shape == (7, sys.fields.ell, sys.fields.d, sys.fields.d)
    for n, y in enumerate(stack):
        np.testing.assert_array_equal(fields[n], sys.fields.fields_at(y))
        np.testing.assert_array_equal(jacs[n], sys.fields.jacobians_at(y))


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SIX_SYSTEMS = ALL_SYSTEMS + [lambda: constant_fields(2, 3)]
SIX_IDS = ["rolling_ball", "unicycle", "cvt", "triple_product", "kohn", "constant"]


@pytest.mark.parametrize("builder", SIX_SYSTEMS, ids=SIX_IDS)
def test_fused_evaluation_equals_the_list_form_adapter(builder):
    # the per-field callables are slices of the fused ones; stacking them back
    # through the list-form adapter must give the same bits, and an affine
    # set rebuilt so must keep its generators and its log-ODE matrix route
    sys = builder()
    V = sys.fields
    listed = VectorFieldSet(V._evals, V.d, jacs=V._jacs, fd_step=V.fd_step, jac_mode=V.jac_mode)
    affine = sys.name in ("rolling_ball", "kohn", "constant_2_3")
    assert listed.jac_mode == V.jac_mode == ("affine" if affine else "analytic")
    if affine:
        assert_bitwise(V.generators, listed.generators)
    else:
        assert V.generators is None and listed.generators is None
    rng = np.random.default_rng(29)
    name = "kohn" if sys.name.startswith("kohn") else sys.name
    stack = np.array([random_domain_point(name, rng)[: V.d] for _ in range(6)])
    for x in (stack, stack[0]):
        assert_bitwise(V.fields_at(x), listed.fields_at(x))
        assert_bitwise(V.jacobians_at(x), listed.jacobians_at(x))
    x = 0.1 * rng.standard_normal((6, V.ell))
    upper = np.triu(0.1 * rng.standard_normal((6, V.ell, V.ell)), 1)
    inc = RoughIncrement(x, upper - np.swapaxes(upper, 1, 2))
    assert_bitwise(logode_step(V, stack, inc, n_sub=4), logode_step(listed, stack, inc, n_sub=4))


@pytest.mark.parametrize("builder", SIX_SYSTEMS, ids=SIX_IDS)
def test_fused_finite_differences_equal_the_list_form(builder):
    sys = builder()
    V = sys.fields
    fused = VectorFieldSet.fused(V.fields_at, V.ell, V.d)
    listed = VectorFieldSet(V._evals, V.d)
    assert fused.jac_mode == listed.jac_mode == "finite-difference"
    rng = np.random.default_rng(31)
    name = "kohn" if sys.name.startswith("kohn") else sys.name
    stack = np.array([random_domain_point(name, rng)[: V.d] for _ in range(5)])
    for x in (stack, stack[0]):
        assert_bitwise(fused.jacobians_at(x), listed.jacobians_at(x))
        np.testing.assert_allclose(fused.jacobians_at(x), V.jacobians_at(x), atol=1e-7)


def rolling_ball_closed_form(x):
    m = x.reshape(x.shape[:-1] + (3, 3))
    fields = np.stack([(a @ m).reshape(x.shape) for a in (ROLLING_BALL_A1, ROLLING_BALL_A2)], -2)
    jacs = np.stack([np.kron(a, np.eye(3)) for a in (ROLLING_BALL_A1, ROLLING_BALL_A2)])
    return fields, np.broadcast_to(jacs, x.shape[:-1] + jacs.shape)


def kohn_closed_form(d):
    # X_i = d/dx_i + 2 y_i d/dt, Y_i = d/dy_i - 2 x_i d/dt
    def closed_form(x):
        fields = np.zeros(x.shape[:-1] + (2 * d, 2 * d + 1))
        jacs = np.zeros(x.shape[:-1] + (2 * d, 2 * d + 1, 2 * d + 1))
        for i in range(d):
            fields[..., i, i], fields[..., i, -1] = 1.0, 2.0 * x[..., d + i]
            fields[..., d + i, d + i], fields[..., d + i, -1] = 1.0, -2.0 * x[..., i]
            jacs[..., i, -1, d + i], jacs[..., d + i, -1, i] = 2.0, -2.0
        return fields, jacs

    return closed_form


def constant_closed_form(x):
    return np.broadcast_to(np.eye(2, 3), x.shape[:-1] + (2, 3)), np.zeros(x.shape[:-1] + (2, 3, 3))


@pytest.mark.parametrize(
    "builder, closed_form",
    [(rolling_ball, rolling_ball_closed_form)]
    + [(lambda d=d: kohn(d), kohn_closed_form(d)) for d in (1, 2, 3)]
    + [(lambda: constant_fields(2, 3), constant_closed_form)],
    ids=["rolling_ball", "kohn_1", "kohn_2", "kohn_3", "constant"],
)
def test_affine_systems_equal_their_closed_forms(builder, closed_form):
    V = builder().fields
    assert V.generators is not None
    stack = np.random.default_rng(47).standard_normal((6, V.d))
    for x in (stack, stack[0]):
        fields, jacs = closed_form(x)
        assert np.array_equal(V.fields_at(x), fields)
        assert np.array_equal(V.jacobians_at(x), jacs)


def test_cvt_domain_check_covers_every_row():
    sys = cvt()
    stack = np.tile([0.0, 0.0, 0.0, 0.5], (4, 1))
    stack[2, 3] = 1.2
    for evaluate in (sys.fields.fields_at, sys.fields.jacobians_at):
        with pytest.raises(DomainViolation, match="1.2"):
            evaluate(stack)


class TestRollingBall:
    def test_bracket_is_reversed_matrix_commutator(self):
        # left multiplication reverses the commutator: [V1,V2](M) = (A2 A1 - A1 A2) M
        sys = rolling_ball()
        comm = ROLLING_BALL_A2 @ ROLLING_BALL_A1 - ROLLING_BALL_A1 @ ROLLING_BALL_A2
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            got = bracket(sys.fields, 0, 1, m.ravel())
            np.testing.assert_allclose(got, (comm @ m).ravel(), atol=1e-10)

    def test_bracket_at_identity_frozen(self):
        sys = rolling_ball()
        got = bracket(sys.fields, 0, 1, np.eye(3).ravel())
        expected = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        ).ravel()
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_fields_are_tangent_to_orthogonal_group(self):
        # at orthogonal M the velocity A_i M satisfies d/dt (M^T M) = 0
        sys = rolling_ball()
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        for i, amat in enumerate([ROLLING_BALL_A1, ROLLING_BALL_A2]):
            vel = sys.fields.fields_at(q.ravel())[i].reshape(3, 3)
            sym = vel.T @ q + q.T @ vel
            assert np.max(np.abs(sym)) < 1e-12


class TestUnicycle:
    def test_bracket_display(self):
        sys = unicycle()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(3)
            expected = np.array([np.sin(x[2]), -np.cos(x[2]), 0.0])
            np.testing.assert_allclose(bracket(sys.fields, 0, 1, x), expected, atol=1e-10)

    def test_bracket_at_zero_heading(self):
        sys = unicycle()
        got = bracket(sys.fields, 0, 1, np.zeros(3))
        np.testing.assert_allclose(got, [0.0, -1.0, 0.0], atol=1e-14)

    def test_turn_field_is_constant(self):
        sys = unicycle()
        assert np.all(sys.fields.jacobians_at(np.array([1.0, 2.0, 3.0]))[1] == 0)


class TestCvt:
    def test_field_value_at_half(self):
        sys = cvt()
        x = np.array([0.0, 0.0, 0.0, 0.5])
        np.testing.assert_allclose(sys.fields.fields_at(x)[0], [2.0, 2.0, 1.0, 0.0])

    def test_bracket_display(self):
        sys = cvt()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(4)
            x[3] = rng.uniform(0.05, 0.95)
            q = x[3]
            expected = np.array([1.0 / q**2, -1.0 / (1.0 - q) ** 2, 0.0, 0.0])
            np.testing.assert_allclose(bracket(sys.fields, 0, 1, x), expected, atol=1e-10)

    def test_bracket_at_half_frozen(self):
        sys = cvt()
        got = bracket(sys.fields, 0, 1, np.array([0.0, 0.0, 0.0, 0.5]))
        np.testing.assert_allclose(got, [4.0, -4.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_domain_violation(self, q):
        sys = cvt()
        x = np.array([0.0, 0.0, 0.0, q])
        with pytest.raises(DomainViolation):
            sys.fields.fields_at(x)
        with pytest.raises(DomainViolation):
            sys.fields.jacobians_at(x)


class TestTripleProduct:
    def test_brackets_at_ones(self):
        # operator calculus: [V1,V2] = z^2(y dy - x dx), [V1,V3] = y^2(z dz - x dx),
        # [V2,V3] = x^2(z dz - y dy)
        sys = triple_product()
        x = np.ones(3)
        np.testing.assert_allclose(bracket(sys.fields, 0, 1, x), [-1.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(bracket(sys.fields, 0, 2, x), [-1.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(bracket(sys.fields, 1, 2, x), [0.0, -1.0, 1.0], atol=1e-14)

    def test_bracket_displays_random(self):
        sys = triple_product()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y, z = rng.standard_normal(3)
            p = np.array([x, y, z])
            np.testing.assert_allclose(
                bracket(sys.fields, 0, 1, p), [-x * z * z, y * z * z, 0.0], atol=1e-10
            )
            np.testing.assert_allclose(
                bracket(sys.fields, 0, 2, p), [-x * y * y, 0.0, z * y * y], atol=1e-10
            )
            np.testing.assert_allclose(
                bracket(sys.fields, 1, 2, p), [0.0, -y * x * x, z * x * x], atol=1e-10
            )

    def test_fields_vanish_on_axes(self):
        sys = triple_product()
        for p in (np.array([1.0, 0, 0]), np.array([0, 2.0, 0]), np.array([0, 0, -1.0])):
            assert np.all(sys.fields.fields_at(p) == 0)


class TestKohn:
    def test_bracket_displays(self):
        sys = kohn(2)
        rng = np.random.default_rng(5)
        d = 2
        for _ in range(20):
            x = rng.standard_normal(5)
            # [X_i, X_j] = 0 and [Y_i, Y_j] = 0
            assert np.max(np.abs(bracket(sys.fields, 0, 1, x))) < 1e-12
            assert np.max(np.abs(bracket(sys.fields, 2, 3, x))) < 1e-12
            # [X_i, Y_j] = -4 delta_ij d/dt
            for i in range(d):
                for j in range(d):
                    got = bracket(sys.fields, i, d + j, x)
                    expected = np.zeros(5)
                    if i == j:
                        expected[4] = -4.0
                    np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_kohn_one_bracket(self):
        sys = kohn(1)
        got = bracket(sys.fields, 0, 1, np.array([0.4, -0.2, 1.0]))
        np.testing.assert_allclose(got, [0.0, 0.0, -4.0], atol=1e-12)

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            kohn(0)
        for d in (2.5, 2.0, True, "2"):  # no truncation of 2.5 to kohn_2 on 5-space
            with pytest.raises(DimensionMismatch, match="kohn needs an integer d >= 1"):
                kohn(d)


class TestConstantFields:
    def test_brackets_vanish(self):
        sys = constant_fields(3, 3)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        for j in range(3):
            for k in range(3):
                assert np.all(bracket(sys.fields, j, k, x) == 0)

    def test_requires_ell_at_most_d(self):
        with pytest.raises(DimensionMismatch):
            constant_fields(3, 2)
        for ell, d in ((2.0, 3), (1, 3.0), (True, 2), (1, True)):
            with pytest.raises(DimensionMismatch, match="need 1 <= ell <= d"):
                constant_fields(ell, d)
