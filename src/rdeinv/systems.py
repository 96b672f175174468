"""Named vector-field systems, with analytic Jacobians, usable from the CLI.

Every system is a fused `rdeinv.vectorfields.VectorFieldSet`: one callable
fills all field values (..., ell, d) and one all Jacobians (..., ell, d, d),
indexing states as ``x[..., k]`` so that one (d,) state and an (N, d) stack
both work.  rolling_ball, kohn and constant are `VectorFieldSet.affine` sets,
built from their matrices.  Constructors are pure and systems shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainViolation, is_int
from .vectorfields import VectorFieldSet

ROLLING_BALL_A1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
ROLLING_BALL_A2 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(eq=False)
class NamedSystem:
    """A vector-field set bundled with a name and suggested base points."""

    name: str
    fields: VectorFieldSet
    recommended_points: list = field(default_factory=list)


def rolling_ball() -> NamedSystem:
    """Unit ball rolling on a plane without slipping, orientation only.

    The state is the 3x3 orientation matrix flattened row-major into R^9; the
    two fields act by constant left matrix multiplication, M -> A_i M, so they
    are linear on the embedding space: V_i(x) = kron(A_i, I_3) x.  The
    orthogonal group is invariant under the flow.
    """
    A = np.stack([np.kron(a, np.eye(3)) for a in (ROLLING_BALL_A1, ROLLING_BALL_A2)])
    return NamedSystem(
        "rolling_ball",
        VectorFieldSet.affine(A),
        recommended_points=[np.eye(3).ravel()],
    )


def unicycle() -> NamedSystem:
    """Planar unicycle: position (x1, x2) and heading x3.

    Field 1 moves along the current heading, field 2 turns.  The rank
    condition holds at every point with c = 1.
    """

    def fields(x):
        heading = x[..., 2]
        out = np.zeros(x.shape[:-1] + (2, 3))
        out[..., 0, 0] = np.cos(heading)
        out[..., 0, 1] = np.sin(heading)
        out[..., 1, 2] = 1.0
        return out

    def jacobians(x):
        heading = x[..., 2]
        out = np.zeros(x.shape[:-1] + (2, 3, 3))
        out[..., 0, 0, 2] = -np.sin(heading)
        out[..., 0, 1, 2] = np.cos(heading)
        return out

    return NamedSystem(
        "unicycle",
        VectorFieldSet.fused(fields, 2, 3, jacobians),
        recommended_points=[np.zeros(3)],
    )


def _cvt_ratio(x):
    q = x[..., 3]
    outside = ~((0.0 < q) & (q < 1.0))
    if np.any(outside):
        bad = np.asarray(q)[outside][0]
        raise DomainViolation(f"belt translation q must lie in (0, 1), got {bad}")
    return q


def cvt() -> NamedSystem:
    """Belt-and-cones variable transmission: state (theta1, theta2, b, q).

    The cone angles theta respond to belt motion b with gains 1/q and 1/(1-q);
    the controls drive b and the belt translation q directly.  The gains blow
    up at q in {0, 1}; evaluation outside (0, 1) raises DomainViolation rather
    than clamping, so convergence measurements cannot be silently corrupted.
    Every row of a stack is checked.
    """

    def fields(x):
        q = _cvt_ratio(x)
        out = np.zeros(x.shape[:-1] + (2, 4))
        out[..., 0, 0] = 1.0 / q
        out[..., 0, 1] = 1.0 / (1.0 - q)
        out[..., 0, 2] = 1.0
        out[..., 1, 3] = 1.0
        return out

    def jacobians(x):
        q = _cvt_ratio(x)
        out = np.zeros(x.shape[:-1] + (2, 4, 4))
        # np.square, not **: on one state q is a NumPy scalar, whose ** is C pow, which
        # can differ from the array square by one ulp
        out[..., 0, 0, 3] = -1.0 / np.square(q)
        out[..., 0, 1, 3] = 1.0 / np.square(1.0 - q)
        return out

    return NamedSystem(
        "cvt",
        VectorFieldSet.fused(fields, 2, 4, jacobians),
        recommended_points=[np.array([0.0, 0.0, 0.0, 0.5])],
    )


def triple_product() -> NamedSystem:
    """Three quadratic fields on R^3: yz d/dx, xz d/dy, xy d/dz.

    All fields vanish on the coordinate axes, so single-axis points are
    degenerate.  Any two points share an exact kernel direction, so two
    generic points give rank 5; three give the full rank 6.
    """
    # field i moves coordinate i at the rate of the product of the other two
    others = [(1, 2), (0, 2), (0, 1)]

    def fields(x):
        out = np.zeros(x.shape[:-1] + (3, 3))
        for i, (j, k) in enumerate(others):
            out[..., i, i] = x[..., j] * x[..., k]
        return out

    def jacobians(x):
        out = np.zeros(x.shape[:-1] + (3, 3, 3))
        for i, (j, k) in enumerate(others):
            out[..., i, i, j] = x[..., k]
            out[..., i, i, k] = x[..., j]
        return out

    return NamedSystem(
        "triple_product",
        VectorFieldSet.fused(fields, 3, 3, jacobians),
        recommended_points=[
            np.array([1.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 3.0]),
            np.array([3.0, 1.0, 2.0]),
        ],
    )


def kohn(d=2) -> NamedSystem:
    """Sub-Riemannian frame of 2d horizontal fields on R^{2d+1}.

    Coordinates (x_1..x_d, y_1..y_d, t); the fields are
    X_i = d/dx_i + 2 y_i d/dt and Y_i = d/dy_i - 2 x_i d/dt, ordered
    (X_1..X_d, Y_1..Y_d).  Every bracket is vertical, a multiple of d/dt.  All
    field values and brackets lie in a (2d+1)-dimensional space while there
    are d(2d+1) parameters, so the rank condition fails for every choice of
    points once d >= 2.  For d = 1 the
    single bracket spans the vertical direction and the rank condition holds.
    """
    if not (is_int(d) and d >= 1):
        raise DimensionMismatch(f"kohn needs an integer d >= 1, got {d!r}")
    dim = 2 * d + 1
    # field n is d/d(n) + gain[n] * x[partner[n]] d/dt
    n = np.arange(2 * d)
    partner, gain = (n + d) % (2 * d), np.repeat([2.0, -2.0], d)
    A = np.zeros((2 * d, dim, dim))
    A[n, dim - 1, partner] = gain
    return NamedSystem(
        f"kohn_{d}" if d != 2 else "kohn",
        VectorFieldSet.affine(A, np.eye(2 * d, dim)),
        recommended_points=[np.zeros(dim)],
    )


def constant_fields(ell=2, d=2) -> NamedSystem:
    """The first ell canonical basis fields on R^d; all brackets vanish.

    Solutions translate by the level-1 increment only, so the area of the
    driver leaves no trace in the flow.
    """
    if not (is_int(ell) and is_int(d) and 1 <= ell <= d):
        raise DimensionMismatch(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    return NamedSystem(
        f"constant_{ell}_{d}",
        VectorFieldSet.affine(np.zeros((ell, d, d)), np.eye(ell, d)),
        recommended_points=[np.zeros(d)],
    )


SYSTEM_BUILDERS = {
    "rolling_ball": rolling_ball,
    "unicycle": unicycle,
    "cvt": cvt,
    "triple_product": triple_product,
    "kohn": kohn,
    "constant": constant_fields,
}
