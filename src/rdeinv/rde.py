"""Integrators for rough differential equations and flow observation.

Two one-step schemes are provided: the second-order Euler step (level-1 term
plus second-level correction) and the log-ODE step (time-1 RK4 flow of the
frozen field built from the increment and the field brackets).  Both are pure
functions of their inputs; trajectories for distinct starting points or
intervals can be computed in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
)
from .roughpath import GridRoughPath, RoughIncrement
from .vectorfields import VectorFieldSet


@dataclass(eq=False)
class Trajectory:
    """Solution samples on a time grid: states[i] approximates x(times[i])."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise DimensionMismatch("one state row per grid time required")
        if not np.all(np.isfinite(self.states)):
            raise NonFinite("trajectory contains non-finite states")


@dataclass(eq=False)
class ObservationSet:
    """Base points, an interval [s, t], and the observed flow images."""

    base_points: np.ndarray
    s: float
    t: float
    observed: np.ndarray

    def __post_init__(self):
        self.base_points = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        self.observed = np.atleast_2d(np.asarray(self.observed, dtype=float))
        if self.base_points.shape[0] < 1:
            raise InvalidParameter("need at least one base point")
        if self.observed.shape != self.base_points.shape:
            raise DimensionMismatch("observed and base points must have equal shapes")
        if not self.s < self.t:
            raise InvalidParameter(f"need s < t, got s={self.s}, t={self.t}")
        if not (
            np.all(np.isfinite(self.base_points)) and np.all(np.isfinite(self.observed))
        ):
            raise NonFinite("observation data must be finite")

    @property
    def c(self):
        return self.base_points.shape[0]


def _check_step_inputs(V: VectorFieldSet, x, inc: RoughIncrement):
    x = np.asarray(x, dtype=float)
    if inc.ell != V.ell:
        raise DimensionMismatch(
            f"increment has ell={inc.ell} but the field set has ell={V.ell}"
        )
    if x.shape != (V.d,):
        raise DimensionMismatch(f"state must have shape {(V.d,)}, got {x.shape}")
    return x


def euler2_step(V: VectorFieldSet, x, inc: RoughIncrement):
    """Second-order Euler step: x + V_i(x) x^i + (V_i V_j)(x) XX^{ij}.

    XX is the full second level 0.5*outer(x_inc, x_inc) + a, and V_i V_j is
    the directional derivative DV_j V_i, paired index-for-index with XX.
    """
    x = _check_step_inputs(V, x, inc)
    fields = V.fields_at(x)
    out = x + inc.x @ fields
    xx = inc.second_level
    for k in range(V.ell):
        out = out + V.jacobian(k, x) @ (xx[:, k] @ fields)
    return out


def _frozen_field(V: VectorFieldSet, inc: RoughIncrement):
    """Autonomous field x^i V_i + a^{jk} [V_j, V_k] (sum over j < k)."""
    x_inc = inc.x
    pairs = [
        (j, k, inc.a[j, k])
        for j in range(V.ell)
        for k in range(j + 1, V.ell)
        if inc.a[j, k] != 0.0
    ]
    evals = V._evals  # bypass per-call shape checks in the RK4 inner loop

    if not pairs:

        def field(z):
            out = x_inc[0] * evals[0](z)
            for i in range(1, len(evals)):
                if x_inc[i] != 0.0:
                    out += x_inc[i] * evals[i](z)
            return out

        return field

    def field(z):
        fields = V.fields_at(z)
        jacs = V.jacobians_at(z)
        out = x_inc @ fields
        for j, k, w in pairs:
            out = out + w * (jacs[k] @ fields[j] - jacs[j] @ fields[k])
        return out

    return field


def logode_step(V: VectorFieldSet, x, inc: RoughIncrement, n_sub=16):
    """Log-ODE step: time-1 map of the frozen field, integrated by classical
    RK4 with n_sub uniform substeps.

    Fixed substeps keep the result deterministic and reproducible, which the
    order-of-convergence fits rely on.
    """
    x = _check_step_inputs(V, x, inc)
    n_sub = int(n_sub)
    if n_sub < 1:
        raise InvalidParameter("n_sub must be >= 1")
    w = _frozen_field(V, inc)
    h = 1.0 / n_sub
    z = x.copy()
    for _ in range(n_sub):
        k1 = w(z)
        k2 = w(z + 0.5 * h * k1)
        k3 = w(z + 0.5 * h * k2)
        k4 = w(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise NonFinite("log-ODE state blew up")
    return z


_STEPPERS = {"euler2": euler2_step, "logode": logode_step}


def solve(V: VectorFieldSet, x0, path: GridRoughPath, method="logode", n_sub=16):
    """Integrate the rough differential equation along the grid.

    Applies the chosen one-step scheme to the stored per-step increments;
    states[0] is x0.
    """
    if method not in _STEPPERS:
        raise InvalidParameter(f"method must be one of {sorted(_STEPPERS)}, got {method!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (V.d,):
        raise DimensionMismatch(f"x0 must have shape {(V.d,)}, got {x0.shape}")
    states = np.empty((path.n + 1, V.d))
    states[0] = x0
    z = x0
    for i in range(path.n):
        inc = path.step_increment(i)
        if method == "euler2":
            z = euler2_step(V, z, inc)
        else:
            z = logode_step(V, z, inc, n_sub)
        states[i + 1] = z
    return Trajectory(path.times.copy(), states)


def observe_flow(
    V: VectorFieldSet, points, path: GridRoughPath, i, j, n_internal=64, n_sub=4
) -> ObservationSet:
    """Flow images of the base points over [t_i, t_j].

    Every grid step is split into n_internal Chen substeps, each integrated
    with a log-ODE step; n_internal is the observation accuracy knob and only
    needs to push the integration error well below the reconstruction scale.
    """
    if not (0 <= i < j <= path.n):
        raise IndexOutOfRange(f"need 0 <= i < j <= {path.n}, got i={i}, j={j}")
    n_internal = int(n_internal)
    if n_internal < 1:
        raise InvalidParameter("n_internal must be >= 1")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    subs = []
    for s in range(i, j):
        inc = path.step_increment(s)
        subs.append(RoughIncrement(inc.x / n_internal, inc.a / n_internal))
    observed = np.empty_like(points)
    for r, y in enumerate(points):
        z = y
        for sub in subs:
            for _ in range(n_internal):
                z = logode_step(V, z, sub, n_sub)
        observed[r] = z
    return ObservationSet(points, float(path.times[i]), float(path.times[j]), observed)


def write_trajectory_csv(traj: Trajectory, file):
    """Write a trajectory to CSV with header t,x1,...,xd."""
    header = ["t"] + io.numbered("x", traj.states.shape[1])
    io.write_table(file, header, np.column_stack([traj.times, traj.states]))


def read_trajectory_csv(file) -> Trajectory:
    """Read a trajectory CSV written by write_trajectory_csv."""
    header, data = io.read_table(file)
    if len(header) < 2 or header != ["t"] + io.numbered("x", len(header) - 1):
        raise InvalidParameter(f"{file}:1: header must be t,x1..xd, got {','.join(header)!r}")
    return Trajectory(data[:, 0], data[:, 1:])
