"""Integrators for rough differential equations and flow observation.

Both one-step schemes take their field from one kernel, `_level2_step`: the
block row [I | DV_1 | ... | DV_ell] times a coefficient stack [x; c^T] times
the fields, x^i V_i + sum_k DV_k p_k with p = c^T V.  With the second level
c = XX it is the second-order Euler step on one state, which is also the
Taylor recovery model of `reconstruct`; with the area c = a it is the frozen
field of the log-ODE step (time-1 RK4 flow), which moves an (N, d) stack of
states in lockstep, each row with its own increment; for an affine field set
that step is one matrix per row, applied once per substep.  Each scheme is one
run, `_euler2_states` or `_logode_states`, over the stacks of every grid step,
built before it; `euler2_step` and `logode_step` are one checked step of it.
The euler2 run first sweeps blocks of steps (Picard iteration, or waveform
relaxation): one stacked evaluation at guessed start states takes every step
of a block, and one cumsum adds them in order, as the loop adds.  The
exactness rule keeps row i once rows 0..i-1 reproduce the previous sweep bit
for bit, which proves row i's start the true one; the in-order loop steps
whatever the sweeps leave.  Both rely on each row of a stacked evaluation
being bitwise the evaluation of that row alone, so the run is bitwise a loop
of `euler2_step`.
`solve` keeps every grid state of one start; flow observation stacks every
base point, driver path and observation interval into one log-ODE run and
returns the states at the interval ends as one flat list, path-major.  All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .errors import DimensionMismatch, InvalidParameter, NonFinite, count, finite
from .roughpath import GridRoughPath, RoughIncrement, _second_level
from .vectorfields import VectorFieldSet

# The default RK4 substep count of every log-ODE step, solve, observation and flow model.
# A step's error is set by its increment: once RK4 over a grid step is at round-off, more
# substeps only add round-off.
N_SUB = 16

# The Picard sweeps of an euler2 solve (`_euler2_states`): at most _SWEEPS per block of grid
# steps, the blocks _BLOCK_FIRST steps long and doubling up to _BLOCK_LAST while they settle.
_SWEEPS, _BLOCK_FIRST, _BLOCK_LAST = 3, 64, 1024


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
        finite(self.base_points, "base points")
        finite(self.observed, "observed images")

    @property
    def c(self):
        return self.base_points.shape[0]


def _check_step(V: VectorFieldSet, x, inc: RoughIncrement):
    """The state, one (d,) or a stack (N, d), as a float array checked against V and inc."""
    if inc.ell != V.ell:
        raise DimensionMismatch(f"increment has ell={inc.ell} but the field set has ell={V.ell}")
    x = V._states(x)
    if inc.x.ndim == 2 and (x.ndim == 1 or inc.x.shape[0] != x.shape[0]):
        raise DimensionMismatch(
            f"a stack of {inc.x.shape[0]} increments needs {inc.x.shape[0]} state rows, got {x.shape}"
        )
    return x


def euler2_step(V: VectorFieldSet, x, inc: RoughIncrement):
    """Second-order Euler step: x + V_i(x) x^i + (V_i V_j)(x) XX^{ij}.

    XX is the full second level 0.5*outer(x_inc, x_inc) + a, and V_i V_j is
    DV_j V_i, summed by `_level2_step` without the ell^2 table.  x is one
    state (d,) and inc one increment; stacks are rejected.  This is one pass
    of the loop that `solve` runs.
    """
    x = _check_step(V, x, inc)
    if x.ndim != 1:
        raise DimensionMismatch(f"euler2_step takes one state of shape ({V.d},), got {x.shape}")
    return _euler2_states(V, x, _coefficients((1,), inc.x, inc.second_level))[0]


def _coefficients(lead, x, rows):
    """[x; rows^T], lead + (1 + ell, ell), from level-1 increments x and rows XX or a."""
    coef = np.empty(lead + (1 + x.shape[-1], x.shape[-1]))
    coef[..., 0, :] = x
    coef[..., 1:, :] = np.swapaxes(rows, -1, -2)
    return coef


def _block_row(lead, ell, d):
    """The block row [I | DV_1 | ... | DV_ell] (..., d, (1 + ell) d) of states lead, and the
    view (..., d, ell, d) of its DV blocks, which takes the Jacobians swapped on axes -3, -2."""
    blocks = np.empty(lead + (d, 1 + ell, d))
    blocks[..., 0, :] = np.eye(d)
    return blocks.reshape(lead + (d, -1)), blocks[..., 1:, :]


def _level2_step(coef, fields, row):
    """x^i V_i + sum_k DV_k p_k, p = c^T V, from coef = [x; c^T] (..., 1 + ell, ell), the
    fields (..., ell, d) and the block row (..., d, (1 + ell) d): with c = XX the level-2
    expansion less the state, with antisymmetric c = a the log-ODE field.  Leading axes
    broadcast, one matmul per state, so no state's result depends on its stack."""
    g = coef @ fields  # the level-1 term over p_1 .. p_ell
    return (row @ g.reshape(g.shape[:-2] + (-1, 1)))[..., 0]


def _euler2_states(V: VectorFieldSet, z, coef):
    """The euler2 states from the checked state z, one step per stack [x; XX^T] in coef,
    bitwise the in-order loop of one checked field and Jacobian evaluation per step.

    Blocks of steps are first swept (`_sweep`): every step of a block is taken at once
    from guessed start states.  Exactness rule: row i is final once rows 0..i-1 of a
    sweep equal the previous sweep bit for bit, for then row i started from its true
    state.  Blocks start at _BLOCK_FIRST steps and double up to _BLOCK_LAST while they
    settle in _SWEEPS sweeps; after a block that does not, the remaining steps (and a
    last single step) go through the loop, which raises any error at its true step.
    A finished sweep fixes one more row at least, so the evaluator calls of each kind
    never exceed the steps, but for one sweep that raises.
    """
    states = np.empty((len(coef), V.d))
    done, size = 0, _BLOCK_FIRST
    while len(coef) - done > 1:
        block = coef[done : done + size]
        settled = _sweep(V, z, block, states[done : done + size])
        done += settled
        z = states[done - 1] if done else z
        if settled < len(block):
            break
        size = min(2 * size, _BLOCK_LAST)
    row, slots = _block_row((), V.ell, V.d)
    for s in range(done, len(coef)):
        fields = V._at(z)
        slots[...] = V._at(z, jacobians=True).swapaxes(0, 1)
        z = states[s] = z + _level2_step(coef[s], fields, row)
    return states


def _sweep(V: VectorFieldSet, z, coef, out):
    """Write the leading euler2 states of one block from its true start z into out, by
    at most _SWEEPS Picard sweeps, and return how many rows the exactness rule proves final.

    A sweep evaluates the fields and Jacobians once, as stacks, at the guessed start
    states of every step (at first all z, then the previous sweep's states), takes
    every step by `_level2_step` and sums them in order from z by one cumsum, which
    adds as the loop adds.  States are compared as uint64 bits, so signed zeros and
    NaNs count.  A sweep that reproduces its guesses fixes the block.  Guesses may
    overflow or leave a field's domain: sweeps run with numpy's warnings silenced, and
    one that raises, whatever the exception, ends the block's sweeps.
    """
    n, final = len(coef), 0
    row, slots = _block_row((n,), V.ell, V.d)
    starts = np.tile(z, (n, 1))
    try:
        with np.errstate(all="ignore"):
            for _ in range(_SWEEPS):
                fields = V._at(starts)
                slots[...] = V._at(starts, jacobians=True).swapaxes(-3, -2)
                steps = _level2_step(coef, fields, row)
                steps[0] += z
                states = np.cumsum(steps, axis=0)
                same = (states[:-1].view(np.uint64) == starts[1:].view(np.uint64)).all(axis=1)
                final = n if same.all() else 1 + int(same.argmin())
                out[:final] = states[:final]
                if final == n:
                    break
                starts[1:] = states[:-1]
    except Exception:  # raised at a guess, which proves nothing: the loop meets real errors
        pass
    return final


def logode_step(V: VectorFieldSet, x, inc: RoughIncrement, n_sub=N_SUB):
    """Log-ODE step: the time-1 map of the frozen field
    x^i V_i + sum_{j<k} a^{jk} [V_j, V_k], by classical RK4 with n_sub
    uniform substeps.

    x is one state (d,) or a stack (N, d) of states stepped in lockstep; inc
    is one increment (x of shape (ell,)) shared by every row, or a stack of N
    increments (x of shape (N, ell)), one per row.  n_sub must be an integer
    >= 1.  Fixed substeps keep the result deterministic and reproducible,
    which the order-of-convergence fits rely on.  Overflow raises NonFinite.  It is one step of `_logode_states`, so each
    row's result is bitwise independent of the stack it rides in.
    """
    x = _check_step(V, x, inc)
    z = np.atleast_2d(x)
    [z] = _logode_states(V, z, _coefficients((1, len(z)), inc.x, inc.a), count(n_sub, "n_sub"))
    return z if x.ndim == 2 else z[0]


def _logode_states(V: VectorFieldSet, z, coef, n_sub):
    """Yield the checked (N, d) stack z after a log-ODE step of n_sub RK4 substeps along
    each stack [x; a^T] (N, 1 + ell, ell) of coef, one increment per row.

    An affine set (`VectorFieldSet.affine`) takes the matrix route: its frozen
    field is one (d+1, d+1) matrix M per row on [y; 1], and RK4 with n_sub
    substeps on it is exactly n_sub matvecs with T_4(M / n_sub), T_4 the
    degree-4 Taylor polynomial.  Any other set takes the RK4 route: each stage
    makes one field and, in a step with a nonzero area, one Jacobian
    evaluation, and takes the frozen field from `_level2_step`, the euler2
    kernel, with the area a in place of the second level.  Every product is a
    matmul batched over rows.  Overflow raises NonFinite on both routes.
    """
    h = 1.0 / n_sub
    if V.generators is not None:
        for c in coef:
            with np.errstate(over="ignore", invalid="ignore"):  # NonFinite is raised instead
                z = _affine_substeps(V.generators, z, c, h, n_sub)
            yield z
        return
    row, slots = _block_row((len(z),), V.ell, V.d)  # once per run, written at every stage

    def w(c, brackets, y):  # the frozen field of the stack c at the states y
        fields = V._at(y)
        if not brackets:
            return (c @ fields)[:, 0]
        slots[...] = V._at(y, jacobians=True).swapaxes(-3, -2)
        return _level2_step(c, fields, row)

    for c in coef:
        b = bool(c[:, 1:].any())
        with np.errstate(over="ignore", invalid="ignore"):  # NonFinite is raised instead
            for _ in range(n_sub):
                k1 = w(c, b, z)
                k2 = w(c, b, z + 0.5 * h * k1)
                k3 = w(c, b, z + 0.5 * h * k2)
                k4 = w(c, b, z + h * k3)
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.isfinite(z).all():
                    raise NonFinite("log-ODE state blew up")
        yield z


def _affine_substeps(G, z, coef, h, n_sub):
    """The RK4 substeps of a log-ODE step on affine fields with generators G: per row, T_4(hM)
    applied n_sub times to [z; 1], M = sum_i x^i G_i + sum_k G_k P_k, P_k = sum_j a^{jk} G_j."""
    n, dim = len(z), G.shape[-1]
    g = (coef @ G.reshape(len(G), -1)).reshape(n, -1, dim, dim)  # sum x^i G_i, P_1 .. P_ell
    # plus [G_1 | ... | G_ell] times P_1 .. P_ell stacked, exact zeros for a zero area
    hm = h * (g[:, 0] + G.transpose(1, 0, 2).reshape(dim, -1) @ g[:, 1:].reshape(n, -1, dim))
    t = eye = np.eye(dim)
    for c in (4.0, 3.0, 2.0, 1.0):  # Horner's rule
        t = eye + (hm / c) @ t
    zz = np.concatenate([z, np.ones((n, 1))], axis=1)[..., None]
    for _ in range(n_sub):
        zz = t @ zz
    # a matvec spreads a NaN or an infinity to the whole state: one check covers every substep
    if not np.isfinite(zz).all():
        raise NonFinite("log-ODE state blew up")
    return zz[:, :-1, 0]


_STEPPERS = {"euler2": euler2_step, "logode": logode_step}


def solve(V: VectorFieldSet, x0, path: GridRoughPath, method="logode", n_sub=N_SUB):
    """Integrate the rough differential equation along the grid.

    Applies the chosen one-step scheme to the stored per-step increments;
    states[0] is x0.  n_sub, the log-ODE substep count, must be an integer
    >= 1 whatever the method.  It is bitwise a loop of `euler2_step` or of
    `logode_step`.
    """
    if method not in _STEPPERS:
        raise InvalidParameter(f"method must be one of {sorted(_STEPPERS)}, got {method!r}")
    n_sub = count(n_sub, "n_sub")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (V.d,):
        raise DimensionMismatch(f"x0 must have shape {(V.d,)}, got {x0.shape}")
    x0 = V._states(x0, "x0")
    if path.ell != V.ell:
        raise DimensionMismatch(f"path has ell={path.ell} but the field set has ell={V.ell}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step raises NonFinite
        dx = np.diff(path.values, axis=0)
        if method == "euler2":  # its unnamed stacks [x; XX^T] are freed before the vstack
            xx = _second_level(dx, path.step_areas)
            steps = _euler2_states(V, x0, _coefficients((path.n,), dx, xx))
        else:
            coef = _coefficients((path.n, 1), dx[:, None], path.step_areas[:, None])
            steps = [z for [z] in _logode_states(V, x0[None], coef, n_sub)]
    return Trajectory(path.times.copy(), np.vstack([x0, steps]))


def observe_flows(V: VectorFieldSet, points, paths, pairs, n_sub=N_SUB):
    """Flow images of the base points over [t_i, t_j], for every path and every (i, j) in pairs.

    Every (path, start, base point) triple is one row of a single stack, and
    one `_logode_states` run steps it along stacks [x; a^T] built before it:
    at step k each row takes its own path's grid step i + k, so intervals of
    any start, length and order cost one run over the longest.  Intervals
    that share a start share their rows; the states are kept at each interval
    end, and a row past its last end takes exact zero increments, which carry
    its state unchanged.  Every grid step takes n_sub RK4 substeps, by default
    N_SUB, the substeps of `solve`, so the image of x0 over [t_0, t_j] is
    bitwise solve's state j.  n_sub must be an integer >= 1; base points not
    of width d raise DimensionMismatch and non-finite ones InvalidParameter,
    before any step.

    Returns one flat list, path-major: entry p * len(pairs) + q is the
    ObservationSet of paths[p] over pairs[q].
    """
    paths, pairs = list(paths), list(pairs)
    if not paths or not pairs:
        raise InvalidParameter("need at least one path and one interval")
    for path in paths:
        for i, j in pairs:
            path._check_span(i, j)
        if path.ell != V.ell:
            raise DimensionMismatch(f"path has ell={path.ell} but the field set has ell={V.ell}")
    n_sub = count(n_sub, "n_sub")
    points = np.atleast_2d(V._states(points, "base points"))
    c = len(points)
    lengths = {}  # start -> steps up to its last end, in order of first appearance
    for i, j in pairs:
        lengths[i] = max(lengths.get(i, 0), j - i)
    span = max(lengths.values())
    # grid-step stacks [x; a^T], (steps, paths * starts * points, 1 + ell, ell): zero past a
    # start's last end, and each (path, start) block repeats its steps c times
    coef = np.zeros((span, len(paths), len(lengths), 1 + V.ell, V.ell))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step raises NonFinite
        for p, path in enumerate(paths):
            for r, (i, n) in enumerate(lengths.items()):
                coef[:n, p, r, 0] = path.values[i + 1 : i + n + 1] - path.values[i : i + n]
                coef[:n, p, r, 1:] = path.step_areas[i : i + n].swapaxes(-1, -2)
    coef = np.repeat(coef.reshape(span, -1, 1 + V.ell, V.ell), c, axis=1)
    z = np.tile(points, (len(paths) * len(lengths), 1))
    ends = {j - i for i, j in pairs}
    steps = enumerate(_logode_states(V, z, coef, n_sub), 1)
    at_step = {s: zs.reshape(len(paths), len(lengths), c, V.d) for s, zs in steps if s in ends}
    starts = list(lengths)
    return [
        ObservationSet(points, float(path.times[i]), float(path.times[j]),
                       at_step[j - i][p, starts.index(i)])
        for p, path in enumerate(paths)
        for i, j in pairs
    ]


def observe_flow(V: VectorFieldSet, points, path, i, j, n_internal=1, n_sub=N_SUB):
    """`observe_flows` of one path over [t_i, t_j], taking n_internal * n_sub substeps."""
    n_sub = count(n_internal, "n_internal") * count(n_sub, "n_sub")
    return observe_flows(V, points, [path], [(i, j)], n_sub)[0]


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
