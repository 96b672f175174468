"""Level-2 weakly geometric rough paths on time grids.

An increment is the pair (x, a): the level-1 increment and the antisymmetric
area swept over one interval.  Only this pair is stored; the full second-level
tensor  XX = 0.5 * outer(x, x) + a  is materialised on demand, so the
weak-geometricity constraint (symmetric part equals 0.5 * outer(x, x)) holds
structurally and cannot be violated.  `RoughIncrement` is the one spelling of
an increment: it holds one pair, or a stack of pairs with one per row.

Everything here is immutable after construction and all operations are pure,
so one path can drive any number of rows of a lockstep batch.  The only
random number generation is the one draw of `sample_brownian_fine`, seeded
per call.  `GridRoughPath._spans` is the one Chen inverse: increments,
`coarsen`, the Brownian lift and the Hölder estimates all take it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import (
    DimensionMismatch, IndexOutOfRange, InvalidGrid, InvalidParameter, count, is_int,
    non_negative, positive,
)

# Symmetric residue above this threshold signals a caller bug rather than
# accumulated round-off; smaller residues are silently antisymmetrized away.
_ANTISYM_REJECT = 1e-9


def _antisymmetric_part(a, context):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidParameter(f"{context}: matrix has non-finite entries")
    a_t = np.swapaxes(a, -1, -2)
    with np.errstate(over="ignore"):  # entries beyond about 9e307 overflow when doubled
        residue = np.max(np.abs(a + a_t)) * 0.5 if a.size else 0.0
        part = 0.5 * (a - a_t)
    if not residue <= _ANTISYM_REJECT:
        raise InvalidParameter(
            f"{context}: matrix is not antisymmetric (symmetric residue {residue:.3e})"
        )
    if not np.all(np.isfinite(part)):
        raise InvalidParameter(f"{context}: matrix entries overflow when antisymmetrized")
    return part


class RoughIncrement:
    """Rough-path increment over one interval, or a stack of them.

    x is the level-1 increment, of shape (ell,), and a the antisymmetric area
    matrix (ell, ell); a stack of N increments, x of shape (N, ell) and a of
    shape (N, ell, ell), drives the rows of a lockstep log-ODE step one
    increment each.  An absent a is zero.  The constructor rejects non-finite
    entries of x or a, antisymmetrizes a and rejects inputs whose symmetric
    part is too large to be round-off, by the same rule for every row, so row
    n of a stack is bitwise the increment built from row n alone.
    """

    __slots__ = ("x", "a")

    def __init__(self, x, a=None):
        x = np.array(x, dtype=float)
        if x.ndim not in (1, 2) or x.size == 0:
            raise DimensionMismatch(f"increment x must have shape (ell,) or (N, ell), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidParameter("RoughIncrement: increment x has non-finite entries")
        shape = x.shape + x.shape[-1:]
        if a is None:
            a = np.zeros(shape)
        else:
            a = np.asarray(a, dtype=float)
            if a.shape != shape:
                raise DimensionMismatch(f"area must have shape {shape}, got {a.shape}")
            a = _antisymmetric_part(a, "RoughIncrement")
        x.setflags(write=False)
        a.setflags(write=False)
        self.x = x
        self.a = a

    @property
    def ell(self):
        return self.x.shape[-1]

    @property
    def second_level(self):
        """Full second-level tensor 0.5 * outer(x, x) + a, per increment of a stack."""
        return _second_level(self.x, self.a)

    def __repr__(self):
        return f"RoughIncrement(ell={self.ell}, |x|={np.linalg.norm(self.x):.3g})"


def _second_level(x, a):
    """The second level 0.5 * outer(x, x) + a of increments x and areas a, over leading axes."""
    return 0.5 * x[..., :, None] * x[..., None, :] + a


def _cross(x, y):
    """Chen cross term 0.5 * (outer(x, y) - outer(y, x)), over any leading axes."""
    xy = x[..., :, None] * y[..., None, :]
    return 0.5 * (xy - np.swapaxes(xy, -1, -2))


def _check_alpha(alpha):
    """alpha as a float if it lies in (1/3, 1/2], else InvalidParameter: the rule of the
    inert exponent that `read_path_csv`, `solve --alpha` and `observe --alpha` accept."""
    alpha = float(alpha)
    if not (1.0 / 3.0 < alpha <= 0.5):
        raise InvalidParameter(f"alpha must lie in (1/3, 1/2], got {alpha}")
    return alpha


def chen_mul(left: RoughIncrement, right: RoughIncrement) -> RoughIncrement:
    """Compose the increment over [s,u] with the one over [u,t].

    The level-1 parts add; the area picks up the antisymmetrized cross term
    0.5 * (outer(left.x, right.x) - outer(right.x, left.x)).
    """
    if left.ell != right.ell:
        raise DimensionMismatch(f"cannot compose ell={left.ell} with ell={right.ell}")
    return RoughIncrement(left.x + right.x, left.a + right.a + _cross(left.x, right.x))


class GridRoughPath:
    """Rough path sampled on a time grid.

    Stores the path values at the grid points plus one antisymmetric area
    matrix per grid step.  Construction also sums the steps once into the
    prefix areas A_{0,t_k} by Chen's rule; with the level-1 prefix
    X_{0,t_k} = values[k] - values[0], the increment over any [t_i, t_j]
    follows in O(1) from the closed-form Chen inverse
    A_{ij} = A_{0j} - A_{0i} - 0.5 * (X_{0i} (x) X_{ij} - X_{ij} (x) X_{0i}).
    A path is its data: it stores no Holder exponent (`holder_norms` takes one).

    An absent step_areas is the canonical lift of the sampled values: a
    straight segment sweeps no area relative to its own chord, so the full
    second level of each step is exactly 0.5 * outer(dx, dx), and areas over
    wider intervals arise purely from Chen composition.
    """

    __slots__ = ("times", "values", "step_areas", "_prefix")

    def __init__(self, times, values, step_areas=None):
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidGrid("need at least two grid times")
        if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise InvalidGrid("grid times must be finite and strictly increasing")
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != times.size:
            raise InvalidGrid(f"got {values.shape[0]} value rows for {times.size} grid times")
        if not np.all(np.isfinite(values)):
            raise InvalidGrid("path values must be finite")
        n, ell = times.size - 1, values.shape[1]
        if step_areas is not None:
            step_areas = np.array(step_areas, dtype=float)
            if step_areas.shape != (n, ell, ell):
                raise InvalidGrid(
                    f"step_areas must have shape {(n, ell, ell)}, got {step_areas.shape}"
                )
            step_areas = _antisymmetric_part(step_areas, "step areas")
        # prefix[r, j, k] is the (j, k) Chen area of the polygon over the first r
        # steps plus step_areas[:r, j, k], one cumsum per pair j != k, so no
        # (n, ell, ell) temporary is built; computing the lower triangle rather
        # than negating the upper one, and adding no absent step areas, keeps the
        # sign of every zero.  Paths of huge values may overflow here; they are
        # still valid data (their CSV round trip is exact), only their wide
        # increments are not finite.
        prefix = np.zeros((n + 1, ell, ell))
        with np.errstate(over="ignore", invalid="ignore"):
            x0, dx = values[:-1] - values[0], np.diff(values, axis=0)
            for j, k in zip(*np.nonzero(~np.eye(ell, dtype=bool))):
                steps = 0.5 * (x0[:, j] * dx[:, k] - x0[:, k] * dx[:, j])
                if step_areas is not None:
                    steps += step_areas[:, j, k]
                np.cumsum(steps, out=prefix[1:, j, k])
        if step_areas is None:
            step_areas = np.zeros((n, ell, ell))
        for arr in (times, values, step_areas, prefix):
            arr.setflags(write=False)
        self.times = times
        self.values = values
        self.step_areas = step_areas
        self._prefix = prefix

    @property
    def n(self):
        """Number of grid steps."""
        return self.times.size - 1

    @property
    def ell(self):
        return self.values.shape[1]

    def _spans(self, i, j):
        """(x, a) over [t_i, t_j] for index arrays i, j, by the Chen inverse of the prefixes.

        A wide span of huge values may overflow to a non-finite (x, a); the
        callers that build increments or step areas from it reject those."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.values[j] - self.values[i]
            a = self._prefix[j] - self._prefix[i] - _cross(self.values[i] - self.values[0], x)
        return x, a

    def _check_span(self, i, j):
        """IndexOutOfRange unless i and j are integers with 0 <= i < j <= n."""
        if not (is_int(i) and is_int(j) and 0 <= i < j <= self.n):
            raise IndexOutOfRange(f"need integers 0 <= i < j <= {self.n}, got i={i!r}, j={j!r}")

    def increment(self, i, j) -> RoughIncrement:
        """Increment over [t_i, t_j], the Chen composition of steps i..j-1."""
        self._check_span(i, j)
        return RoughIncrement(*self._spans(i, j))

    def __repr__(self):
        return f"GridRoughPath(n={self.n}, ell={self.ell})"


def _factor(factor, what):
    """factor as an int, or InvalidParameter unless it is an integer >= 1 (an integral
    float passes, a bool does not)."""
    if isinstance(factor, (bool, np.bool_)) or not (float(factor).is_integer() and factor >= 1):
        raise InvalidParameter(f"{what} factor must be an integer >= 1, got {factor!r}")
    return int(factor)


def refine(path: GridRoughPath, factor: int) -> GridRoughPath:
    """Split every grid step into `factor` equal Chen substeps.

    A substep carries (x/factor, a/factor); composing the substeps returns the
    original step exactly, because the cross terms of collinear level-1 pieces
    vanish.  Values are interpolated linearly.
    """
    factor = _factor(factor, "refinement")
    if factor == 1:
        return path
    t, v = path.times, path.values
    frac = np.arange(factor) / factor
    dt = np.diff(t)
    dx = np.diff(v, axis=0)
    new_times = np.append((t[:-1, None] + frac[None, :] * dt[:, None]).ravel(), t[-1])
    inner = v[:-1, None, :] + frac[None, :, None] * dx[:, None, :]
    new_values = np.vstack([inner.reshape(-1, path.ell), v[-1][None, :]])
    new_areas = np.repeat(path.step_areas / factor, factor, axis=0)
    return GridRoughPath(new_times, new_values, new_areas)


def coarsen(path: GridRoughPath, factor: int) -> GridRoughPath:
    """Keep every `factor`-th grid point, Chen-composing the step data between.

    No interpolation: the surviving values and the composed (x, a) step data
    are exactly those of the original path on the coarse grid.
    """
    factor = _factor(factor, "coarsening")
    if path.n % factor != 0:
        raise InvalidGrid(f"cannot coarsen {path.n} steps by factor {factor}")
    if factor == 1:
        return path
    ends = np.arange(0, path.n + 1, factor)
    _, areas = path._spans(ends[:-1], ends[1:])
    return GridRoughPath(path.times[ends], path.values[ends], areas)


def circle_samples(n):
    """Unit circle sampled at n+1 uniform parameter values over one loop."""
    n = count(n, "n")
    times = np.linspace(0.0, 2.0 * np.pi, n + 1)
    return times, np.column_stack([np.cos(times), np.sin(times)])


def sample_brownian_fine(ell, n_coarse, n_fine, horizon, seed) -> GridRoughPath:
    """Piecewise-linear lift of a Brownian path on its fine simulation grid.

    Draws n_coarse * n_fine Gaussian steps over [0, horizon], each with
    variance equal to the step length; this is the package's one Brownian
    draw.  Every step area is zero, so all area comes from Chen composition.
    Deterministic given the seed.  A seed that is not an integer >= 0 raises
    InvalidParameter.
    """
    ell, n_coarse, n_fine = count(ell, "ell"), count(n_coarse, "n_coarse"), count(n_fine, "n_fine")
    horizon = positive(horizon, "horizon")
    rng = np.random.default_rng(non_negative(seed, "seed"))
    n = n_coarse * n_fine
    steps = rng.standard_normal((n, ell)) * np.sqrt(horizon / n)
    values = np.vstack([np.zeros(ell), np.cumsum(steps, axis=0)])
    return GridRoughPath(np.linspace(0.0, horizon, n + 1), values)


def sample_brownian_lift(ell, n_coarse, n_fine, horizon, seed) -> GridRoughPath:
    """Brownian rough path on the coarse grid of n_coarse steps.

    `coarsen` of `sample_brownian_fine` by n_fine: each coarse step carries
    the increment and the area that the fine polygon swept over it, taken by
    the Chen inverse of the fine path's prefix sums.  So the coarse path is
    exactly the fine one seen on the coarse grid, with its checks of the
    arguments.
    """
    return coarsen(sample_brownian_fine(ell, n_coarse, n_fine, horizon, seed), n_fine)


@functools.lru_cache(maxsize=None)
def _pairs(ell):
    """Index arrays (j, k) of the pairs j < k, row by row: the one order of the area
    components, the bracket columns and the path-CSV area columns."""
    j, k = np.triu_indices(ell, 1)
    j.setflags(write=False)
    k.setflags(write=False)
    return j, k


def area_components(a):
    """Strict upper triangle of an antisymmetric matrix, pairs (j,k) with j<k row by row.

    Leading axes are kept: a stack of (ell, ell) matrices gives a stack of vectors.
    """
    a = np.asarray(a, dtype=float)
    j, k = _pairs(a.shape[-1])
    return a[..., j, k]


def area_matrix(components, ell):
    """Antisymmetric matrix whose strict upper triangle is `components` (inverse of area_components).

    Leading axes are kept: a stack of component vectors gives a stack of matrices.
    """
    components = np.asarray(components, dtype=float)
    expected = ell * (ell - 1) // 2
    if components.shape[-1:] != (expected,):
        raise DimensionMismatch(
            f"need {expected} area components for ell={ell}, got {components.shape}"
        )
    a = np.zeros(components.shape[:-1] + (ell, ell))
    j, k = _pairs(ell)
    a[..., j, k] = components
    return a - np.swapaxes(a, -1, -2)


def _split(theta, ell):
    """(x, a) of parameter vectors theta = [x; a^{jk}, j < k], over leading axes: the first
    ell entries are the increment, the rest the area components in `_pairs` order."""
    return theta[..., :ell], area_matrix(theta[..., ell:], ell)


def make_linear_rough_path(v, ell, times) -> GridRoughPath:
    """Rough path whose increments are exactly linear in the interval length.

    Over any grid interval [s,t] the increment is (v_lin*(t-s), A*(t-s)), with
    v_lin the first ell entries of v and A the antisymmetric matrix built from
    the remaining ell*(ell-1)/2 entries.  Assigning each step its (v*dt) pair
    achieves this on every interval: the Chen cross terms vanish because all
    level-1 pieces are collinear.  v = 0 gives the null rough path.
    """
    v, ell = np.asarray(v, dtype=float), count(ell, "ell")
    m = ell * (ell + 1) // 2
    if v.shape != (m,):
        raise DimensionMismatch(f"v must have length {m} for ell={ell}, got {v.shape}")
    times = np.asarray(times, dtype=float)
    v_lin, a_mat = _split(v, ell)
    with np.errstate(over="ignore", invalid="ignore"):  # GridRoughPath rejects the overflow
        values = np.outer(times - times[0], v_lin)
        step_areas = a_mat[None, :, :] * np.diff(times)[:, None, None]
    return GridRoughPath(times, values, step_areas)


@dataclass(frozen=True)
class HolderNorms:
    """Grid estimates of the three components of the rough-path norm."""

    sup_norm: float
    holder1: float
    holder2: float


def holder_norms(path: GridRoughPath, alpha) -> HolderNorms:
    """Grid estimates of sup |X|, the level-1 alpha-Holder norm and the
    level-2 (2*alpha)-Holder norm, for the caller's exponent alpha in (0, 1).

    All pairs of grid points are scanned, so these are lower bounds of the
    true suprema; O(n^2) work, intended for desk-scale grids.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidParameter("alpha must lie in (0, 1)")
    t, v, n = path.times, path.values, path.n
    sup_norm = float(np.max(np.linalg.norm(v, axis=1)))
    holder1 = 0.0
    holder2 = 0.0
    for i in range(n):
        dt = t[i + 1 :] - t[i]
        xj, a_ij = path._spans(i, np.arange(i + 1, n + 1))
        holder1 = max(holder1, float(np.max(np.linalg.norm(xj, axis=1) / dt**alpha)))
        xx = _second_level(xj, a_ij)
        frob = np.sqrt(np.sum(xx * xx, axis=(1, 2)))
        holder2 = max(holder2, float(np.max(frob / dt ** (2 * alpha))))
    return HolderNorms(sup_norm, holder1, holder2)


def _path_header(ell, with_areas):
    header = ["t"] + io.numbered("X", ell)
    if with_areas:
        header += [f"A{j + 1}{k + 1}" for j, k in zip(*_pairs(ell))]
    return header


def write_path_csv(path: GridRoughPath, file):
    """Write the path grid to CSV: t,X1..Xl then one area column per pair (j,k), j<k.

    Row i carries the step area of [t_{i-1}, t_i]; the first row is zeros.
    """
    areas = area_components(path.step_areas)
    areas = np.vstack([np.zeros((1, areas.shape[1])), areas])
    data = np.column_stack([path.times, path.values, areas])
    io.write_table(file, _path_header(path.ell, path.ell > 1), data)


def read_path_csv(file, alpha=0.5) -> GridRoughPath:
    """Read a path CSV written by write_path_csv.

    The header must be exactly t,X1..Xl or t,X1..Xl,A12,A13,..; without area
    columns the result is the piecewise-linear lift of the sampled values.
    alpha is inert: a path carries no exponent, so it is checked by `_check_alpha`
    and changes nothing.  The benchmark passes it; ROADMAP item 1 removes it.
    """
    _check_alpha(alpha)
    header, data = io.read_table(file)
    ell = sum(name.startswith("X") for name in header)
    with_areas = len(header) > 1 + ell
    if ell == 0 or header != _path_header(ell, with_areas):
        raise InvalidGrid(
            f"{file}:1: header must be t,X1..Xl[,A12,A13,...], got {','.join(header)!r}"
        )
    step_areas = area_matrix(data[1:, 1 + ell :], ell) if with_areas else None
    return GridRoughPath(data[:, 0], data[:, 1 : 1 + ell], step_areas)
