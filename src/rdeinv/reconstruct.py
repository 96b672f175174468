"""Recovery of the driving rough path from flow observations.

The forward model for one interval is either the second-order Taylor map,
which is the euler2 step of `rde` at each base point, or the log-ODE flow map,
in the m = ell*(ell+1)/2 parameters (A, B): level-1 increment plus
strict-upper-triangle area components.  Recovery minimises the stacked squared
distance to the observed flow images by Gauss-Newton with Levenberg damping;
it is possible exactly when the matrix of field values and bracket values at
the base points has rank m.

The set-up (point blocks with the kernel's block rows, rank test, eps1,
eps2) belongs to the base points, so `reconstruct_many` makes it once per
base-point set.  The solver keeps every recovery at one set as rows of
arrays: a round is one batched solve and one batched model call, the Taylor
images from one level-2 kernel call and their Jacobians from one einsum, or
the flow images of every trial point and its finite-difference probes from
one log-ODE run.  The greedy point search scores all candidates of a round
with one batched SVD.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .errors import (
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
    count,
    finite,
    non_negative,
)
from .rde import (
    N_SUB, ObservationSet, _block_row, _check_step, _coefficients, _level2_step, logode_step,
)
from .roughpath import GridRoughPath, RoughIncrement, _antisymmetric_part, _second_level, _split
from .vectorfields import VectorFieldSet, bracket_columns, composition_table

RANK_TOL = 1e-10  # the rank counts singular values above RANK_TOL times the largest
FD_STEP = 1e-6  # the flow model's central-difference step
FD_FLOOR = float(np.sqrt(np.finfo(float).eps))  # its Jacobian's relative accuracy on RK4 images
MAX_ITER = 50  # the Gauss-Newton iteration budget of one recovery
TOL = 1e-12  # a recovery stops at a proposed step shorter than TOL


@dataclass(eq=False)
class ReconstructionMatrix:
    """The rank test at base points: their stacked field and bracket values, SVD and rank."""

    points: np.ndarray
    m: int
    mat: np.ndarray
    singular_values: np.ndarray
    rank: int

    @property
    def sigma_min(self):
        """sigma_m, the m-th singular value, 0.0 below m rows: eps1 when the rank is full."""
        return float(self.singular_values[self.m - 1]) if len(self.mat) >= self.m else 0.0

    @property
    def full_rank(self):
        return self.rank == self.m


@dataclass(eq=False)
class ReconstructionResult:
    """Recovered increment estimate with solver and trust-region diagnostics."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    residual: float
    residual_sup: float
    iterations: int
    eps1: float
    eps2: float
    method: str
    warnings: tuple = ()

    def __post_init__(self):
        self.a_hat = np.asarray(self.a_hat, dtype=float)
        self.b_hat = _antisymmetric_part(self.b_hat, "b_hat")
        if not np.isfinite(self.residual):
            raise NonFinite("residual must be finite")


def _point_blocks(V: VectorFieldSet, points):
    """The base points (c,d) with their fields (c,ell,d), composition table
    (c,ell,ell,d) and block rows (c,d,(1+ell)d), from one evaluation of each
    kind.  Non-finite points raise InvalidParameter, non-finite values NonFinite."""
    points = V._states(np.atleast_2d(points), "base points")
    with np.errstate(over="ignore", invalid="ignore"):
        fields, jacobians = V._at(points), V._at(points, jacobians=True)
        comps = composition_table(fields, jacobians)
    if not (np.all(np.isfinite(fields)) and np.all(np.isfinite(comps))):
        raise NonFinite("field or composition values at the base points are not finite")
    row, slots = _block_row((len(points),), V.ell, V.d)
    slots[...] = jacobians.swapaxes(-3, -2)
    return points, fields, comps, row


def _column_blocks(fields, comps):
    """Per-point (c, d, m) row blocks of the reconstruction matrix: field
    columns then bracket columns."""
    return np.concatenate([fields, bracket_columns(comps)], axis=1).transpose(0, 2, 1)


def _ranked(points, mat, sv):
    """The ReconstructionMatrix of mat at points, given its singular values sv."""
    rank = 0 if sv.size == 0 or sv[0] == 0.0 else int(np.sum(sv > RANK_TOL * sv[0]))
    return ReconstructionMatrix(points, mat.shape[1], mat, sv, rank)


def _matrix(points, fields, comps):
    blocks = _column_blocks(fields, comps)
    mat = blocks.reshape(-1, blocks.shape[2])
    return _ranked(points, mat, np.linalg.svd(mat, compute_uv=False))


def reconstruction_matrix(V: VectorFieldSet, points):
    """Matrix of field values and bracket values at the base points.

    Columns are V_1 .. V_ell followed by [V_j, V_k] for j < k in row-major
    pair order; row block r holds the values at point r.  The rank counts
    singular values above RANK_TOL times the largest one.
    """
    return _matrix(*_point_blocks(V, points)[:3])


def taylor_map(V: VectorFieldSet, points, A, B):
    """Second-order model of the flow images, stacked over the base points.

    Phi_y(A, B) = y + A^i V_i(y) + XX^{jk} (V_j V_k)(y), XX = 0.5 A (x) A + B, is
    the euler2 step at y along the increment (A, B): with B antisymmetric it is
    y + A^i V_i(y) + sum_{j<k} B^{jk} [V_j,V_k](y) + 0.5 A^i A^j (V_i V_j)(y),
    exactly quadratic in A and linear in B.  It is `rde._level2_step` on the
    points' block rows, so each point's image is `euler2_step` bitwise.
    (A, B) are checked like a RoughIncrement's.
    """
    points, fields, _, row = _point_blocks(V, points)
    inc = RoughIncrement(A, B)
    _check_step(V, points, inc)
    return (points + _level2_step(_coefficients((), inc.x, inc.second_level), fields, row)).ravel()


def flow_map(V: VectorFieldSet, points, A, B, n_sub=N_SUB):
    """Log-ODE flow images exp(A^i V_i + B^{jk} [V_j, V_k]) of the base points, stacked.

    The points are one (c, d) set.  A may also be a stack (K, ell) with B
    (K, ell, ell), one parameter pair per row, all at those shared points;
    every row's images come from one lockstep log-ODE run, and the result is
    (K, c*d).  (A, B) are checked like a RoughIncrement's.
    """
    inc = RoughIncrement(A, B)
    one = inc.x.ndim == 1  # a K = 1 stack
    x, a = inc.x.reshape(-1, inc.ell), inc.a.reshape(-1, inc.ell, inc.ell)
    points = V._states(np.atleast_2d(points), "base points")
    k, c = len(x), len(points)
    inc = RoughIncrement(np.repeat(x, c, axis=0), np.repeat(a, c, axis=0))
    images = logode_step(V, np.tile(points, (k, 1)), inc, n_sub).reshape(k, -1)
    return images[0] if one else images


def _local_problem(V: VectorFieldSet, points):
    """The local recovery problem at one set of base points.

    Returns the point blocks (points, fields, comps, row), the reconstruction
    matrix and the trust-region constants eps1 and eps2; raises
    RankDeficient below rank m.
    """
    blocks = _point_blocks(V, points)
    rm = _matrix(*blocks[:3])
    if not rm.full_rank:
        raise RankDeficient(
            f"reconstruction matrix has rank {rm.rank} < m = {rm.m}; "
            "these base points cannot separate the driver parameters"
        )
    # sum over all ordered pairs (i, j) of the stacked Euclidean norms |V_i V_j|
    total = float(np.sqrt(np.einsum("cijd,cijd->ij", blocks[2], blocks[2])).sum())
    eps2 = float("inf") if total == 0.0 else 1.0 / (2.0 * total)
    return (*blocks, rm, rm.sigma_min, eps2)


def trust_region(V: VectorFieldSet, points):
    """Constants (eps1, eps2) of the local recovery problem at these points.

    eps1 is the reciprocal pseudo-inverse norm of the model Jacobian at 0,
    i.e. the smallest singular value of the reconstruction matrix; eps2 is the
    model injectivity radius 1 / (2 sum_{i,j} |V_i V_j|) with the Euclidean
    norm of each stacked composition vector.  Requires full rank m.
    """
    return _local_problem(V, points)[-2:]


def _dots(v):
    """v.v per row of v (K, m), bitwise the dot of np.linalg.norm of one row."""
    return (v[:, None] @ v[..., None])[:, 0, 0]


def _evaluated(evaluate, ks, points):
    """Residuals (rows), costs r.r, gradients J^T r and matrices J^T J of
    problems ks at points, bitwise the 2-D products per row (J as returned:
    J.T @ r depends on its layout), and the error of each problem that fails.
    One evaluate call serves all; once it raises, one per problem, and a
    failing problem's residual is None and the rest NaN."""
    m = points.shape[1]

    def call(ids, at):
        try:
            r, jac = evaluate(ids, at)
        except RdeinvError as exc:
            return ([None], np.full(1, np.nan), np.full((1, m), np.nan),
                    np.full((1, m, m), np.nan), {ids[0]: exc})
        r, jac = np.ascontiguousarray(r, dtype=float), np.asarray(jac, dtype=float)
        jt = jac.swapaxes(1, 2)
        return list(r), _dots(r), (jt @ r[..., None])[..., 0], jt @ jac, {}

    calls = [call(ks.tolist(), points)]
    if calls[0][-1] and len(ks) > 1:  # it raised
        calls = [call([k], points[i : i + 1]) for i, k in enumerate(ks.tolist())]
    r, cost, grad, hess, errors = zip(*calls)
    errors = {k: exc for part in errors for k, exc in part.items()}
    return [row for rows in r for row in rows], *map(np.concatenate, (cost, grad, hess)), errors


def _solve(thetas, evaluate, max_iter, tol, floor):
    """Gauss-Newton with Levenberg damping on problems 0.5*|r_k|^2 from the
    start points thetas (K, m), one outcome each, each row's arithmetic
    bitwise that of its problem alone; the rules are `reconstruct_many`'s.

    evaluate(ks, points), ks a list, gives the residuals (len(ks), n) and
    Jacobians (len(ks), n, m).  A round is one batched solve and one evaluate
    call.  The outcome is (theta, iterations, r), NotConverged or NonFinite,
    or the error evaluate raised at that problem's start point.
    """
    theta = np.array(thetas, dtype=float)
    K = len(theta)
    outcomes, done = [None] * K, np.zeros(K, dtype=bool)
    lam, it, tries = np.full(K, 1e-8), np.ones(K, dtype=int), np.zeros(K, dtype=int)
    delta, step = np.empty_like(theta), np.empty(K)

    def end(ks, where, error=None):  # end problems ks[where], solved or with error(k)
        for k in ks[where].tolist():
            outcomes[k] = error(k) if error else (theta[k].copy(), int(it[k]), res[k])
            done[k] = True
        return ks[~where]

    def damp(ks, most):  # a failed try; NotConverged at 40 in one iteration or lam above most
        lam[ks] = np.maximum(lam[ks], 1e-14) * 10.0
        tries[ks] += 1
        end(ks, (tries[ks] == 40) | (lam[ks] > most),
            lambda k: NotConverged(f"no acceptable damped step at iteration {it[k]}"))

    res, cost, grad, hess, errors = _evaluated(evaluate, np.arange(K), theta)
    end(np.arange(K), np.isin(np.arange(K), list(errors)), errors.get)
    while not done.all():
        ks = np.flatnonzero(~done)
        ks = end(ks, it[ks] > max_iter,
                 lambda k: NotConverged(f"step norm above {tol} after {max_iter} iterations"))
        mats = hess[ks] + lam[ks, None, None] * np.eye(theta.shape[1])
        rhs, singular = -grad[ks, :, None], np.zeros(len(ks), dtype=bool)
        try:
            delta[ks] = np.linalg.solve(mats, rhs)[..., 0]
        except np.linalg.LinAlgError:  # row by row; a singular one is damped again, unevaluated
            for i, k in enumerate(ks.tolist()):
                try:
                    delta[k] = np.linalg.solve(mats[i : i + 1], rhs[i : i + 1])[0, :, 0]
                except np.linalg.LinAlgError:
                    singular[i] = True
        damp(ks[singular], np.inf)
        ks = ks[~singular]
        step[ks] = np.sqrt(_dots(delta[ks]))
        ks = end(ks, step[ks] < tol)
        ks = end(ks, ~(step[ks] < np.inf),  # a NaN fails too
                 lambda k: NonFinite(f"Gauss-Newton step is not finite at iteration {it[k]}"))
        if not ks.size:
            continue
        trial = theta[ks] + delta[ks]
        r_new, cost_new, grad_new, hess_new, _ = _evaluated(evaluate, ks, trial)
        ok = np.isfinite(cost_new) & (cost_new <= cost[ks] * (1.0 + 1e-14) + 1e-300)
        within = step[ks] <= floor * np.sqrt(_dots(theta[ks]))
        rejected = end(ks[~ok], within[~ok])  # a rejected step within the floor stops
        damp(rejected, 1e12)
        ks, ok = ks[ok], np.flatnonzero(ok)
        theta[ks], cost[ks], grad[ks], hess[ks] = trial[ok], cost_new[ok], grad_new[ok], hess_new[ok]
        for k, i in zip(ks.tolist(), ok.tolist()):
            res[k] = r_new[i]
        ks = end(ks, within[ok] & bool(floor))
        lam[ks], it[ks], tries[ks] = lam[ks] * 0.1, it[ks] + 1, 0
    return outcomes


def _result_from(theta, iterations, rvec, V, obs, eps1, eps2, method):
    a_hat, b_hat = _split(theta, V.ell)
    per_point = rvec.reshape(obs.c, V.d)
    residual_sup = float(np.max(np.linalg.norm(per_point, axis=1)))
    outside = float(np.linalg.norm(theta)) > eps2  # beyond the injectivity radius
    return ReconstructionResult(
        a_hat=a_hat,
        b_hat=b_hat,
        residual=float(np.linalg.norm(rvec)),
        residual_sup=residual_sup,
        iterations=int(iterations),
        eps1=float(eps1),
        eps2=float(eps2),
        method=method,
        warnings=("trust_region_exceeded",) if outside else (),
    )


def _evaluator(V: VectorFieldSet, problem, targets, method, n_sub):
    """The `_solve` evaluate of the recoveries at one `_local_problem`, with
    observed images targets (K, c*d), and the floor of their solves: residuals
    and Jacobians of problems ks at thetas from one batched model call."""
    base, fields, comps, row, rm = problem[:5]
    ell, m = V.ell, rm.m
    if method == "taylor":
        sym = comps + np.swapaxes(comps, 1, 2)  # sym[c,i,j] = V_iV_j + V_jV_i

        def evaluate(ks, thetas):
            # each problem's coefficient stack meets every base point, as in taylor_map
            A, B = _split(thetas, ell)
            coef = _coefficients((len(ks),), A, _second_level(A, B))
            images = base + _level2_step(coef[:, None], fields, row)
            jac = np.repeat(rm.mat[None], len(ks), axis=0)
            corr = np.einsum("...j,cijd->...cdi", A, sym)
            jac[..., :ell] += 0.5 * corr.reshape(len(ks), -1, ell)
            return images.reshape(len(ks), -1) - targets[ks], jac

        return evaluate, 0.0  # the Jacobian is exact

    shifts = FD_STEP * np.concatenate([np.zeros((1, m)), np.eye(m), -np.eye(m)])

    def evaluate(ks, thetas):
        # each theta, then its 2m central-difference probes, all in one flow_map call
        rows = (thetas[:, None] + shifts).reshape(-1, m)
        images = flow_map(V, base, *_split(rows, ell), n_sub).reshape(len(ks), 2 * m + 1, -1)
        diff = images[:, 1 : m + 1] - images[:, m + 1 :]
        return images[:, 0] - targets[ks], diff.swapaxes(1, 2) / (2.0 * FD_STEP)

    return evaluate, FD_FLOOR


def reconstruct_many(V: VectorFieldSet, obs_list, method="taylor", n_sub=N_SUB):
    """Recover (A, B) from every observation set, one ReconstructionResult each.

    method "taylor" matches the second-order model, with the reconstruction
    matrix plus the A-linear correction 0.5*(A^i V_i V_j + A^j V_j V_i) as
    Jacobian; "flow" matches log-ODE flow images (n_sub RK4 substeps, an
    integer >= 1), with a Jacobian from central differences of step FD_STEP.
    Both start from A fitted by linear least squares against the field
    columns, B = 0, with Levenberg damping lam = 1e-8.  A step whose cost is
    not finite or rises, or whose image or probe fails, is rejected, and lam
    grows tenfold, as it does, unevaluated, for a singular damped matrix; an
    accepted step shrinks it tenfold.  A solve stops at a step below TOL, or
    for "flow" at one no longer than FD_FLOOR*|(A, B)|, its Jacobian's
    accuracy, rejected or accepted (then at the new point).  It raises
    NotConverged after MAX_ITER iterations, or 40 tries or a rejection past
    lam = 1e12 in one, and NonFinite for a step that is not finite.

    Sets with the same base points share one set-up, whose error fails them
    all, and one `_solve`, whose rounds evaluate all trial points with one
    batched model call: Taylor images from one level-2 step and Jacobians
    from one einsum, or flow images from one flow_map call in which each
    trial point brings its 2m probes.  A failing start point fails its set.
    Every result is bitwise that of recovering the sets one at a time, and
    when some set fails, the error of the first failing one is raised.  A
    result whose |(A, B)| exceeds eps2, the model injectivity radius,
    carries "trust_region_exceeded" in its warnings.
    """
    if method not in ("taylor", "flow"):
        raise InvalidParameter(f"method must be taylor or flow, got {method!r}")
    n_sub = count(n_sub, "n_sub")
    obs_list = list(obs_list)
    groups, outcomes = {}, [None] * len(obs_list)
    for k, obs in enumerate(obs_list):
        groups.setdefault((obs.base_points.shape, obs.base_points.tobytes()), []).append(k)
    for idx in groups.values():
        try:
            problem = _local_problem(V, obs_list[idx[0]].base_points)
        except RdeinvError as exc:  # the set-up failed, and so does every set at these points
            for k in idx:
                outcomes[k] = exc
            continue
        base, _, _, _, rm, eps1, eps2 = problem
        targets = np.stack([obs_list[k].observed.ravel() for k in idx])
        evaluate, floor = _evaluator(V, problem, targets, method, n_sub)
        starts = np.zeros((len(idx), rm.m))
        for start, target in zip(starts, targets):
            start[: V.ell] = np.linalg.lstsq(rm.mat[:, : V.ell], target - base.ravel(), rcond=None)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # NonFinite is raised instead
            group = _solve(starts, evaluate, MAX_ITER, TOL, floor)
        for k, outcome in zip(idx, group):
            if not isinstance(outcome, Exception):
                outcome = _result_from(*outcome, V, obs_list[k], eps1, eps2, method)
            outcomes[k] = outcome
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def local_reconstruct_taylor(V: VectorFieldSet, obs: ObservationSet):
    """Recover (A, B) from one observation set using the Taylor model; see
    `reconstruct_many`."""
    return reconstruct_many(V, [obs], "taylor")[0]


def local_reconstruct_flow(V: VectorFieldSet, obs: ObservationSet, n_sub=N_SUB):
    """Recover (A, B) by matching log-ODE flow images of the base points, to
    the accuracy of a central difference of step FD_STEP; see `reconstruct_many`."""
    return reconstruct_many(V, [obs], "flow", n_sub)[0]


def doss_sussmann_1d(V: VectorFieldSet, y, observed):
    """Invert a -> exp(a V_1)(y) for a single field on the line.

    Newton iteration on the numerically integrated flow; each correction
    continues the integration from the current state, so the total work is
    about two traversals of the parameter interval.  Exact up to the solver
    tolerance: in this case the log-ODE flow equals the solution flow.  It
    stops once the state is within 1e-12 * max(1, |observed|) of the target,
    takes at most 100 Newton steps, integrates with 256 steps per unit of
    parameter and leaves the parameter interval [-100, 100] as
    OutOfNeighborhood.  A non-finite y or observed raises InvalidParameter.
    """
    tol, max_iter, steps_per_unit, param_bound = 1e-12, 100, 256, 100.0
    if V.ell != 1 or V.d != 1:
        raise DimensionMismatch("doss_sussmann_1d needs a single field on 1-space")
    y, observed = finite(float(y), "y"), finite(float(observed), "observed")

    def vfield(z):
        return float(V.fields_at(np.array([z]))[0, 0])

    if abs(vfield(y)) < 1e-14:
        raise DegenerateField("V_1 vanishes at the base point")

    def advance(z, da):
        # the time-1 map of da V_1: a log-ODE step with a zero area
        n = max(8, int(np.ceil(abs(da) * steps_per_unit)))
        try:
            return float(logode_step(V, [z], RoughIncrement([da]), n)[0])
        except NonFinite:
            raise OutOfNeighborhood("flow became degenerate before reaching the target") from None

    a, z = 0.0, y
    scale = max(1.0, abs(observed))
    for _ in range(max_iter):
        err = z - observed
        if abs(err) <= tol * scale:
            return a
        vz = vfield(z)
        if abs(vz) < 1e-14:
            raise OutOfNeighborhood("flow became degenerate before reaching the target")
        step = -err / vz
        if abs(a + step) > param_bound:
            raise OutOfNeighborhood(f"parameter left [-{param_bound}, {param_bound}]")
        z = advance(z, step)
        a += step
    raise NotConverged(f"Newton did not reach tolerance {tol} in {max_iter} iterations")


def stitch(segments, times) -> GridRoughPath:
    """Assemble consecutive local increments into a grid rough path.

    segments are RoughIncrements of one (x, a) each, on consecutive intervals;
    times has one more entry.  Path values are anchored at zero; wider
    increments arise by Chen composition.
    """
    segments = list(segments)
    if not segments:
        raise InvalidParameter("need at least one segment")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size != len(segments) + 1:
        raise InvalidGrid(f"need {len(segments) + 1} grid times for {len(segments)} segments")
    ell = segments[0].ell
    if any(seg.x.shape != (ell,) for seg in segments):  # a stack is not one segment
        raise DimensionMismatch("all segments must be single increments of one signal dimension")
    values = np.vstack([np.zeros(ell), np.cumsum([seg.x for seg in segments], axis=0)])
    return GridRoughPath(times, values, np.stack([seg.a for seg in segments]))


def search_points(V: VectorFieldSet, box_lo, box_hi, c_max, seed, n_trials=64) -> ReconstructionMatrix:
    """Greedy random search for base points maximising the smallest singular value.

    Grows the point set one point at a time, keeping the candidate that
    maximises the last singular value of the reconstruction matrix, until rank m is reached
    or c_max points are used.  Each round draws its n_trials candidates at
    once, evaluates them as one stack, appends each candidate's row block to
    the chosen points' matrix and scores every candidate with one batched
    SVD; ties go to the earliest candidate.  Deterministic given the seed.
    When the stack raises DomainViolation, each candidate is evaluated on its
    own, once, and those that raise it are skipped.  Returns the rank test at
    the chosen points, bitwise `reconstruction_matrix` there, so failure is
    rank < m, not an exception.  A box corner that does not broadcast to (d,)
    raises DimensionMismatch; a box with lo >= hi, a non-finite corner or an
    overflowing width, a c_max or n_trials that is not an integer >= 1, or a
    seed that is not an integer >= 0, raises InvalidParameter.
    """
    c_max, n_trials = count(c_max, "c_max"), count(n_trials, "n_trials")

    def corner(box):
        box = np.asarray(box, dtype=float)
        try:
            return np.broadcast_to(box, (V.d,)).copy()
        except ValueError:
            raise DimensionMismatch(
                f"search box corner of shape {box.shape} does not broadcast to ({V.d},)"
            ) from None

    lo, hi = corner(box_lo), corner(box_hi)
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    if not np.all((width > 0) & (width < np.inf)):  # NaN fails too
        raise InvalidParameter(
            f"box corners {lo.tolist()} and {hi.tolist()} need lo < hi and a finite width"
        )
    rng = np.random.default_rng(non_negative(seed, "seed"))
    # the chosen points and their rows of the reconstruction matrix
    chosen, head = np.empty((0, V.d)), np.empty((0, V.ell * (V.ell + 1) // 2))
    for _ in range(c_max):
        cands = rng.uniform(lo, hi, size=(n_trials, V.d))
        try:
            _, fields, comps, _ = _point_blocks(V, cands)
        except DomainViolation:  # keep the blocks of each admissible candidate
            blocks = []
            for cand in cands:
                try:
                    blocks.append(_point_blocks(V, cand)[:3])
                except DomainViolation:
                    pass
            if not blocks:
                raise InvalidParameter("no admissible candidate points found in the box")
            cands, fields, comps = map(np.concatenate, zip(*blocks))
        heads = np.broadcast_to(head, (len(cands),) + head.shape)
        mats = np.concatenate([heads, _column_blocks(fields, comps)], axis=1)
        svs = np.linalg.svd(mats, compute_uv=False)
        best = int(np.argmax(svs[:, -1]))
        best_mat = _ranked(np.vstack([chosen, cands[best]]), mats[best], svs[best])
        chosen, head = best_mat.points, best_mat.mat
        if best_mat.full_rank:
            break
    return best_mat


def reconstruction_report(result: ReconstructionResult, s, t):
    """JSON-ready summary of one local reconstruction.  A result passed the
    rank test, so its rank is m and its sigma_min is eps1."""
    ell = result.a_hat.size
    return {
        "interval": [float(s), float(t)],
        "a_hat": [float(v) for v in result.a_hat],
        "b_hat": [[float(v) for v in row] for row in result.b_hat],
        "residual": float(result.residual),
        "residual_sup": float(result.residual_sup),
        "iterations": int(result.iterations),
        "rank": ell * (ell + 1) // 2,
        "sigma_min": float(result.eps1),
        "eps1": float(result.eps1),
        "eps2": float(result.eps2),
        "warnings": list(result.warnings),
    }


def _observations_header(d):
    return ["s", "t", "point_id"] + io.numbered("y", d) + io.numbered("z", d)


def write_observations_csv(obs_list, file):
    """Write observation sets to CSV: s,t,point_id,y1..yd,z1..zd, one block per
    interval, so a repeated interval raises InvalidParameter, and base points of
    another width than the first set's DimensionMismatch, before the file opens."""
    obs_list = list(obs_list)
    if not obs_list:
        raise InvalidParameter("need at least one observation set")
    d = obs_list[0].base_points.shape[1]
    seen = set()
    for obs in obs_list:
        if (obs.s, obs.t) in seen:
            raise InvalidParameter(f"interval [{io.fmt(obs.s)}, {io.fmt(obs.t)}] is repeated; "
                                   "an observation CSV holds one block per interval")
        if obs.base_points.shape[1] != d:
            raise DimensionMismatch(f"base points of width {obs.base_points.shape[1]} after {d}; "
                                    "an observation CSV holds one state dimension")
        seen.add((obs.s, obs.t))
    rows = [
        [obs.s, obs.t, pid, *obs.base_points[pid], *obs.observed[pid]]
        for obs in obs_list
        for pid in range(obs.c)
    ]
    io.write_table(file, _observations_header(d), rows)


def read_observations_csv(file):
    """Read observation sets, one per interval, ordered by interval start.

    Each interval is one block of consecutive rows with point ids 0..c-1 in
    order, so a repeated interval or point id is an error.  Intervals may
    have different base points.
    """
    header, data = io.read_table(file)
    d = (len(header) - 3) // 2
    if d < 1 or header != _observations_header(d):
        raise InvalidParameter(
            f"{file}:1: header must be s,t,point_id,y1..yd,z1..zd, got {','.join(header)!r}"
        )
    blocks = {}  # (s, t) -> data rows of that interval
    for r, (s, t, pid) in enumerate(data[:, :3].tolist()):
        rows = blocks.setdefault((s, t), [])
        if pid != len(rows) or (rows and rows[-1] != r - 1):
            raise InvalidParameter(
                f"{file}:{r + 2}: interval [{io.fmt(s)}, {io.fmt(t)}] has point id {io.fmt(pid)} "
                "here; each interval is one block of point ids 0..c-1"
            )
        rows.append(r)
    return [
        ObservationSet(data[rows, 3 : 3 + d], s, t, data[rows, 3 + d :])
        for (s, t), rows in sorted(blocks.items())
    ]
