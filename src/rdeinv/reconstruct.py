"""Recovery of the driving rough path from flow observations.

The forward model for one interval is either the second-order Taylor map or
the log-ODE flow map in the m = ell*(ell+1)/2 parameters (A, B): level-1
increment plus strict-upper-triangle area components.  Recovery minimises the
stacked squared distance to the observed flow images by Gauss-Newton with
Levenberg damping; it is possible exactly when the matrix of field values and
bracket values at the base points has rank m.

`reconstruct_many` recovers many intervals at once: the solver is written for
one problem, as a generator that yields wherever it needs the model, and a
lockstep driver gathers the residual and Jacobian requests of all running
problems into one stack each per round.  Field, bracket and composition values
at all base points come from one batched evaluation, and the flow model
pushes every base point and finite-difference probe through one lockstep
log-ODE run.  The greedy point search evaluates all candidates of a round as
one stack and scores them with one batched SVD.  All operations are pure.
"""

from __future__ import annotations

import warnings as _warnings
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
    TrustRegionExceeded,
)
from .rde import ObservationSet, logode_step
from .roughpath import (
    GridRoughPath,
    RoughIncrement,
    area_components,
    area_matrix,
)
from .vectorfields import VectorFieldSet

DEFAULT_RANK_TOL = 1e-10


@dataclass(eq=False)
class ReconstructionMatrix:
    """Stacked field and bracket values at the base points, with its SVD rank."""

    m: int
    mat: np.ndarray
    singular_values: np.ndarray
    rank: int
    tol_rel: float


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
        self.b_hat = np.asarray(self.b_hat, dtype=float)
        if not np.max(np.abs(self.b_hat + self.b_hat.T)) <= 1e-12:  # a NaN fails too
            raise InvalidParameter("b_hat must be antisymmetric")
        if not np.isfinite(self.residual):
            raise NonFinite("residual must be finite")

    @property
    def increment(self) -> RoughIncrement:
        return RoughIncrement(self.a_hat, self.b_hat)


def _point_blocks(V: VectorFieldSet, points):
    """Per-point field values (c,ell,d), bracket columns (c,nb,d) and
    second compositions (c,ell,ell,d), from one batched evaluation."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != V.d:
        raise DimensionMismatch(
            f"points have dimension {points.shape[1]}, fields live on {V.d}-space"
        )
    fields = V.fields_at(points)
    comps = np.einsum("cbde,cae->cabd", V.jacobians_at(points), fields)  # J_b @ e_a
    pairs = [(a, b) for a in range(V.ell) for b in range(a + 1, V.ell)]
    j, k = np.array(pairs, dtype=int).reshape(-1, 2).T
    brackets = comps[:, j, k] - comps[:, k, j]
    return points, fields, brackets, comps


def _column_blocks(fields, brackets):
    """Per-point (c, d, m) row blocks of the reconstruction matrix: field
    columns then bracket columns."""
    return np.concatenate([fields, brackets], axis=1).transpose(0, 2, 1)


def _ranked(mat, sv, tol_rel):
    """The ReconstructionMatrix of mat, given its singular values sv."""
    rank = 0 if sv.size == 0 or sv[0] == 0.0 else int(np.sum(sv > tol_rel * sv[0]))
    return ReconstructionMatrix(mat.shape[1], mat, sv, rank, float(tol_rel))


def _matrix(fields, brackets, tol_rel):
    blocks = _column_blocks(fields, brackets)
    mat = blocks.reshape(-1, blocks.shape[2])
    return _ranked(mat, np.linalg.svd(mat, compute_uv=False), tol_rel)


def reconstruction_matrix(V: VectorFieldSet, points, tol_rel=DEFAULT_RANK_TOL):
    """Matrix of field values and bracket values at the base points.

    Columns are V_1 .. V_ell followed by [V_j, V_k] for j < k in row-major
    pair order; row block r holds the values at point r.  The rank counts
    singular values above tol_rel times the largest one.
    """
    _, fields, brackets, _ = _point_blocks(V, points)
    return _matrix(fields, brackets, tol_rel)


def _taylor_images(base, fields, brackets, comps, A, bvec):
    """Second-order model images (K, c, d) of K problems.

    base (K, c, d) and the point blocks carry a leading K axis; A (K, ell) and
    the area components bvec (K, nb) are each problem's parameters.
    """
    return (
        base
        + np.einsum("ki,kcid->kcd", A, fields)
        + np.einsum("kp,kcpd->kcd", bvec, brackets)
        + 0.5 * np.einsum("ki,kj,kcijd->kcd", A, A, comps)
    )


def taylor_map(V: VectorFieldSet, points, A, B):
    """Second-order model of the flow images, stacked over the base points.

    Phi_y(A, B) = y + A^i V_i(y) + B^{jk} [V_j,V_k](y) + 0.5 A^i A^j (V_i V_j)(y),
    exactly quadratic in A and linear in the strict upper triangle of B.
    """
    blocks = _point_blocks(V, points)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (V.ell,) or B.shape != (V.ell, V.ell):
        raise DimensionMismatch("A must be an ell-vector and B an ell x ell matrix")
    stacked = [b[None] for b in blocks]
    return _taylor_images(*stacked, A[None], area_components(B)[None]).ravel()


def flow_map(V: VectorFieldSet, points, A, B, n_sub=16):
    """Log-ODE flow images exp(A^i V_i + B^{jk} [V_j, V_k]) of the base points, stacked.

    A may also be a stack (K, ell) with B (K, ell, ell), one parameter pair
    per problem; the points are then shared (c, d) or per problem (K, c, d),
    every problem's images come from one lockstep log-ODE run, and the result
    is (K, c*d).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return logode_step(V, points, RoughIncrement(A, B), n_sub).ravel()
    points = np.asarray(points, dtype=float)
    k = len(A)
    points = np.broadcast_to(points, (k,) + points.shape[-2:])
    c = points.shape[1]
    inc = RoughIncrement.stack(np.repeat(A, c, axis=0), np.repeat(B, c, axis=0))
    return logode_step(V, points.reshape(k * c, -1), inc, n_sub).reshape(k, -1)


def _second_comp_total(comps):
    """Sum over all ordered pairs (i, j) of the stacked Euclidean norms |V_i V_j|."""
    c, ell = comps.shape[0], comps.shape[1]
    flat = comps.reshape(c, ell, ell, -1)
    norms = np.sqrt(np.einsum("cijd,cijd->ij", flat, flat))
    return float(norms.sum())


def _local_problems(V: VectorFieldSet, points, tol_rel):
    """The local recovery problems at K sets of base points, points (K, c, d).

    Returns the point blocks with a leading K axis, from one evaluation; each
    problem's reconstruction matrix, from one batched SVD; its trust-region
    constants eps1 and eps2; and a RankDeficient error for each problem below
    rank m, keyed by its index.
    """
    n_problems, c = points.shape[:2]
    _, fields, brackets, comps = _point_blocks(V, points.reshape(n_problems * c, -1))
    blocks = _column_blocks(fields, brackets)
    mats = blocks.reshape(n_problems, -1, blocks.shape[2])
    rms = [
        _ranked(mat, sv, tol_rel)
        for mat, sv in zip(mats, np.linalg.svd(mats, compute_uv=False))
    ]
    fields, brackets, comps = (
        b.reshape((n_problems, c) + b.shape[1:]) for b in (fields, brackets, comps)
    )
    errors, eps1, eps2 = {}, np.full(n_problems, np.nan), np.empty(n_problems)
    for k, rm in enumerate(rms):
        if rm.rank < rm.m:
            errors[k] = RankDeficient(
                f"reconstruction matrix has rank {rm.rank} < m = {rm.m}; "
                "these base points cannot separate the driver parameters"
            )
        else:
            eps1[k] = rm.singular_values[rm.m - 1]
        total = _second_comp_total(comps[k])
        eps2[k] = float("inf") if total == 0.0 else 1.0 / (2.0 * total)
    return fields, brackets, comps, rms, eps1, eps2, errors


def trust_region(V: VectorFieldSet, points, tol_rel=DEFAULT_RANK_TOL):
    """Constants (eps1, eps2) of the local recovery problem at these points.

    eps1 is the reciprocal pseudo-inverse norm of the model Jacobian at 0,
    i.e. the smallest singular value of the reconstruction matrix; eps2 is the
    model injectivity radius 1 / (2 sum_{i,j} |V_i V_j|) with the Euclidean
    norm of each stacked composition vector.  Requires full rank m.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    *_, eps1, eps2, errors = _local_problems(V, points[None], tol_rel)
    if errors:
        raise errors[0]
    return float(eps1[0]), float(eps2[0])


def _one_problem(theta, max_iter, tol):
    """Gauss-Newton with Levenberg damping on one problem 0.5*|r|^2, as a generator.

    It yields ("residual", theta) or ("jacobian", theta) and is sent the
    model's value there, (n,) or (n, m).  It returns (theta, iterations, r)
    once its proposed step norm drops below tol, and raises NotConverged when
    the iteration budget is exhausted or no damped step decreases its cost.
    """
    r = yield "residual", theta
    cost = float(r @ r)
    lam = 1e-8
    for it in range(1, max_iter + 1):
        jac = yield "jacobian", theta
        grad = jac.T @ r
        hess = jac.T @ jac
        for _ in range(40):
            try:
                delta = np.linalg.solve(hess + lam * np.eye(theta.size), -grad)
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-14) * 10.0
                continue
            if float(np.linalg.norm(delta)) < tol:
                return theta, it, r
            r_new = yield "residual", theta + delta
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost * (1.0 + 1e-14) + 1e-300:
                break
            lam = max(lam, 1e-14) * 10.0
            if lam > 1e12:
                raise NotConverged(f"no acceptable damped step at iteration {it}")
        else:
            raise NotConverged(f"no acceptable damped step at iteration {it}")
        theta = theta + delta
        r, cost = r_new, cost_new
        lam *= 0.1
    raise NotConverged(f"step norm above {tol} after {max_iter} iterations")


def _rows(fn, idx, thetas):
    """fn's rows for the problems idx at their parameters thetas, from one stack.

    When the stack raises a package error, fn runs on one problem at a time
    instead, and each failing problem's row is its error.
    """
    try:
        return list(fn(np.array(idx), np.array(thetas)))
    except RdeinvError as exc:
        if len(idx) == 1:
            return [exc]
        return [_rows(fn, [k], [theta])[0] for k, theta in zip(idx, thetas)]


def _levenberg_marquardt(residual, jacobian, theta0, max_iter, tol):
    """`_one_problem` on K independent problems in lockstep.

    residual(idx, theta) and jacobian(idx, theta) evaluate the problems idx at
    their parameters theta (len(idx), m) as one stack, of shapes (len(idx), n)
    and (len(idx), n, m).  Each round stacks the residual requests of every
    running problem, then its Jacobian requests, and sends each problem its
    row, so every problem takes exactly the steps it would take alone.
    Returns one outcome per problem: (theta, iterations, r), or the exception
    that stopped it.
    """
    models = {"residual": residual, "jacobian": jacobian}
    solvers = [_one_problem(theta, max_iter, tol) for theta in np.array(theta0, dtype=float)]
    outcomes = [None] * len(solvers)
    requests = {k: next(solver) for k, solver in enumerate(solvers)}
    while requests:
        for kind, model in models.items():
            idx = [k for k, (want, _) in requests.items() if want == kind]
            if not idx:
                continue
            for k, row in zip(idx, _rows(model, idx, [requests.pop(k)[1] for k in idx])):
                try:
                    if isinstance(row, Exception):
                        raise row  # the model failed on this problem alone
                    requests[k] = solvers[k].send(row)
                except StopIteration as stop:
                    outcomes[k] = stop.value
                except RdeinvError as exc:
                    outcomes[k] = exc
    return outcomes


def _unpack(theta, ell):
    return theta[..., :ell], area_matrix(theta[..., ell:], ell)


def _result_from(theta, iterations, rvec, V, obs, eps1, eps2, method):
    a_hat, b_hat = _unpack(theta, V.ell)
    per_point = rvec.reshape(obs.c, V.d)
    residual_sup = float(np.max(np.linalg.norm(per_point, axis=1)))
    scale = float(np.linalg.norm(theta))
    note = None
    if scale > eps2:
        note = TrustRegionExceeded(
            f"|(A, B)| = {scale:.3e} exceeds the injectivity radius eps2 = {eps2:.3e}"
        )
    result = ReconstructionResult(
        a_hat=a_hat,
        b_hat=b_hat,
        residual=float(np.linalg.norm(rvec)),
        residual_sup=residual_sup,
        iterations=int(iterations),
        eps1=float(eps1),
        eps2=float(eps2),
        method=method,
        warnings=("trust_region_exceeded",) if note else (),
    )
    return result, note


def _recover(V, obs_list, method, max_iter, tol, n_sub, fd_step):
    """Recover observation sets that share their base-point shape as one
    lockstep batch.  Returns one outcome per set: a (result, warning or None)
    pair, or the exception that stopped it."""
    base = np.stack([obs.base_points for obs in obs_list])
    target = np.stack([obs.observed for obs in obs_list]).reshape(len(obs_list), -1)
    try:
        fields, brackets, comps, rms, eps1, eps2, failed = _local_problems(
            V, base, DEFAULT_RANK_TOL
        )
    except RdeinvError as exc:  # set up each problem alone to find which one fails
        if len(obs_list) == 1:
            return [exc]
        return [_recover(V, [obs], method, max_iter, tol, n_sub, fd_step)[0] for obs in obs_list]
    outcomes = [failed.get(k) for k in range(len(obs_list))]
    run = np.array([k for k in range(len(obs_list)) if k not in failed], dtype=int)
    if run.size == 0:
        return outcomes
    ell = V.ell
    base, target = base[run], target[run]
    dz = target - base.reshape(run.size, -1)
    theta0 = np.zeros((run.size, rms[0].m))
    for pos, k in enumerate(run):
        theta0[pos, :ell] = np.linalg.lstsq(rms[k].mat[:, :ell], dz[pos], rcond=None)[0]

    if method == "taylor":
        fields, brackets, comps = fields[run], brackets[run], comps[run]
        mats = np.array([rms[k].mat for k in run])  # C order, as the one-problem Jacobian
        sym = comps + np.swapaxes(comps, 2, 3)  # sym[k,c,i,j] = V_iV_j + V_jV_i

        def residual(sel, theta):
            images = _taylor_images(
                base[sel], fields[sel], brackets[sel], comps[sel], theta[:, :ell], theta[:, ell:]
            )
            return images.reshape(len(sel), -1) - target[sel]

        def jacobian(sel, theta):
            jac = mats[sel]
            corr = 0.5 * np.einsum("kj,kcijd->kcdi", theta[:, :ell], sym[sel])
            jac[:, :, :ell] += corr.reshape(len(sel), -1, ell)
            return jac

    else:

        def residual(sel, theta):
            return flow_map(V, base[sel], *_unpack(theta, ell), n_sub) - target[sel]

        def jacobian(sel, theta):
            # all 2m central-difference probes of every problem in one lockstep run
            m = theta.shape[1]
            probes = theta[:, None, :] + fd_step * np.concatenate([np.eye(m), -np.eye(m)])
            points = np.repeat(base[sel], 2 * m, axis=0)
            images = flow_map(V, points, *_unpack(probes.reshape(-1, m), ell), n_sub)
            images = images.reshape(len(sel), 2 * m, -1)
            return np.swapaxes(images[:, :m] - images[:, m:], 1, 2) / (2.0 * fd_step)

    solved = _levenberg_marquardt(residual, jacobian, theta0, max_iter, tol)
    for k, outcome in zip(run, solved):
        if isinstance(outcome, Exception):
            outcomes[k] = outcome
        else:
            outcomes[k] = _result_from(*outcome, V, obs_list[k], eps1[k], eps2[k], method)
    return outcomes


def reconstruct_many(
    V: VectorFieldSet, obs_list, method="taylor", max_iter=50, tol=1e-12, n_sub=16, fd_step=1e-6
):
    """Recover (A, B) from every observation set, one ReconstructionResult each.

    method "taylor" matches the second-order model, with the reconstruction
    matrix plus the A-linear correction 0.5*(A^i V_i V_j + A^j V_j V_i) as
    Jacobian; "flow" matches log-ODE flow images (n_sub RK4 substeps), with a
    Jacobian from central finite differences of step fd_step.  Both start
    from A fitted by linear least squares against the field columns, B = 0.

    Sets that share their base-point shape are solved in lockstep: one
    batched set-up, and per round one stacked evaluation of every pending
    residual and one of every pending Jacobian, each problem keeping its own
    Levenberg damping.
    Every result equals that of recovering the sets one at a time, in order:
    TrustRegionExceeded is warned in that order, and when some set fails,
    the error of the first failing one is raised after the warnings of the
    sets before it.
    """
    if method not in ("taylor", "flow"):
        raise InvalidParameter(f"method must be taylor or flow, got {method!r}")
    obs_list = list(obs_list)
    groups, outcomes = {}, [None] * len(obs_list)
    for k, obs in enumerate(obs_list):
        groups.setdefault(obs.base_points.shape, []).append(k)
    for idx in groups.values():
        group = _recover(V, [obs_list[k] for k in idx], method, max_iter, tol, n_sub, fd_step)
        for k, outcome in zip(idx, group):
            outcomes[k] = outcome
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        if outcome[1] is not None:
            _warnings.warn(outcome[1])
    return [res for res, _ in outcomes]


def local_reconstruct_taylor(V: VectorFieldSet, obs: ObservationSet, max_iter=50, tol=1e-12):
    """Recover (A, B) from one observation set using the Taylor model; see
    `reconstruct_many`."""
    return reconstruct_many(V, [obs], "taylor", max_iter, tol)[0]


def local_reconstruct_flow(
    V: VectorFieldSet, obs: ObservationSet, max_iter=50, tol=1e-12, n_sub=16, fd_step=1e-6
):
    """Recover (A, B) by matching log-ODE flow images of the base points; see
    `reconstruct_many`."""
    return reconstruct_many(V, [obs], "flow", max_iter, tol, n_sub, fd_step)[0]


def doss_sussmann_1d(
    V: VectorFieldSet,
    y,
    observed,
    tol=1e-12,
    max_iter=100,
    steps_per_unit=256,
    param_bound=100.0,
):
    """Invert a -> exp(a V_1)(y) for a single field on the line.

    Newton iteration on the numerically integrated flow; each correction
    continues the integration from the current state, so the total work is
    about two traversals of the parameter interval.  Exact up to the solver
    tolerance: in this case the log-ODE flow equals the solution flow.
    """
    if V.ell != 1 or V.d != 1:
        raise DimensionMismatch("doss_sussmann_1d needs a single field on 1-space")
    y = float(y)
    observed = float(observed)
    ev = V._evals[0]

    def vfield(z):
        return float(np.asarray(ev(np.array([z])), dtype=float)[0])

    if abs(vfield(y)) < 1e-14:
        raise DegenerateField("V_1 vanishes at the base point")

    def advance(z, da):
        # the time-1 map of da V_1: a log-ODE step with a zero area
        n = max(8, int(np.ceil(abs(da) * steps_per_unit)))
        try:
            return float(logode_step(V, [z], RoughIncrement([da]), n)[0])
        except NonFinite:
            raise OutOfNeighborhood(
                "flow became degenerate before reaching the target"
            ) from None

    a, z = 0.0, y
    scale = max(1.0, abs(observed))
    for _ in range(max_iter):
        err = z - observed
        if abs(err) <= tol * scale:
            return a
        vz = vfield(z)
        if not np.isfinite(z) or abs(vz) < 1e-14:
            raise OutOfNeighborhood("flow became degenerate before reaching the target")
        step = -err / vz
        if abs(a + step) > param_bound:
            raise OutOfNeighborhood(f"parameter left [-{param_bound}, {param_bound}]")
        z = advance(z, step)
        a += step
    raise NotConverged(f"Newton did not reach tolerance {tol} in {max_iter} iterations")


def stitch(segments, times, alpha=0.5) -> GridRoughPath:
    """Assemble consecutive local increment estimates into a grid rough path.

    segments may be ReconstructionResult or RoughIncrement instances (or
    (x, a) pairs) on consecutive intervals; times has one more entry.  Path
    values are anchored at zero; wider increments arise by Chen composition.
    """
    times = np.asarray(times, dtype=float)
    pieces = []
    for seg in segments:
        if isinstance(seg, ReconstructionResult):
            pieces.append((seg.a_hat, seg.b_hat))
        elif isinstance(seg, RoughIncrement):
            pieces.append((seg.x, seg.a))
        else:
            x, a = seg
            pieces.append((np.asarray(x, dtype=float), np.asarray(a, dtype=float)))
    if not pieces:
        raise InvalidParameter("need at least one segment")
    if times.ndim != 1 or times.size != len(pieces) + 1:
        raise InvalidGrid(
            f"need {len(pieces) + 1} grid times for {len(pieces)} segments"
        )
    ell = pieces[0][0].size
    if any(x.shape != (ell,) or a.shape != (ell, ell) for x, a in pieces):
        raise DimensionMismatch("all segments must share the signal dimension")
    values = np.vstack([np.zeros(ell), np.cumsum([x for x, _ in pieces], axis=0)])
    areas = np.stack([a for _, a in pieces])
    return GridRoughPath(times, values, areas, alpha)


@dataclass(eq=False)
class PointSearchResult:
    """Outcome of the greedy base-point search."""

    points: np.ndarray
    rank: int
    m: int
    sigma_min: float
    singular_values: np.ndarray

    @property
    def full_rank(self):
        return self.rank == self.m


def _admissible(V: VectorFieldSet, point):
    """Whether the fields and their Jacobians can be evaluated at point."""
    try:
        _point_blocks(V, point)
    except DomainViolation:
        return False
    return True


def search_points(
    V: VectorFieldSet,
    box_lo,
    box_hi,
    c_max,
    seed,
    n_trials=64,
    tol_rel=DEFAULT_RANK_TOL,
) -> PointSearchResult:
    """Greedy random search for base points maximising the smallest singular value.

    Grows the point set one point at a time, keeping the candidate that
    maximises sigma_min of the reconstruction matrix, until rank m is reached
    or c_max points are used.  Each round draws its n_trials candidates at
    once, evaluates them as one stack, appends each candidate's row block to
    the chosen points' matrix and scores every candidate with one batched
    SVD; ties go to the earliest candidate.  Deterministic given the seed;
    candidates that raise DomainViolation are skipped.  Failure is reported
    through rank < m in the returned diagnostics, not an exception.  A box
    corner that does not broadcast to (d,) raises DimensionMismatch.
    """
    if c_max < 1 or n_trials < 1:
        raise InvalidParameter("c_max and n_trials must be >= 1")

    def corner(box):
        box = np.asarray(box, dtype=float)
        try:
            return np.broadcast_to(box, (V.d,)).copy()
        except ValueError:
            raise DimensionMismatch(
                f"search box corner of shape {box.shape} does not broadcast to ({V.d},)"
            ) from None

    lo, hi = corner(box_lo), corner(box_hi)
    if np.any(hi <= lo):
        raise InvalidParameter("box upper bounds must exceed lower bounds")
    rng = np.random.default_rng(seed)
    # the chosen points and their rows of the reconstruction matrix
    chosen, head = np.empty((0, V.d)), np.empty((0, V.ell * (V.ell + 1) // 2))
    for _ in range(c_max):
        cands = rng.uniform(lo, hi, size=(n_trials, V.d))
        try:
            _, fields, brackets, _ = _point_blocks(V, cands)
        except DomainViolation:
            cands = cands[[_admissible(V, cand) for cand in cands]]
            if len(cands) == 0:
                raise InvalidParameter("no admissible candidate points found in the box")
            _, fields, brackets, _ = _point_blocks(V, cands)
        heads = np.broadcast_to(head, (len(cands),) + head.shape)
        mats = np.concatenate([heads, _column_blocks(fields, brackets)], axis=1)
        svs = np.linalg.svd(mats, compute_uv=False)
        best = int(np.argmax(svs[:, -1]))
        best_mat = _ranked(mats[best], svs[best], tol_rel)
        chosen, head = np.vstack([chosen, cands[best]]), best_mat.mat
        if best_mat.rank == best_mat.m:
            break
    return PointSearchResult(
        points=chosen,
        rank=best_mat.rank,
        m=best_mat.m,
        sigma_min=float(best_mat.singular_values[-1]),
        singular_values=best_mat.singular_values,
    )


def reconstruction_report(result: ReconstructionResult, s, t, matrix: ReconstructionMatrix):
    """JSON-ready summary of one local reconstruction."""
    return {
        "interval": [float(s), float(t)],
        "a_hat": [float(v) for v in result.a_hat],
        "b_hat": [[float(v) for v in row] for row in result.b_hat],
        "residual": float(result.residual),
        "residual_sup": float(result.residual_sup),
        "iterations": int(result.iterations),
        "rank": int(matrix.rank),
        "sigma_min": float(matrix.singular_values[-1]),
        "eps1": float(result.eps1),
        "eps2": float(result.eps2),
        "warnings": list(result.warnings),
    }


def _observations_header(d):
    return ["s", "t", "point_id"] + io.numbered("y", d) + io.numbered("z", d)


def write_observations_csv(obs_list, file):
    """Write observation sets to CSV: s,t,point_id,y1..yd,z1..zd."""
    obs_list = list(obs_list)
    if not obs_list:
        raise InvalidParameter("need at least one observation set")
    rows = [
        [obs.s, obs.t, pid, *obs.base_points[pid], *obs.observed[pid]]
        for obs in obs_list
        for pid in range(obs.c)
    ]
    io.write_table(file, _observations_header(obs_list[0].base_points.shape[1]), rows)


def read_observations_csv(file):
    """Read observation sets, one per interval, ordered by interval start.

    Each interval is one block of consecutive rows with point ids 0..c-1 in
    order, so a repeated interval or point id is an error.  Base points must
    be consistent across intervals (the reconstruction matrix is shared); a
    mismatch raises InvalidParameter.
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
    obs_list = []
    for (s, t), rows in sorted(blocks.items()):
        base, observed = data[rows, 3 : 3 + d], data[rows, 3 + d :]
        if obs_list and (
            base.shape != obs_list[0].base_points.shape
            or np.max(np.abs(base - obs_list[0].base_points)) > 1e-12
        ):
            raise InvalidParameter(
                f"{file}: base points differ between intervals; they must be shared"
            )
        obs_list.append(ObservationSet(base, s, t, observed))
    return obs_list
