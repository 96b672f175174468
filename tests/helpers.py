"""Shared helpers for the test suite."""

import numpy as np


def fit_slope(lengths, errors):
    """Least-squares slope of log(error) against log(length)."""
    lengths = np.asarray(lengths, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return float(np.polyfit(np.log(lengths), np.log(errors), 1)[0])


def rolling_ball_generator(x_inc, area):
    """Antisymmetric generator x^1 A1 + x^2 A2 + a^{12} [A2, A1] of the log-ODE step."""
    from rdeinv.systems import ROLLING_BALL_A1, ROLLING_BALL_A2

    comm = ROLLING_BALL_A2 @ ROLLING_BALL_A1 - ROLLING_BALL_A1 @ ROLLING_BALL_A2
    return x_inc[0] * ROLLING_BALL_A1 + x_inc[1] * ROLLING_BALL_A2 + area * comm


def named_systems():
    """Every named system of the CLI, `constant` as two fields on 3-space."""
    from rdeinv.systems import SYSTEM_BUILDERS

    return [
        builder(2, 3) if name == "constant" else builder()
        for name, builder in SYSTEM_BUILDERS.items()
    ]


def chen_fold(path, i, j):
    """(x, a) over [t_i, t_j] by the left-to-right Chen fold of steps i..j-1.

    The step-by-step reference that `GridRoughPath.increment` and `coarsen`,
    which answer from prefix sums, are checked against.
    """
    x_acc = np.zeros(path.ell)
    a_acc = np.zeros((path.ell, path.ell))
    for k in range(i, j):
        dx = path.values[k + 1] - path.values[k]
        cross = np.outer(x_acc, dx)
        a_acc += path.step_areas[k] + 0.5 * (cross - cross.T)
        x_acc = x_acc + dx
    return x_acc, a_acc


def minimize_least_squares(model, theta0, max_iter, tol, floor=0.0):
    """Gauss-Newton with Levenberg damping on 0.5*|residual|^2, one problem.

    The one-problem solver that the batched `reconstruct._solve`, and so
    `reconstruct_many`, is checked against row by row, bitwise: each row of
    the batched arithmetic must match these 2-D products and this
    `np.linalg.norm` of one vector.  model(theta) returns the residual and
    the Jacobian there, and is called once per trial point; a package error
    it raises at the start point ends the solve, and at a trial point
    rejects the step.  Returns (theta, iterations, residual_vector) when the
    step norm drops below tol, or when a rejected damped step is no longer
    than floor*|theta|, or an accepted one (then with the new theta); raises
    NotConverged when the iteration budget is exhausted or no damped step
    decreases the cost, and NonFinite when a damped step is not finite.
    """
    from rdeinv.errors import NonFinite, NotConverged, RdeinvError

    theta = np.asarray(theta0, dtype=float).copy()
    r, jac = model(theta)
    cost = float(r @ r)
    lam = 1e-8
    n_params = theta.size
    for it in range(1, max_iter + 1):
        grad = jac.T @ r
        hess = jac.T @ jac
        delta = None
        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(hess + lam * np.eye(n_params), -grad)
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-14) * 10.0
                continue
            if float(np.linalg.norm(delta)) < tol:
                return theta, it, r
            if not np.isfinite(np.linalg.norm(delta)):
                raise NonFinite(f"Gauss-Newton step is not finite at iteration {it}")
            try:
                r_new, jac_new = model(theta + delta)
            except RdeinvError:
                cost_new = np.nan
            else:
                cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost * (1.0 + 1e-14) + 1e-300:
                accepted = True
                break
            if float(np.linalg.norm(delta)) <= floor * float(np.linalg.norm(theta)):
                return theta, it, r
            lam = max(lam, 1e-14) * 10.0
            if lam > 1e12:
                break
        if not accepted:
            raise NotConverged(f"no acceptable damped step at iteration {it}")
        if float(np.linalg.norm(delta)) <= floor * float(np.linalg.norm(theta)):
            return theta + delta, it, r_new
        theta = theta + delta
        r, jac, cost = r_new, jac_new, cost_new
        lam *= 0.1
    raise NotConverged(f"step norm above {tol} after {max_iter} iterations")


def reconstruct_oracle(V, obs, method, max_iter=50, tol=1e-12, n_sub=16, fd_step=1e-6):
    """One interval's recovery by `minimize_least_squares`, with the one-problem
    Taylor residual from `taylor_map` and its analytic Jacobian (floor 0), or the
    flow residual and its central-difference Jacobian from one log-ODE call
    (floor sqrt(eps))."""
    from rdeinv import reconstruct
    from rdeinv.rde import logode_step
    from rdeinv.roughpath import RoughIncrement, area_matrix

    ell = V.ell
    base, target = obs.base_points, obs.observed.ravel()
    rm = reconstruct.reconstruction_matrix(V, base)
    eps1, eps2 = reconstruct.trust_region(V, base)
    comps = V.compositions(base)[1]
    a0 = np.linalg.lstsq(rm.mat[:, :ell], target - base.ravel(), rcond=None)[0]
    theta0 = np.concatenate([a0, np.zeros(rm.m - ell)])

    if method == "taylor":
        sym = comps + np.swapaxes(comps, 1, 2)
        floor = 0.0

        def model(theta):
            A = theta[:ell]
            out = reconstruct.taylor_map(V, base, A, area_matrix(theta[ell:], ell))
            jac = rm.mat.copy()
            jac[:, :ell] += 0.5 * np.einsum("j,cijd->cdi", A, sym).reshape(-1, ell)
            return out - target, jac

    else:
        floor = np.sqrt(np.finfo(float).eps)

        def model(theta):
            # theta and its 2m central-difference probes in one log-ODE call
            m, c = theta.size, obs.c
            rows = theta + fd_step * np.concatenate([np.zeros((1, m)), np.eye(m), -np.eye(m)])
            inc = RoughIncrement(
                np.repeat(rows[:, :ell], c, axis=0),
                np.repeat(area_matrix(rows[:, ell:], ell), c, axis=0),
            )
            images = logode_step(V, np.tile(base, (2 * m + 1, 1)), inc, n_sub).reshape(2 * m + 1, -1)
            return images[0] - target, (images[1 : m + 1] - images[m + 1 :]).T / (2.0 * fd_step)

    with np.errstate(over="ignore", invalid="ignore"):
        theta, iterations, rvec = minimize_least_squares(model, theta0, max_iter, tol, floor)
    return reconstruct._result_from(theta, iterations, rvec, V, obs, eps1, eps2, method)


# lifts whose flags are finite but whose path builders overflow: each is one
# usage error line, exit 64, with no RuntimeWarning on the way
OVERFLOW_LIFTS = {
    "brownian_areas": ["lift", "--driver", "brownian", "--horizon", "1.7e308",
                       "--n-coarse", "4", "--n-fine", "2", "--seed", "3"],
    "linear_areas": ["lift", "--driver", "linear", "--v", "1,1,1e308", "--n", "4",
                     "--horizon", "1e10"],
    "linear_values": ["lift", "--driver", "linear", "--v", "1e308,1e308,0", "--n", "4",
                      "--horizon", "1.7e308"],
}
