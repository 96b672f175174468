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
