"""Vector field collections on d-space: Jacobians, Lie brackets, compositions.

Evaluators are batched.  A field evaluator takes an (N, d) stack of states
and returns the (N, d) field values; a Jacobian evaluator returns (N, d, d).
A result that only broadcasts to that shape, such as a constant vector or a
constant matrix, is accepted.  The single-state accessors pass a (d,) state
through unchanged, so evaluators written with ``x[..., k]`` indexing serve
both.  Every row is an independent state: the integrators step whole stacks
of base points, seeds and finite-difference probes in lockstep, so
evaluators must be pure.  Indices are 0-based throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
)


def fd_jacobian(fun, x, step=1e-5):
    """Central-difference Jacobian of fun at a (d,) state or every row of an (N, d) stack.

    Column j uses x +- step*e_j, applied to the whole stack at once, so fun is
    called 2d times whatever N is.  The result has shape (d, d) or (N, d, d),
    or broadcasts to it when fun returns a broadcastable result.
    """
    if not step > 0:
        raise InvalidParameter("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        cols.append(np.asarray(fun(x + e), float) - np.asarray(fun(x - e), float))
    jac = np.stack(cols, axis=-1) / (2.0 * step)
    if not np.all(np.isfinite(jac)):
        raise NonFinite("field evaluation produced non-finite values")
    return jac


def _checked(out, shape, kind, i):
    """An evaluator result as a float array that broadcasts to `shape`, else DimensionMismatch."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape[len(shape) - out.ndim :] and (
        out.ndim > len(shape)
        or any(o not in (1, n) for o, n in zip(out.shape[::-1], shape[::-1]))
    ):
        raise DimensionMismatch(f"{kind} {i} returned shape {out.shape}, expected {shape}")
    return out


class VectorFieldSet:
    """A tuple of vector fields on R^d with value and Jacobian access.

    Parameters
    ----------
    evals : sequence of callables, each mapping an (N, d) stack of states to
        the (N, d) field values (or to a result that broadcasts to it).
    d : state dimension.
    jacs : optional sequence of callables returning (N, d, d) Jacobians (or a
        broadcastable result).  When omitted, Jacobians come from central
        finite differences with fd_step.
    fd_step : finite-difference step, default 1e-5 (truncation/round-off
        balance for double precision).
    """

    __slots__ = ("_evals", "_jacs", "d", "ell", "fd_step", "jac_mode")

    def __init__(self, evals, d, jacs=None, fd_step=1e-5, jac_mode=None):
        self._evals = tuple(evals)
        self.ell = len(self._evals)
        self.d = int(d)
        if self.ell == 0 or self.d <= 0:
            raise InvalidParameter("need at least one field on a positive-dimensional space")
        if jacs is not None:
            jacs = tuple(jacs)
            if len(jacs) != self.ell:
                raise DimensionMismatch("need one Jacobian per field")
        self._jacs = jacs
        if not fd_step > 0:
            raise InvalidParameter("fd_step must be positive")
        self.fd_step = float(fd_step)
        self.jac_mode = jac_mode or ("analytic" if jacs else "finite-difference")

    def _check_index(self, i):
        if not 0 <= i < self.ell:
            raise IndexOutOfRange(f"field index {i} not in [0, {self.ell})")

    def _states(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise DimensionMismatch(
                f"states must have shape ({self.d},) or (N, {self.d}), got {x.shape}"
            )
        return x

    def _jacobian(self, i, x):
        if self._jacs is None:
            out = fd_jacobian(self._evals[i], x, self.fd_step)
        else:
            out = self._jacs[i](x)
        return _checked(out, x.shape + (self.d,), "jacobian", i)

    def field(self, i, x):
        """Value of field i at a (d,) state, or at every row of an (N, d) stack."""
        self._check_index(i)
        x = self._states(x)
        out = np.empty(x.shape)
        out[...] = _checked(self._evals[i](x), x.shape, "field", i)
        return out

    def jacobian(self, i, x):
        """Jacobian of field i at a (d,) state as (d, d), or at an (N, d) stack as (N, d, d)."""
        self._check_index(i)
        x = self._states(x)
        out = np.empty(x.shape + (self.d,))
        out[...] = self._jacobian(i, x)
        return out

    def fields_at(self, x):
        """All field values: (N, ell, d) for an (N, d) stack, (ell, d) for one state."""
        x = self._states(x)
        out = np.empty(x.shape[:-1] + (self.ell, self.d))
        for i, ev in enumerate(self._evals):
            out[..., i, :] = _checked(ev(x), x.shape, "field", i)
        return out

    def jacobians_at(self, x):
        """All Jacobians: (N, ell, d, d) for an (N, d) stack, (ell, d, d) for one state."""
        x = self._states(x)
        out = np.empty(x.shape[:-1] + (self.ell, self.d, self.d))
        for i in range(self.ell):
            out[..., i, :, :] = self._jacobian(i, x)
        return out


def second_comp(V: VectorFieldSet, j, k, x):
    """Directional derivative of V_k along V_j at x: DV_k(x) V_j(x).

    x is one state or an (N, d) stack.
    bracket(V, j, k, x) == second_comp(V, j, k, x) - second_comp(V, k, j, x).
    """
    return np.einsum("...de,...e->...d", V.jacobian(k, x), V.field(j, x))


def bracket(V: VectorFieldSet, j, k, x):
    """Lie bracket [V_j, V_k](x) = DV_k(x) V_j(x) - DV_j(x) V_k(x), at one state or a stack."""
    return second_comp(V, j, k, x) - second_comp(V, k, j, x)
