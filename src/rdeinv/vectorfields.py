"""Vector field collections on d-space: Jacobians, compositions, Lie brackets.

A field set is evaluated fused: one callable maps an (N, d) stack of states
to all ell field values (N, ell, d), and an optional second one to all
Jacobians (N, ell, d, d); without it, Jacobians are central differences of
the first.  A result that only broadcasts to the full shape, such as a
constant (ell, d) or (ell, d, d) stack, is accepted and filled out.  A (d,)
state passes through unchanged, so callables written with ``x[..., k]``
indexing serve both.  Rows are independent states: the integrators step
whole stacks of base points, seeds and finite-difference probes in lockstep,
so evaluators must be pure.  `fields_at`, `jacobians_at` and `compositions`
evaluate every field at once; a caller indexes the field axis itself.

One table, `composition_table`, holds the compositions V_jV_k = DV_k V_j:
`bracket` (indices 0-based ints or NumPy integers) and `bracket_columns`
(pairs j < k in row-major order, the one pair order of `roughpath._pairs`)
difference two slices of it, and the rank test, eps2 and the Taylor Jacobian
read it.  The level-2 kernel of `rde` takes fields and Jacobians without it.
A set declared affine (`jac_mode` "affine", as `VectorFieldSet.affine` builds)
keeps the generators that the log-ODE matrix route reads, read at the origin.

The list form, one callable per field (and per Jacobian), is an adapter that
stacks the per-field results.  Every set keeps per-field callables in
``_evals`` and ``_jacs``; a fused set's are slices of its fused results, so a
list-form set rebuilt from them and `jac_mode` evaluates and steps bitwise alike.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DimensionMismatch, IndexOutOfRange, InvalidParameter, NonFinite, count, finite, is_int, positive,
)
from .roughpath import _pairs


def fd_jacobian(fun, x, step=1e-5):
    """Central-difference Jacobian of fun at a (d,) state or every row of an (N, d) stack.

    Column j uses x +- step*e_j, applied to the whole stack at once, so fun is
    called 2d times whatever N is.  The derivative axis comes last: a fun
    returning (N, d) gives (N, d, d), a fused fun returning (N, ell, d) gives
    (N, ell, d, d); a broadcastable result gives a broadcastable Jacobian.
    """
    step = positive(step, "finite-difference step")
    x = np.asarray(x, dtype=float)
    cols = [
        np.asarray(fun(x + e), float) - np.asarray(fun(x - e), float)
        for e in step * np.eye(x.shape[-1])
    ]
    jac = np.stack(cols, axis=-1) / (2.0 * step)
    if not np.all(np.isfinite(jac)):
        raise NonFinite("field evaluation produced non-finite values")
    return jac


def _checked(out, shape, what):
    """An evaluator result as a float array of `shape`, filled out from one that only
    broadcasts to it, else DimensionMismatch; an exact-shape float array passes as it is."""
    if type(out) is np.ndarray and out.dtype == float and out.shape == shape:
        return out
    out = np.asarray(out, dtype=float)
    try:
        return np.broadcast_to(out, shape).copy()
    except ValueError:
        raise DimensionMismatch(f"{what} returned shape {out.shape}, expected {shape}") from None


def _stacked(fns, kind, tail):
    """The fused callable of per-field callables: their checked results on a field axis."""

    def fused(x):
        out = np.empty(x.shape[:-1] + (len(fns),) + tail)
        for i, fn in enumerate(fns):
            out[(slice(None),) * (x.ndim - 1) + (i,)] = _checked(
                fn(x), x.shape[:-1] + tail, f"{kind} {i}"
            )
        return out

    return fused


def _slice(fused_at, i, x):
    """Field i's part of a fused result at x."""
    return fused_at(x)[(slice(None),) * (np.ndim(x) - 1) + (i,)]


class VectorFieldSet:
    """ell vector fields on R^d with value and Jacobian access.

    The constructor takes the list form: `evals`, one callable per field
    mapping an (N, d) stack to its (N, d) values, and optionally `jacs`, one
    callable per field returning (N, d, d) Jacobians; results may broadcast
    to those shapes.  Without `jacs`, Jacobians come from central differences
    with `fd_step` (default 1e-5, the truncation/round-off balance for double
    precision).  `jac_mode="affine"` (with `jacs`) declares the fields affine;
    any other `jac_mode` must be None or the set's own mode ("analytic" with
    `jacs`, "finite-difference" without), else InvalidParameter.
    `VectorFieldSet.fused` takes the fused form.
    """

    __slots__ = ("_fields", "_jacobians", "_evals", "_jacs", "d", "ell", "fd_step", "jac_mode",
                 "generators")

    def __init__(self, evals, d, jacs=None, fd_step=1e-5, jac_mode=None):
        evals, d = tuple(evals), count(d, "d")
        if jacs is not None:
            jacs = tuple(jacs)
            if len(jacs) != len(evals):
                raise DimensionMismatch("need one Jacobian per field")
        self._setup(
            _stacked(evals, "field", (d,)), len(evals), d,
            None if jacs is None else _stacked(jacs, "jacobian", (d, d)), fd_step,
        )
        self._evals, self._jacs = evals, jacs
        if jac_mode not in (None, "affine", self.jac_mode):
            raise InvalidParameter(
                f'jac_mode must be None, "affine" or "{self.jac_mode}", got {jac_mode!r}'
            )
        self.jac_mode = jac_mode or self.jac_mode
        if self.jac_mode == "affine":
            if jacs is None:
                raise InvalidParameter('jac_mode "affine" needs one Jacobian per field')
            self._read_generators()

    @classmethod
    def fused(cls, fields, ell, d, jacobians=None, fd_step=1e-5):
        """The set of ell fields whose values at an (N, d) stack are fields(x),
        (N, ell, d), and whose Jacobians are jacobians(x), (N, ell, d, d)."""
        self = cls.__new__(cls)
        self._setup(fields, ell, d, jacobians, fd_step)
        self._evals = tuple(functools.partial(_slice, self.fields_at, i) for i in range(self.ell))
        self._jacs = None if jacobians is None else tuple(
            functools.partial(_slice, self.jacobians_at, i) for i in range(self.ell)
        )
        return self

    @classmethod
    def affine(cls, A, b=None):
        """The fused set of ell affine fields V_i(y) = A_i y + b_i on R^d, from finite A
        (ell, d, d) and b (ell, d), zero if omitted; its Jacobian is the constant A.  It keeps
        G_i = [[A_i, b_i], [0, 0]], (ell, d+1, d+1), in `generators`, None if not affine."""
        A = finite(np.array(A, dtype=float), "matrices A")
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise DimensionMismatch(f"A must have shape (ell, d, d), got {A.shape}")
        ell, d = A.shape[:2]
        b = np.zeros((ell, d)) if b is None else finite(np.array(b, dtype=float), "offsets b")
        if b.shape != (ell, d):
            raise DimensionMismatch(f"b must have shape {(ell, d)}, got {b.shape}")
        cat = A.transpose(2, 0, 1).reshape(d, ell * d)  # x @ cat = [A_1 x, ..., A_ell x]
        self = cls.fused(lambda x: (x @ cat).reshape(x.shape[:-1] + (ell, d)) + b, ell, d,
                         lambda x: A)
        self.jac_mode = "affine"
        self._read_generators()
        return self

    def _read_generators(self):
        """Keep G_i = [[DV_i, V_i(0)], [0, 0]] of a set declared affine, read at the origin."""
        zero, d = np.zeros(self.d), self.d
        self.generators = np.zeros((self.ell, d + 1, d + 1))
        self.generators[:, :d, :d] = self.jacobians_at(zero)
        self.generators[:, :d, d] = self.fields_at(zero)

    def _setup(self, fields, ell, d, jacobians, fd_step):
        self.ell, self.d = count(ell, "ell"), count(d, "d")
        self._fields, self._jacobians = fields, jacobians
        self.generators = None
        self.fd_step = positive(fd_step, "fd_step")
        self.jac_mode = "finite-difference" if jacobians is None else "analytic"

    def _states(self, x, what="states"):
        """x as a float (d,) state or (N, d) stack, else DimensionMismatch; a non-finite
        entry raises InvalidParameter naming the input, `what`."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise DimensionMismatch(
                f"states must have shape ({self.d},) or (N, {self.d}), got {x.shape}"
            )
        return finite(x, what)

    def _check_index(self, *indices):
        for i in indices:
            if not (is_int(i) and 0 <= i < self.ell):
                raise IndexOutOfRange(f"field index {i!r} is not an integer in [0, {self.ell})")

    def _at(self, x, jacobians=False):
        """Field values (..., ell, d) or Jacobians (..., ell, d, d) at a (d,) state or an
        (N, d) stack x that the caller has already checked, each result `_checked`."""
        if not jacobians:
            return _checked(self._fields(x), x.shape[:-1] + (self.ell, self.d), "fields")
        shape = x.shape[:-1] + (self.ell, self.d, self.d)
        if self._jacobians is None:
            return _checked(fd_jacobian(self._fields, x, self.fd_step), shape, "jacobians")
        return _checked(self._jacobians(x), shape, "jacobians")

    def fields_at(self, x):
        """All field values: (N, ell, d) for an (N, d) stack, (ell, d) for one state."""
        return self._at(self._states(x))

    def jacobians_at(self, x):
        """All Jacobians: (N, ell, d, d) for an (N, d) stack, (ell, d, d) for one state."""
        return self._at(self._states(x), jacobians=True)

    def compositions(self, x):
        """Fields (..., ell, d) and the table (..., ell, ell, d) of V_jV_k = DV_k V_j
        at [j, k], at a (d,) state or an (N, d) stack; one evaluation of each kind."""
        x = self._states(x)
        fields = self._at(x)
        return fields, composition_table(fields, self._at(x, jacobians=True))


def composition_table(fields, jacobians):
    """The table (..., ell, ell, d) of V_jV_k = DV_k V_j at [j, k], from the fields
    (..., ell, d) and the Jacobians (..., ell, d, d) at the same states."""
    return np.einsum("...kde,...je->...jkd", jacobians, fields)


def _brackets(comps, j, k):
    """[V_j, V_k] = V_jV_k - V_kV_j from a composition table; j, k may be index arrays."""
    return comps[..., j, k, :] - comps[..., k, j, :]


def bracket_columns(comps):
    """Brackets (..., ell*(ell-1)/2, d) of the pairs j < k, row by row, from a table."""
    return _brackets(comps, *_pairs(comps.shape[-2]))


def bracket(V: VectorFieldSet, j, k, x):
    """Lie bracket [V_j, V_k](x) = DV_k(x) V_j(x) - DV_j(x) V_k(x), at one state or a stack."""
    V._check_index(j, k)
    return _brackets(V.compositions(x)[1], j, k)
