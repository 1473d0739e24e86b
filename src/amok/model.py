"""Element-level calculus: absolute values, norms, positivity,
orthogonality and the classification predicates.

Every "=" in a defining equation is evaluated as an operator-norm
distance at a predicate tolerance, with two exceptions that compare the
largest entry instead: ``is_selfadjoint`` bounds the largest entry of
v - v*, and ``orthogonal_infty_a`` the largest entry of uv.

Inside ``memo_scope`` the three element functions that reach LAPACK
most, ``abs_value``, ``op_norm`` and ``spectrum``, are computed once per
distinct input: a repeat call with a bit-identical argument returns the
stored result.  Outside a scope nothing is cached, except that the
public entry points that decompose one element several times
(``classify`` here, ``kgroups.k_class`` and ``kgroups.k_pair_class``)
open one through ``memo_scope_if_none``.

``spectrum`` is the one place where a projection is decomposed: the
order-projection predicate and the rank and range bases of
``equivalence`` read the same eigenvalues and eigenvectors.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .algebra import Element, dilate, order_unit
from .errors import LevelMismatch, ShapeMismatch, ZeroOperand

TOL_PRED = 1e-9
TOL_BISECT = 1e-9

# (function, algebra, levels, stack bytes) -> result, while a scope is open
_MEMO = contextvars.ContextVar("amok_model_memo")


@contextlib.contextmanager
def memo_scope():
    """Cache ``abs_value``, ``op_norm`` and ``spectrum`` by input content
    until the block exits; a nested scope starts empty and restores the
    outer one."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memo_scope_if_none():
    """A ``memo_scope`` when none is open; inside one, a context that
    does nothing, so the caller's cache is kept and shared."""
    if _MEMO.get(None) is None:
        return memo_scope()
    return contextlib.nullcontext()


def _memoized(fn):
    """Look ``fn(v)`` up by the full bytes of v inside ``memo_scope``.

    Keys hold the bytes themselves, so a hit means a bit-identical input;
    results are immutable and exceptions are never stored.
    """
    @functools.wraps(fn)
    def cached(v):
        memo = _MEMO.get(None)
        if memo is None:
            return fn(v)
        key = (fn, v.algebra, v.row_level, v.col_level,
               tuple(a.tobytes() for a in v.stacks))
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = fn(v)
            return out
    return cached


@_memoized
def abs_value(v: Element) -> Element:
    """|v| = (v* v)^{1/2}, computed per summand stack."""
    roots = tuple(kernel.sqrtm_psd_stack(a.conj().transpose(0, 2, 1) @ a)
                  for a in v.stacks)
    return Element(v.algebra, v.col_level, v.col_level, roots)


@_memoized
def op_norm(v: Element) -> float:
    """Largest singular value over all blocks / grid samples.

    In both models this equals the order-unit norm; the public
    ``order_unit_norm`` additionally realizes the PSD-bisection
    characterization.
    """
    return max(kernel.spectral_norm_stack(a) for a in v.stacks)


@_memoized
def spectrum(v: Element) -> tuple:
    """One read-only ``(w, V)`` pair per summand stack of a square-level
    v: ``kernel.eig_stack`` of the stack, eigenvalues ascending."""
    out = tuple(kernel.eig_stack(a) for a in v.stacks)
    for w, V in out:
        w.setflags(write=False)
        V.setflags(write=False)
    return out


def distance(u: Element, v: Element) -> float:
    if not u.same_shape(v):
        raise ShapeMismatch("distance needs identical shapes")
    return op_norm(u - v)


def order_unit_norm(v: Element, tol_bisect: float = TOL_BISECT) -> float:
    """Order-unit norm by bisection over PSD feasibility.

    ||v|| = inf { k : [[k e^m, v], [v*, k e^n]] >= 0 } for v at level
    m x n, square or rectangular: k plus the self-adjoint dilation.
    """
    # writable copies of the dilation [[0, v], [v*, 0]], built once;
    # each step writes k on the diagonal through a strided view
    d = dilate(v)
    bigs = [s.copy() for s in d.stacks]
    diags = [big.reshape(len(big), -1)[:, ::big.shape[-1] + 1]
             for big in bigs]

    def feasible(k: float) -> bool:
        for big, diag in zip(bigs, diags):
            diag[...] = k
            if not kernel.cholesky_feasible_stack(big):
                return False
        return True

    # 1 + the largest Frobenius norm of a block / grid sample, of the
    # dilation for a rectangular v
    hi = 1.0 + max(float(np.sqrt(np.max(np.sum(np.abs(a) ** 2, axis=(1, 2)))))
                   for a in (v if v.is_square_level else d).stacks)
    lo = 0.0
    while hi - lo > tol_bisect:
        mid = (hi + lo) / 2.0
        if not lo < mid < hi:
            break  # adjacent floats: a tolerance below their spacing
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return (hi + lo) / 2.0


def is_selfadjoint(v: Element, tol: float = TOL_PRED) -> bool:
    if not v.is_square_level:
        return False
    return (v - v.adjoint()).max_abs() <= tol


def is_positive(v: Element, tol: float = TOL_PRED) -> bool:
    """Self-adjoint with every block / grid sample PSD within tol."""
    if not v.is_square_level:
        raise LevelMismatch("positivity needs a square-level element")
    if not is_selfadjoint(v, tol):
        return False
    return all(float(np.min(kernel.min_eig_stack(a))) >= -tol
               for a in v.stacks)


@dataclass(frozen=True)
class ElementClass:
    is_selfadjoint: bool
    is_positive: bool
    is_order_projection: bool
    is_partial_isometry: bool
    is_unitary: bool
    is_partial_unitary: bool


def is_order_projection(v: Element, tol: float = TOL_PRED) -> bool:
    """v* = v and |2v - e^n| = e^n.

    |2v - e^n| - e^n is the function ||2x - 1| - 1| of v, so its
    operator norm is read off the spectrum of v: the test holds when
    every eigenvalue is within tol/2 of 0 or 1."""
    if not v.is_square_level:
        return False
    if not is_selfadjoint(v, tol):
        return False
    return all(np.all(np.abs(np.abs(2.0 * w - 1.0) - 1.0) <= tol)
               for w, _ in spectrum(v))


def is_partial_isometry(v: Element, tol: float = TOL_PRED) -> bool:
    """|v| and |v*| are both order projections."""
    return (is_order_projection(abs_value(v), tol)
            and is_order_projection(abs_value(v.adjoint()), tol))


def is_unitary(v: Element, tol: float = TOL_PRED) -> bool:
    """|v| = e^n = |v*|."""
    if not v.is_square_level:
        raise LevelMismatch("unitarity is defined at square levels only")
    e = order_unit(v.algebra, v.row_level)
    return (distance(abs_value(v), e) <= tol
            and distance(abs_value(v.adjoint()), e) <= tol)


def is_partial_unitary(v: Element, tol: float = TOL_PRED) -> bool:
    """|v| = |v*| is an order projection."""
    if not v.is_square_level:
        raise LevelMismatch("partial unitarity is defined at square levels only")
    av = abs_value(v)
    avs = abs_value(v.adjoint())
    return distance(av, avs) <= tol and is_order_projection(av, tol)


def classify(v: Element, tol: float = TOL_PRED) -> ElementClass:
    """Evaluate every defining predicate at the given tolerance.

    The square-only flags (unitary, partial unitary, order projection)
    are False for rectangular input.  The predicates share |v| and |v*|,
    so this opens a memo scope when none is open.
    """
    sq = v.is_square_level
    with memo_scope_if_none():
        return ElementClass(
            is_selfadjoint=is_selfadjoint(v, tol),
            is_positive=sq and is_positive(v, tol),
            is_order_projection=is_order_projection(v, tol),
            is_partial_isometry=is_partial_isometry(v, tol),
            is_unitary=sq and is_unitary(v, tol),
            is_partial_unitary=sq and is_partial_unitary(v, tol))


def orthogonal_positive(u: Element, v: Element, tol: float = TOL_PRED) -> bool:
    """|u - v| = u + v, the defining equation for positive pairs."""
    return distance(abs_value(u - v), u + v) <= tol


def orthogonal(u: Element, v: Element, tol: float = TOL_PRED) -> bool:
    """Absolute-value orthogonality u _|_ v.

    For positive pairs this is the defining equation; in general it
    reduces to |u| _|_ |v| and |u*| _|_ |v*| on positives.
    """
    if not u.same_shape(v):
        raise ShapeMismatch("orthogonality needs identical shapes")
    if u.is_square_level and is_positive(u, tol) and is_positive(v, tol):
        return orthogonal_positive(u, v, tol)
    return (orthogonal_positive(abs_value(u), abs_value(v), tol)
            and orthogonal_positive(abs_value(u.adjoint()),
                                    abs_value(v.adjoint()), tol))


def orthogonal_infty(u: Element, v: Element, tol: float = TOL_PRED) -> bool:
    """Norm orthogonality of nonzero positives:
    || u/||u|| + v/||v|| || = 1."""
    if not u.same_shape(v):
        raise ShapeMismatch("orthogonality needs identical shapes")
    nu = op_norm(u)
    nv = op_norm(v)
    if nu <= tol or nv <= tol:
        raise ZeroOperand("norm orthogonality needs nonzero operands")
    return abs(op_norm(u.scale(1.0 / nu) + v.scale(1.0 / nv)) - 1.0) <= tol


def orthogonal_infty_a(u: Element, v: Element, tol: float = TOL_PRED) -> bool:
    """Algebraic orthogonality of positives: the product uv vanishes."""
    if not u.same_shape(v):
        raise ShapeMismatch("orthogonality needs identical shapes")
    return u.matmul(v).max_abs() <= tol

