"""Concrete algebra models and matrix-level elements.

An algebra is its tuple of summands, one ``(batch, dim)`` pair each.
``AlgebraSpec.fd`` is a finite direct sum of complex matrix algebras,
one summand ``(1, d)`` per block of size d.  ``AlgebraSpec.circle`` is
the algebra of d x d matrix functions on the unit circle, represented by
its values on a uniform grid of N points: one summand ``(N, d)``, N a
power of two and at least 4d, so a batch above 1 always means a grid.
Every predicate is evaluated pointwise at grid resolution, so circle
inputs should be trigonometric polynomials of degree at most N/4.

An Element at levels (m, n) is one read-only complex stack of shape
(batch, m*dim, n*dim) per summand, and ``Element(algebra, m, n,
stacks)`` is the one way to build it, for parsed, generated and computed
data alike.  Every calculus routine maps over these stacks on one code
path, batched across a grid and one block at a time over fd.
``Element.data`` views the same matrices per component (fd block or grid
point).  Elements are immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AlgebraMismatch, ShapeMismatch


@dataclass(frozen=True)
class AlgebraSpec:
    """An algebra as its (batch, dim) summands, one per stored stack."""
    summands: tuple

    @staticmethod
    def fd(blocks) -> "AlgebraSpec":
        dims = tuple(int(d) for d in blocks)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError("fd model needs at least one block of dim >= 1")
        return AlgebraSpec(tuple((1, d) for d in dims))

    @staticmethod
    def circle(dim: int, grid: int) -> "AlgebraSpec":
        d = int(dim)
        n = int(grid)
        if d < 1:
            raise ValueError("circle model needs dim >= 1")
        if n < 4 * d:
            raise ValueError("grid_points must be at least 4*dim")
        if n & (n - 1):
            raise ValueError("grid_points must be a power of two")
        return AlgebraSpec(((n, d),))


def roots_of_unity(n: int) -> np.ndarray:
    """The n grid points z_j = exp(2*pi*i*j/n) of a circle summand."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _freeze(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False, init=False)
class Element:
    """An m x n matrix over the model: one read-only complex stack of
    shape (batch, m*dim, n*dim) per summand (see ``AlgebraSpec``).

    The constructor checks that the levels are nonnegative, that there is
    one stack per summand and that each has its summand's shape, raising
    ShapeMismatch otherwise, then stores each stack as a frozen complex
    array (a view, when it already is one).
    """

    algebra: AlgebraSpec
    row_level: int
    col_level: int
    stacks: tuple = field(repr=False)

    def __init__(self, algebra: AlgebraSpec, row_level: int, col_level: int,
                 stacks):
        if row_level < 0 or col_level < 0:
            raise ShapeMismatch("levels must be nonnegative")
        stacks = tuple(_freeze(s) for s in stacks)
        summands = algebra.summands
        if len(stacks) != len(summands):
            raise ShapeMismatch(f"expected {len(summands)} stacks, "
                                f"got {len(stacks)}")
        for i, (s, (b, d)) in enumerate(zip(stacks, summands)):
            want = (b, row_level * d, col_level * d)
            if s.shape != want:
                raise ShapeMismatch(
                    f"stack {i} has shape {s.shape}, expected {want}")
        vars(self).update(algebra=algebra, row_level=row_level,
                          col_level=col_level, stacks=stacks)

    @property
    def data(self) -> tuple:
        """One read-only 2-D matrix per component (block or grid point)."""
        return tuple(a for s in self.stacks for a in s)

    # -- structural helpers ------------------------------------------------

    @property
    def is_square_level(self) -> bool:
        return self.row_level == self.col_level

    def same_shape(self, other: "Element") -> bool:
        return (self.algebra == other.algebra
                and self.row_level == other.row_level
                and self.col_level == other.col_level)

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, stacks) -> "Element":
        return Element(self.algebra, self.row_level, self.col_level, stacks)

    def __add__(self, other: "Element") -> "Element":
        if not self.same_shape(other):
            raise ShapeMismatch("addition needs identical shapes")
        return self._wrap(a + b for a, b in zip(self.stacks, other.stacks))

    def __sub__(self, other: "Element") -> "Element":
        if not self.same_shape(other):
            raise ShapeMismatch("subtraction needs identical shapes")
        return self._wrap(a - b for a, b in zip(self.stacks, other.stacks))

    def __neg__(self) -> "Element":
        return self._wrap(-a for a in self.stacks)

    def scale(self, z: complex) -> "Element":
        return self._wrap(z * a for a in self.stacks)

    def adjoint(self) -> "Element":
        return Element(self.algebra, self.col_level, self.row_level,
                       (a.conj().transpose(0, 2, 1) for a in self.stacks))

    def matmul(self, other: "Element") -> "Element":
        """Componentwise matrix product (levels must be composable)."""
        if self.algebra != other.algebra:
            raise AlgebraMismatch("product needs a common algebra")
        if self.col_level != other.row_level:
            raise ShapeMismatch("inner levels do not match")
        return Element(self.algebra, self.row_level, other.col_level,
                       (a @ b for a, b in zip(self.stacks, other.stacks)))

    def max_abs(self) -> float:
        """Largest entry modulus (0 if empty, NaN if any entry is NaN)."""
        return float(np.max([np.max(np.abs(a), initial=0.0)
                             for a in self.stacks]))


# -- constructors ----------------------------------------------------------

def zero(algebra: AlgebraSpec, row_level: int, col_level=None) -> Element:
    if col_level is None:
        col_level = row_level
    return Element(algebra, row_level, col_level,
                   (np.zeros((b, row_level * d, col_level * d), dtype=complex)
                    for b, d in algebra.summands))


@functools.cache
def order_unit(algebra: AlgebraSpec, level: int) -> Element:
    """e^n = e + ... + e at the given level.  Elements are immutable, so
    one e^n per (algebra, level) is built and shared."""
    return Element(algebra, level, level,
                   (np.broadcast_to(np.eye(level * d, dtype=complex),
                                    (b, level * d, level * d))
                    for b, d in algebra.summands))


# -- block operations ------------------------------------------------------

def direct_sum(u: Element, v: Element) -> Element:
    """u (+) v, block diagonal at level (m_u + m_v, n_u + n_v)."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("direct sum needs a common algebra")
    stacks = []
    for a, b in zip(u.stacks, v.stacks):
        batch, ra, ca = a.shape
        _, rb, cb = b.shape
        out = np.zeros((batch, ra + rb, ca + cb), dtype=complex)
        out[:, :ra, :ca] = a
        out[:, ra:, ca:] = b
        stacks.append(out)
    return Element(u.algebra, u.row_level + v.row_level,
                   u.col_level + v.col_level, stacks)


def scalar_conjugate(alpha, v: Element, beta) -> Element:
    """alpha * v * beta for scalar level-matrices alpha (r x m), beta (n x s)."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    if alpha.ndim != 2 or beta.ndim != 2:
        raise ShapeMismatch("scalar factors must be matrices")
    if alpha.shape[1] != v.row_level or beta.shape[0] != v.col_level:
        raise ShapeMismatch(
            f"scalar shapes {alpha.shape}, {beta.shape} do not act on "
            f"levels ({v.row_level}, {v.col_level})")
    stacks = []
    for a, (_, d) in zip(v.stacks, v.algebra.summands):
        # the scalars act on levels, amplified to the summand's d x d cells
        stacks.append(np.kron(alpha, np.eye(d)) @ a @ np.kron(beta, np.eye(d)))
    return Element(v.algebra, alpha.shape[0], beta.shape[1], stacks)


def dilate(v: Element) -> Element:
    """The self-adjoint 2x2 dilation [[0, v], [v*, 0]] at level m+n."""
    m, n = v.row_level, v.col_level
    stacks = []
    for a, (b, d) in zip(v.stacks, v.algebra.summands):
        k = (m + n) * d
        out = np.zeros((b, k, k), dtype=complex)
        out[:, :m * d, m * d:] = a
        out[:, m * d:, :m * d] = a.conj().transpose(0, 2, 1)
        stacks.append(out)
    return Element(v.algebra, m + n, m + n, stacks)
