"""Concrete algebra models and matrix-level elements.

Two models are provided.  ``fd`` is a finite direct sum of complex matrix
algebras, one dense block per summand.  ``circle`` is the algebra of
d x d matrix functions on the unit circle, represented by its values on
a uniform grid of sample points; every predicate is evaluated pointwise
at grid resolution, so inputs should be trigonometric polynomials of
degree at most grid/4.

An Element at levels (m, n) stores, per block or per grid point, the
full (m*dim) x (n*dim) complex matrix.  Elements are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlgebraMismatch, ShapeMismatch

FD = "fd"
CIRCLE = "circle"


@dataclass(frozen=True)
class AlgebraSpec:
    variant: str
    block_dims: tuple = ()
    dim: int = 0
    grid_points: int = 0

    @staticmethod
    def fd(block_dims) -> "AlgebraSpec":
        dims = tuple(int(d) for d in block_dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError("fd model needs at least one block of dim >= 1")
        return AlgebraSpec(variant=FD, block_dims=dims)

    @staticmethod
    def circle(dim: int, grid_points: int) -> "AlgebraSpec":
        dim = int(dim)
        grid_points = int(grid_points)
        if dim < 1:
            raise ValueError("circle model needs dim >= 1")
        if grid_points < 4 * dim:
            raise ValueError("grid_points must be at least 4*dim")
        if grid_points & (grid_points - 1):
            raise ValueError("grid_points must be a power of two")
        return AlgebraSpec(variant=CIRCLE, dim=dim, grid_points=grid_points)

    @property
    def components(self) -> int:
        """Number of stored matrices per element: blocks or grid points."""
        return len(self.block_dims) if self.variant == FD else self.grid_points

    def component_dim(self, i: int) -> int:
        return self.block_dims[i] if self.variant == FD else self.dim

    def sample_points(self) -> np.ndarray:
        """Grid points z_j = exp(2*pi*i*j/N) of the circle model."""
        if self.variant != CIRCLE:
            raise AlgebraMismatch("sample points exist only for the circle model")
        j = np.arange(self.grid_points)
        return np.exp(2j * np.pi * j / self.grid_points)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Element:
    """An m x n matrix over the model, stored per block / grid point."""

    algebra: AlgebraSpec
    row_level: int
    col_level: int
    data: tuple = field(repr=False)

    def __post_init__(self):
        if self.row_level < 0 or self.col_level < 0:
            raise ShapeMismatch("levels must be nonnegative")
        if len(self.data) != self.algebra.components:
            raise ShapeMismatch(
                f"expected {self.algebra.components} component matrices, "
                f"got {len(self.data)}")
        frozen = []
        for i, a in enumerate(self.data):
            d = self.algebra.component_dim(i)
            want = (self.row_level * d, self.col_level * d)
            a = _freeze(a)
            if a.shape != want:
                raise ShapeMismatch(
                    f"component {i} has shape {a.shape}, expected {want}")
            frozen.append(a)
        object.__setattr__(self, "data", tuple(frozen))

    # -- structural helpers ------------------------------------------------

    @property
    def is_square_level(self) -> bool:
        return self.row_level == self.col_level

    def same_shape(self, other: "Element") -> bool:
        return (self.algebra == other.algebra
                and self.row_level == other.row_level
                and self.col_level == other.col_level)

    def stack(self) -> np.ndarray:
        """All equally-shaped components as one (B, r, c) array.

        For the fd model the blocks have different sizes; use ``data``
        directly there.  Valid for the circle model and for single-block
        fd algebras.
        """
        return np.stack(self.data)

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, mats, m=None, n=None) -> "Element":
        return Element(self.algebra,
                       self.row_level if m is None else m,
                       self.col_level if n is None else n,
                       tuple(mats))

    def __add__(self, other: "Element") -> "Element":
        if not self.same_shape(other):
            raise ShapeMismatch("addition needs identical shapes")
        return self._wrap([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Element") -> "Element":
        if not self.same_shape(other):
            raise ShapeMismatch("subtraction needs identical shapes")
        return self._wrap([a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Element":
        return self._wrap([-a for a in self.data])

    def scale(self, z: complex) -> "Element":
        return self._wrap([z * a for a in self.data])

    def __mul__(self, z) -> "Element":
        return self.scale(complex(z))

    __rmul__ = __mul__

    def adjoint(self) -> "Element":
        return Element(self.algebra, self.col_level, self.row_level,
                       tuple(a.conj().T for a in self.data))

    def matmul(self, other: "Element") -> "Element":
        """Componentwise matrix product (levels must be composable)."""
        if self.algebra != other.algebra:
            raise AlgebraMismatch("product needs a common algebra")
        if self.col_level != other.row_level:
            raise ShapeMismatch("inner levels do not match")
        return Element(self.algebra, self.row_level, other.col_level,
                       tuple(a @ b for a, b in zip(self.data, other.data)))

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(a))) if a.size else 0.0)
                   for a in self.data)


# -- constructors ----------------------------------------------------------

def zero(algebra: AlgebraSpec, row_level: int, col_level=None) -> Element:
    if col_level is None:
        col_level = row_level
    mats = []
    for i in range(algebra.components):
        d = algebra.component_dim(i)
        mats.append(np.zeros((row_level * d, col_level * d), dtype=complex))
    return Element(algebra, row_level, col_level, tuple(mats))


def order_unit(algebra: AlgebraSpec, level: int) -> Element:
    """e^n = e + ... + e at the given level."""
    mats = []
    for i in range(algebra.components):
        d = algebra.component_dim(i)
        mats.append(np.eye(level * d, dtype=complex))
    return Element(algebra, level, level, tuple(mats))


def from_stack(algebra: AlgebraSpec, row_level, col_level,
               stack: np.ndarray) -> Element:
    return Element(algebra, row_level, col_level,
                   tuple(stack[i] for i in range(stack.shape[0])))


def circle_function(algebra: AlgebraSpec, row_level, col_level, fn) -> Element:
    """Element of the circle model from a function z -> matrix."""
    zs = algebra.sample_points()
    return Element(algebra, row_level, col_level,
                   tuple(np.asarray(fn(z), dtype=complex) for z in zs))


# -- block operations ------------------------------------------------------

def direct_sum(u: Element, v: Element) -> Element:
    """u (+) v, block diagonal at level (m_u + m_v, n_u + n_v)."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("direct sum needs a common algebra")
    mats = []
    for a, b in zip(u.data, v.data):
        ra, ca = a.shape
        rb, cb = b.shape
        out = np.zeros((ra + rb, ca + cb), dtype=complex)
        out[:ra, :ca] = a
        out[ra:, ca:] = b
        mats.append(out)
    return Element(u.algebra, u.row_level + v.row_level,
                   u.col_level + v.col_level, tuple(mats))


def amplify_scalar(algebra: AlgebraSpec, alpha: np.ndarray, i: int) -> np.ndarray:
    """Scalar matrix alpha acting on levels, amplified for component i."""
    d = algebra.component_dim(i)
    return np.kron(np.asarray(alpha, dtype=complex), np.eye(d))


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
    mats = []
    for i, a in enumerate(v.data):
        al = amplify_scalar(v.algebra, alpha, i)
        be = amplify_scalar(v.algebra, beta, i)
        mats.append(al @ a @ be)
    return Element(v.algebra, alpha.shape[0], beta.shape[1], tuple(mats))


def dilate(v: Element) -> Element:
    """The self-adjoint 2x2 dilation [[0, v], [v*, 0]] at level m+n."""
    m, n = v.row_level, v.col_level
    mats = []
    for i, a in enumerate(v.data):
        d = v.algebra.component_dim(i)
        k = (m + n) * d
        out = np.zeros((k, k), dtype=complex)
        out[:m * d, m * d:] = a
        out[m * d:, :m * d] = a.conj().T
        mats.append(out)
    return Element(v.algebra, m + n, m + n, tuple(mats))
