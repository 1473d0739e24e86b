"""Seeded random generators for elements, unitaries, projections.

Streams are Philox counter-based: trial t of a run with seed s draws
from ``stream(s, t)``, so any failure reproduces from (seed, trial)
alone.  Recipes (documented in the README and fixed as contract):

* element: i.i.d. complex standard normal entries; circle-model
  elements are trigonometric polynomials of degree <= grid/4 with
  normal coefficients, evaluated on the grid.
* unitary: exp(i H) for a random Hermitian H; circle unitaries carry an
  optional winding w through a diag(z^w, 1, ..., 1) factor.
* projection: unitary conjugate of a 0/1 diagonal.
* partial isometry: truncated unitary u p.
* partial unitary: unitary conjugate of (corner unitary) + (zero block).

The last three take one rank per summand (one per fd block, one for
the whole circle grid), or draw them with ``uniform_ranks``.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .algebra import CIRCLE, FD, AlgebraSpec, Element
from .errors import PreconditionFailure


def stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent generator for one trial of a seeded run."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(seed), int(trial)])))


def _cnormal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _expi(H: np.ndarray) -> np.ndarray:
    """exp(i H) per entry of a Hermitian stack, through the eigenbasis."""
    w, V = kernel.eig_stack(H)
    return (V * np.exp(1j * w)[:, None, :]) @ V.conj().transpose(0, 2, 1)


def _trig_coeffs(rng, algebra, shape, deg=None):
    """Matrix coefficients of a trig polynomial of degree <= grid/4."""
    if deg is None:
        deg = max(1, algebra.grid_points // 4)
    ks = np.arange(-deg, deg + 1)
    coeffs = _cnormal(rng, (len(ks),) + shape) / np.sqrt(len(ks))
    return ks, coeffs


def _trig_eval(algebra, ks, coeffs):
    """Values at the grid points as one stack.

    Each point is its own 1 x K row of powers times the coefficients,
    which sums in the order of a per-point ``tensordot``; one N x K
    Vandermonde product would not, and would move generated entries in
    the last digits.
    """
    zs = algebra.sample_points()
    rows = (zs[:, None] ** ks)[:, None, :]
    return (rows @ coeffs.reshape(len(ks), -1)).reshape(
        (len(zs),) + coeffs.shape[1:])


def element(rng, algebra: AlgebraSpec, row_level: int, col_level: int,
            scale: float = 1.0) -> Element:
    """Random dense element; circle data is band-limited by design."""
    if algebra.variant == FD:
        stacks = [scale * _cnormal(rng, (1, row_level * d, col_level * d))
                  for d in algebra.block_dims]
    else:
        shape = (row_level * algebra.dim, col_level * algebra.dim)
        ks, coeffs = _trig_coeffs(rng, algebra, shape)
        stacks = [scale * _trig_eval(algebra, ks, coeffs)]
    return Element(algebra, row_level, col_level, tuple(stacks))


def positive(rng, algebra: AlgebraSpec, level: int,
             scale: float = 1.0) -> Element:
    v = element(rng, algebra, level, level, scale)
    return v.adjoint().matmul(v)


def _hermitian_fields(rng, algebra, level, size=None):
    """Hermitian stacks, one per summand; circle ones vary slowly.

    Circle fields are kept at degree <= grid/16 with unit scale so that
    phase increments of derived unitaries between neighbouring grid
    points stay well below pi (needed by the winding estimator).
    """
    if algebra.variant == FD:
        out = []
        for d in algebra.block_dims:
            h = _cnormal(rng, (1, level * d, level * d))
            out.append((h + h.conj().transpose(0, 2, 1)) / 2.0)
        return out
    n = level * algebra.dim if size is None else size
    ks, coeffs = _trig_coeffs(rng, algebra, (n, n),
                              deg=max(1, algebra.grid_points // 16))
    # enforce pointwise Hermitianity: c_{-k} = c_k^*
    deg = (len(ks) - 1) // 2
    for i, k in enumerate(ks):
        if k > 0:
            coeffs[i] = coeffs[deg - k].conj().transpose(1, 0)
        elif k == 0:
            coeffs[i] = (coeffs[i] + coeffs[i].conj().T) / 2.0
    return [_trig_eval(algebra, ks, coeffs)]


def unitary(rng, algebra: AlgebraSpec, level: int, winding: int = 0) -> Element:
    """exp(i H) per component; circle model twists by diag(z^w, 1, ...)."""
    stacks = [_expi(h) for h in _hermitian_fields(rng, algebra, level)]
    if algebra.variant == CIRCLE and winding != 0:
        zs = algebra.sample_points()
        tw = np.tile(np.eye(level * algebra.dim, dtype=complex),
                     (len(zs), 1, 1))
        tw[:, 0, 0] = [z ** winding for z in zs]
        stacks = [stacks[0] @ tw]
    return Element(algebra, level, level, tuple(stacks))


def draw_winding(rng, algebra: AlgebraSpec, k: int) -> int:
    """A winding uniform over -k..k on the circle; 0, drawing nothing,
    over fd blocks."""
    return int(rng.integers(-k, k + 1)) if algebra.variant == CIRCLE else 0


def uniform_ranks(rng, algebra: AlgebraSpec, level: int) -> list:
    """One rank per summand, each uniform over 0..(its size at level)."""
    return [int(rng.integers(0, level * d + 1)) for _, d in algebra.summands]


def _ranks(rng, algebra: AlgebraSpec, level: int, ranks):
    """The given ranks, which must be one integer per summand, each in
    0..(its size at level); None draws them with ``uniform_ranks``."""
    if ranks is None:
        return uniform_ranks(rng, algebra, level)
    sizes = [level * d for _, d in algebra.summands]
    if len(ranks) != len(sizes) or not all(
            isinstance(r, (int, np.integer)) and not isinstance(r, bool)
            and 0 <= r <= s for r, s in zip(ranks, sizes)):
        raise PreconditionFailure(f"ranks {list(ranks)} do not fit the "
                                  f"summand sizes {sizes} at level {level}")
    return ranks


def projection(rng, algebra: AlgebraSpec, level: int, ranks=None) -> Element:
    """Unitary conjugate of a 0/1 diagonal with the given rank per
    summand; None draws the ranks uniformly."""
    w = unitary(rng, algebra, level)
    ranks = _ranks(rng, algebra, level, ranks)
    stacks = []
    for u, (_, d), r in zip(w.stacks, algebra.summands, ranks):
        s = level * d
        d0 = np.diag([1.0] * r + [0.0] * (s - r)).astype(complex)
        m = u @ d0 @ u.conj().transpose(0, 2, 1)
        stacks.append((m + m.conj().transpose(0, 2, 1)) / 2.0)
    return Element(algebra, level, level, tuple(stacks))


def partial_isometry(rng, algebra: AlgebraSpec, level: int, ranks=None) -> Element:
    """Truncated unitary u p: |v| = p, |v*| = u p u*."""
    u = unitary(rng, algebra, level)
    p = projection(rng, algebra, level, ranks)
    return u.matmul(p)


def positive_orthogonal_pair(rng, algebra: AlgebraSpec, level: int):
    """Two positives with pointwise-disjoint supports.

    fd blocks split a common eigenbasis; one-dimensional circle fibers
    are split along the circle itself instead.  Both are nonzero except
    where there is a single one-dimensional component: on fd [1] at
    level 1 the second element is exactly zero.
    """
    w = unitary(rng, algebra, level)
    half = algebra.components // 2
    mats_u, mats_v = [], []
    # one component at a time: the draws per component fix the stream
    for i, w0 in enumerate(w.data):
        s = w0.shape[0]
        if s == 1:
            # a one-dimensional component cannot split; u takes the first
            # half of the grid, or every other fd block
            first = i < half if algebra.variant == CIRCLE else i % 2 == 0
            val = complex(rng.uniform(0.2, 2.0))
            mats_u.append(np.array([[val if first else 0.0]], dtype=complex))
            mats_v.append(np.array([[0.0 if first else val]], dtype=complex))
            continue
        cut = int(rng.integers(1, s))
        a = np.concatenate([rng.uniform(0.2, 2.0, size=cut), np.zeros(s - cut)])
        b = np.concatenate([np.zeros(cut), rng.uniform(0.2, 2.0, size=s - cut)])
        mats_u.append(w0 @ np.diag(a).astype(complex) @ w0.conj().T)
        mats_v.append(w0 @ np.diag(b).astype(complex) @ w0.conj().T)
    herm = lambda ms: [(m + m.conj().T) / 2.0 for m in ms]
    return (Element(algebra, level, level, tuple(herm(mats_u))),
            Element(algebra, level, level, tuple(herm(mats_v))))


def orthogonal_pair(rng, algebra: AlgebraSpec, level: int):
    """General orthogonal pair: disjoint row and column supports, dressed
    by common unitaries on both sides."""
    x = unitary(rng, algebra, level)
    y = unitary(rng, algebra, level)
    half = algebra.components // 2
    mats_u, mats_v = [], []
    # one component at a time: the draws per component fix the stream
    for i, (x0, y0) in enumerate(zip(x.data, y.data)):
        s = x0.shape[0]
        if s == 1:
            # as in positive_orthogonal_pair
            first = i < half if algebra.variant == CIRCLE else i % 2 == 0
            val = _cnormal(rng, (1, 1))
            mats_u.append(val if first else np.zeros((1, 1), dtype=complex))
            mats_v.append(np.zeros((1, 1), dtype=complex) if first else val)
            continue
        r = int(rng.integers(1, s))
        c = int(rng.integers(1, s))
        u0 = np.zeros((s, s), dtype=complex)
        v0 = np.zeros((s, s), dtype=complex)
        u0[:r, :c] = _cnormal(rng, (r, c))
        v0[r:, c:] = _cnormal(rng, (s - r, s - c))
        mats_u.append(x0 @ u0 @ y0.conj().T)
        mats_v.append(x0 @ v0 @ y0.conj().T)
    return (Element(algebra, level, level, tuple(mats_u)),
            Element(algebra, level, level, tuple(mats_v)))


def partial_unitary(rng, algebra: AlgebraSpec, level: int, ranks=None,
                    winding: int = 0) -> Element:
    """w (corner unitary + zero block) w* built in a shared eigenbasis,
    with the given support rank per summand; None draws the ranks.

    fd corners are diagonal phases; the circle corner is a slowly varying
    unitary field, twisted by the winding."""
    w = unitary(rng, algebra, level)
    # every rank is drawn before the first corner
    ranks = _ranks(rng, algebra, level, ranks)
    cores = []
    for (b, d), r in zip(algebra.summands, ranks):
        s = level * d
        if algebra.variant == FD:
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=r))
            cores.append(np.diag(np.concatenate([phases, np.zeros(s - r)]))
                         .astype(complex))
            continue
        core = np.zeros((b, s, s), dtype=complex)
        if r:
            field, = _hermitian_fields(rng, algebra, level, size=r)
            corner = _expi(field)
            if winding != 0:
                twist = [z ** winding for z in algebra.sample_points()]
                corner[:, :, 0] *= np.array(twist)[:, None]
            core[:, :r, :r] = corner
        cores.append(core)
    return Element(algebra, level, level,
                   tuple(u0 @ c0 @ u0.conj().transpose(0, 2, 1)
                         for u0, c0 in zip(w.stacks, cores)))
