"""Seeded random generators for elements, unitaries, projections.

Streams are Philox counter-based: trial t of a run with seed s draws
from ``stream(s, t)``, so any failure reproduces from (seed, trial)
alone.  Recipes (documented in the README and fixed as contract):

* element: i.i.d. complex standard normal entries; on a grid summand,
  trigonometric polynomials of degree <= grid/4 with normal
  coefficients, evaluated on the grid.
* unitary: exp(i H) for a random Hermitian H; each grid summand carries
  an optional winding w through a diag(z^w, 1, ..., 1) factor.
* projection: unitary conjugate of a 0/1 diagonal.
* partial unitary: unitary conjugate of (corner unitary) + (zero block).

The last two take one rank per summand (one per fd block, one for
the whole circle grid), or draw them with ``uniform_ranks``.  Every
generator draws summand by summand.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .algebra import AlgebraSpec, Element, roots_of_unity
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


def _trig_coeffs(rng, grid, shape, deg=None):
    """Matrix coefficients of a trig polynomial of degree <= grid/4."""
    if deg is None:
        deg = max(1, grid // 4)
    ks = np.arange(-deg, deg + 1)
    coeffs = _cnormal(rng, (len(ks),) + shape) / np.sqrt(len(ks))
    return ks, coeffs


# grid points per pass of _trig_eval
_TRIG_CHUNK = 256


def _trig_eval(grid, ks, coeffs):
    """Values at the points of a grid of the given size as one stack.

    Each point is its own 1 x K row of powers times the coefficients,
    which sums in the order of a per-point ``tensordot``; one N x K
    Vandermonde product would not, and would move generated entries in
    the last digits.  The rows of powers are built ``_TRIG_CHUNK`` points
    at a time, so the memory beyond the stack itself does not grow with
    the grid; the time still grows with N times K.
    """
    zs = roots_of_unity(grid)
    flat = coeffs.reshape(len(ks), -1)
    out = np.empty((grid, 1, flat.shape[1]), complex)
    for j in range(0, grid, _TRIG_CHUNK):
        np.matmul((zs[j:j + _TRIG_CHUNK, None] ** ks)[:, None, :], flat,
                  out=out[j:j + _TRIG_CHUNK])
    return out.reshape((grid,) + coeffs.shape[1:])


def element(rng, algebra: AlgebraSpec, row_level: int, col_level: int,
            scale: float = 1.0) -> Element:
    """Random dense element; grid data is band-limited by design."""
    stacks = []
    for b, d in algebra.summands:
        shape = (row_level * d, col_level * d)
        if b == 1:
            stacks.append(scale * _cnormal(rng, (1,) + shape))
        else:
            ks, coeffs = _trig_coeffs(rng, b, shape)
            stacks.append(scale * _trig_eval(b, ks, coeffs))
    return Element(algebra, row_level, col_level, tuple(stacks))


def positive(rng, algebra: AlgebraSpec, level: int) -> Element:
    v = element(rng, algebra, level, level)
    return v.adjoint().matmul(v)


def _hermitian_field(rng, batch, n):
    """A (batch, n, n) Hermitian stack: one normal draw on an fd block
    (batch 1), a slowly varying field on a grid.

    Grid fields are kept at degree <= grid/16 with unit scale so that
    phase increments of derived unitaries between neighbouring grid
    points stay well below pi; below grid 16 the field is constant.
    """
    if batch == 1:
        h = _cnormal(rng, (1, n, n))
        return (h + h.conj().transpose(0, 2, 1)) / 2.0
    ks, coeffs = _trig_coeffs(rng, batch, (n, n), deg=batch // 16)
    # enforce pointwise Hermitianity: c_{-k} = c_k^*
    deg = (len(ks) - 1) // 2
    for i, k in enumerate(ks):
        if k > 0:
            coeffs[i] = coeffs[deg - k].conj().transpose(1, 0)
        elif k == 0:
            coeffs[i] = (coeffs[i] + coeffs[i].conj().T) / 2.0
    return _trig_eval(batch, ks, coeffs)


def unitary(rng, algebra: AlgebraSpec, level: int, winding: int = 0) -> Element:
    """exp(i H) per component; each grid summand is twisted by
    diag(z^w, 1, ...)."""
    stacks = [_expi(_hermitian_field(rng, b, level * d))
              for b, d in algebra.summands]
    for i, (b, d) in enumerate(algebra.summands):
        if b > 1 and winding != 0:
            tw = np.tile(np.eye(level * d, dtype=complex), (b, 1, 1))
            tw[:, 0, 0] = [z ** winding for z in roots_of_unity(b)]
            stacks[i] = stacks[i] @ tw
    return Element(algebra, level, level, tuple(stacks))


def draw_winding(rng, algebra: AlgebraSpec, k: int) -> int:
    """A winding uniform over -k..k when the algebra has a grid summand,
    with k capped at grid/4 so that z^w steps by at most pi/2 between
    neighbouring grid points; 0, drawing nothing, over fd blocks."""
    caps = [b // 4 for b, _ in algebra.summands if b > 1]
    k = min([k] + caps)
    return int(rng.integers(-k, k + 1)) if caps else 0


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


def _components(algebra: AlgebraSpec):
    """(summand, index, first) of each component (fd block or grid point),
    in order: ``first`` says which member of an orthogonal pair takes a
    component that cannot split, the first half of a grid or every other
    fd block."""
    for k, (b, _) in enumerate(algebra.summands):
        for j in range(b):
            yield k, j, (j < b // 2 if b > 1 else k % 2 == 0)


def positive_orthogonal_pair(rng, algebra: AlgebraSpec, level: int):
    """Two positives with pointwise-disjoint supports.

    fd blocks split a common eigenbasis; one-dimensional circle fibers
    are split along the circle itself instead.  Both are nonzero except
    where there is a single one-dimensional component: on fd [1] at
    level 1 the second element is exactly zero.
    """
    w = unitary(rng, algebra, level)
    us = [np.zeros_like(a) for a in w.stacks]
    vs = [np.zeros_like(a) for a in w.stacks]
    # one component at a time: the draws per component fix the stream
    for k, j, first in _components(algebra):
        w0 = w.stacks[k][j]
        s = w0.shape[0]
        if s == 1:
            (us if first else vs)[k][j] = rng.uniform(0.2, 2.0)
            continue
        cut = int(rng.integers(1, s))
        a = np.concatenate([rng.uniform(0.2, 2.0, size=cut), np.zeros(s - cut)])
        b = np.concatenate([np.zeros(cut), rng.uniform(0.2, 2.0, size=s - cut)])
        us[k][j] = w0 @ np.diag(a).astype(complex) @ w0.conj().T
        vs[k][j] = w0 @ np.diag(b).astype(complex) @ w0.conj().T
    herm = lambda ss: [(a + a.conj().transpose(0, 2, 1)) / 2.0 for a in ss]
    return (Element(algebra, level, level, herm(us)),
            Element(algebra, level, level, herm(vs)))


def orthogonal_pair(rng, algebra: AlgebraSpec, level: int):
    """General orthogonal pair: disjoint row and column supports, dressed
    by common unitaries on both sides."""
    x = unitary(rng, algebra, level)
    y = unitary(rng, algebra, level)
    us = [np.zeros_like(a) for a in x.stacks]
    vs = [np.zeros_like(a) for a in x.stacks]
    # one component at a time: the draws per component fix the stream
    for k, j, first in _components(algebra):
        x0, y0 = x.stacks[k][j], y.stacks[k][j]
        s = x0.shape[0]
        if s == 1:
            (us if first else vs)[k][j] = _cnormal(rng, (1, 1))
            continue
        r = int(rng.integers(1, s))
        c = int(rng.integers(1, s))
        u0 = np.zeros((s, s), dtype=complex)
        v0 = np.zeros((s, s), dtype=complex)
        u0[:r, :c] = _cnormal(rng, (r, c))
        v0[r:, c:] = _cnormal(rng, (s - r, s - c))
        us[k][j] = x0 @ u0 @ y0.conj().T
        vs[k][j] = x0 @ v0 @ y0.conj().T
    return (Element(algebra, level, level, us),
            Element(algebra, level, level, vs))


def partial_unitary(rng, algebra: AlgebraSpec, level: int, ranks=None,
                    winding: int = 0) -> Element:
    """w (corner unitary + zero block) w* built in a shared eigenbasis,
    with the given support rank per summand; None draws the ranks.

    A block's corner is diagonal phases; a grid's corner is a slowly
    varying unitary field, twisted by the winding."""
    w = unitary(rng, algebra, level)
    # every rank is drawn before the first corner
    ranks = _ranks(rng, algebra, level, ranks)
    cores = []
    for (b, d), r in zip(algebra.summands, ranks):
        s = level * d
        if b == 1:
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=r))
            cores.append(np.diag(np.concatenate([phases, np.zeros(s - r)]))
                         .astype(complex))
            continue
        core = np.zeros((b, s, s), dtype=complex)
        if r:
            corner = _expi(_hermitian_field(rng, b, r))
            if winding != 0:
                twist = [z ** winding for z in roots_of_unity(b)]
                corner[:, :, 0] *= np.array(twist)[:, None]
            core[:, :r, :r] = corner
        cores.append(core)
    return Element(algebra, level, level,
                   tuple(u0 @ c0 @ u0.conj().transpose(0, 2, 1)
                         for u0, c0 in zip(w.stacks, cores)))
