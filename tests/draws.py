"""Seeded draws shared by the test modules: random unitary matrices,
partial isometries, and unital multiplicity-and-conjugation morphisms
between fd algebras; circle elements sampled from a function; and the
degree oracle the K1 tests check loop degrees against."""

import numpy as np

from amok import algebra, morphisms, rand


def random_unitary_matrix(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0
    w, V = np.linalg.eigh(h)
    return (V * np.exp(1j * w)[None, :]) @ V.conj().T


def partial_isometry(rng, alg, level, ranks=None):
    """Truncated unitary u p: |v| = p, |v*| = u p u*, from a
    ``rand.unitary`` draw, then a ``rand.projection`` draw."""
    u = rand.unitary(rng, alg, level)
    return u.matmul(rand.projection(rng, alg, level, ranks))


def circle_function(alg, fn):
    """Level-1 element of a circle algebra from a function z -> matrix,
    its values at the grid points stacked into the one summand's stack."""
    grid = alg.summands[0][0]
    return algebra.Element(alg, 1, 1, (np.stack(
        [np.asarray(fn(z), dtype=complex)
         for z in algebra.roots_of_unity(grid)]),))


def random_morphism(rng, source):
    """Unital multiplicity-and-conjugation morphism out of ``source``."""
    k = len(source.summands)
    rows = int(rng.integers(1, 3))
    mult = []
    target_dims = []
    for _ in range(rows):
        row = [int(rng.integers(0, 3)) for _ in range(k)]
        if sum(row) == 0:
            row[int(rng.integers(0, k))] = 1
        mult.append(row)
        target_dims.append(sum(m * d for m, (_, d) in zip(row, source.summands)))
    target = algebra.AlgebraSpec.fd(target_dims)
    conj = [random_unitary_matrix(rng, d) for d in target_dims]
    return morphisms.MorphismSpec(source, target, tuple(map(tuple, mult)),
                                  tuple(conj))


def degree_oracle(u):
    """Argument-principle winding of det(u(z)) over the sample loop, with
    determinants by cofactor expansion (independent of the library and
    of numpy's LU-based det)."""
    def det(a):
        n = a.shape[0]
        if n == 1:
            return a[0, 0]
        return sum(((-1) ** j) * a[0, j]
                   * det(np.delete(np.delete(a, 0, axis=0), j, axis=1))
                   for j in range(n))
    phases = np.angle([det(a) for a in u.data])
    inc = np.diff(np.concatenate([phases, phases[:1]]))
    inc = (inc + np.pi) % (2 * np.pi) - np.pi
    w = inc.sum() / (2 * np.pi)
    assert abs(w - round(w)) < 1e-6
    return int(round(w))
