"""Morphisms between finite block algebras.

A morphism is given by a nonnegative integer multiplicity matrix plus
one unitary conjugator per target block: target block i receives
multiplicity[i][j] diagonal copies of source block j, conjugated by the
unitary.  Up to unitary equivalence these are exactly the unital
*-homomorphisms between such algebras, they compose, and they make the
induced maps on the K-invariants exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FD, AlgebraSpec, Element
from .errors import AlgebraMismatch, NotUnital, ShapeMismatch


@dataclass(frozen=True)
class MorphismSpec:
    source: AlgebraSpec
    target: AlgebraSpec
    multiplicity: tuple            # k' rows of k nonnegative ints
    conjugators: tuple             # per target block, a d'_i x d'_i unitary
    unital: bool = True

    def __post_init__(self):
        if self.source.variant != FD or self.target.variant != FD:
            raise AlgebraMismatch("morphisms are defined between fd algebras")
        mult = tuple(tuple(int(x) for x in row) for row in self.multiplicity)
        object.__setattr__(self, "multiplicity", mult)
        conj = tuple(np.asarray(c, dtype=complex) for c in self.conjugators)
        object.__setattr__(self, "conjugators", conj)

    def validate(self, tol: float = 1e-9) -> None:
        """Check unitality and conjugator unitarity; raise NotUnital."""
        k = len(self.source.block_dims)
        if len(self.multiplicity) != len(self.target.block_dims):
            raise NotUnital("multiplicity matrix has wrong row count")
        for i, (row, dp) in enumerate(zip(self.multiplicity,
                                          self.target.block_dims)):
            if len(row) != k or any(m < 0 for m in row):
                raise NotUnital(f"row {i} of the multiplicity matrix is invalid")
            total = sum(m * d for m, d in zip(row, self.source.block_dims))
            if self.unital and total != dp:
                raise NotUnital(
                    f"target block {i}: multiplicities fill {total} of {dp}")
            if not self.unital and total > dp:
                raise NotUnital(
                    f"target block {i}: multiplicities overfill {dp}")
            c = self.conjugators[i]
            if c.shape != (dp, dp):
                raise NotUnital(f"conjugator {i} has shape {c.shape}")
            if float(np.max(np.abs(c.conj().T @ c - np.eye(dp)))) > tol:
                raise NotUnital(f"conjugator {i} is not unitary")

    def multiplicity_array(self) -> np.ndarray:
        return np.array(self.multiplicity, dtype=np.int64).reshape(
            len(self.target.block_dims), len(self.source.block_dims))


def identity_morphism(algebra: AlgebraSpec) -> MorphismSpec:
    k = len(algebra.block_dims)
    mult = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    conj = tuple(np.eye(d, dtype=complex) for d in algebra.block_dims)
    return MorphismSpec(algebra, algebra, mult, conj)


def zero_morphism(source: AlgebraSpec, target: AlgebraSpec) -> MorphismSpec:
    """The zero map (not unital); induces the zero map on K invariants."""
    k = len(source.block_dims)
    mult = tuple(tuple(0 for _ in range(k)) for _ in target.block_dims)
    conj = tuple(np.eye(d, dtype=complex) for d in target.block_dims)
    return MorphismSpec(source, target, mult, conj, unital=False)


def apply_morphism(phi: MorphismSpec, v: Element) -> Element:
    """phi applied at the level of v (entrywise block amplification)."""
    if v.algebra != phi.source:
        raise AlgebraMismatch("element lives over a different algebra")
    n_r, n_c = v.row_level, v.col_level
    if n_r != n_c:
        raise ShapeMismatch("morphisms apply to square-level elements")
    n = n_r
    dims = phi.source.block_dims
    mats = []
    for i, dp in enumerate(phi.target.block_dims):
        row = phi.multiplicity[i]
        c = phi.conjugators[i]
        out = np.zeros((n * dp, n * dp), dtype=complex)
        for r in range(n):
            for s in range(n):
                cell = np.zeros((dp, dp), dtype=complex)
                pos = 0
                for j, d in enumerate(dims):
                    block = v.stacks[j][0, r * d:(r + 1) * d,
                                        s * d:(s + 1) * d]
                    for _ in range(row[j]):
                        cell[pos:pos + d, pos:pos + d] = block
                        pos += d
                cell = c.conj().T @ cell @ c
                out[r * dp:(r + 1) * dp, s * dp:(s + 1) * dp] = cell
        mats.append(out)
    return Element(phi.target, n, n, tuple(mats))


def compose(psi: MorphismSpec, phi: MorphismSpec) -> MorphismSpec:
    """psi after phi, again in multiplicity-plus-conjugator form.

    The composed conjugator is permutation * blockdiag(copies of phi's
    conjugators) * psi's conjugator, where the permutation reorders the
    nested copy layout into the canonical source-block-major layout.
    """
    if phi.target != psi.source:
        raise AlgebraMismatch("morphisms do not compose")
    m2 = psi.multiplicity_array()
    m1 = phi.multiplicity_array()
    mult = m2 @ m1
    dims_a = phi.source.block_dims
    conj = []
    for i, dp in enumerate(psi.target.block_dims):
        inner = np.zeros((dp, dp), dtype=complex)
        counts = [0] * len(dims_a)       # copies of each source block seen
        perm = np.zeros(dp, dtype=np.int64)
        # offsets of canonical copy slots: source-block-major order
        offsets = np.concatenate([[0], np.cumsum(
            [mult[i, l] * dims_a[l] for l in range(len(dims_a))])])
        pos = 0
        for j, db in enumerate(psi.source.block_dims):
            for _ in range(psi.multiplicity[i][j]):
                inner[pos:pos + db, pos:pos + db] = phi.conjugators[j]
                sub = 0
                for l, d in enumerate(dims_a):
                    for _ in range(phi.multiplicity[j][l]):
                        canon = offsets[l] + counts[l] * d
                        for t in range(d):
                            perm[pos + sub + t] = canon + t
                        counts[l] += 1
                        sub += d
                pos += db
        if phi.unital and psi.unital:
            pmat = np.zeros((dp, dp), dtype=complex)
            for a, cpos in enumerate(perm):
                pmat[a, cpos] = 1.0
            comp = pmat.conj().T @ inner @ psi.conjugators[i]
        else:
            comp = np.eye(dp, dtype=complex)
        conj.append(comp)
    return MorphismSpec(phi.source, psi.target,
                        tuple(tuple(int(x) for x in row) for row in mult),
                        tuple(conj), unital=phi.unital and psi.unital)
