"""Morphisms between finite block algebras.

A morphism is given by a nonnegative integer multiplicity matrix plus
one unitary conjugator per target block: target block i receives
multiplicity[i][j] diagonal copies of source block j, conjugated by the
unitary.  Up to unitary equivalence these are exactly the unital
*-homomorphisms between such algebras, they compose, and they make the
induced maps on the K-invariants exactly computable.  A non-unital map
leaves the trailing slots of a target block zero.  A spec is checked
when it is built, so every spec in hand is valid.  Both operations work
on the stack layout: one amplification per target block, and in
``compose`` one stable sort, exact for non-unital maps too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import AlgebraMismatch, NotUnital, ShapeMismatch


@dataclass(frozen=True, eq=False)
class MorphismSpec:
    source: AlgebraSpec
    target: AlgebraSpec
    multiplicity: tuple            # k' rows of k nonnegative ints
    conjugators: tuple             # per target block, a d'_i x d'_i unitary
    unital: bool = True

    def __post_init__(self):
        """Check unitality and that each conjugator is finite and unitary
        to within 1e-9; an invalid spec raises NotUnital."""
        if {b for b, _ in self.source.summands + self.target.summands} != {1}:
            raise AlgebraMismatch("morphisms are defined between fd algebras")
        # integer entries (NumPy's too) become ints; any other entry,
        # bools included, is refused below
        mult = tuple(tuple(int(x) if isinstance(x, numbers.Integral)
                           and not isinstance(x, bool) else x for x in row)
                     for row in self.multiplicity)
        object.__setattr__(self, "multiplicity", mult)
        conj = tuple(np.asarray(c, dtype=complex) for c in self.conjugators)
        object.__setattr__(self, "conjugators", conj)
        k = len(self.source.summands)
        blocks = len(self.target.summands)
        if len(mult) != blocks:
            raise NotUnital("multiplicity matrix has wrong row count")
        if len(conj) != blocks:
            raise NotUnital(f"{len(conj)} conjugators for "
                            f"{blocks} target blocks")
        for i, (row, (_, dp), c) in enumerate(zip(mult, self.target.summands,
                                                  conj)):
            for m in row:
                if type(m) is not int:
                    raise NotUnital(f"row {i} of the multiplicity matrix has "
                                    f"a non-integer entry {m!r}")
            if len(row) != k or any(m < 0 for m in row):
                raise NotUnital(f"row {i} of the multiplicity matrix is invalid")
            total = sum(m * d for m, (_, d) in zip(row, self.source.summands))
            if self.unital and total != dp:
                raise NotUnital(
                    f"target block {i}: multiplicities fill {total} of {dp}")
            if not self.unital and total > dp:
                raise NotUnital(
                    f"target block {i}: multiplicities overfill {dp}")
            if c.shape != (dp, dp):
                raise NotUnital(f"conjugator {i} has shape {c.shape}")
            if (not np.isfinite(c).all() or
                    float(np.max(np.abs(c.conj().T @ c - np.eye(dp)))) > 1e-9):
                raise NotUnital(f"conjugator {i} is not unitary")

    def multiplicity_array(self) -> np.ndarray:
        return np.array(self.multiplicity, dtype=np.int64).reshape(
            len(self.target.summands), len(self.source.summands))


def identity_morphism(algebra: AlgebraSpec) -> MorphismSpec:
    k = len(algebra.summands)
    mult = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    conj = tuple(np.eye(d, dtype=complex) for _, d in algebra.summands)
    return MorphismSpec(algebra, algebra, mult, conj)


def zero_morphism(source: AlgebraSpec, target: AlgebraSpec) -> MorphismSpec:
    """The zero map (not unital); induces the zero map on K invariants."""
    k = len(source.summands)
    mult = tuple(tuple(0 for _ in range(k)) for _ in target.summands)
    conj = tuple(np.eye(d, dtype=complex) for _, d in target.summands)
    return MorphismSpec(source, target, mult, conj, unital=False)


def _amplify(blocks, dims, row, dp: int, level: int = 1) -> np.ndarray:
    """Square matrix whose (level, dp, level, dp) view holds row[j]
    diagonal copies of block j's cells, in block order; rest zero."""
    out = np.zeros((level, dp, level, dp), dtype=complex)
    pos = 0
    for a, d, m in zip(blocks, dims, row):
        a = a.reshape(level, d, level, d)
        for _ in range(m):
            out[:, pos:pos + d, :, pos:pos + d] = a
            pos += d
    return out.reshape(level * dp, level * dp)


def apply_morphism(phi: MorphismSpec, v: Element) -> Element:
    """phi applied at the level of v: per target block, one amplification
    of the source stacks and one conjugation by I_n (x) c."""
    if v.algebra != phi.source:
        raise AlgebraMismatch("element lives over a different algebra")
    if not v.is_square_level:
        raise ShapeMismatch("morphisms apply to square-level elements")
    n = v.row_level
    blocks = [s[0] for s in v.stacks]
    stacks = []
    dims = [d for _, d in phi.source.summands]
    for row, (_, dp), c in zip(phi.multiplicity, phi.target.summands,
                               phi.conjugators):
        cell = _amplify(blocks, dims, row, dp, n)
        big = np.kron(np.eye(n), c)
        stacks.append((big.conj().T @ cell @ big)[None])
    return Element(phi.target, n, n, stacks)


def compose(psi: MorphismSpec, phi: MorphismSpec) -> MorphismSpec:
    """psi after phi, again in multiplicity-plus-conjugator form.

    psi(phi(x)) holds the copies of x's blocks in nested order (psi's
    copies of phi's target blocks, each holding phi's copies).  The
    composed conjugator is the amplified phi conjugators times psi's,
    with its rows sorted stably by the source block of each nested slot;
    unfilled slots sort last and carry the identity.  The composite is
    checked when it is built, as every spec is.
    """
    if phi.target != psi.source:
        raise AlgebraMismatch("morphisms do not compose")
    dims_a = np.array([d for _, d in phi.source.summands])
    dims_b = np.array([d for _, d in phi.target.summands])
    m1, m2 = phi.multiplicity_array(), psi.multiplicity_array()
    k = len(dims_a)
    # source block of each slot of phi's target blocks, unfilled slots last
    inner_labels = [np.repeat(np.arange(k + 1),
                              [*(row * dims_a), db - row @ dims_a])
                    for row, db in zip(m1, dims_b)]
    conj = []
    for row, (_, dp), c in zip(m2, psi.target.summands, psi.conjugators):
        used = row @ dims_b
        inner = _amplify(phi.conjugators, dims_b, row, dp)
        inner[used:, used:] = np.eye(dp - used)
        labels = np.concatenate([np.tile(lab, m) for lab, m in
                                 zip(inner_labels, row)]
                                + [np.full(dp - used, k)])
        conj.append(inner[np.argsort(labels, kind="stable")] @ c)
    return MorphismSpec(phi.source, psi.target, m2 @ m1, tuple(conj),
                        unital=phi.unital and psi.unital)
