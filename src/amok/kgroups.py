"""The three K-groups over the concrete models.

Classes are stored by complete additive integer invariants (the rank on
each summand of projections / supports; winding numbers), with
representative elements retained as witnesses.  Because the underlying
monoids are cancellative, formal differences have a canonical normal
form and group arithmetic reduces to integer vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equivalence as eqv
from . import model, rand
from .algebra import CIRCLE, FD, AlgebraSpec, Element, direct_sum, order_unit
from .errors import (AlgebraMismatch, NotCancellative, NotPartialUnitary,
                     NotProjection, PreconditionFailure, Unsupported)
from .morphisms import MorphismSpec

K0 = "K0"
K1 = "K1"
K = "K"

# fixed streams of the spot checks behind the group views' flags
WHITEHEAD_SEED = 2024
WHITEHEAD_TRIALS = 3
PROPERNESS_SEED = 2025


# -- classes and views -----------------------------------------------------

@dataclass(frozen=True)
class MonoidElement:
    invariant: tuple
    witness: Element | None = None


@dataclass(frozen=True)
class KClass:
    """Formal difference [(plus, minus)] in normal form."""
    group_tag: str
    plus_part: tuple
    minus_part: tuple

    @property
    def normal_form(self) -> tuple:
        return tuple(a - b for a, b in zip(self.plus_part, self.minus_part))

    def __eq__(self, other) -> bool:
        return (isinstance(other, KClass)
                and self.group_tag == other.group_tag
                and self.normal_form == other.normal_form)

    def __hash__(self):
        return hash((self.group_tag, self.normal_form))

    def __add__(self, other: "KClass") -> "KClass":
        if self.group_tag != other.group_tag:
            raise PreconditionFailure("cannot add classes of different groups")
        return KClass(self.group_tag,
                      tuple(a + b for a, b in zip(self.plus_part, other.plus_part)),
                      tuple(a + b for a, b in zip(self.minus_part, other.minus_part)))

    def __neg__(self) -> "KClass":
        return KClass(self.group_tag, self.minus_part, self.plus_part)

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def scale(self, n: int) -> "KClass":
        step = self if n >= 0 else -self
        k = abs(n)
        return KClass(self.group_tag, tuple(k * a for a in step.plus_part),
                      tuple(k * b for b in step.minus_part))


@dataclass(frozen=True)
class OrderedGroupView:
    group_tag: str
    algebra: AlgebraSpec
    rank: int
    order_unit: KClass
    cone: str                       # "nonneg-orthant" | "full" | "support"
    flags: tuple = ()               # (name, bool) pairs of verified hypotheses
    generators: tuple = ()          # witness Elements

    def cone_contains(self, x: KClass) -> bool:
        nf = x.normal_form
        if self.cone == "nonneg-orthant":
            return all(c >= 0 for c in nf)
        if self.cone == "full":
            return True
        if self.cone == "support":
            # image of single-witness classes: positive support rank with
            # arbitrary winding, or zero
            return nf == (0, 0) or nf[0] > 0
        raise ValueError(f"unknown cone {self.cone!r}")

    def leq(self, x: KClass, y: KClass) -> bool:
        return self.cone_contains(y - x)


# -- invariant extraction (the Upsilon / Omega constructors) ---------------

def k0_class(p: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(p, 0)] from an order projection."""
    inv = eqv.proj_invariant(p, tol)
    return KClass(K0, inv, (0,) * len(inv))


def k1_class(u: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(u, e)] from a unitary."""
    if not model.is_unitary(u, tol):
        raise PreconditionFailure("operand fails the unitary predicate")
    if u.algebra.variant == FD:
        return KClass(K1, (), ())
    return KClass(K1, (eqv.winding(u),), (0,))


def k_class(v: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(v, 0)] from a partial unitary."""
    inv = eqv.support_invariant(v, tol)
    if v.algebra.variant == FD:
        return KClass(K, inv, (0,) * len(inv))
    n = v.row_level * v.algebra.dim
    if inv == (0,):
        return KClass(K, (0, 0), (0, 0))
    if inv == (n,):
        return KClass(K, (n, eqv.winding(v)), (0, 0))
    raise Unsupported("circle-model K classes exist for the "
                      "full-support/zero fragment only")


def k_pair_class(u: Element, v: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(u, v)] as a formal difference of two partial unitaries."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("pair members live over different algebras")
    return k_class(u, tol) - k_class(v, tol)


# -- generic completion ----------------------------------------------------

def _lattice_rank(vectors) -> int:
    """Rank of the subgroup of Z^m generated by integer vectors, by
    fraction-free Gaussian elimination."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return 0
    a = np.array(rows, dtype=object)
    rank = 0
    cols = a.shape[1]
    for c in range(cols):
        piv = None
        for r in range(rank, a.shape[0]):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r][c] != 0:
                a[r] = a[r] * a[rank][c] - a[rank] * a[r][c]
        rank += 1
    return rank


def grothendieck_complete(classes, tol: float = model.TOL_PRED) -> dict:
    """Difference group of the invariant lattice spanned by the inputs.

    Additivity is re-verified on witness pairs (invariant of a direct
    sum must equal the sum of invariants); the integer lattice is
    automatically cancellative once additivity holds.
    """
    classes = list(classes)
    if not classes:
        return {"rank": 0, "relations": "free"}
    dim = len(classes[0].invariant)
    for m in classes:
        if len(m.invariant) != dim:
            raise NotCancellative("generators live in different lattices")
    witnessed = [m for m in classes if m.witness is not None]
    for a in witnessed[:8]:
        for b in witnessed[:8]:
            got = _witness_invariant(direct_sum(a.witness, b.witness), tol)
            want = tuple(x + y for x, y in zip(a.invariant, b.invariant))
            if got != want:
                raise NotCancellative(
                    f"invariant not additive: {got} != {want}")
    return {"rank": _lattice_rank([m.invariant for m in classes]),
            "relations": "free"}


def _witness_invariant(w: Element, tol: float) -> tuple:
    """Invariant of a witness, trying projection then support."""
    try:
        return eqv.proj_invariant(w, tol)
    except NotProjection:
        return eqv.support_invariant(w, tol)


# -- the three groups ------------------------------------------------------

def k0_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Projection classes under stabilized equivalence, completed: one
    rank per summand, with the order unit at the summand dims."""
    dims = tuple(d for _, d in algebra.summands)
    unit = KClass(K0, dims, (0,) * len(dims))
    return OrderedGroupView(K0, algebra, len(dims), unit, "nonneg-orthant",
                            generators=_unit_rank_projections(algebra))


def _diagonal_projection(algebra: AlgebraSpec, level: int, ranks) -> Element:
    """diag(1, ..., 1, 0, ..., 0) with ranks[i] ones in summand i (at
    every grid point of the circle's one summand)."""
    return Element._from_stacks(algebra, level, level, (
        np.broadcast_to(np.diag(np.arange(level * d) < r).astype(complex),
                        (b, level * d, level * d))
        for (b, d), r in zip(algebra.summands, ranks)))


def _unit_rank_projections(algebra: AlgebraSpec) -> tuple:
    """One rank-one diagonal projection per summand."""
    return tuple(_diagonal_projection(algebra, 1, row)
                 for row in np.eye(len(algebra.summands), dtype=int))


def whitehead_flag(algebra: AlgebraSpec) -> bool:
    """Check v (+) v* ~h e at the doubled level on sampled unitaries."""
    for t in range(WHITEHEAD_TRIALS):
        rng = rand.stream(WHITEHEAD_SEED, t)
        w = int(rng.integers(-2, 3)) if algebra.variant == CIRCLE else 0
        v = rand.unitary(rng, algebra, 1, winding=w)
        both = direct_sum(v, v.adjoint())
        if not eqv.homotopic_unitaries(both, order_unit(algebra, 2))[0]:
            return False
    return True


def k1_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Unitary classes: trivial over fd blocks, winding over the circle."""
    wh = whitehead_flag(algebra)
    if algebra.variant == FD:
        unit = KClass(K1, (), ())
        return OrderedGroupView(K1, algebra, 0, unit, "full",
                                flags=(("whitehead", wh),))
    # diag(z, 1, ..., 1) at every grid point z
    gen = np.tile(np.eye(algebra.dim, dtype=complex),
                  (algebra.grid_points, 1, 1))
    gen[:, 0, 0] = algebra.sample_points()
    unit = KClass(K1, (0,), (0,))
    return OrderedGroupView(K1, algebra, 1, unit, "full",
                            flags=(("whitehead", wh),),
                            generators=(Element._from_stacks(algebra, 1, 1,
                                                             (gen,)),))


def _k_properness_flags(algebra: AlgebraSpec) -> tuple:
    """The three hypotheses behind cone properness, each spot-checked.

    (a) homotopic projections are equivalent (rank is a homotopy
        invariant here); (b) the order unit is finite: no proper
        subprojection is equivalent to it (rank strict monotonicity);
        (c) the absolute value is continuous (Hoelder-1/2 spot check).
    """
    rng = rand.stream(PROPERNESS_SEED, 0)
    # (a): homotopy => equivalence on a sampled conjugation pair
    p = rand.projection(rng, algebra, 2)
    u = rand.unitary(rng, algebra, 2)
    q = u.matmul(p).matmul(u.adjoint())
    q = (q + q.adjoint()).scale(0.5)
    a_ok = eqv.mvn_equivalent(p, q)[0]
    # (b): any strictly smaller diagonal projection is inequivalent to e
    e = order_unit(algebra, 1)
    sub = _diagonal_projection(algebra, 1,
                               [d - 1 for _, d in algebra.summands])
    b_ok = not eqv.mvn_equivalent(sub, e)[0]
    # (c): |.| is (square-root) continuous under small perturbations
    c_ok = True
    for delta in (1e-2, 1e-4, 1e-6):
        v = rand.element(rng, algebra, 2, 2)
        d = rand.element(rng, algebra, 2, 2, scale=delta)
        gap = model.distance(model.abs_value(v + d), model.abs_value(v))
        if gap > 40.0 * np.sqrt(delta):
            c_ok = False
    return (("homotopy-implies-equivalence", bool(a_ok)),
            ("order-unit-finite", bool(b_ok)),
            ("abs-continuous", bool(c_ok)))


def k_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Partial-unitary classes under zero-padded homotopy, completed."""
    flags = _k_properness_flags(algebra)
    if algebra.variant == FD:
        k = len(algebra.block_dims)
        unit = KClass(K, tuple(algebra.block_dims), (0,) * k)
        return OrderedGroupView(K, algebra, k, unit, "nonneg-orthant",
                                flags=flags,
                                generators=_unit_rank_projections(algebra))
    # circle: only the full-support/zero fragment is classified
    unit = KClass(K, (algebra.dim, 0), (0, 0))
    flags = flags + (("fragment", True),)
    return OrderedGroupView(K, algebra, 2, unit, "support", flags=flags)


def group_view(algebra: AlgebraSpec, tag: str) -> OrderedGroupView:
    if tag == K0:
        return k0_group(algebra)
    if tag == K1:
        return k1_group(algebra)
    if tag == K:
        return k_group(algebra)
    raise ValueError(f"unknown group tag {tag!r}")


# -- functoriality ---------------------------------------------------------

def induced_map(phi: MorphismSpec, which: str) -> np.ndarray:
    """Integer matrix of the induced homomorphism on invariants."""
    phi.validate()
    if which in (K0, K):
        return phi.multiplicity_array()
    if which == K1:
        # fd K1 groups are trivial; the induced map is the empty matrix
        return np.zeros((0, 0), dtype=np.int64)
    raise ValueError(f"unknown group tag {which!r}")


def induced_class(phi: MorphismSpec, x: KClass) -> KClass:
    """Image of a class over phi's source: one invariant entry per source
    block (none in the trivial fd K1)."""
    m = induced_map(phi, x.group_tag)
    if len(x.plus_part) != m.shape[1]:
        raise AlgebraMismatch("class does not live over the morphism's source")
    plus = tuple(int(v) for v in m @ np.array(x.plus_part, dtype=np.int64))
    minus = tuple(int(v) for v in m @ np.array(x.minus_part, dtype=np.int64))
    return KClass(x.group_tag, plus, minus)


# -- the theta splitting ---------------------------------------------------

def theta_map(algebra: AlgebraSpec, x: KClass):
    """theta([(u,v)]) = (eta part in K0, mu part in K1).

    Over fd blocks the support-rank invariant carries eta and K1 is
    trivial, so theta is the identity on invariants paired with the
    trivial class; injectivity (ker theta = 0) is then immediate.
    """
    if algebra.variant != FD:
        raise Unsupported("theta is computed over fd algebras")
    if x.group_tag != K:
        raise PreconditionFailure("theta consumes K classes")
    return (KClass(K0, x.plus_part, x.minus_part), KClass(K1, (), ()))


def theta_witnesses(u: Element, tol: float = model.TOL_PRED):
    """Element-level (eta, mu) data for [(u, 0)]: the support projection
    and the unitary completion u + e - |u| (validated)."""
    if not model.is_partial_unitary(u, tol):
        raise NotPartialUnitary("operand fails the partial-unitary predicate")
    a = model.abs_value(u)
    mu = u + (order_unit(u.algebra, u.row_level) - a)
    if not model.is_unitary(mu, tol):
        raise PreconditionFailure("unitary completion failed validation")
    return a, mu


def theta_surjectivity_witness(algebra: AlgebraSpec, k0_target: KClass):
    """Partial unitaries (v, p') with theta([(v,0)] - [(p',0)]) hitting
    the target: v carries the positive part, p' = complement carries the
    negative part."""
    if algebra.variant != FD:
        raise Unsupported("theta is computed over fd algebras")
    nf = k0_target.normal_form
    level = max([1] + [-(-abs(c) // d) for c, d in zip(nf, algebra.block_dims)])
    v = _diagonal_projection(algebra, level, [max(c, 0) for c in nf])
    p = _diagonal_projection(algebra, level, [max(-c, 0) for c in nf])
    return v, p


# -- section-5 constructions -----------------------------------------------

def partial_unitary_decompose(v: Element, tol: float = model.TOL_PRED):
    """v as the mean of two unitaries: v1 = v - e + |v|, v2 = v + e - |v|."""
    if not model.is_partial_unitary(v, tol):
        raise NotPartialUnitary("operand fails the partial-unitary predicate")
    e = order_unit(v.algebra, v.row_level)
    a = model.abs_value(v)
    v1 = v - e + a
    v2 = v + e - a
    for cand in (v1, v2):
        if not model.is_unitary(cand, tol):
            raise PreconditionFailure("decomposition summand is not unitary")
    if model.distance((v1 + v2).scale(0.5), v) > tol:
        raise PreconditionFailure("mean of summands does not reproduce input")
    return v1, v2


def orthogonal_sum_unitary(vs, tol: float = model.TOL_PRED) -> Element:
    """Sum of pairwise-orthogonal partial isometries whose supports and
    ranges tile the order unit; the sum passes the unitary predicate."""
    vs = list(vs)
    if not vs:
        raise PreconditionFailure("empty family")
    for i, v in enumerate(vs):
        if not model.is_partial_isometry(v, tol):
            raise PreconditionFailure(f"member {i} is not a partial isometry")
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not model.orthogonal(vs[i], vs[j], tol):
                raise PreconditionFailure(f"members {i} and {j} are not orthogonal")
    e = order_unit(vs[0].algebra, vs[0].col_level)
    tot_s = model.abs_value(vs[0])
    tot_r = model.abs_value(vs[0].adjoint())
    for v in vs[1:]:
        tot_s = tot_s + model.abs_value(v)
        tot_r = tot_r + model.abs_value(v.adjoint())
    if model.distance(tot_s, e) > tol:
        raise PreconditionFailure("supports do not sum to the order unit")
    if model.distance(tot_r, e) > tol:
        raise PreconditionFailure("ranges do not sum to the order unit")
    out = vs[0]
    for v in vs[1:]:
        out = out + v
    if not model.is_unitary(out, tol):
        raise PreconditionFailure("sum failed the unitary predicate")
    return out


def partial_unitary_characterization(v: Element, tol: float = model.TOL_PRED):
    """For a partial isometry v: membership in the partial-unitary set is
    equivalent to |v*| _|_ (e - |v|) together with v + e - |v| unitary.

    Returns (is_partial_unitary, right-hand side of the equivalence).
    """
    if not model.is_partial_isometry(v, tol):
        raise PreconditionFailure("operand is not a partial isometry")
    e = order_unit(v.algebra, v.row_level)
    a = model.abs_value(v)
    rhs = (model.orthogonal(model.abs_value(v.adjoint()), e - a, tol)
           and model.is_unitary(v + e - a, tol))
    return model.is_partial_unitary(v, tol), rhs
