"""The three K-groups over the concrete models.

A class is stored as its normal form: the difference of the complete
additive integer invariants of the two members of a formal difference
(K0: the rank on each summand; K1: ``equivalence.k1_invariant``; K:
the support ranks, then the K1 invariant of the unitary completion,
which theta splits off).  Because the underlying monoids are
cancellative, that one integer vector fixes the class, and group
arithmetic is vector arithmetic.  A class carries its group and the
algebra it lives over: classes of different groups or over different
algebras do not add and are refused by each other's views, theta
splits a class by its own algebra's summands, and a morphism maps a
class over its source to one over its target.  The Hoelder spot check
behind a ``k`` view's flags is also the ``abs-continuity`` property of
``suites``, which imports this module.  The element constructions check
their input with PreconditionFailure, and raise PredicateFailure when an
element they built fails its re-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equivalence as eqv
from . import model, rand
from .algebra import (AlgebraSpec, Element, direct_sum, order_unit,
                      roots_of_unity)
from .errors import AlgebraMismatch, PredicateFailure, PreconditionFailure
from .morphisms import MorphismSpec

K0 = "K0"
K1 = "K1"
K = "K"

# fixed streams of the spot checks behind the group views' flags
WHITEHEAD_SEED = 2024
WHITEHEAD_TRIALS = 3
PROPERNESS_SEED = 2025


# -- classes and views -----------------------------------------------------

def _check_same_group(x: KClass, y: KClass) -> None:
    if x.group_tag != y.group_tag:
        raise PreconditionFailure("classes of different groups do not combine")
    if x.algebra != y.algebra:
        raise AlgebraMismatch("classes over different algebras do not combine")


@dataclass(frozen=True)
class KClass:
    """Class in the group ``group_tag`` over ``algebra``, stored as its
    normal form: the integer vector of the difference of invariants.
    Its width is one rank per summand in K0, one degree per grid summand
    in K1, and both, ranks first, in K."""
    group_tag: str
    algebra: AlgebraSpec
    normal_form: tuple

    def __post_init__(self):
        ranks = len(self.algebra.summands)
        degrees = sum(b > 1 for b, _ in self.algebra.summands)
        width = {K0: ranks, K1: degrees, K: ranks + degrees}.get(self.group_tag)
        if width is None:
            raise PreconditionFailure(f"unknown group tag {self.group_tag!r}")
        if len(self.normal_form) != width:
            raise PreconditionFailure(
                f"a {self.group_tag} class over {self.algebra} has {width} "
                f"entries, got {len(self.normal_form)}")

    def __add__(self, other: "KClass") -> "KClass":
        _check_same_group(self, other)
        return KClass(self.group_tag, self.algebra,
                      tuple(a + b for a, b in zip(self.normal_form,
                                                  other.normal_form)))

    def __neg__(self) -> "KClass":
        return self.scale(-1)

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def scale(self, n: int) -> "KClass":
        return KClass(self.group_tag, self.algebra,
                      tuple(n * a for a in self.normal_form))


@dataclass(frozen=True)
class OrderedGroupView:
    """A K-group with its positive cone; the order unit's class gives
    the group tag, the algebra and the rank (one per invariant entry)."""
    order_unit: KClass
    cone: str                       # "nonneg-orthant" | "full" | "support"
    flags: tuple = ()               # (name, bool) pairs of verified hypotheses
    generators: tuple = ()          # witness Elements

    @property
    def rank(self) -> int:
        return len(self.order_unit.normal_form)

    def cone_contains(self, x: KClass) -> bool:
        _check_same_group(self.order_unit, x)
        nf = x.normal_form
        if self.cone == "nonneg-orthant":
            return all(c >= 0 for c in nf)
        if self.cone == "full":
            return True
        if self.cone == "support":
            # image of single-witness classes: positive support rank with
            # arbitrary winding, or zero
            return not any(nf) or nf[0] > 0
        raise ValueError(f"unknown cone {self.cone!r}")


# -- invariant extraction (the Upsilon / Omega constructors) ---------------

def k0_class(p: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(p, 0)] from an order projection."""
    return KClass(K0, p.algebra, eqv.proj_invariant(p, tol))


def k1_class(u: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(u, e)] from a unitary."""
    eqv.require_operand(u, tol, eqv.UNITARY_SET)
    return KClass(K1, u.algebra, eqv.k1_invariant(u))


def k_class(v: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(v, 0)] from a partial unitary: the rank of |v| on each summand,
    then the K1 invariant of the unitary completion v + e - |v|.

    |v| is decomposed by several checks, so this opens a memo scope when
    none is open."""
    with model.memo_scope_if_none():
        a, mu = theta_witnesses(v, tol)
        inv = eqv.proj_invariant(a, tol)
        eqv.require_decided(v, inv, "circle-model K classes exist for the "
                                    "full-support/zero fragment only")
        return KClass(K, v.algebra, inv + eqv.k1_invariant(mu))


def k_pair_class(u: Element, v: Element, tol: float = model.TOL_PRED) -> KClass:
    """[(u, v)] as a formal difference of two partial unitaries, in one
    memo scope (opened when none is open)."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("pair members live over different algebras")
    with model.memo_scope_if_none():
        return k_class(u, tol) - k_class(v, tol)


# -- the three groups ------------------------------------------------------

def k0_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Projection classes under stabilized equivalence, completed: one
    rank per summand, with the order unit at the summand dims."""
    dims = tuple(d for _, d in algebra.summands)
    unit = KClass(K0, algebra, dims)
    gens = tuple(_diagonal_projection(algebra, 1, row)
                 for row in np.eye(len(dims), dtype=int))
    return OrderedGroupView(unit, "nonneg-orthant", generators=gens)


def _diagonal_projection(algebra: AlgebraSpec, level: int, ranks) -> Element:
    """diag(1, ..., 1, 0, ..., 0) with ranks[i] ones in summand i (at
    every grid point of the circle's one summand)."""
    return Element(algebra, level, level, (
        np.broadcast_to(np.diag(np.arange(level * d) < r).astype(complex),
                        (b, level * d, level * d))
        for (b, d), r in zip(algebra.summands, ranks)))


def whitehead_flag(algebra: AlgebraSpec) -> bool:
    """Check v (+) v* ~h e at the doubled level on sampled unitaries."""
    for t in range(WHITEHEAD_TRIALS):
        rng = rand.stream(WHITEHEAD_SEED, t)
        v = rand.unitary(rng, algebra, 1,
                         winding=rand.draw_winding(rng, algebra, 2))
        both = direct_sum(v, v.adjoint())
        if not eqv.homotopic_unitaries(both, order_unit(algebra, 2))[0]:
            return False
    return True


def k1_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Unitary classes: one loop generator per grid summand, diag(z, 1,
    ..., 1) at each point z of its grid and e on the other summands."""
    wh = whitehead_flag(algebra)
    e = order_unit(algebra, 1)
    gens = []
    for i, (b, _) in enumerate(algebra.summands):
        if b > 1:
            stacks = [s.copy() for s in e.stacks]
            stacks[i][:, 0, 0] = roots_of_unity(b)
            gens.append(Element(algebra, 1, 1, stacks))
    return OrderedGroupView(k1_class(e), "full", flags=(("whitehead", wh),),
                            generators=tuple(gens))


def abs_hoelder_excess(rng, algebra: AlgebraSpec, n: int) -> float:
    """Spot check that |.| is Hoelder-1/2 continuous: the largest gap
    ||v + d| - |v|| above 40 sqrt(delta) for one drawn v at level n and
    a drawn d of each scale delta in 1e-2, 1e-4, 1e-6; 0 if none is."""
    v = rand.element(rng, algebra, n, n)
    res = 0.0
    for delta in (1e-2, 1e-4, 1e-6):
        d = rand.element(rng, algebra, n, n, scale=delta)
        gap = model.distance(model.abs_value(v + d), model.abs_value(v))
        # square-root Hoelder bound with a generous stable constant
        if gap > 40.0 * np.sqrt(delta):
            res = max(res, gap)
    return res


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
    c_ok = abs_hoelder_excess(rng, algebra, 2) == 0.0
    return (("homotopy-implies-equivalence", bool(a_ok)),
            ("order-unit-finite", bool(b_ok)),
            ("abs-continuous", bool(c_ok)))


def k_group(algebra: AlgebraSpec) -> OrderedGroupView:
    """Partial-unitary classes under zero-padded homotopy, completed, with
    the class of e as the order unit."""
    flags = _k_properness_flags(algebra)
    unit = k_class(order_unit(algebra, 1))
    if not all(map(eqv.decides_mixed_ranks, algebra.summands)):
        # only the full-support/zero fragment is classified
        return OrderedGroupView(unit, "support",
                                flags=flags + (("fragment", True),))
    return OrderedGroupView(unit, "nonneg-orthant", flags=flags,
                            generators=k0_group(algebra).generators)


# -- functoriality ---------------------------------------------------------

def induced_map(phi: MorphismSpec, which: str) -> np.ndarray:
    """Integer matrix of the induced homomorphism on invariants."""
    if which in (K0, K):
        return phi.multiplicity_array()
    if which == K1:
        # fd K1 groups are trivial; the induced map is the empty matrix
        return np.zeros((0, 0), dtype=np.int64)
    raise ValueError(f"unknown group tag {which!r}")


def induced_class(phi: MorphismSpec, x: KClass) -> KClass:
    """Image over phi's target of a class over phi's source."""
    m = induced_map(phi, x.group_tag)
    if x.algebra != phi.source:
        raise AlgebraMismatch("class does not live over the morphism's source")
    return KClass(x.group_tag, phi.target, tuple(
        int(v) for v in m @ np.array(x.normal_form, dtype=np.int64)))


# -- the theta splitting ---------------------------------------------------

def theta_map(x: KClass):
    """theta([(u,v)]) = (eta part in K0, mu part in K1).

    A K class lists the support ranks (eta), then the K1 invariant of the
    unitary completion mu, so theta splits it after the rank on each
    summand of its algebra; injectivity (ker theta = 0) is then immediate.
    """
    if x.group_tag != K:
        raise PreconditionFailure("theta consumes K classes")
    k = len(x.algebra.summands)
    return (KClass(K0, x.algebra, x.normal_form[:k]),
            KClass(K1, x.algebra, x.normal_form[k:]))


def theta_witnesses(u: Element, tol: float = model.TOL_PRED):
    """Element-level (eta, mu) data for [(u, 0)]: the support projection
    and the unitary completion u + e - |u|, validated unitary at tol
    (PredicateFailure if not)."""
    eqv.require_operand(u, tol, eqv.PARTIAL_UNITARY_SET)
    a = model.abs_value(u)
    mu = u + (order_unit(u.algebra, u.row_level) - a)
    if not model.is_unitary(mu, tol):
        raise PredicateFailure("unitary completion failed validation")
    return a, mu


def theta_surjectivity_witness(k0_target: KClass):
    """Partial unitaries (v, p') over the target's algebra with
    theta([(v,0)] - [(p',0)]) hitting the target: v carries the positive
    part, p' = complement carries the negative part."""
    if k0_target.group_tag != K0:
        raise PreconditionFailure("the surjectivity recipe targets K0 classes")
    algebra = k0_target.algebra
    nf = k0_target.normal_form
    level = max([1] + [-(-abs(c) // d)
                       for c, (_, d) in zip(nf, algebra.summands)])
    v = _diagonal_projection(algebra, level, [max(c, 0) for c in nf])
    p = _diagonal_projection(algebra, level, [max(-c, 0) for c in nf])
    return v, p


# -- section-5 constructions -----------------------------------------------

def partial_unitary_decompose(v: Element, tol: float = model.TOL_PRED):
    """v as the mean of two unitaries: v1 = v - e + |v|, and v2 = v + e - |v|
    the unitary completion that ``theta_witnesses`` builds and validates."""
    a, v2 = theta_witnesses(v, tol)
    v1 = v - order_unit(v.algebra, v.row_level) + a
    if not model.is_unitary(v1, tol):
        raise PredicateFailure("decomposition summand is not unitary")
    if model.distance((v1 + v2).scale(0.5), v) > tol:
        raise PredicateFailure("mean of summands does not reproduce input")
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
        raise PredicateFailure("sum failed the unitary predicate")
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
