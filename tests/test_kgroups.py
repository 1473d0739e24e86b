"""Tests for the K-groups, morphism functoriality, and the splitting map."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amok import algebra, equivalence as eqv, kgroups, model, morphisms, rand
from amok.errors import (AlgebraMismatch, NotProjection, NotUnital,
                         PreconditionFailure, Unsupported)

from draws import random_morphism, random_unitary_matrix

M2 = algebra.AlgebraSpec.fd([2])
FD23 = algebra.AlgebraSpec.fd([2, 3])
CIRCLE1 = algebra.AlgebraSpec.circle(1, 64)


def fd_element(spec, *mats):
    """Element over fd blocks from one matrix per block, each the one
    entry of its block's (1, m*d, n*d) stack."""
    stacks = [np.asarray(a, dtype=complex)[None] for a in mats]
    d0 = spec.summands[0][1]
    m = stacks[0].shape[1] // d0
    n = stacks[0].shape[2] // d0
    return algebra.Element(spec, m, n, stacks)


vectors2 = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


# -- group laws ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(vectors2, vectors2, vectors2)
def test_kclass_group_laws(a, b, c):
    xa = kgroups.KClass(kgroups.K0, FD23, a)
    xb = kgroups.KClass(kgroups.K0, FD23, b)
    xc = kgroups.KClass(kgroups.K0, FD23, c)
    assert (xa + xb) + xc == xa + (xb + xc)
    assert xa + xb == xb + xa
    ident = kgroups.KClass(kgroups.K0, FD23, (0, 0))
    assert xa + ident == xa
    assert xa + (-xa) == ident
    assert (xa - xb) + xb == xa


def test_kclass_scale_matches_repeated_addition():
    x = kgroups.KClass(kgroups.K, FD23, (3, -1))
    assert -x == kgroups.KClass(kgroups.K, FD23, (-3, 1))
    for n in range(-4, 5):
        step = x if n >= 0 else -x
        total = kgroups.KClass(kgroups.K, FD23, (0, 0))
        for _ in range(abs(n)):
            total = total + step
        assert x.scale(n) == total, n


def test_kclasses_over_different_algebras_do_not_combine():
    x = kgroups.KClass(kgroups.K0, algebra.AlgebraSpec.fd([1, 2]),
                       (1, 2))
    y = kgroups.KClass(kgroups.K0, algebra.AlgebraSpec.fd([3]), (1,))
    with pytest.raises(AlgebraMismatch):
        x + y
    with pytest.raises(AlgebraMismatch):
        x - y
    # the trivial fd K1 classes of two algebras are different classes
    assert (kgroups.KClass(kgroups.K1, M2, ())
            != kgroups.KClass(kgroups.K1, FD23, ()))


def test_well_definedness_under_padding():
    for t in range(10):
        rng = rand.stream(300, t)
        u = rand.partial_unitary(rng, FD23, 1)
        v = rand.partial_unitary(rng, FD23, 1)
        w = rand.partial_unitary(rng, FD23, 1)
        plain = kgroups.k_pair_class(u, v)
        padded = kgroups.k_pair_class(algebra.direct_sum(u, w),
                                      algebra.direct_sum(v, w))
        assert plain == padded


# -- additivity ------------------------------------------------------------

@pytest.mark.parametrize("alg", [FD23, algebra.AlgebraSpec.circle(1, 16),
                                 algebra.AlgebraSpec.circle(2, 64)],
                         ids=["fd23", "circle1x16", "circle2x64"])
def test_k0_class_of_a_direct_sum_is_the_sum_of_the_classes(alg):
    for t in range(6):
        rng = rand.stream(303, t)
        p = rand.projection(rng, alg, 1 + t % 2)
        q = rand.projection(rng, alg, 1 + t // 3)
        assert (kgroups.k0_class(algebra.direct_sum(p, q))
                == kgroups.k0_class(p) + kgroups.k0_class(q))


# -- the three groups ------------------------------------------------------

def test_k0_scalar_algebra():
    view = kgroups.k0_group(algebra.AlgebraSpec.fd([1]))
    assert view.rank == 1
    assert view.order_unit.normal_form == (1,)
    assert view.cone == "nonneg-orthant"


def test_k0_two_blocks():
    view = kgroups.k0_group(FD23)
    assert view.rank == 2
    assert view.order_unit.normal_form == (2, 3)
    for g in view.generators:
        assert model.classify(g).is_order_projection


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("alg", [FD23, algebra.AlgebraSpec.circle(2, 16)],
                         ids=["fd23", "circle2x16"])
def test_one_rank_per_summand_in_and_out(alg, level):
    # the generators take and the invariants return one rank per summand:
    # one per fd block, one for the whole circle grid
    rng = rand.stream(310, level)
    ranks = [level * d - 1 for _, d in alg.summands]
    p = rand.projection(rng, alg, level, ranks)
    assert eqv.proj_invariant(p) == tuple(ranks)
    u = rand.partial_unitary(rng, alg, level, ranks)
    assert eqv.proj_invariant(model.abs_value(u)) == tuple(ranks)
    k = len(alg.summands)
    gens = kgroups.k0_group(alg).generators
    assert [eqv.proj_invariant(g) for g in gens] == [
        tuple(int(i == j) for j in range(k)) for i in range(k)]


def test_k0_order_unit_dominates():
    view = kgroups.k0_group(FD23)
    rng = rand.stream(302, 0)
    for _ in range(20):
        level = int(rng.integers(1, 4))
        p = rand.projection(rng, FD23, level)
        g = kgroups.k0_class(p)
        n = level  # ranks at level n are bounded by n * dims
        assert view.cone_contains(view.order_unit.scale(n) - g)
        assert view.cone_contains(g - view.order_unit.scale(-n))


def test_k0_cone_proper():
    view = kgroups.k0_group(FD23)
    for a in range(-2, 3):
        for b in range(-2, 3):
            g = kgroups.KClass(kgroups.K0, FD23, (a, b))
            if view.cone_contains(g) and view.cone_contains(-g):
                assert g.normal_form == (0, 0)


def test_k1_fd_trivial_with_whitehead():
    view = kgroups.k1_group(M2)
    assert view.rank == 0
    assert dict(view.flags)["whitehead"]
    rng = rand.stream(303, 0)
    u = rand.unitary(rng, M2, 2)
    assert kgroups.k1_class(u) == kgroups.KClass(kgroups.K1, M2, ())


def test_k1_circle_is_winding_group():
    view = kgroups.k1_group(CIRCLE1)
    assert view.rank == 1
    assert view.cone == "full"
    assert dict(view.flags)["whitehead"]
    gen = view.generators[0]
    assert eqv.k1_invariant(gen) == (1,)
    assert kgroups.k1_class(gen).normal_form == (1,)


def test_k1_whitehead_relation_on_classes():
    rng = rand.stream(304, 0)
    for w in (-2, 0, 3):
        u = rand.unitary(rng, CIRCLE1, 2, winding=w)
        total = kgroups.k1_class(u) + kgroups.k1_class(u.adjoint())
        assert total == kgroups.KClass(kgroups.K1, CIRCLE1, (0,))


def test_k_group_fd():
    assert kgroups.k_group(algebra.AlgebraSpec.fd([1])).rank == 1
    view = kgroups.k_group(FD23)
    assert view.rank == 2
    flags = dict(view.flags)
    assert flags["homotopy-implies-equivalence"]
    assert flags["order-unit-finite"]
    assert flags["abs-continuous"]


def test_k_cone_proper():
    view = kgroups.k_group(FD23)
    for a in range(-2, 3):
        for b in range(-2, 3):
            g = kgroups.KClass(kgroups.K, FD23, (a, b))
            if view.cone_contains(g) and view.cone_contains(-g):
                assert g.normal_form == (0, 0)


def test_k_group_fd_takes_the_k0_unit_and_generators():
    view, k0 = kgroups.k_group(FD23), kgroups.k0_group(FD23)
    assert view.rank == k0.rank
    assert view.order_unit.normal_form == k0.order_unit.normal_form
    assert len(view.generators) == len(k0.generators)
    for g, h in zip(view.generators, k0.generators):
        for a, b in zip(g.stacks, h.stacks):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("alg", [FD23, CIRCLE1], ids=["fd23", "circle1"])
@pytest.mark.parametrize("tag", [kgroups.K0, kgroups.K1, kgroups.K])
def test_group_view_reads_tag_and_algebra_from_its_order_unit(alg, tag):
    view = {kgroups.K0: kgroups.k0_group, kgroups.K1: kgroups.k1_group,
            kgroups.K: kgroups.k_group}[tag](alg)
    assert [f.name for f in dataclasses.fields(view)] == [
        "order_unit", "cone", "flags", "generators"]
    assert view.order_unit.group_tag == tag
    assert view.order_unit.algebra == alg


def test_k_circle_exposes_fragment():
    view = kgroups.k_group(CIRCLE1)
    assert dict(view.flags)["fragment"]
    assert view.cone == "support"
    rng = rand.stream(305, 0)
    mixed = rand.partial_unitary(rng, CIRCLE1, 2, ranks=[1])
    with pytest.raises(Unsupported):
        kgroups.k_class(mixed)


def test_circle_cones_full_and_support():
    circle16 = algebra.AlgebraSpec.circle(1, 16)
    k1, k = kgroups.k1_group(circle16), kgroups.k_group(circle16)
    assert (k1.cone, k.cone) == ("full", "support")
    cases = [(k1, (-3,), True), (k, (0, 0), True), (k, (1, -2), True),
             (k, (0, 1), False), (k, (-1, 0), False)]
    for view, nf, inside in cases:
        x = kgroups.KClass(view.order_unit.group_tag, circle16, nf)
        assert view.cone_contains(x) is inside, nf
        # x <= y exactly when y - x is in the cone
        assert view.cone_contains(
            (view.order_unit + x) - view.order_unit) is inside, nf
        assert view.cone_contains(
            view.order_unit.scale(0) - (-x)) is inside, nf


# -- morphisms and functoriality -------------------------------------------

def test_identity_morphism_acts_trivially():
    rng = rand.stream(306, 0)
    v = rand.element(rng, FD23, 2, 2)
    ident = morphisms.identity_morphism(FD23)
    assert model.distance(morphisms.apply_morphism(ident, v), v) <= 1e-12
    assert np.array_equal(kgroups.induced_map(ident, kgroups.K0), np.eye(2))


def test_induced_class_needs_a_class_over_the_source():
    fd1, fd12 = algebra.AlgebraSpec.fd([1]), algebra.AlgebraSpec.fd([1, 2])
    circle = algebra.AlgebraSpec.circle(1, 16)
    u = rand.unitary(rand.stream(309, 0), circle, 1, winding=1)
    p = rand.projection(rand.stream(309, 1), fd12, 1, ranks=[1, 1])
    x, y = kgroups.k1_class(u), kgroups.k0_class(p)
    assert x.normal_form == (1,)
    with pytest.raises(AlgebraMismatch):
        kgroups.induced_class(morphisms.identity_morphism(fd1), x)
    with pytest.raises(AlgebraMismatch):
        kgroups.induced_class(
            morphisms.identity_morphism(algebra.AlgebraSpec.fd([3])), y)
    # over the source itself the identity fixes the class
    assert kgroups.induced_class(morphisms.identity_morphism(fd12), y) == y
    trivial = kgroups.KClass(kgroups.K1, fd1, ())
    assert kgroups.induced_class(morphisms.identity_morphism(fd1),
                                 trivial) == trivial


def test_induced_class_compares_algebras_not_lengths():
    # a circle K class (support rank 1, winding 1) has as many entries as
    # a class over fd [1, 1], but does not live over it
    circle = algebra.AlgebraSpec.circle(1, 16)
    u = rand.unitary(rand.stream(309, 2), circle, 1, winding=1)
    x = kgroups.k_class(u)
    assert x.normal_form == (1, 1)
    with pytest.raises(AlgebraMismatch):
        kgroups.induced_class(
            morphisms.identity_morphism(algebra.AlgebraSpec.fd([1, 1])), x)


def test_k0_class_needs_an_order_projection():
    # an eigenvalue 1e-5 off 1 fails the order-projection predicate, and
    # every projection entry point refuses what the predicate refuses
    p = fd_element(M2, np.diag([1 + 1e-5, 0.0]))
    assert not model.is_order_projection(p)
    for call in (lambda: eqv.mvn_equivalent(p, p),
                 lambda: kgroups.k0_class(p),
                 lambda: eqv.proj_invariant(p)):
        with pytest.raises(NotProjection,
                           match="^operand is not an order projection$"):
            call()
    assert kgroups.k0_class(fd_element(M2, np.diag([1.0, 0.0]))) == \
        kgroups.KClass(kgroups.K0, M2, (1,))


def test_group_views_refuse_classes_of_other_groups_or_algebras():
    # a circle K class (support rank 1, winding 5) has as many entries as
    # a class over fd [2, 3], and its normal form lies in the K0 cone
    x = kgroups.KClass(kgroups.K, algebra.AlgebraSpec.circle(1, 16), (1, 5))
    k0, k1 = kgroups.k0_group(FD23), kgroups.k1_group(FD23)
    for view, y, error in (
            (k0, x, PreconditionFailure),
            (k1, x, PreconditionFailure),
            (k0, kgroups.KClass(kgroups.K1, FD23, ()), PreconditionFailure),
            (k0, kgroups.KClass(kgroups.K0, FD12, (1, 5)), AlgebraMismatch)):
        with pytest.raises(error):
            view.cone_contains(y)
        with pytest.raises(error):
            view.cone_contains(y - y)
    assert k0.cone_contains(kgroups.KClass(kgroups.K0, FD23, (1, 5)))
    # the surjectivity recipe would drop the winding of a K class
    with pytest.raises(PreconditionFailure, match="K0 classes"):
        kgroups.theta_surjectivity_witness(x)


def test_morphism_preserves_unit_and_abs():
    rng = rand.stream(307, 0)
    for t in range(10):
        phi = random_morphism(rand.stream(307, t), FD23)
        e = algebra.order_unit(FD23, 2)
        e_target = algebra.order_unit(phi.target, 2)
        assert model.distance(morphisms.apply_morphism(phi, e), e_target) <= 1e-9
        v = rand.element(rng, FD23, 2, 2)
        lhs = model.abs_value(morphisms.apply_morphism(phi, v))
        rhs = morphisms.apply_morphism(phi, model.abs_value(v))
        assert model.distance(lhs, rhs) <= 1e-8


def nonunital_pair(rng):
    """phi: fd [1,2] -> fd [3,4] and psi: fd [3,4] -> fd [5], both leaving
    slots unfilled, with random unitary conjugators."""
    fd12, fd34 = algebra.AlgebraSpec.fd([1, 2]), algebra.AlgebraSpec.fd([3, 4])
    phi = morphisms.MorphismSpec(
        fd12, fd34, ((0, 1), (1, 1)),
        (random_unitary_matrix(rng, 3), random_unitary_matrix(rng, 4)),
        unital=False)
    psi = morphisms.MorphismSpec(fd34, algebra.AlgebraSpec.fd([5]), ((0, 1),),
                                 (random_unitary_matrix(rng, 5),), unital=False)
    return phi, psi


def test_composition_of_morphisms_is_exact():
    rng = rand.stream(308, 0)
    pairs = []
    for t in range(10):
        srng = rand.stream(308, t)
        phi = random_morphism(srng, FD23)
        pairs.append((phi, random_morphism(srng, phi.target)))
    pairs.append(nonunital_pair(rand.stream(308, 10)))
    for phi, psi in pairs:
        # the composite is checked when compose builds it
        comp = morphisms.compose(psi, phi)
        for level in (1, 2, 3):
            v = rand.element(rng, phi.source, level, level)
            via_comp = morphisms.apply_morphism(comp, v)
            via_steps = morphisms.apply_morphism(
                psi, morphisms.apply_morphism(phi, v))
            assert model.distance(via_comp, via_steps) <= 1e-12


def test_induced_map_functor_laws():
    for t in range(50):
        srng = rand.stream(309, t)
        phi = random_morphism(srng, FD23)
        psi = random_morphism(srng, phi.target)
        comp = morphisms.compose(psi, phi)
        for tag in (kgroups.K0, kgroups.K):
            lhs = kgroups.induced_map(comp, tag)
            rhs = kgroups.induced_map(psi, tag) @ kgroups.induced_map(phi, tag)
            assert np.array_equal(lhs, rhs)
        assert kgroups.induced_map(comp, kgroups.K1).shape == (0, 0)


def test_zero_morphism_induces_zero_map():
    z = morphisms.zero_morphism(FD23, algebra.AlgebraSpec.fd([4]))
    m = kgroups.induced_map(z, kgroups.K)
    assert np.array_equal(m, np.zeros((1, 2), dtype=np.int64))


def test_commuting_square_on_projections():
    for t in range(20):
        srng = rand.stream(310, t)
        phi = random_morphism(srng, FD23)
        p = rand.projection(srng, FD23, 2)
        lhs = kgroups.k0_class(morphisms.apply_morphism(phi, p))
        rhs = kgroups.induced_class(phi, kgroups.k0_class(p))
        assert lhs == rhs


def test_commuting_square_on_partial_unitaries():
    for t in range(20):
        srng = rand.stream(311, t)
        phi = random_morphism(srng, FD23)
        v = rand.partial_unitary(srng, FD23, 2)
        lhs = kgroups.k_class(morphisms.apply_morphism(phi, v))
        rhs = kgroups.induced_class(phi, kgroups.k_class(v))
        assert lhs == rhs


def test_permutation_morphisms_are_inverse_on_invariants():
    source = algebra.AlgebraSpec.fd([2, 3])
    target = algebra.AlgebraSpec.fd([3, 2])
    swap = ((0, 1), (1, 0))
    unswap = ((0, 1), (1, 0))
    phi = morphisms.MorphismSpec(source, target, swap,
                                 (np.eye(3), np.eye(2)))
    psi = morphisms.MorphismSpec(target, source, unswap,
                                 (np.eye(2), np.eye(3)))
    a = kgroups.induced_map(phi, kgroups.K0)
    b = kgroups.induced_map(psi, kgroups.K0)
    assert np.array_equal(a @ b, np.eye(2))
    assert np.array_equal(b @ a, np.eye(2))


def test_morphism_validation_rejects_non_unital():
    with pytest.raises(NotUnital):
        morphisms.MorphismSpec(M2, algebra.AlgebraSpec.fd([3]),
                               ((1,),), (np.eye(3),))


FD12 = algebra.AlgebraSpec.fd([1, 2])


@pytest.mark.parametrize("conjugators, message", [
    ((np.eye(1),), "1 conjugators for 2 target blocks"),
    ((np.eye(1), np.eye(2), np.eye(3)), "3 conjugators for 2 target blocks"),
], ids=["fewer", "more"])
def test_morphism_validation_counts_conjugators(conjugators, message):
    with pytest.raises(NotUnital, match=message):
        morphisms.MorphismSpec(FD12, FD12, ((1, 0), (0, 1)), conjugators)


@pytest.mark.parametrize("entry", [1.7, 1.0, True],
                         ids=["fraction", "float", "bool"])
def test_morphism_validation_rejects_non_integer_multiplicities(entry):
    with pytest.raises(NotUnital, match="non-integer entry"):
        morphisms.MorphismSpec(FD12, FD12, ((entry, 0), (0, 1)),
                               (np.eye(1), np.eye(2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200],
                         ids=["nan", "inf", "huge"])
def test_morphism_validation_rejects_non_finite_conjugators(value):
    # c* c of such a conjugator is NaN, inf or overflows; the spec is
    # refused without a warning, which pytest would turn into an error
    c = np.eye(2, dtype=complex)
    c[0, 1] = value
    with pytest.raises(NotUnital, match="conjugator 1 is not unitary"):
        morphisms.MorphismSpec(FD12, FD12, ((1, 0), (0, 1)), (np.eye(1), c))


def test_apply_and_compose_reject_an_overfilling_spec():
    # two copies of a 2x2 block do not fit in a 3x3 block, unital or not;
    # the spec is refused when it is built, before any apply or compose
    fd3 = algebra.AlgebraSpec.fd([3])
    with pytest.raises(NotUnital, match="overfill"):
        morphisms.MorphismSpec(M2, fd3, ((2,),), (np.eye(3),), unital=False)


@pytest.mark.parametrize("use", [
    lambda: (kgroups.KClass(kgroups.K0, FD12, (1, 2))
             + kgroups.KClass(kgroups.K0, FD12, (1,))),
    lambda: kgroups.k0_group(FD12).cone_contains(
        kgroups.KClass(kgroups.K0, FD12, (1,))),
    lambda: kgroups.theta_map(kgroups.KClass(kgroups.K, FD12, (5,))),
    lambda: kgroups.induced_class(morphisms.identity_morphism(FD12),
                                  kgroups.KClass(kgroups.K0, FD12, (1,))),
], ids=["add", "cone", "theta", "induced"])
def test_kclass_of_the_wrong_width_is_refused(use):
    # before the width check: (2,), True, a K0 part (5,), a NumPy error
    with pytest.raises(PreconditionFailure,
                       match=r"^a K0? class over .* has 2 entries, got 1$"):
        use()


def test_kclass_width_counts_ranks_then_degrees():
    circle16 = algebra.AlgebraSpec.circle(1, 16)
    for tag, width in ((kgroups.K0, 1), (kgroups.K1, 1), (kgroups.K, 2)):
        kgroups.KClass(tag, circle16, (0,) * width)
        with pytest.raises(PreconditionFailure, match=(
                f"^a {tag} class over .* has {width} entries, "
                f"got {width + 1}$")):
            kgroups.KClass(tag, circle16, (0,) * (width + 1))
    with pytest.raises(PreconditionFailure, match="unknown group tag 'K2'"):
        kgroups.KClass("K2", FD12, (0, 0))


# -- the splitting map -----------------------------------------------------

def test_theta_of_zero():
    z = algebra.zero(FD23, 1)
    x = kgroups.k_pair_class(z, z)
    k0_part, k1_part = kgroups.theta_map(x)
    assert k0_part.normal_form == (0, 0)
    assert k1_part == kgroups.KClass(kgroups.K1, FD23, ())


def test_theta_of_unit():
    e = algebra.order_unit(FD23, 1)
    z = algebra.zero(FD23, 1)
    x = kgroups.k_pair_class(e, z)
    k0_part, k1_part = kgroups.theta_map(x)
    assert k0_part.normal_form == (2, 3)
    assert k1_part == kgroups.KClass(kgroups.K1, FD23, ())


def test_theta_is_homomorphism():
    rng = rand.stream(312, 0)
    for _ in range(25):
        u1 = rand.partial_unitary(rng, FD23, 1)
        v1 = rand.partial_unitary(rng, FD23, 1)
        u2 = rand.partial_unitary(rng, FD23, 1)
        v2 = rand.partial_unitary(rng, FD23, 1)
        x = kgroups.k_pair_class(u1, v1)
        y = kgroups.k_pair_class(u2, v2)
        sx0, sx1 = kgroups.theta_map(x)
        sy0, sy1 = kgroups.theta_map(y)
        ts0, ts1 = kgroups.theta_map(x + y)
        assert ts0 == sx0 + sy0
        assert ts1 == sx1 + sy1


def test_theta_witnesses_validate():
    rng = rand.stream(313, 0)
    for _ in range(10):
        u = rand.partial_unitary(rng, FD23, 1)
        a, mu = kgroups.theta_witnesses(u)
        assert model.classify(a).is_order_projection
        assert model.classify(mu).is_unitary
        assert model.distance(a, model.abs_value(u)) <= 1e-9


def test_theta_surjectivity_recipe():
    rng = rand.stream(314, 0)
    for _ in range(10):
        target = kgroups.KClass(
            kgroups.K0, FD23,
            (int(rng.integers(-4, 5)), int(rng.integers(-4, 5))))
        v, p = kgroups.theta_surjectivity_witness(target)
        x = kgroups.k_pair_class(v, p)
        k0_part, _ = kgroups.theta_map(x)
        assert k0_part == target


def test_theta_kernel_trivial_fd():
    # over fd blocks the eta invariant is injective: theta(x) = 0 forces
    # the support-rank vector of x to vanish
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = kgroups.KClass(kgroups.K, FD23, (a, b))
            k0_part, k1_part = kgroups.theta_map(x)
            if k0_part.normal_form == (0, 0) and k1_part.normal_form == ():
                assert x.normal_form == (0, 0)


CIRCLE_FRAGMENT = (algebra.AlgebraSpec.circle(1, 16),
                   algebra.AlgebraSpec.circle(2, 64))


def fragment_partial_unitary(rng, alg):
    """A circle partial unitary of full or zero support at level 1 or 2,
    and its winding (in -2..2 at full support, 0 at zero support)."""
    level = int(rng.integers(1, 3))
    if rng.integers(0, 2):
        w = int(rng.integers(-2, 3))
        rank = level * alg.summands[0][1]
    else:
        w = rank = 0
    return rand.partial_unitary(rng, alg, level, [rank], winding=w), w


@pytest.mark.parametrize("alg", CIRCLE_FRAGMENT, ids=("dim1", "dim2"))
def test_theta_is_additive_on_the_circle_fragment(alg):
    rng = rand.stream(315, 0)
    for _ in range(6):
        u1, v1, u2, v2 = [fragment_partial_unitary(rng, alg)[0]
                          for _ in range(4)]
        x = kgroups.k_pair_class(u1, v1)
        y = kgroups.k_pair_class(u2, v2)
        sx0, sx1 = kgroups.theta_map(x)
        sy0, sy1 = kgroups.theta_map(y)
        ts0, ts1 = kgroups.theta_map(x + y)
        assert ts0 == sx0 + sy0
        assert ts1 == sx1 + sy1
        # a direct sum of two full-support operands is of full support
        full = [f for f in (u1, v1, u2, v2)
                if eqv.proj_invariant(model.abs_value(f))[0]]
        for a, b in zip(full, full[1:]):
            assert (kgroups.k_class(algebra.direct_sum(a, b))
                    == kgroups.k_class(a) + kgroups.k_class(b))


@pytest.mark.parametrize("alg", CIRCLE_FRAGMENT, ids=("dim1", "dim2"))
def test_theta_k1_part_is_the_winding_on_the_circle_fragment(alg):
    rng = rand.stream(316, 0)
    for _ in range(8):
        u, w = fragment_partial_unitary(rng, alg)
        z = algebra.zero(alg, u.row_level)
        k0_part, k1_part = kgroups.theta_map(kgroups.k_pair_class(u, z))
        assert k0_part.normal_form == eqv.proj_invariant(model.abs_value(u))
        assert k1_part.normal_form == (w,)


def test_theta_surjectivity_recipe_circle():
    alg = CIRCLE_FRAGMENT[0]
    for c in range(-4, 5):
        target = kgroups.KClass(kgroups.K0, alg, (c,))
        v, p = kgroups.theta_surjectivity_witness(target)
        k0_part, k1_part = kgroups.theta_map(kgroups.k_pair_class(v, p))
        assert k0_part == target
        assert k1_part.normal_form == (0,)


def test_k_class_decomposes_in_its_own_memo_scope(monkeypatch):
    # |v| is needed by the partial-unitary check, the projection check and
    # the rank: without a caller's scope, k_class makes the 10 eigensolves
    # (5 per fd block) of a run inside one, not 16
    fd12 = algebra.AlgebraSpec.fd([1, 2])
    v = rand.partial_unitary(rand.stream(1, 0), fd12, 1, [1, 1])
    seen = []
    exact = kgroups.model.kernel.eig_stack

    def counted(A):
        seen.append(len(A))
        return exact(A)

    monkeypatch.setattr(kgroups.model.kernel, "eig_stack", counted)
    x = kgroups.k_class(v)
    assert len(seen) == 10
    with model.memo_scope():
        assert kgroups.k_class(v) == x
    assert len(seen) == 20
    # a pair shares one scope: the second member's repeat is a memo hit
    assert kgroups.k_pair_class(v, v) == kgroups.KClass(kgroups.K, fd12,
                                                         (0, 0))
    assert len(seen) == 30


def test_theta_splits_by_the_class_algebra():
    # circle dim 2 grid 64: one summand, so the K0 part is the class's
    # first entry (support rank 2 at level 1) and the rest is the winding
    alg = CIRCLE_FRAGMENT[1]
    v = rand.partial_unitary(rand.stream(317, 0), alg, 1, [2], winding=-1)
    x = kgroups.k_class(v)
    assert x.normal_form == (2, -1)
    assert kgroups.theta_map(x) == (
        kgroups.KClass(kgroups.K0, alg, (2,)),
        kgroups.KClass(kgroups.K1, alg, (-1,)))


# -- decomposition constructions -------------------------------------------

def test_decompose_order_unit():
    e = algebra.order_unit(M2, 2)
    v1, v2 = kgroups.partial_unitary_decompose(e)
    assert model.distance(v1, e) <= 1e-9
    assert model.distance(v2, e) <= 1e-9


def test_decompose_zero():
    z = algebra.zero(M2, 2)
    e = algebra.order_unit(M2, 2)
    v1, v2 = kgroups.partial_unitary_decompose(z)
    assert model.distance(v1, -e) <= 1e-9
    assert model.distance(v2, e) <= 1e-9


def test_decompose_matrix_unit_projection():
    e11 = fd_element(M2, np.diag([1.0, 0.0]))
    v1, v2 = kgroups.partial_unitary_decompose(e11)
    assert np.allclose(v1.data[0], np.diag([1.0, -1.0]), atol=1e-9)
    assert np.allclose(v2.data[0], np.diag([1.0, 1.0]), atol=1e-9)


def test_decompose_random_partial_unitaries():
    rng = rand.stream(315, 0)
    for alg in (FD23, CIRCLE1):
        for _ in range(5):
            v = rand.partial_unitary(rng, alg, 2)
            v1, v2 = kgroups.partial_unitary_decompose(v)
            assert model.classify(v1).is_unitary
            assert model.classify(v2).is_unitary
            assert model.distance((v1 + v2).scale(0.5), v) <= 1e-9
            assert model.orthogonal(v1 - v2, v1 + v2, 1e-7)


def test_orthogonal_sum_of_unit():
    e = algebra.order_unit(M2, 1)
    out = kgroups.orthogonal_sum_unitary([e])
    assert model.distance(out, e) <= 1e-12


def test_orthogonal_sum_of_matrix_units_is_flip():
    e12 = fd_element(M2, [[0, 1], [0, 0]])
    e21 = fd_element(M2, [[0, 0], [1, 0]])
    out = kgroups.orthogonal_sum_unitary([e12, e21])
    assert np.allclose(out.data[0], np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert model.classify(out).is_unitary


def test_orthogonal_sum_rejects_incomplete_family():
    e12 = fd_element(M2, [[0, 1], [0, 0]])
    with pytest.raises(PreconditionFailure):
        kgroups.orthogonal_sum_unitary([e12])


def test_partial_unitary_characterization_both_directions():
    rng = rand.stream(316, 0)
    for _ in range(10):
        v = rand.partial_unitary(rng, FD23, 1)
        lhs, rhs = kgroups.partial_unitary_characterization(v)
        assert lhs and rhs
    # a partial isometry that is not partial unitary fails both sides
    e12 = fd_element(M2, [[0, 1], [0, 0]])
    lhs, rhs = kgroups.partial_unitary_characterization(e12)
    assert not lhs and not rhs
