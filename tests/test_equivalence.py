"""Tests for the equivalence decisions, certificates, and paths."""

import inspect
import json

import numpy as np
import pytest

from amok import (algebra, equivalence as eqv, kgroups, model, rand,
                  serialize, suites)
from amok.errors import (AlgebraMismatch, LevelMismatch, NoConvergence,
                         NotPartialUnitary, NotProjection, PredicateFailure,
                         PreconditionFailure, ShapeMismatch, SourceMismatch,
                         Unsupported)

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


def det_oracle(a):
    """Determinant by cofactor expansion (independent of the library
    and of numpy's LU-based det)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * a[0, j] * det_oracle(minor)
    return total


def degree_oracle(u):
    """Argument-principle winding of det(u(z)) over the sample loop."""
    dets = np.array([det_oracle(a) for a in u.data])
    phases = np.angle(dets)
    increments = np.diff(np.concatenate([phases, phases[:1]]))
    increments = (increments + np.pi) % (2 * np.pi) - np.pi
    total = increments.sum()
    w = total / (2 * np.pi)
    assert abs(w - round(w)) < 1e-6
    return int(round(w))


P10 = fd_element(M2, np.diag([1.0, 0.0]))
P01 = fd_element(M2, np.diag([0.0, 1.0]))
E = algebra.order_unit(M2, 1)
E2 = algebra.order_unit(M2, 2)


# -- projection equivalence ------------------------------------------------

def test_mvn_reflexive_with_self_witness():
    ok, cert = eqv.mvn_equivalent(P10, P10)
    assert ok
    assert cert.validate()
    assert model.distance(model.abs_value(cert.witness), P10) <= 1e-9


def test_mvn_rank_equal_projections():
    ok, cert = eqv.mvn_equivalent(P10, P01)
    assert ok
    assert cert.validate()
    # the witness is a matrix unit up to phase: |v| = p, |v*| = q
    assert model.distance(model.abs_value(cert.witness), P10) <= 1e-9
    assert model.distance(model.abs_value(cert.witness.adjoint()), P01) <= 1e-9


def test_mvn_rejects_operands_over_different_algebras():
    q = algebra.order_unit(algebra.AlgebraSpec.fd([3]), 1)
    with pytest.raises(AlgebraMismatch):
        eqv.mvn_equivalent(E, q)


FD12 = algebra.AlgebraSpec.fd([1, 2])
E12 = algebra.order_unit(FD12, 1)
# one operand pair per row: order units over different algebras, a
# rectangular operand, 2e (outside every predicate set), square operands
# at two different levels
OPERAND_ROWS = {
    "algebras": (E12, algebra.order_unit(algebra.AlgebraSpec.fd([3]), 1)),
    "rectangular": (algebra.zero(FD12, 1, 2), E12),
    "outside-domain": (E12.scale(2.0), E12),
    "levels": (E12, algebra.order_unit(FD12, 2)),
}
_NOT_PROJ = (NotProjection, "operand is not an order projection")
_NOT_UNIT = (PreconditionFailure, "operand fails the unitary predicate")
_NOT_PART = (NotPartialUnitary, "operand fails the partial-unitary predicate")
_UNIT_LEVELS = (LevelMismatch, "homotopy needs unitaries at one common level")
_PART_LEVELS = (LevelMismatch, "homotopy needs operands at one common level")
_DIFFERENT = (AlgebraMismatch, "operands live over different algebras")
# outcome per row: an (error class, message) pair, or the decision (the
# class for k_pair_class)
OPERAND_TABLE = {
    "mvn_equivalent": (_DIFFERENT, _NOT_PROJ, _NOT_PROJ, False),
    "stabilized_projection_equiv": (_DIFFERENT, _NOT_PROJ, _NOT_PROJ, False),
    "homotopic_unitaries": (_DIFFERENT, _UNIT_LEVELS, _NOT_UNIT, _UNIT_LEVELS),
    "homotopic_partial_unitaries": (_DIFFERENT, _PART_LEVELS, _NOT_PART,
                                    _PART_LEVELS),
    "sim1_equivalent": (_DIFFERENT, _NOT_UNIT, _NOT_UNIT, True),
    "approx1_equivalent": (_DIFFERENT, _NOT_UNIT, _NOT_UNIT, True),
    "simK_equivalent": (_DIFFERENT, _NOT_PART, _NOT_PART, False),
    "approxK_equivalent": (_DIFFERENT, _NOT_PART, _NOT_PART, False),
    "k_pair_class": (
        (AlgebraMismatch, "pair members live over different algebras"),
        (LevelMismatch, "partial unitarity is defined at square levels only"),
        _NOT_PART, kgroups.KClass(kgroups.K, FD12, (-1, -2))),
}


@pytest.mark.parametrize("decider", OPERAND_TABLE)
@pytest.mark.parametrize("row", OPERAND_ROWS)
def test_decider_operand_errors(decider, row):
    decide = getattr(kgroups if decider == "k_pair_class" else eqv, decider)
    want = OPERAND_TABLE[decider][list(OPERAND_ROWS).index(row)]
    if isinstance(want, tuple):
        error, message = want
        with pytest.raises(error) as info:
            decide(*OPERAND_ROWS[row])
        assert type(info.value) is error
        assert str(info.value) == message
    elif decider == "k_pair_class":
        assert decide(*OPERAND_ROWS[row]) == want
    else:
        assert decide(*OPERAND_ROWS[row])[0] is want


def test_mvn_rank_distinct_is_false():
    ok, cert = eqv.mvn_equivalent(P10, E)
    assert not ok
    assert cert is None
    # independent rank oracle agrees
    assert np.linalg.matrix_rank(P10.data[0]) != np.linalg.matrix_rank(E.data[0])


def test_mvn_random_conjugates_always_equivalent():
    rng = rand.stream(200, 0)
    for alg in (FD23, CIRCLE1):
        for _ in range(5):
            p = rand.projection(rng, alg, 2)
            q = rand.projection(rng, alg, 2)
            ok, cert = eqv.mvn_equivalent(p, q)
            want = eqv.proj_invariant(p) == eqv.proj_invariant(q)
            assert ok == want
            if ok:
                assert cert.validate()


def test_stabilized_equiv_matches_and_pads():
    z = algebra.zero(M2, 1)
    ok, cert = eqv.stabilized_projection_equiv(P10, algebra.direct_sum(P10, z))
    assert ok and cert.validate()
    ok, cert = eqv.stabilized_projection_equiv(P10, P01)
    assert ok and cert.validate()
    ok, cert = eqv.stabilized_projection_equiv(P10, E)
    assert not ok and cert is None


def test_mvn_compatibility_with_sums():
    rng = rand.stream(201, 0)
    p = rand.projection(rng, M2, 1, ranks=[1])
    q = rand.projection(rng, M2, 1, ranks=[1])
    ok, cert = eqv.mvn_equivalent(algebra.direct_sum(p, q),
                                  algebra.direct_sum(q, p))
    assert ok and cert.validate()


def test_orthogonal_projection_sum_equivalent_to_direct_sum():
    p = P10
    q = P01
    assert model.orthogonal(p, q)
    s = p + q
    ok, cert = eqv.mvn_equivalent(s, algebra.direct_sum(p, q))
    assert ok and cert.validate()


# -- condition (T) transport -----------------------------------------------

def make_cert(v):
    return eqv.PartialIsometryCertificate(
        witness=v, source=model.abs_value(v),
        target=model.abs_value(v.adjoint()))


def test_transport_of_self():
    e12 = fd_element(M2, [[0, 1], [0, 0]])
    u = make_cert(e12)
    w = eqv.condition_T_transport(u, u)
    assert w.validate()
    target = model.abs_value(e12.adjoint())
    assert model.distance(model.abs_value(w.witness), target) <= 1e-9
    assert model.distance(model.abs_value(w.witness.adjoint()), target) <= 1e-9


def test_transport_matrix_unit_with_source_projection():
    e12 = fd_element(M2, [[0, 1], [0, 0]])
    u = make_cert(e12)
    v = make_cert(P01)  # |q| = |q*| = q = source of e12
    w = eqv.condition_T_transport(u, v)
    assert w.validate()
    assert model.distance(model.abs_value(w.witness.adjoint()),
                          model.abs_value(e12.adjoint())) <= 1e-9


def test_transport_random_shared_source():
    rng = rand.stream(202, 0)
    for alg in (FD23, CIRCLE1):
        for _ in range(5):
            p = rand.projection(rng, alg, 2)
            a = rand.unitary(rng, alg, 2).matmul(p)
            b = rand.unitary(rng, alg, 2).matmul(p)
            w = eqv.condition_T_transport(make_cert(a), make_cert(b))
            assert w.validate()


def test_transport_rejects_mismatched_sources():
    u = make_cert(P10)
    v = make_cert(P01)
    with pytest.raises(SourceMismatch):
        eqv.condition_T_transport(u, v)


# -- unitary homotopy ------------------------------------------------------

def test_homotopic_to_self_constant_invariants():
    rng = rand.stream(203, 0)
    for alg in (M2, CIRCLE1):
        u = rand.unitary(rng, alg, 2)
        ok, path = eqv.homotopic_unitaries(u, u)
        assert ok
        assert path.validate()
        assert model.distance(path.start, u) <= 1e-9
        assert model.distance(path.end, u) <= 1e-9


def test_fd_unitaries_always_homotopic():
    minus = fd_element(M2, np.diag([-1.0, -1.0]))
    ok, path = eqv.homotopic_unitaries(E, minus)
    assert ok
    assert len(path.samples) == eqv.PATH_SAMPLES
    path.validate_strict()
    assert model.distance(path.start, E) <= 1e-8
    assert model.distance(path.end, minus) <= 1e-8


def test_fd_unitary_path_ends_exactly_at_its_endpoints():
    rng = rand.stream(212, 0)
    u = rand.unitary(rng, FD23, 1)
    v = rand.unitary(rng, FD23, 1)
    ok, path = eqv.homotopic_unitaries(u, v)
    assert ok
    for end, want in ((path.start, u), (path.end, v)):
        assert all(np.array_equal(a, b) for a, b in zip(end.data, want.data))


def test_circle_winding_separates_classes():
    z = algebra.circle_function(CIRCLE1, 1, 1,
                                lambda z: np.array([[z]], dtype=complex))
    one = algebra.order_unit(CIRCLE1, 1)
    ok, path = eqv.homotopic_unitaries(z, one)
    assert not ok and path is None
    assert degree_oracle(z) == 1
    assert degree_oracle(one) == 0
    assert eqv.k1_invariant(z) == (1,)
    assert eqv.k1_invariant(one) == (0,)


def test_winding_matches_oracle_on_twisted_unitaries():
    rng = rand.stream(204, 0)
    for w in (-2, -1, 0, 1, 2):
        u = rand.unitary(rng, CIRCLE1, 2, winding=w)
        assert eqv.k1_invariant(u) == (w,)
        assert degree_oracle(u) == w


def diagonal_loop(powers, grid=64, seed=0):
    """diag(z^a, z^b, ...) at every grid point z, conjugated by a constant
    unitary: a loop of known degree a + b + ..., on circle dim len(powers)."""
    alg = algebra.AlgebraSpec.circle(len(powers), grid)
    rng = np.random.default_rng(seed)
    c, _ = np.linalg.qr(rng.standard_normal((len(powers),) * 2)
                        + 1j * rng.standard_normal((len(powers),) * 2))
    return algebra.circle_function(
        alg, 1, 1, lambda z: c @ np.diag([z ** k for k in powers]) @ c.conj().T)


@pytest.mark.parametrize("powers", [(1, -3), (16, 16), (16, -16), (5, 11),
                                    (16, 16, 16), (-16, 0, 0), (9, -4, 16)])
def test_k1_invariant_is_the_degree_of_known_loops(powers):
    # entries of degree up to grid/4: determinant steps reach 3*pi/2, and
    # the degree is still the sum of the entries' degrees
    u = diagonal_loop(powers)
    assert eqv.k1_invariant(u) == (sum(powers),)


def test_k1_invariant_separates_degrees_the_determinant_step_confuses():
    u, v = diagonal_loop((16, 16, 16)), diagonal_loop((-16, 0, 0))
    assert eqv.k1_invariant(u) + eqv.k1_invariant(v) == (48, -16)
    assert eqv.homotopic_unitaries(u, v) == (False, None)
    assert eqv.k1_invariant(diagonal_loop((16, 16))) == (32,)


def test_k1_invariant_refuses_a_step_with_eigenvalue_minus_one():
    # z^2 on a grid of 4 points alternates 1, -1: no shortest geodesic
    # joins neighbouring samples, so the loop is not defined
    with pytest.raises(Unsupported):
        eqv.k1_invariant(diagonal_loop((2,), grid=4))


def test_k1_invariant_diagonalizes_no_step_of_generated_unitaries(monkeypatch):
    # generated fields vary slowly: the Frobenius screen clears every step
    rng = rand.stream(224, 0)
    u = rand.unitary(rng, algebra.AlgebraSpec.circle(2, 64), 2, winding=2)
    seen = counting_kernel_calls(monkeypatch, "eig_stack")
    assert eqv.k1_invariant(u) == (2,)
    assert seen == []


def test_k1_invariant_is_empty_over_fd_blocks():
    rng = rand.stream(215, 0)
    for alg in (M2, FD23):
        u = rand.unitary(rng, alg, 2)
        assert eqv.k1_invariant(u) == ()


def test_decided_ranks_asks_only_the_fd_blocks_in_summand_order():
    asked = []

    def rank_of(d):
        asked.append(d)
        return d - 1

    assert eqv.decided_ranks(FD23, rank_of) == [1, 2]
    assert asked == [2, 3]
    # a grid decides no mixed rank: full support, and rank_of is not called
    assert eqv.decided_ranks(CIRCLE1, rank_of) == [1]
    assert asked == [2, 3]


def test_circle_equal_winding_gives_validated_path():
    rng = rand.stream(205, 0)
    u = rand.unitary(rng, CIRCLE1, 2, winding=1)
    v = rand.unitary(rng, CIRCLE1, 2, winding=1)
    ok, path = eqv.homotopic_unitaries(u, v)
    assert ok
    path.validate_strict()
    assert model.distance(path.start, u) <= 1e-8
    assert model.distance(path.end, v) <= 1e-8


def test_circle_full_support_simk_validates_its_path_once(monkeypatch):
    validated = []
    validate_strict = eqv.HomotopyPath.validate_strict

    def counting(path, *args, **kwargs):
        validated.append(path)
        return validate_strict(path, *args, **kwargs)

    monkeypatch.setattr(eqv.HomotopyPath, "validate_strict", counting)
    circle16 = algebra.AlgebraSpec.circle(1, 16)
    rng = rand.stream(206, 0)
    u = rand.unitary(rng, circle16, 1, winding=1)
    v = rand.unitary(rng, circle16, 1, winding=1)
    ok, path = eqv.simK_equivalent(u, v)
    assert ok and path.relation_domain == eqv.PARTIAL_UNITARY_SET
    assert validated == [path]


# -- padded / stabilized unitary relations ---------------------------------

def test_sim1_absorbs_order_unit():
    rng = rand.stream(206, 0)
    for alg in (M2, CIRCLE1):
        u = rand.unitary(rng, alg, 1)
        padded = algebra.direct_sum(u, algebra.order_unit(alg, 1))
        ok, _ = eqv.sim1_equivalent(u, padded)
        assert ok


def test_sim1_swaps_summands():
    rng = rand.stream(207, 0)
    u = rand.unitary(rng, M2, 1)
    v = rand.unitary(rng, M2, 1)
    ok, _ = eqv.sim1_equivalent(algebra.direct_sum(u, v),
                                algebra.direct_sum(v, u))
    assert ok


def test_sim1_circle_winding_distinct():
    z1 = algebra.circle_function(CIRCLE1, 1, 1,
                                 lambda z: np.array([[z]], dtype=complex))
    z2 = algebra.circle_function(CIRCLE1, 1, 1,
                                 lambda z: np.array([[z * z]], dtype=complex))
    ok, _ = eqv.sim1_equivalent(z1, z2)
    assert not ok


def test_approx1_matches_sim1_and_padding():
    rng = rand.stream(208, 0)
    for alg in (M2, CIRCLE1):
        for t in range(5):
            u = rand.unitary(rand.stream(208, 2 * t), alg, 1)
            v = rand.unitary(rand.stream(208, 2 * t + 1), alg, 1)
            w = rand.unitary(rng, alg, 2)
            lhs, _ = eqv.sim1_equivalent(algebra.direct_sum(u, w),
                                         algebra.direct_sum(v, w))
            rhs, _ = eqv.approx1_equivalent(u, v)
            assert lhs == rhs
        u = rand.unitary(rng, alg, 1)
        ok, _ = eqv.approx1_equivalent(
            u, algebra.direct_sum(u, algebra.order_unit(alg, 1)))
        assert ok


# -- partial-unitary homotopy ----------------------------------------------

def test_zero_homotopic_to_zero():
    z = algebra.zero(M2, 2)
    ok, path = eqv.homotopic_partial_unitaries(z, z)
    assert ok
    path.validate_strict()
    for s in path.samples:
        assert model.distance(s, z) <= 1e-9


@pytest.mark.parametrize("dim", [1, 2])
def test_circle_zero_takes_the_constant_path(dim):
    # rank 0 on the grid summand: the path is constant, not a log path
    circle16 = algebra.AlgebraSpec.circle(dim, 16)
    z = algebra.zero(circle16, 1)
    ok, path = eqv.homotopic_partial_unitaries(z, z)
    assert ok and path.relation_domain == eqv.PARTIAL_UNITARY_SET
    assert len(path.samples) == eqv.PATH_SAMPLES == 129
    path.validate_strict()
    assert eqv.simK_equivalent(z, algebra.zero(circle16, 2))[0]
    assert kgroups.k_class(z).normal_form == (0, 0)
    u = rand.unitary(rand.stream(213, dim), circle16, 1, winding=1)
    assert kgroups.k_pair_class(z, u) == -kgroups.k_class(u)
    assert kgroups.k_class(u).normal_form == (dim, 1)


def test_flip_homotopic_to_unit():
    flip = fd_element(M2, [[0, 1], [1, 0]])
    assert model.classify(flip).is_partial_unitary
    ok, path = eqv.homotopic_partial_unitaries(flip, E)
    assert ok
    path.validate_strict()
    assert model.distance(path.start, flip) <= 1e-8
    assert model.distance(path.end, E) <= 1e-8


def test_rank_distinct_partial_unitaries_not_homotopic():
    e11 = fd_element(M2, np.diag([1.0, 0.0]))
    ok, path = eqv.homotopic_partial_unitaries(e11, E)
    assert not ok and path is None


def test_fd_random_equal_rank_partial_unitaries():
    for t in range(5):
        rng = rand.stream(209, t)
        ranks = [int(rng.integers(0, 5)), int(rng.integers(0, 7))]
        u = rand.partial_unitary(rng, FD23, 2, ranks=ranks)
        v = rand.partial_unitary(rng, FD23, 2, ranks=ranks)
        ok, path = eqv.homotopic_partial_unitaries(u, v)
        assert ok
        path.validate_strict()
        assert model.distance(path.start, u) <= 1e-8
        assert model.distance(path.end, v) <= 1e-8


def test_circle_mixed_rank_unsupported():
    rng = rand.stream(210, 0)
    u = rand.partial_unitary(rng, CIRCLE1, 2, ranks=[1])
    v = rand.partial_unitary(rng, CIRCLE1, 2, ranks=[1])
    with pytest.raises(Unsupported):
        eqv.homotopic_partial_unitaries(u, v)


def test_simk_absorbs_zero_padding():
    rng = rand.stream(211, 0)
    u = rand.partial_unitary(rng, M2, 1)
    ok, _ = eqv.simK_equivalent(u, algebra.direct_sum(u, algebra.zero(M2, 1)))
    assert ok


def test_simk_swaps_summands():
    rng = rand.stream(212, 0)
    u = rand.partial_unitary(rng, M2, 1)
    v = rand.partial_unitary(rng, M2, 1)
    ok, _ = eqv.simK_equivalent(algebra.direct_sum(u, v),
                                algebra.direct_sum(v, u))
    assert ok


def test_simk_rank_distinct_false():
    e11 = fd_element(M2, np.diag([1.0, 0.0]))
    ok, _ = eqv.simK_equivalent(e11, algebra.direct_sum(e11, e11))
    assert not ok


def test_approxk_matches_simk():
    for t in range(5):
        rng = rand.stream(213, t)
        u = rand.partial_unitary(rng, FD23, 1)
        v = rand.partial_unitary(rng, FD23, 1)
        w = rand.partial_unitary(rng, FD23, 1)
        lhs, _ = eqv.simK_equivalent(algebra.direct_sum(u, w),
                                     algebra.direct_sum(v, w))
        rhs, _ = eqv.approxK_equivalent(u, v)
        assert lhs == rhs
    rng = rand.stream(213, 100)
    u = rand.partial_unitary(rng, M2, 1)
    ok, _ = eqv.approxK_equivalent(u, algebra.direct_sum(u, algebra.zero(M2, 1)))
    assert ok


# -- equivalence-relation laws and cancellation ----------------------------

def test_relation_laws_on_random_triples():
    for t in range(3):
        rng = rand.stream(214, t)
        us = [rand.unitary(rng, FD23, 1) for _ in range(3)]
        for u in us:
            ok, _ = eqv.sim1_equivalent(u, u)
            assert ok
        ab, _ = eqv.sim1_equivalent(us[0], us[1])
        ba, _ = eqv.sim1_equivalent(us[1], us[0])
        assert ab == ba
        bc, _ = eqv.sim1_equivalent(us[1], us[2])
        ac, _ = eqv.sim1_equivalent(us[0], us[2])
        if ab and bc:
            assert ac
        vs = [rand.partial_unitary(rng, FD23, 1) for _ in range(3)]
        for v in vs:
            ok, _ = eqv.simK_equivalent(v, v)
            assert ok
        ab, _ = eqv.simK_equivalent(vs[0], vs[1])
        ba, _ = eqv.simK_equivalent(vs[1], vs[0])
        assert ab == ba


def test_invariant_cancellation():
    for t in range(10):
        rng = rand.stream(215, t)
        u = rand.partial_unitary(rng, FD23, 1)
        v = rand.partial_unitary(rng, FD23, 1)
        w = rand.partial_unitary(rng, FD23, 1)
        sums_equal = (eqv.support_invariant(algebra.direct_sum(u, w))
                      == eqv.support_invariant(algebra.direct_sum(v, w)))
        parts_equal = eqv.support_invariant(u) == eqv.support_invariant(v)
        assert sums_equal == parts_equal


def test_cancellation_trial_whose_decider_raises_is_a_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NoConvergence("LAPACK eigh failed")

    monkeypatch.setattr(eqv, "simK_equivalent", no_convergence)
    cfg = suites.RunConfig(trials=5)
    results = suites.run_properties(
        cfg, suites._equivalence_properties(FD23, cfg))
    result, = [r for r in results if r.name == "simK-cancellation"]
    assert not result.passed
    assert len(result.failures) == result.trials
    assert all(f["error"] == "NoConvergence: LAPACK eigh failed"
               for f in result.failures)


def test_check_axioms_passes_its_tolerances_to_every_check(monkeypatch):
    # one worker: calls made in forked workers are not recorded here
    monkeypatch.setattr(suites, "usable_cpus", lambda: 1)
    seen = []

    def recording(fn, tol_name):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((fn.__name__, bound.arguments[tol_name]))
            return fn(*args, **kwargs)
        return wrapper

    for name in dir(model):
        if name.startswith(("is_", "orthogonal")):
            monkeypatch.setattr(model, name,
                                recording(getattr(model, name), "tol"))
    monkeypatch.setattr(eqv.HomotopyPath, "validate_strict", recording(
        eqv.HomotopyPath.validate_strict, "tol_path"))
    cfg = suites.RunConfig(trials=2, tol_pred=2e-9, tol_path=2e-8)
    suites.check_axioms(FD12, cfg)
    assert {"is_order_projection", "is_unitary", "is_partial_unitary",
            "orthogonal", "orthogonal_infty", "validate_strict"} <= {
        name for name, _ in seen}
    wrong = {(name, tol) for name, tol in seen
             if tol != (cfg.tol_path if name == "validate_strict"
                        else cfg.tol_pred)}
    assert not wrong


# -- derived paths ---------------------------------------------------------

def test_transfer_of_constant_path():
    rng = rand.stream(216, 0)
    u = rand.partial_unitary(rng, M2, 2)
    path = eqv.HomotopyPath(samples=(u, u, u),
                            relation_domain=eqv.PARTIAL_UNITARY_SET)
    proj_path, (plus_path, minus_path) = eqv.abs_homotopy_transfer(path)
    a = model.abs_value(u)
    for s in proj_path.samples:
        assert model.distance(s, a) <= 1e-9
    e = algebra.order_unit(M2, 2)
    for s in plus_path.samples:
        assert model.distance(s, u + (e - a)) <= 1e-9
    for s in minus_path.samples:
        assert model.distance(s, u - (e - a)) <= 1e-9


def test_transfer_of_partial_unitary_path():
    rng = rand.stream(217, 0)
    u = rand.partial_unitary(rng, FD23, 1, ranks=[1, 2])
    v = rand.partial_unitary(rng, FD23, 1, ranks=[1, 2])
    ok, path = eqv.homotopic_partial_unitaries(u, v)
    assert ok
    proj_path, (plus_path, minus_path) = eqv.abs_homotopy_transfer(path)
    # projection path keeps the rank constant at every sample
    start_inv = eqv.proj_invariant(proj_path.samples[0])
    for s in proj_path.samples:
        assert eqv.proj_invariant(s) == start_inv
    # derived unitary paths pass their predicate everywhere
    for p in (plus_path, minus_path):
        for s in p.samples[:: max(1, len(p.samples) // 8)]:
            assert model.is_unitary(s, 1e-7)


def test_serialized_step_bound_revalidates_transferred_path():
    # coarse loop exp(i*pi*k/8) e: steps of 2 sin(pi/16) ~ 0.39 exceed
    # the default bound, so only the serialized bound validates them
    phases = np.exp(1j * np.pi * np.arange(9) / 8)
    path = eqv.HomotopyPath(samples=tuple(E.scale(z) for z in phases),
                            relation_domain=eqv.PARTIAL_UNITARY_SET,
                            step_bound=0.4)
    _, (plus_path, _) = eqv.abs_homotopy_transfer(path)
    obj = json.loads(serialize.dumps_canonical(
        serialize.path_to_json(plus_path)))
    assert obj["step_bound"] == 3 * 0.4
    samples = tuple(serialize.parse_element(s) for s in obj["samples"])
    back = eqv.HomotopyPath(samples=samples,
                            relation_domain=obj["relation_domain"],
                            step_bound=obj["step_bound"])
    back.validate_strict()
    with pytest.raises(PredicateFailure):
        eqv.HomotopyPath(samples=samples,
                         relation_domain=obj["relation_domain"]).validate_strict()


@pytest.mark.parametrize("domain, start, bound", [
    (eqv.PROJECTION_SET, P10, 1.0),          # ranks 1 and 2
    (eqv.PARTIAL_UNITARY_SET, algebra.zero(M2, 1), 1.0),  # supports 0, 2
    (eqv.PROJECTION_SET, P10, float("nan")),  # steps > nan never holds
    (eqv.PROJECTION_SET, P10, 0.0),
    (eqv.UNITARY_SET, E, -1.0),
])
def test_step_bound_outside_its_ceiling_is_refused(domain, start, bound):
    # every sample passes its predicate; only the bound is wrong
    path = eqv.HomotopyPath(samples=(start, E), relation_domain=domain,
                            step_bound=bound)
    with pytest.raises(PreconditionFailure, match="step bound"):
        path.validate_strict()
    with pytest.raises(PreconditionFailure, match="step bound"):
        path.validate()


def test_step_bound_ceiling_counts_tol_path():
    u = fd_element(M2, np.diag([1.0, 0.0]))
    ok, path = eqv.homotopic_partial_unitaries(u, u)
    assert ok and path.step_bound == eqv.STEP_BOUND
    path.validate_strict(0.29)
    with pytest.raises(PreconditionFailure, match="partial_unitary ceiling"):
        path.validate_strict(0.3)
    # a bound below the ceiling leaves the steps to be checked
    jump = eqv.HomotopyPath(samples=(P10, E), relation_domain=eqv.PROJECTION_SET,
                            step_bound=0.9)
    with pytest.raises(PredicateFailure, match="step 0->1"):
        jump.validate_strict()
    # unitary paths have no ceiling
    eqv.HomotopyPath(samples=(E, E.scale(-1.0)), relation_domain=eqv.UNITARY_SET,
                     step_bound=5.0).validate_strict()


def test_path_validator_catches_bad_samples():
    rng = rand.stream(218, 0)
    u = rand.unitary(rng, M2, 1)
    broken = eqv.HomotopyPath(samples=(u, u.scale(2.0), u),
                              relation_domain=eqv.UNITARY_SET)
    with pytest.raises(PredicateFailure):
        broken.validate_strict()
    assert not broken.validate()


def test_path_of_one_nan_sample_fails_validation():
    nan = fd_element(M2, np.full((2, 2), np.nan))
    path = eqv.HomotopyPath(samples=(nan,), relation_domain=eqv.UNITARY_SET)
    assert not path.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_sample_fails_its_predicate_without_an_svd(monkeypatch,
                                                              value):
    bad = fd_element(M2, np.full((2, 2), value))
    path = eqv.HomotopyPath(samples=(E, bad, E),
                            relation_domain=eqv.UNITARY_SET)
    seen = counting_kernel_calls(monkeypatch, "spectral_norms_per_entry")
    with pytest.raises(PredicateFailure) as info:
        path.validate_strict()
    assert info.value.index == 1
    assert str(info.value) == "sample 1 fails the unitary predicate"
    assert seen == []


def counting_kernel_calls(monkeypatch, name):
    """Record the number of stack entries of each call to kernel.<name>."""
    seen = []
    exact = getattr(eqv.kernel, name)

    def counted(A):
        seen.append(len(A))
        return exact(A)

    monkeypatch.setattr(eqv.kernel, name, counted)
    return seen


def test_step_screen_passes_steps_within_the_operator_bound(monkeypatch):
    # scalar steps of operator norm 0.15 have Frobenius norm 0.15 * sqrt(2)
    # ~ 0.212 > 0.2: the screen must measure them, not reject them
    delta = 2 * np.arcsin(0.075)
    path = eqv.HomotopyPath(
        samples=tuple(E.scale(np.exp(1j * k * delta)) for k in range(12)),
        relation_domain=eqv.UNITARY_SET)
    seen = counting_kernel_calls(monkeypatch, "spectral_norms_per_entry")
    path.validate_strict()
    assert seen == [11]


def test_step_screen_keeps_the_failing_step_and_its_size():
    # the coarse loop of test_serialized_step_bound_revalidates_transferred_path,
    # at the default bound
    phases = np.exp(1j * np.pi * np.arange(9) / 8)
    path = eqv.HomotopyPath(samples=tuple(E.scale(z) for z in phases),
                            relation_domain=eqv.PARTIAL_UNITARY_SET)
    with pytest.raises(PredicateFailure) as info:
        path.validate_strict()
    assert info.value.index == 0
    assert str(info.value) == "step 0->1 has size 3.902e-01"


def test_circle_witness_path_validates_without_svd(monkeypatch):
    circle2 = algebra.AlgebraSpec.circle(2, 64)
    rng = rand.stream(220, 0)
    u = rand.unitary(rng, circle2, 1, winding=1)
    v = rand.unitary(rng, circle2, 1, winding=1)
    ok, path = eqv.homotopic_unitaries(u, v)
    assert ok
    seen = counting_kernel_calls(monkeypatch, "spectral_norms_per_entry")
    path.validate_strict()
    assert seen == []
    # flipping the sign of one sample keeps it unitary and makes the
    # step into it about 2 at every grid point
    t = 70
    stacks = [s.copy() for s in path.stacks]
    stacks[0][t] *= -1
    broken = eqv.HomotopyPath(stacks, path.relation_domain, path.step_bound,
                              like=u)
    size = np.max(np.linalg.svd(stacks[0][t] - stacks[0][t - 1],
                                compute_uv=False)[:, 0])
    with pytest.raises(PredicateFailure) as info:
        broken.validate_strict()
    assert info.value.index == t - 1
    assert str(info.value) == f"step {t - 1}->{t} has size {size:.3e}"
    assert seen == [2 * 64]


@pytest.mark.parametrize("decider, draw, eigs, norms", [
    (eqv.mvn_equivalent,
     lambda rng: rand.projection(rng, FD12, 1, [1, 1]), 12, 4),
    (eqv.sim1_equivalent, lambda rng: rand.unitary(rng, FD12, 1), 11, 8),
    (eqv.simK_equivalent,
     lambda rng: rand.partial_unitary(rng, FD12, 1, [1, 1]), 16, 4),
], ids=["mvn", "sim1", "simK"])
def test_each_operand_is_checked_and_decomposed_once(monkeypatch, decider,
                                                     draw, eigs, norms):
    # fd [1,2] has two summands, so each solve below is two kernel calls.
    # mvn: one spectrum of each operand serves its predicate, rank and
    # range basis; the certificate check takes |v| and |v*| (one square
    # root each) and the spectrum of each, then two distances.
    # sim1: |x| and |x*| of each padded operand (four square roots and
    # four distances to e), one log path (one more eigensolve for the
    # eigenvalue cluster of the order-unit padding).
    # simK: |x| and |x*| of each operand, the spectrum of |x| for its
    # predicate, rank and support basis, and the distance |x| to |x*|;
    # then the two stages of the path, one log path each.
    rng = rand.stream(223, 0)
    u, v = draw(rng), draw(rng)
    seen = counting_kernel_calls(monkeypatch, "eig_stack")
    seen_norms = counting_kernel_calls(monkeypatch, "spectral_norms_per_entry")
    with model.memo_scope():
        assert decider(u, v)[0]
    assert (len(seen), len(seen_norms)) == (eigs, norms)


def library_paths():
    """Paths from each stack-building decider, with their endpoints."""
    rng = rand.stream(219, 0)
    out = []
    for alg, kw in ((FD23, {}), (CIRCLE1, {"winding": 1})):
        u = rand.unitary(rng, alg, 2, **kw)
        v = rand.unitary(rng, alg, 2, **kw)
        ok, path = eqv.homotopic_unitaries(u, v)
        assert ok
        out.append((path, u, v))
    u = rand.partial_unitary(rng, FD23, 2, ranks=[1, 4])
    v = rand.partial_unitary(rng, FD23, 2, ranks=[1, 4])
    ok, path = eqv.homotopic_partial_unitaries(u, v)
    assert ok
    out.append((path, u, v))
    return out


def test_path_rebuilt_from_samples_round_trips():
    for path, u, v in library_paths():
        assert all(not s.flags.writeable for s in path.stacks)
        assert all(s.shape[0] == eqv.PATH_SAMPLES for s in path.stacks)
        for end, want in ((path.start, u), (path.end, v)):
            assert all(np.array_equal(a, b)
                       for a, b in zip(end.stacks, want.stacks))
        back = eqv.HomotopyPath(path.samples, path.relation_domain,
                                path.step_bound)
        back.validate_strict()
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.stacks, path.stacks))
        assert (serialize.dumps_canonical(serialize.path_to_json(back))
                == serialize.dumps_canonical(serialize.path_to_json(path)))
        # the written samples are the element objects of the samples
        obj = json.loads(serialize.dumps_canonical(
            serialize.path_to_json(path)))
        assert obj["samples"][57] == serialize.element_to_json(
            path.samples[57])


def test_stack_backed_path_reports_corrupted_sample():
    path, u, _ = library_paths()[0]
    stacks = [s.copy() for s in path.stacks]
    stacks[1][57] *= 1.5
    broken = eqv.HomotopyPath(stacks, path.relation_domain, like=u)
    with pytest.raises(PredicateFailure) as exc:
        broken.validate_strict()
    assert exc.value.index == 57
    assert not broken.validate()


def test_path_rejects_samples_of_different_shapes():
    with pytest.raises(ShapeMismatch):
        eqv.HomotopyPath((E, E2), eqv.UNITARY_SET)
    with pytest.raises(ShapeMismatch):
        eqv.HomotopyPath((), eqv.UNITARY_SET)
    with pytest.raises(ShapeMismatch):
        eqv.HomotopyPath(E2.stacks, eqv.UNITARY_SET, like=E2)


def test_path_rejects_an_unknown_relation_domain():
    with pytest.raises(PreconditionFailure, match="unknown relation domain"):
        eqv.HomotopyPath((E, E), "unitaries")
    with pytest.raises(PreconditionFailure, match="unknown relation domain"):
        eqv.HomotopyPath(tuple(s[None] for s in E.stacks), "unitaries",
                         like=E)
