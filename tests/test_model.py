"""Tests for absolute values, norms, predicates, and orthogonality."""

import json
from collections import Counter

import numpy as np
import pytest

from amok import algebra, kernel, model, morphisms, rand, serialize
from amok.errors import (AlgebraMismatch, InputError, PreconditionFailure,
                         ShapeMismatch, SpecParseError, ZeroOperand)

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


def sqrt_oracle(M):
    """Independent matrix square root through numpy's eigh."""
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return (V * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ V.conj().T


def power_norm_oracle(v):
    """Largest singular value of any component, by power iteration."""
    best = 0.0
    for a in v.data:
        if a.size == 0:
            continue
        G = a.conj().T @ a
        x = np.ones(G.shape[0], dtype=complex)
        x /= np.linalg.norm(x)
        for _ in range(500):
            y = G @ x
            norm = np.linalg.norm(y)
            if norm == 0.0:
                break
            x = y / norm
        best = max(best, float(np.sqrt(np.real(x.conj() @ G @ x))))
    return best


E12 = fd_element(M2, [[0, 1], [0, 0]])


# -- absolute value --------------------------------------------------------

def test_abs_zero():
    z = algebra.zero(M2, 1)
    assert model.distance(model.abs_value(z), z) <= model.TOL_PRED


def test_abs_unitary_is_order_unit():
    rng = rand.stream(100, 0)
    for alg in (M2, FD23, CIRCLE1):
        u = rand.unitary(rng, alg, 2)
        e = algebra.order_unit(alg, 2)
        assert model.distance(model.abs_value(u), e) <= 1e-9


def test_abs_matrix_unit():
    a = model.abs_value(E12)
    astar = model.abs_value(E12.adjoint())
    assert np.allclose(a.data[0], np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(astar.data[0], np.diag([1.0, 0.0]), atol=1e-12)
    # independent multiply-and-sqrt oracle
    m = E12.data[0]
    assert np.allclose(a.data[0], sqrt_oracle(m.conj().T @ m), atol=1e-12)
    assert np.allclose(astar.data[0], sqrt_oracle(m @ m.conj().T), atol=1e-12)


def test_abs_matches_oracle_random():
    rng = rand.stream(101, 0)
    for alg in (FD23, CIRCLE1):
        for _ in range(10):
            v = rand.element(rng, alg, 2, 3)
            a = model.abs_value(v)
            for got, mat in zip(a.data, v.data):
                want = sqrt_oracle(mat.conj().T @ mat)
                # rectangular v gives a rank-deficient Gram matrix; the
                # square root is Holder-1/2 at zero eigenvalues, so the
                # two solvers can differ by ~sqrt(machine epsilon) there
                assert np.max(np.abs(got - want)) <= 1e-7 * (1 + np.abs(want).max())


def test_abs_idempotent_on_positives():
    rng = rand.stream(102, 0)
    for alg in (M2, CIRCLE1):
        p = rand.positive(rng, alg, 2)
        a = model.abs_value(p)
        assert model.distance(model.abs_value(a), a) <= 1e-9


# -- order-unit norm -------------------------------------------------------

def test_order_unit_is_built_once_per_level():
    for alg in (FD23, CIRCLE1):
        e = algebra.order_unit(alg, 2)
        assert algebra.order_unit(alg, 2) is e
        assert algebra.order_unit(alg, 1) is not e
        assert not any(a.flags.writeable for a in e.stacks)


def test_norm_of_order_unit():
    for alg in (M2, FD23, CIRCLE1):
        e = algebra.order_unit(alg, 2)
        assert abs(model.order_unit_norm(e) - 1.0) <= 10 * model.TOL_BISECT


def test_norm_direct_sum_max():
    rng = rand.stream(103, 0)
    for alg in (FD23, CIRCLE1):
        u = rand.element(rng, alg, 1, 1)
        w = rand.element(rng, alg, 2, 2)
        lhs = model.order_unit_norm(algebra.direct_sum(u, w))
        rhs = max(model.order_unit_norm(u), model.order_unit_norm(w))
        assert abs(lhs - rhs) <= 10 * model.TOL_BISECT


def test_norm_against_power_iteration():
    rng = rand.stream(104, 0)
    for alg in (M2, FD23, CIRCLE1):
        for _ in range(5):
            v = rand.element(rng, alg, 3, 3)
            got = model.order_unit_norm(v)
            want = power_norm_oracle(v)
            assert abs(got - want) <= 1e-7 * (1 + want)


def test_norm_rectangular_matches_adjoint():
    rng = rand.stream(105, 0)
    v = rand.element(rng, FD23, 2, 3)
    assert abs(model.order_unit_norm(v)
               - model.order_unit_norm(v.adjoint())) <= 10 * model.TOL_BISECT


def test_norm_bisection_stops_at_adjacent_floats():
    # float spacing at 1e8 is 1.5e-8, above the default tolerance; and
    # no spacing at 1 reaches 1e-300: the bisection stops when its
    # midpoint is no longer strictly between its bounds
    e = algebra.order_unit(M2, 1)
    assert model.order_unit_norm(e.scale(1e8)) == pytest.approx(1e8, rel=1e-12)
    assert model.order_unit_norm(e, 1e-300) == pytest.approx(1.0, rel=1e-12)


# -- positivity and classification ----------------------------------------

def test_is_positive_examples():
    e = algebra.order_unit(M2, 2)
    assert model.is_positive(e)
    assert not model.is_positive(-e)
    ones = fd_element(M2, np.ones((2, 2)))  # eigenvalues (0, 2)
    assert model.is_positive(ones)


def test_classify_order_unit():
    for alg in (M2, CIRCLE1):
        flags = model.classify(algebra.order_unit(alg, 2))
        assert flags.is_order_projection
        assert flags.is_unitary
        assert flags.is_partial_unitary
        assert flags.is_selfadjoint and flags.is_positive


def test_classify_half_unit_not_projection():
    v = algebra.order_unit(M2, 2).scale(0.5)
    assert not model.classify(v).is_order_projection


def test_classify_matrix_unit():
    flags = model.classify(E12)
    assert flags.is_partial_isometry
    assert not flags.is_partial_unitary
    assert not flags.is_unitary
    assert not flags.is_order_projection


def test_selfadjoint_sees_every_block_and_level_zero():
    fd12 = algebra.AlgebraSpec.fd([1, 2])
    h = np.array([[1.0, 2j], [-2j, 0.0]])
    assert model.is_selfadjoint(fd_element(fd12, np.eye(1), h))
    assert not model.is_selfadjoint(fd_element(fd12, np.eye(1), h + 1e-6j))
    # a NaN in a later block is seen, not masked by an earlier maximum
    nan = h.copy()
    nan[0, 1] = np.nan
    v = fd_element(fd12, np.eye(1), nan)
    assert np.isnan(v.max_abs())
    assert not model.is_selfadjoint(v)
    empty = algebra.zero(fd12, 0)
    assert empty.max_abs() == 0.0
    assert model.is_selfadjoint(empty)


def test_classify_circle_coordinate_is_unitary():
    f = algebra.circle_function(CIRCLE1, 1, 1,
                                lambda z: np.array([[z]], dtype=complex))
    flags = model.classify(f)
    assert flags.is_unitary
    assert flags.is_partial_unitary
    assert not flags.is_selfadjoint


def test_classify_implication_lattice_random():
    rng = rand.stream(106, 0)
    for alg in (FD23, CIRCLE1):
        cases = [rand.projection(rng, alg, 2), rand.unitary(rng, alg, 2),
                 rand.partial_unitary(rng, alg, 2),
                 rand.partial_isometry(rng, alg, 2), rand.element(rng, alg, 2, 2)]
        for v in cases:
            f = model.classify(v)
            if f.is_order_projection:
                assert f.is_selfadjoint and f.is_positive and f.is_partial_unitary
            if f.is_unitary:
                assert f.is_partial_isometry and f.is_partial_unitary


def test_generated_elements_pass_their_predicates():
    rng = rand.stream(107, 0)
    for alg in (M2, FD23, CIRCLE1):
        assert model.classify(rand.projection(rng, alg, 2)).is_order_projection
        assert model.classify(rand.unitary(rng, alg, 2)).is_unitary
        assert model.classify(rand.partial_unitary(rng, alg, 2)).is_partial_unitary
        assert model.classify(rand.partial_isometry(rng, alg, 2)).is_partial_isometry


@pytest.mark.parametrize("spec", [algebra.AlgebraSpec.fd([1, 2]),
                                  algebra.AlgebraSpec.circle(2, 16)])
@pytest.mark.parametrize("delta", [0.0, 1e-12, 4e-10, 6e-10, 1e-8, 1e-4])
def test_spectral_projection_test_matches_the_definition(spec, delta):
    # Hermitian u diag(d) u* with each d_i moved off a random 0/1 by
    # +-delta; tol = 1e-9 passes eigenvalues within 5e-10 of 0 or 1
    rng = rand.stream(110, 0)
    for level in (1, 2):
        u = rand.unitary(rng, spec, level)
        stacks = []
        for a in u.stacks:
            d = (rng.integers(0, 2, a.shape[:2])
                 + delta * rng.choice([-1.0, 1.0], a.shape[:2]))
            m = (a * d[:, None, :]) @ a.conj().transpose(0, 2, 1)
            stacks.append((m + m.conj().transpose(0, 2, 1)) / 2.0)
        v = algebra.Element(spec, level, level, tuple(stacks))
        # the reference: || |2v - e| - e || from the definition, through
        # a square root and an operator-norm distance
        e = algebra.order_unit(spec, level)
        defect = model.distance(model.abs_value(v.scale(2.0) - e), e)
        spectral = max(float(np.max(np.abs(np.abs(2.0 * w - 1.0) - 1.0)))
                       for w, _ in model.spectrum(v))
        assert abs(defect - spectral) <= 1e-12
        assert model.is_order_projection(v) == (defect <= model.TOL_PRED)
        assert model.is_order_projection(v) == (delta < 5e-10)
    # a non-self-adjoint element whose Hermitian part is a projection, and
    # a rectangular zero
    p = rand.projection(rng, spec, 1)
    skew = algebra.Element(spec, 1, 1, tuple(1e-6j * np.ones_like(a)
                                            for a in p.stacks))
    assert model.is_order_projection(p)
    assert not model.is_order_projection(p + skew)
    assert not model.is_order_projection(
        rand.element(rng, spec, 1, 2).scale(0.0))


@pytest.mark.parametrize("draw", (rand.projection, rand.partial_isometry,
                                  rand.partial_unitary))
@pytest.mark.parametrize("ranks", ([1, 1, 1], [1], [3, 0], [-1, 0], [1.5, 0],
                                   [True, 0]))
def test_generators_reject_ranks_that_do_not_fit_the_summands(draw, ranks):
    # FD23 has two blocks, of sizes 2 and 3 at level 1
    with pytest.raises(PreconditionFailure, match="do not fit") as exc:
        draw(rand.stream(109, 0), FD23, 1, ranks)
    assert isinstance(exc.value, InputError)


# -- orthogonality ---------------------------------------------------------

def test_orthogonal_to_zero():
    rng = rand.stream(108, 0)
    for alg in (M2, CIRCLE1):
        u = rand.element(rng, alg, 2, 2)
        assert model.orthogonal(u, algebra.zero(alg, 2))


def test_orthogonal_diagonal_projections():
    p = fd_element(M2, np.diag([1.0, 0.0]))
    q = fd_element(M2, np.diag([0.0, 1.0]))
    assert model.orthogonal(p, q)
    # oracle: |p - q| computed independently equals p + q
    m = p.data[0] - q.data[0]
    assert np.allclose(sqrt_oracle(m.conj().T @ m), p.data[0] + q.data[0])


def test_orthogonal_scalar_invariance():
    rng = rand.stream(109, 0)
    u, v = rand.orthogonal_pair(rng, M2, 2)
    for _ in range(20):
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        assert model.orthogonal(u.scale(a), v.scale(b))


def test_orthogonal_infty_examples():
    p = fd_element(M2, np.diag([1.0, 0.0]))
    q = fd_element(M2, np.diag([0.0, 1.0]))
    assert model.orthogonal_infty(p, q)
    e = algebra.order_unit(M2, 1)
    assert not model.orthogonal_infty(e, e)


def test_orthogonal_infty_rejects_zero():
    e = algebra.order_unit(M2, 1)
    with pytest.raises(ZeroOperand):
        model.orthogonal_infty(e, algebra.zero(M2, 1))


def test_orthogonal_infty_disjoint_spectral_supports():
    rng = rand.stream(110, 0)
    u, v = rand.positive_orthogonal_pair(rng, FD23, 2)
    assert model.orthogonal_infty(u, v)
    # oracle: supports are disjoint, so the product vanishes
    for a, b in zip(u.data, v.data):
        assert np.max(np.abs(a @ b)) <= 1e-10


def test_orthogonal_infty_a_examples():
    p = fd_element(M2, np.diag([1.0, 0.0]))
    q = fd_element(M2, np.diag([0.0, 1.0]))
    assert model.orthogonal_infty_a(p, q)
    e = algebra.order_unit(M2, 2)
    assert not model.orthogonal_infty_a(e, e)


def test_orthogonal_infty_a_projection_complement():
    rng = rand.stream(111, 0)
    for alg in (FD23, CIRCLE1):
        p = rand.projection(rng, alg, 2)
        comp = algebra.order_unit(alg, 2) - p
        assert model.orthogonal_infty_a(p, comp)


def test_orthogonal_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        model.orthogonal(algebra.order_unit(M2, 1), algebra.order_unit(M2, 2))


# -- direct sums and scalar conjugation ------------------------------------

def test_direct_sum_of_units():
    e1 = algebra.order_unit(M2, 1)
    e2 = algebra.order_unit(M2, 2)
    assert model.distance(algebra.direct_sum(e1, e1), e2) == 0.0


def test_abs_of_direct_sum():
    e = algebra.order_unit(M2, 1)
    s = algebra.direct_sum(E12, e)
    want = algebra.direct_sum(model.abs_value(E12), e)
    assert model.distance(model.abs_value(s), want) <= 1e-10


def test_scalar_conjugate_identity():
    rng = rand.stream(112, 0)
    v = rand.element(rng, FD23, 2, 2)
    out = algebra.scalar_conjugate(np.eye(2), v, np.eye(2))
    assert model.distance(out, v) == 0.0


def test_scalar_conjugate_flip_swaps_summands():
    rng = rand.stream(113, 0)
    u = rand.element(rng, M2, 1, 1)
    v = rand.element(rng, M2, 1, 1)
    flip = np.array([[0, 1], [1, 0]], dtype=float)
    out = algebra.scalar_conjugate(flip, algebra.direct_sum(u, v), flip)
    assert model.distance(out, algebra.direct_sum(v, u)) <= 1e-12


def test_isometry_preserves_abs():
    rng = rand.stream(114, 0)
    v = rand.element(rng, M2, 2, 2)
    # isometric embedding of level 2 into level 3
    alpha = np.zeros((3, 2))
    alpha[0, 0] = alpha[1, 1] = 1.0
    out = algebra.scalar_conjugate(alpha, v, np.eye(2))
    assert model.distance(model.abs_value(out), model.abs_value(v)) <= 1e-9


# -- element layout --------------------------------------------------------

@pytest.mark.parametrize("spec", [algebra.AlgebraSpec.fd([1, 2]),
                                  algebra.AlgebraSpec.fd([2, 2]), CIRCLE1])
def test_element_stores_one_readonly_stack_per_summand(spec):
    v = rand.element(rand.stream(116, 0), spec, 2, 1)
    assert len(v.stacks) == len(spec.summands)
    for s, (b, d) in zip(v.stacks, spec.summands):
        assert s.shape == (b, 2 * d, d) and s.dtype == complex
        assert not s.flags.writeable
    # data views one matrix per component: each fd block, or each grid point
    dims = [d for b, d in spec.summands for _ in range(b)]
    assert len(v.data) == len(dims)
    for a, d in zip(v.data, dims):
        assert a.shape == (2 * d, d) and not a.flags.writeable
    with pytest.raises(ValueError):
        v.data[0][0, 0] = 1.0
    # the constructor keeps frozen complex stacks as they are, and freezes
    # a writable stack of another dtype as a complex copy
    back = algebra.Element(spec, 2, 1, v.stacks)
    assert all(a is b for a, b in zip(back.stacks, v.stacks))
    real = [np.ones((b, 2 * d, d)) for b, d in spec.summands]
    w = algebra.Element(spec, 2, 1, real)
    assert all(s.dtype == complex and not s.flags.writeable
               and np.array_equal(s, r) for s, r in zip(w.stacks, real))
    assert all(r.flags.writeable for r in real)
    # it takes one 3-D stack per summand and nothing else: not one 2-D
    # matrix per component, not a stack too few, not the wrong levels
    for stacks, m, n in ((v.data, 2, 1), (v.stacks[1:], 2, 1),
                         (v.stacks + v.stacks[:1], 2, 1), (v.stacks, 1, 1),
                         (v.stacks, 2, 2), (v.stacks, -1, 1),
                         (v.stacks, 2, -1)):
        with pytest.raises(ShapeMismatch):
            algebra.Element(spec, m, n, stacks)


def test_constructors_pin_the_summands():
    # an algebra is its (batch, dim) summands: batch 1 per fd block, one
    # batch of N grid points for the circle
    assert algebra.AlgebraSpec.fd([2, 3]).summands == ((1, 2), (1, 3))
    assert algebra.AlgebraSpec.circle(2, 64).summands == ((64, 2),)
    with pytest.raises(AlgebraMismatch) as exc:
        algebra.circle_function(FD23, 1, 1, lambda z: np.eye(2))
    assert str(exc.value) == "circle functions exist only on the circle model"
    with pytest.raises(AlgebraMismatch) as exc:
        morphisms.MorphismSpec(CIRCLE1, M2, ((2,),), (np.eye(2),))
    assert str(exc.value) == "morphisms are defined between fd algebras"


def test_abs_of_equal_size_blocks_is_computed_per_block():
    # a large first block must not widen the zero-snapping band of the
    # second, which has a Gram eigenvalue of 1e-8
    big = 1e6 * np.eye(2)
    small = np.diag([1e-4, 1.0])
    got = model.abs_value(fd_element(algebra.AlgebraSpec.fd([2, 2]),
                                     big, small))
    alone = model.abs_value(fd_element(M2, small))
    assert np.array_equal(got.data[1], alone.data[0])
    assert np.allclose(got.data[1], small, atol=1e-12)


# -- memo ------------------------------------------------------------------

def count_sqrt_inputs(monkeypatch):
    """Record (shape, bytes) of every stack that reaches the PSD sqrt."""
    seen = []
    sqrtm = kernel.sqrtm_psd_stack

    def counting(A):
        seen.append((A.shape, A.tobytes()))
        return sqrtm(A)

    monkeypatch.setattr(kernel, "sqrtm_psd_stack", counting)
    return seen


@pytest.mark.parametrize("spec", [M2, CIRCLE1])
def test_memo_computes_each_abs_input_once(spec, monkeypatch):
    seen = count_sqrt_inputs(monkeypatch)
    rng = rand.stream(117, 0)
    u = rand.partial_unitary(rng, spec, 2, ranks=[1])
    v = rand.element(rng, spec, 2, 2)
    with model.memo_scope():
        first = model.classify(u)
        assert model.classify(u) == first
        assert model.is_partial_unitary(u) and model.is_partial_isometry(u)
        model.classify(v)
        model.orthogonal(u, v)
    assert first.is_partial_unitary
    assert seen and max(Counter(seen).values()) == 1


@pytest.mark.parametrize("spec", [M2, CIRCLE1])
def test_classify_opens_its_own_memo_scope(spec, monkeypatch):
    seen = count_sqrt_inputs(monkeypatch)
    u = rand.partial_unitary(rand.stream(120, 0), spec, 2, ranks=[1])
    assert model.classify(u).is_partial_unitary
    assert seen and max(Counter(seen).values()) == 1
    assert model._MEMO.get(None) is None


def test_memo_caches_nothing_outside_a_scope(monkeypatch):
    seen = count_sqrt_inputs(monkeypatch)
    v = rand.element(rand.stream(118, 0), M2, 1, 1)
    a = model.abs_value(v)
    assert model.abs_value(v) is not a and len(seen) == 2
    with model.memo_scope():
        a = model.abs_value(v)
        assert model.abs_value(v) is a
        assert model.op_norm(v) == model.op_norm(v)
    assert len(seen) == 3
    assert model._MEMO.get(None) is None


def test_memo_scope_nests_and_keys_on_levels():
    v = rand.element(rand.stream(119, 0), M2, 1, 1)
    with model.memo_scope():
        outer = model.abs_value(v)
        with model.memo_scope():
            assert model.abs_value(v) is not outer
        assert model.abs_value(v) is outer
        # same bytes, different levels: distinct keys
        assert model.abs_value(algebra.zero(M2, 1, 2)).col_level == 2
        assert model.abs_value(algebra.zero(M2, 2, 1)).col_level == 1


# -- serialization ---------------------------------------------------------

def test_element_json_roundtrip():
    rng = rand.stream(115, 0)
    for alg in (FD23, CIRCLE1):
        v = rand.element(rng, alg, 2, 3)
        text = serialize.dumps_canonical(serialize.element_to_json(v))
        back = serialize.parse_element(json.loads(text))
        assert back.same_shape(v)
        assert model.distance(back, v) == 0.0
    # a JSON integer reads as its nearest double (2**53 + 1 ties to the
    # even 2**53), and the sign of a zero is kept
    obj = serialize.element_to_json(algebra.zero(M2, 1))
    obj["data"][0][0] = [[2 ** 53 + 1, -0.0], [-0.0, -(2 ** 53 + 1)]]
    back = serialize.parse_element(obj).stacks[0][0]
    want = np.array([[complex(2.0 ** 53, -0.0), complex(-0.0, -2.0 ** 53)],
                     [0j, 0j]])
    assert back.tobytes() == want.tobytes()


def test_element_json_keeps_signed_zeros_and_subnormals():
    a = np.array([[complex(-0.0, 5e-324), complex(1.5, -0.0)],
                  [complex(-0.0, -0.0), complex(2.2250738585072014e-308, 0)]])
    data = serialize.element_to_json(fd_element(M2, a))["data"]
    want = [[[[float(x.real), float(x.imag)] for x in row] for row in a]]
    assert serialize.dumps_canonical(data) == serialize.dumps_canonical(want)


def test_algebra_json_roundtrip():
    for alg in (FD23, CIRCLE1):
        back = serialize.parse_algebra(serialize.algebra_to_json(alg))
        assert back == alg


def test_parser_rejects_unknown_fields():
    obj = serialize.element_to_json(algebra.order_unit(M2, 1))
    obj["extra"] = 1
    with pytest.raises(SpecParseError):
        serialize.parse_element(obj)
    alg = serialize.algebra_to_json(M2)
    alg["surprise"] = True
    with pytest.raises(SpecParseError):
        serialize.parse_algebra(alg)


def test_parser_rejects_missing_and_malformed():
    with pytest.raises(SpecParseError):
        serialize.parse_algebra({"variant": "fd"})
    with pytest.raises(SpecParseError):
        serialize.parse_algebra({"variant": "hyperbolic", "blocks": [1]})
