"""The builders that fill one stack per summand give the bytes, and leave
the random stream in the state, of the per-component code they replaced.

The references below build one 2-D matrix per component (fd block or
grid point, in order) and group them into one stack per summand
afterwards, as the library did before its builders wrote each component
straight into its summand's stack.
"""

import numpy as np
import pytest

from amok import algebra, rand, serialize
from amok.errors import ShapeMismatch, SpecParseError

SPECS = (algebra.AlgebraSpec.fd([1]), algebra.AlgebraSpec.fd([1, 2]),
         algebra.AlgebraSpec.fd([2, 3]), algebra.AlgebraSpec.circle(1, 16),
         algebra.AlgebraSpec.circle(2, 64))
SPEC_IDS = ("fd1", "fd12", "fd23", "circle1x16", "circle2x64")
SEEDS = (0, 1, 7)


def group(spec, mats):
    """One matrix per component, grouped into one stack per summand."""
    stacks, start = [], 0
    for b, _ in spec.summands:
        stacks.append(np.stack(mats[start:start + b]))
        start += b
    return stacks


def per_component(*xs):
    """(first, matrices) per component of elements over one algebra."""
    for k, (b, _) in enumerate(xs[0].algebra.summands):
        for j in range(b):
            yield (j < b // 2 if b > 1 else k % 2 == 0,
                   [x.stacks[k][j] for x in xs])


def reference_positive_orthogonal_pair(rng, spec, level):
    w = rand.unitary(rng, spec, level)
    mats_u, mats_v = [], []
    for first, (w0,) in per_component(w):
        s = w0.shape[0]
        if s == 1:
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
    return group(spec, herm(mats_u)), group(spec, herm(mats_v))


def reference_orthogonal_pair(rng, spec, level):
    x = rand.unitary(rng, spec, level)
    y = rand.unitary(rng, spec, level)
    mats_u, mats_v = [], []
    for first, (x0, y0) in per_component(x, y):
        s = x0.shape[0]
        if s == 1:
            val = rand._cnormal(rng, (1, 1))
            mats_u.append(val if first else np.zeros((1, 1), dtype=complex))
            mats_v.append(np.zeros((1, 1), dtype=complex) if first else val)
            continue
        r = int(rng.integers(1, s))
        c = int(rng.integers(1, s))
        u0 = np.zeros((s, s), dtype=complex)
        v0 = np.zeros((s, s), dtype=complex)
        u0[:r, :c] = rand._cnormal(rng, (r, c))
        v0[r:, c:] = rand._cnormal(rng, (s - r, s - c))
        mats_u.append(x0 @ u0 @ y0.conj().T)
        mats_v.append(x0 @ v0 @ y0.conj().T)
    return group(spec, mats_u), group(spec, mats_v)


def same_bytes(stacks, want):
    return len(stacks) == len(want) and all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(stacks, want))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("draw, reference", [
    (rand.positive_orthogonal_pair, reference_positive_orthogonal_pair),
    (rand.orthogonal_pair, reference_orthogonal_pair)])
def test_orthogonal_pairs_match_the_per_component_reference(spec, draw,
                                                            reference):
    for seed in SEEDS:
        for level in (1, 2, 3):
            rng, ref_rng = rand.stream(seed, level), rand.stream(seed, level)
            u, v = draw(rng, spec, level)
            want_u, want_v = reference(ref_rng, spec, level)
            assert same_bytes(u.stacks, want_u)
            assert same_bytes(v.stacks, want_v)
            # the stream is left where the reference left it
            assert np.array_equal(rng.standard_normal(4),
                                  ref_rng.standard_normal(4))


def reference_parse_element(obj):
    spec = serialize.parse_algebra(obj["algebra"])
    m, n = obj["row_level"], obj["col_level"]
    dims = [d for b, d in spec.summands for _ in range(b)]
    mats = [serialize._parse_matrix(rows, (m * d, n * d), f"element.data[{i}]")
            for i, (rows, d) in enumerate(zip(obj["data"], dims))]
    return group(spec, mats)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_parse_element_groups_like_the_per_component_reference(spec):
    for seed in SEEDS:
        rng = rand.stream(seed, 0)
        for m, n in ((1, 1), (2, 3), (3, 1), (0, 2)):
            obj = serialize.element_to_json(rand.element(rng, spec, m, n))
            v = serialize.parse_element(obj)
            assert (v.row_level, v.col_level) == (m, n)
            assert same_bytes(v.stacks, reference_parse_element(obj))
    # a bad matrix is named by its component index, counted across summands
    obj = serialize.element_to_json(rand.element(rng, spec, 1, 1))
    last = len(obj["data"]) - 1
    obj["data"][last] = obj["data"][last][:-1]
    with pytest.raises(SpecParseError, match=rf"^element\.data\[{last}\]: "):
        serialize.parse_element(obj)


def test_circle_function_stacks_its_grid_values():
    spec = algebra.AlgebraSpec.circle(2, 16)
    fn = lambda z: np.array([[z, 0, 1, 0], [0, 1, 0, z ** 2]])
    v = algebra.circle_function(spec, 1, 2, fn)
    assert same_bytes(v.stacks, [np.stack([np.asarray(fn(z), dtype=complex)
                                           for z in algebra.roots_of_unity(16)])])
    # a value of the wrong shape, everywhere or at one grid point only
    bad = (lambda z: np.eye(2), lambda z: z,
           lambda z: np.eye(2) if z == 1 else np.zeros((2, 4)))
    for fn in bad:
        with pytest.raises(ShapeMismatch):
            algebra.circle_function(spec, 1, 2, fn)
