"""Tests for the dense linear-algebra kernel.

Small cases are checked against a closed-form 2x2 oracle (roots of the
characteristic polynomial); larger cases against reconstruction
residuals and numpy-free invariants.
"""

import numpy as np
import pytest

from amok import kernel
from amok.errors import DomainError, NoConvergence, NotHermitian, NotUnitary


def eig2_oracle(M):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, ascending."""
    a, b = M[0, 0].real, M[1, 1].real
    c = M[1, 0]
    mid = (a + b) / 2.0
    rad = np.sqrt(((a - b) / 2.0) ** 2 + abs(c) ** 2)
    return np.array([mid - rad, mid + rad])


def random_hermitian(rng, n, scale=1.0):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (h + h.conj().T) / 2.0


def random_unitary(rng, n):
    h = random_hermitian(rng, n)
    w, V = np.linalg.eigh(h)
    return (V * np.exp(1j * w)[None, :]) @ V.conj().T


def assert_eig_conventions(A):
    """Ascending eigenvalues, largest entry of each column real positive,
    and V diag(w) V* reconstructing A."""
    w, V = kernel.eig_stack(A)
    assert np.all(np.diff(w, axis=1) >= 0)
    idx = np.argmax(np.abs(V), axis=1)
    lead = np.take_along_axis(V, idx[:, None, :], axis=1)[:, 0, :]
    assert np.all(lead.real > 0)
    assert np.max(np.abs(lead.imag)) <= 1e-15
    rec = (V * w[:, None, :]) @ V.conj().transpose(0, 2, 1)
    scale = 1 + np.abs(A).max()
    assert np.max(np.abs(rec - A)) <= kernel.TOL_EIG * scale


def test_eig_stack_conventions_random():
    rng = np.random.default_rng(10)
    assert_eig_conventions(np.stack([random_hermitian(rng, 5)
                                     for _ in range(6)]))


def test_eig_stack_conventions_degenerate():
    Q = random_unitary(np.random.default_rng(9), 3)
    D = np.diag([1.0, 1.0, 2.0]).astype(complex)
    assert_eig_conventions(np.stack([np.eye(3, dtype=complex), D,
                                     Q @ D @ Q.conj().T]))


def failing_solver(*args, **kwargs):
    """Fails as NumPy's LAPACK gufuncs do: by raising the floating-point
    invalid flag."""
    return np.sqrt(np.full(1, -1.0))


def test_eig_stack_lapack_failure_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(kernel, "_eigh", failing_solver)
    with pytest.raises(NoConvergence):
        kernel.eig_stack(np.eye(2, dtype=complex)[None])


def test_eig_stack_of_nan_raises_no_convergence():
    # a real LAPACK failure; np.linalg.eigh raises LinAlgError here
    A = np.full((1, 3, 3), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(A)
    with pytest.raises(NoConvergence):
        kernel.eig_stack(A)


# The kernel's Hermitian solvers as they were through numpy.linalg: the
# gufunc calls must reproduce them bit for bit.
def reference_eig_stack(A):
    A = np.asarray(A, dtype=np.complex128)
    w, V = np.linalg.eigh((A + A.conj().transpose(0, 2, 1)) / 2.0)
    if A.shape[-1] == 0:
        return w, V
    B, n = w.shape
    idx = np.argmax(np.abs(V), axis=1)
    lead = V[np.arange(B)[:, None], idx, np.arange(n)]
    return w, V * (lead.conj() / np.abs(lead))[:, None, :]


def reference_min_eig_stack(A):
    A = np.asarray(A, dtype=np.complex128)
    w = np.linalg.eigvalsh((A + A.conj().transpose(0, 2, 1)) / 2.0)
    return w[:, 0] if w.shape[1] else np.zeros(A.shape[0])


def reference_cholesky_feasible_stack(A):
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def solver_inputs(rng, n, B):
    """Stacks of B entries at size n: random Hermitian, identities,
    repeated eigenvalues and non-Hermitian (read as the Hermitian part)."""
    herm = np.stack([random_hermitian(rng, n) for _ in range(B)])
    eye = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
    Q = np.stack([random_unitary(rng, n) for _ in range(B)])
    D = np.diag(np.repeat([-1.0, 2.0], (n + 1) // 2)[:n]).astype(complex)
    repeated = Q @ D @ Q.conj().transpose(0, 2, 1)
    general = (rng.standard_normal((B, n, n))
               + 1j * rng.standard_normal((B, n, n)))
    return {"hermitian": herm, "identity": eye, "repeated": repeated,
            "non-hermitian": general}


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("B", [1, 64])
@pytest.mark.parametrize("n", range(7))
def test_hermitian_solvers_match_numpy_linalg_bit_for_bit(n, B):
    rng = np.random.default_rng(100 * n + B)
    for name, A in solver_inputs(rng, n, B).items():
        w, V = kernel.eig_stack(A)
        rw, rV = reference_eig_stack(A)
        assert_same_bits(w, rw)
        assert_same_bits(V, rV)
        assert_same_bits(kernel.min_eig_stack(A), reference_min_eig_stack(A))


@pytest.mark.parametrize("B", [1, 64])
@pytest.mark.parametrize("n", range(7))
def test_cholesky_verdicts_match_numpy_linalg(n, B):
    rng = np.random.default_rng(200 + 10 * n + B)
    herm = np.stack([random_hermitian(rng, n) for _ in range(B)])
    G = rng.standard_normal((B, n, max(n - 1, 0)))
    singular = (G @ G.transpose(0, 2, 1)).astype(complex)  # PSD, rank n - 1
    shifted = herm + 3.0 * np.eye(n)
    for A in (np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)),
              herm, herm - 3.0 * np.eye(n), shifted, singular):
        assert (kernel.cholesky_feasible_stack(A)
                == reference_cholesky_feasible_stack(A))
        for i in range(min(B, 8)):   # and one entry at a time
            assert (kernel.cholesky_feasible_stack(A[i:i + 1])
                    == reference_cholesky_feasible_stack(A[i:i + 1]))


def eig_one(M):
    """Eigenpairs of one matrix, through a stack of one entry."""
    w, V = kernel.eig_stack(M[None])
    return w[0], V[0]


def test_eig_identity():
    w, V = eig_one(np.eye(3, dtype=complex))
    assert np.allclose(w, 1.0, atol=kernel.TOL_EIG)
    # eigenvector columns stay orthonormal
    assert np.max(np.abs(V.conj().T @ V - np.eye(3))) <= 10 * kernel.TOL_EIG


def test_eig_diagonal_sorted():
    w, _ = eig_one(np.diag([2.0, -1.0]).astype(complex))
    assert np.allclose(w, [-1.0, 2.0], atol=kernel.TOL_EIG)


def test_eig_offdiagonal_matches_closed_form():
    M = np.array([[0, 1], [1, 0]], dtype=complex)
    w, _ = eig_one(M)
    assert np.allclose(w, [-1.0, 1.0], atol=10 * kernel.TOL_EIG)
    assert np.allclose(w, eig2_oracle(M), atol=10 * kernel.TOL_EIG)


def test_eig_random_2x2_against_closed_form():
    rng = np.random.default_rng(11)
    Ms = np.stack([random_hermitian(rng, 2, scale=rng.uniform(0.1, 5.0))
                   for _ in range(100)])
    w, _ = kernel.eig_stack(Ms)
    for M, wM in zip(Ms, w):
        assert np.allclose(wM, eig2_oracle(M),
                           atol=1e-9 * (1 + np.abs(M).max()))


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 8, 12):
        Ms = np.stack([random_hermitian(rng, n) for _ in range(10)])
        w, V = kernel.eig_stack(Ms)
        for M, wM, VM in zip(Ms, w, V):
            rec = (VM * wM[None, :]) @ VM.conj().T
            scale = 1 + np.abs(M).max()
            assert np.max(np.abs(rec - M)) <= kernel.TOL_EIG * scale


def test_eig_rejects_non_hermitian():
    # eig_stack reads the Hermitian part, so only a non-square stack or
    # a bare matrix is rejected
    for A in (np.zeros((1, 2, 3), dtype=complex),
              np.array([[0, 1], [0, 0]], dtype=complex)):
        with pytest.raises(NotHermitian):
            kernel.eig_stack(A)


def test_matrix_func_sqrt_diagonal():
    out = kernel.sqrtm_psd_stack(np.diag([4.0, 9.0]).astype(complex)[None])[0]
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=10 * kernel.TOL_EIG)


def test_matrix_func_sqrt_identity():
    out = kernel.sqrtm_psd_stack(np.eye(4, dtype=complex)[None])[0]
    assert np.allclose(out, np.eye(4), atol=10 * kernel.TOL_EIG)


def test_matrix_func_sqrt_closed_form_2x2():
    M = np.array([[2, 1], [1, 2]], dtype=complex)
    # eigenpairs (1, 3) with vectors (1, -1)/sqrt2 and (1, 1)/sqrt2
    r3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    out = kernel.sqrtm_psd_stack(M[None])[0]
    assert np.allclose(out, expected, atol=10 * kernel.TOL_EIG)
    assert np.allclose(out @ out, M, atol=10 * kernel.TOL_EIG)


def test_sqrt_roundtrip_psd():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 8, 12):
        for _ in range(20):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = B.conj().T @ B
            root = kernel.sqrtm_psd_stack(M[None])[0]
            scale = 1 + np.abs(M).max()
            assert np.max(np.abs(root @ root - M)) <= 10 * kernel.TOL_EIG * scale
            assert kernel.min_eig_stack(root[None])[0] >= -10 * kernel.TOL_EIG * scale


def test_sqrt_takes_negative_roundoff_down_to_its_bound():
    # eigenvalues down to -1e-9 * (1 + scale) are roundoff, snapped to a
    # root of 0; below that the matrix is not PSD (scale 1 here)
    root = kernel.sqrtm_psd_stack(np.diag([1.0, -1.9e-9])[None] + 0j)
    assert np.array_equal(root[0], np.diag([1.0, 0.0]))
    with pytest.raises(DomainError, match="eigenvalue -2.100e-09$"):
        kernel.sqrtm_psd_stack(np.diag([1.0, -2.1e-9])[None] + 0j)


def svd_one(M):
    """Thin SVD of one matrix, through a stack of one entry."""
    left, s, right = kernel.svd_stack(M[None])
    return left[0], s[0], right[0]


def test_svd_zero_matrix():
    left, s, right = svd_one(np.zeros((3, 2), dtype=complex))
    assert np.allclose(s, 0.0, atol=kernel.TOL_EIG)


def test_svd_unitary_has_unit_singulars():
    rng = np.random.default_rng(14)
    U = random_unitary(rng, 5)
    _, s, _ = svd_one(U)
    assert np.allclose(s, 1.0, atol=100 * kernel.TOL_EIG)


def test_svd_matrix_unit():
    M = np.zeros((2, 2), dtype=complex)
    M[0, 1] = 1.0
    left, s, right = svd_one(M)
    assert np.allclose(s, [1.0, 0.0], atol=100 * kernel.TOL_EIG)
    # cross-check: M*M = diag(0, 1) has eigenvalues (0, 1)
    w, _ = eig_one(M.conj().T @ M)
    assert np.allclose(np.sort(s ** 2), w, atol=1e-9)


def test_svd_reconstruction():
    rng = np.random.default_rng(15)
    for shape in ((3, 3), (4, 2), (2, 5)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        left, s, right = svd_one(M)
        rec = left @ np.diag(s) @ right.conj().T
        scale = 1 + np.abs(M).max()
        assert np.max(np.abs(rec - M)) <= 100 * kernel.TOL_EIG * scale
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= -kernel.TOL_EIG)
        for Q in (left, right):
            gram = Q.conj().T @ Q
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-9


def test_svd_deterministic():
    rng = np.random.default_rng(16)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    a = svd_one(M)
    b = svd_one(M.copy())
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x), np.asarray(y))


def test_psd_within_examples():
    M = np.ones((2, 2), dtype=complex)  # eigenvalues (0, 2)
    assert np.allclose(eig2_oracle(M), [0.0, 2.0])
    A = np.stack([np.eye(2), np.diag([1.0, -1.0]), M]).astype(complex)
    psd = kernel.min_eig_stack(A) >= -1e-9
    assert psd.tolist() == [True, False, True]


def test_cholesky_feasible_matches_min_eig():
    rng = np.random.default_rng(17)
    for _ in range(50):
        M = random_hermitian(rng, 4)
        shift = rng.uniform(-2.0, 2.0)
        A = M + shift * np.eye(4)
        feasible = kernel.cholesky_feasible_stack(A[None])
        min_eig = kernel.min_eig_stack(A[None])[0]
        if min_eig > 1e-8:
            assert feasible
        if min_eig < -1e-8:
            assert not feasible


def log_path_one(U, samples):
    """Log path of one matrix, through a stack of one entry."""
    return kernel.unitary_log_path(U[None], samples=samples)[:, 0]


def test_log_path_identity_is_constant():
    path = log_path_one(np.eye(3, dtype=complex), samples=9)
    for P in path:
        assert np.allclose(P, np.eye(3), atol=kernel.TOL_PATH)


def test_log_path_minus_identity():
    samples = 65
    path = log_path_one(np.diag([-1.0, -1.0]).astype(complex), samples)
    ts = np.linspace(0.0, 1.0, samples)
    for t, P in zip(ts[1:-1], path[1:-1]):
        assert np.allclose(P, np.exp(1j * np.pi * t) * np.eye(2), atol=1e-8)
    assert np.allclose(path[-1], -np.eye(2))


def test_log_path_flip_endpoint_and_unitarity():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    path = log_path_one(U, samples=33)
    assert np.allclose(path[0], np.eye(2))
    assert np.allclose(path[-1], U, atol=kernel.TOL_PATH)
    for P in path:
        assert np.max(np.abs(P.conj().T @ P - np.eye(2))) <= kernel.TOL_PATH


def test_log_path_step_bound():
    rng = np.random.default_rng(18)
    samples = 33
    bound = np.pi / (samples - 1) + kernel.TOL_PATH
    U = np.stack([random_unitary(rng, 4) for _ in range(10)])
    path = kernel.unitary_log_path(U, samples=samples)
    steps = np.linalg.svd(path[1:] - path[:-1], compute_uv=False)
    assert np.all(steps.max(axis=-1) <= bound)


def test_log_path_rejects_non_unitary():
    for U in (2.0 * np.eye(2, dtype=complex)[None],
              np.stack([np.eye(2), 2.0 * np.eye(2)]).astype(complex)):
        with pytest.raises(NotUnitary):
            kernel.unitary_log_path(U, 5)


def unitary_eig_per_entry(U):
    """Reference: the diagonalization of one unitary matrix, cluster
    refinement included, as a per-matrix loop computes it."""
    n = U.shape[0]
    C = (U + U.conj().T) / 2.0
    S = (U - U.conj().T) / 2.0j
    S = (S + S.conj().T) / 2.0
    w, W = eig_one(C)
    cluster_tol = 1e-8 * (1.0 + np.max(np.abs(w), initial=0.0))
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] <= cluster_tol:
            stop += 1
        if stop - start > 1:
            Qc = W[:, start:stop]
            W[:, start:stop] = Qc @ eig_one(Qc.conj().T @ S @ Qc)[1]
        start = stop
    D = W.conj().T @ U @ W
    return np.angle(np.diagonal(D)), W


def log_path_per_entry(U, samples):
    """Reference: for each entry of the stack, one product per sample t,
    the endpoints set exactly."""
    paths = []
    for Ui in U:
        phases, W = unitary_eig_per_entry(Ui)
        out = [(W * np.exp(1j * phases * t)[None, :]) @ W.conj().T
               for t in np.linspace(0.0, 1.0, samples)]
        out[0] = np.eye(Ui.shape[0], dtype=complex)
        out[-1] = Ui
        paths.append(np.stack(out))
    return np.stack(paths, axis=1)


def test_log_path_batched_matches_per_sample_bit_for_bit():
    rng = np.random.default_rng(20)
    stacks = []
    for n in range(1, 7):
        stacks.append(np.stack([random_unitary(rng, n) for _ in range(3)]))
        # +-I and a repeated eigenvalue mixed in among generic entries
        Q = random_unitary(rng, n)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        repeated = (Q * phases[np.arange(n) * 2 // max(n, 2)]) @ Q.conj().T
        stacks.append(np.stack([random_unitary(rng, n), np.eye(n),
                                repeated, -np.eye(n),
                                random_unitary(rng, n)]).astype(complex))
    stacks.append(np.stack([random_unitary(rng, 2) for _ in range(64)]))
    for U in stacks:
        for samples in (33, 129):
            path = kernel.unitary_log_path(U, samples=samples)
            want = log_path_per_entry(U, samples)
            assert isinstance(path, np.ndarray)
            assert path.shape == (samples,) + U.shape
            # compare bit patterns, so signed zeros count too
            assert np.array_equal(path.view(np.uint64), want.view(np.uint64))


def test_log_path_of_empty_entries():
    path = kernel.unitary_log_path(np.zeros((3, 0, 0), dtype=complex), 5)
    assert path.shape == (5, 3, 0, 0)


def test_spectral_norms_batched():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
    out = kernel.spectral_norms_per_entry(A)
    for i in range(6):
        expected = np.linalg.svd(A[i], compute_uv=False).max()
        assert abs(out[i] - expected) <= 1e-8 * (1 + expected)
