"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, SVD, singular values and the Cholesky
positive-definiteness test all run on LAPACK through ``numpy.linalg``;
a failed LAPACK solve raises ``NoConvergence``.  On top of these sit
matrix functions through the eigenbasis, a PSD test and
principal-branch unitary logarithm paths.  All routines operate on
plain ``numpy.ndarray`` values and are pure functions of their inputs;
batch variants take a stack of shape ``(B, n, n)`` and are the
workhorses for grid-sampled algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NotHermitian, NotUnitary

TOL_EIG = 1e-11
TOL_PATH = 1e-8
TOL_CLIP = 1e-10


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues ascending, eigenvector columns orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_defect(M: np.ndarray) -> float:
    """Largest entrywise deviation of M from its own adjoint."""
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def require_hermitian(M: np.ndarray, tol: float) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"matrix is {M.shape}, not square")
    d = hermitian_defect(M)
    if d > tol:
        raise NotHermitian(f"hermitian defect {d:.3e} exceeds tol {tol:.3e}")


def _lapack(routine, *args, **kwargs):
    """Call a NumPy LAPACK routine; a failed solve raises NoConvergence."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK {routine.__name__} failed: {exc}") from exc


def _as_stack(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    return A[None] if A.ndim == 2 else A


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^*) / 2 per entry: LAPACK reads only one triangle, so the
    solvers see the Hermitian part.  On an exactly Hermitian entry this
    returns the same bits."""
    return (A + A.conj().transpose(0, 2, 1)) / 2.0


def eig_stack(A: np.ndarray):
    """Eigendecomposition of the Hermitian parts of a stack (LAPACK).

    Returns ``(w, V)`` with ``w`` of shape (B, n) ascending per entry and
    ``V`` of shape (B, n, n) with orthonormal columns such that
    ``V diag(w) V^* == (A + A^*) / 2``; callers need not symmetrize.
    Each eigenvector's largest-magnitude entry is made real positive.
    """
    A = _as_stack(A)
    if A.shape[-1] != A.shape[-2]:
        raise NotHermitian(f"stack entries are {A.shape[-2]}x{A.shape[-1]}, "
                           "not square")
    w, V = _lapack(np.linalg.eigh, _hermitian_part(A))
    if A.shape[-1] == 0:
        return w, V
    B, n = w.shape
    idx = np.argmax(np.abs(V), axis=1)  # (B, n)
    lead = V[np.arange(B)[:, None], idx, np.arange(n)]
    # a unit column's largest entry is at least 1/sqrt(n), never zero
    return w, V * (lead.conj() / np.abs(lead))[:, None, :]


def spectral_split(A: np.ndarray, cut: float):
    """``eig_stack`` of a stack, with the mask ``w > cut`` of each entry.

    Eigenvalues ascend, so the eigenvectors above the cut are the last
    columns of each entry of ``V``.
    """
    w, V = eig_stack(A)
    return w, V, w > cut


def hermitian_eig(M: np.ndarray, tol: float = TOL_EIG) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix."""
    require_hermitian(M, tol)
    w, V = eig_stack(M[None])
    return HermitianEig(eigenvalues=w[0], eigenvectors=V[0])


def matrix_func_stack(A: np.ndarray, f,
                      tol_clip: float = TOL_CLIP) -> np.ndarray:
    """Apply a real scalar function through the eigenbasis, per stack entry.

    Eigenvalues in [-tol_clip, 0) are clipped to 0 first; v*v is PSD in
    exact arithmetic and tiny negatives are roundoff.
    """
    w, V = eig_stack(A)
    w = np.where((w < 0) & (w >= -tol_clip), 0.0, w)
    try:
        fw = np.array([[float(f(x)) for x in row] for row in w])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"scalar function undefined at an eigenvalue: {exc}")
    if not np.all(np.isfinite(fw)):
        raise DomainError("scalar function returned a non-finite value")
    out = (V * fw[:, None, :]) @ V.conj().transpose(0, 2, 1)
    return _hermitian_part(out)


def matrix_func(M: np.ndarray, f, tol: float = TOL_EIG,
                tol_clip: float = TOL_CLIP) -> np.ndarray:
    require_hermitian(M, tol)
    return matrix_func_stack(M[None], f, tol_clip)[0]


def sqrtm_psd_stack(A: np.ndarray) -> np.ndarray:
    """(A)^{1/2} for a stack of PSD Hermitian matrices.

    Eigenvalues within a relative 1e-13 band of zero are snapped to
    exactly 0 before the square root: sqrt is not Lipschitz at 0, so
    roundoff-sized eigenvalues of a Gram matrix would otherwise inflate
    to ~1e-8 and poison every projection predicate downstream.
    """
    w, V = eig_stack(A)
    scale = float(np.max(np.abs(w), initial=0.0))
    snap = 1e-13 * (1.0 + scale)
    neg_ok = 100 * TOL_EIG * (1.0 + scale)
    if np.any(w < -neg_ok):
        raise DomainError(
            f"sqrt of matrix with eigenvalue {float(np.min(w)):.3e}")
    sw = np.sqrt(np.where(w < snap, 0.0, w))
    out = (V * sw[:, None, :]) @ V.conj().transpose(0, 2, 1)
    return _hermitian_part(out)


def psd_within(M: np.ndarray, tol: float) -> bool:
    """True iff the minimum eigenvalue of Hermitian M is >= -tol."""
    require_hermitian(M, tol)
    w = min_eig_stack(M[None])
    return bool(w[0] >= -tol)


def min_eig_stack(A: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each entry of a stack
    (0 if empty)."""
    A = _as_stack(A)
    w = _lapack(np.linalg.eigvalsh, _hermitian_part(A))
    return w[:, 0] if w.shape[1] else np.zeros(A.shape[0])


def cholesky_feasible_stack(A: np.ndarray) -> bool:
    """True iff every Hermitian entry of the stack is positive definite.

    Cholesky feasibility test used inside the order-unit-norm bisection;
    much cheaper than a full eigendecomposition.
    """
    try:
        np.linalg.cholesky(_as_stack(A))
    except np.linalg.LinAlgError:
        return False
    return True


def svd(M: np.ndarray):
    """Thin SVD (LAPACK).

    Returns (left, singulars, right) with M = left @ diag(s) @ right^*,
    s nonnegative descending, left/right with orthonormal columns.
    """
    left, s, right_h = _lapack(np.linalg.svd, np.asarray(M, dtype=complex),
                               full_matrices=False)
    return left, s, right_h.conj().T


def unitary_defect(U: np.ndarray) -> float:
    n = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(n))))


def require_unitary(U: np.ndarray, tol: float) -> None:
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise NotUnitary(f"matrix is {U.shape}, not square")
    d = unitary_defect(U)
    if d > tol:
        raise NotUnitary(f"unitarity defect {d:.3e} exceeds tol {tol:.3e}")


def unitary_eig(U: np.ndarray, tol: float = TOL_PATH):
    """Spectral decomposition of a unitary matrix.

    Returns (phases, W) with phases in (-pi, pi] and
    U = W diag(exp(i*phases)) W^*.  Diagonalizes the commuting Hermitian
    pair (U+U^*)/2 and (U-U^*)/(2i): the first directly, then the
    second restricted to each eigenvalue cluster of the first.
    """
    require_unitary(U, tol)
    n = U.shape[0]
    C = (U + U.conj().T) / 2.0
    S = (U - U.conj().T) / 2.0j
    S = (S + S.conj().T) / 2.0
    w, W = eig_stack(C[None])
    w, W = w[0], W[0]
    cluster_tol = 1e-8 * (1.0 + np.max(np.abs(w), initial=0.0))
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] <= cluster_tol:
            stop += 1
        if stop - start > 1:
            Qc = W[:, start:stop]
            _, Vc = eig_stack((Qc.conj().T @ S @ Qc)[None])
            W[:, start:stop] = Qc @ Vc[0]
        start = stop
    D = W.conj().T @ U @ W
    off = D - np.diag(np.diagonal(D))
    if np.max(np.abs(off), initial=0.0) > 100 * max(tol, 1e-12) * n:
        raise NoConvergence("unitary diagonalization failed to decouple")
    phases = np.angle(np.diagonal(D))
    return phases, W


def unitary_log_path(U: np.ndarray, samples: int = 129,
                     tol: float = TOL_PATH) -> np.ndarray:
    """Sampled path t -> exp(i t H) from I to U, H the principal log.

    Returns a (samples, n, n) array for t evenly spaced in [0, 1], all
    samples in one broadcast product; entry 0 is exactly I and the last
    entry exactly U.  Eigenphases are taken in (-pi, pi] so the path has
    length at most pi in operator norm.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    phases, W = unitary_eig(U, tol)
    ts = np.linspace(0.0, 1.0, samples)
    D = np.exp(1j * phases[None, :] * ts[:, None])
    out = (W * D[:, None, :]) @ W.conj().T
    out[0] = np.eye(U.shape[0])
    out[-1] = U
    return out


def spectral_norms_per_entry(A: np.ndarray) -> np.ndarray:
    """Largest singular value of each entry of a stack, as a vector."""
    A = _as_stack(A)
    if A.shape[1] == 0 or A.shape[2] == 0:
        return np.zeros(A.shape[0])
    return _lapack(np.linalg.svd, A, compute_uv=False)[:, 0]


def spectral_norm_stack(A: np.ndarray) -> float:
    """Largest singular value over a stack of (rectangular) matrices."""
    return float(np.max(spectral_norms_per_entry(A), initial=0.0))
