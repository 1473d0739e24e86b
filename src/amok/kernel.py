"""Dense complex linear algebra on stacks of matrices.

Every routine takes a stack of shape ``(B, n, n)`` (``(B, m, n)`` for
the singular values and the SVD) and works on each entry.  Hermitian
eigendecomposition, SVD and the Cholesky positive-definiteness test run
on LAPACK; a failed LAPACK solve raises ``NoConvergence``.  On top of
these sit the PSD square root and principal-branch unitary logarithm
paths.  All routines are pure functions of plain ``numpy.ndarray``
inputs.

The three Hermitian solvers call NumPy's own LAPACK gufuncs
(``numpy.linalg._umath_linalg.eigh_lo``, ``eigvalsh_lo`` and
``cholesky_lo``) with the signatures ``numpy.linalg.eigh``,
``eigvalsh`` and ``cholesky`` pass them, so every output bit is theirs.
On the 1x1 to 6x6 matrices of the models, the wrapper's argument
checks and type resolution cost about as much as the solve itself, and
every input here is already a complex stack.  A gufunc reports a failed
solve by raising the floating-point invalid flag, which ``numpy.linalg``
turns into ``LinAlgError``; here each call runs under
``np.errstate(invalid="raise", ...)`` and the resulting
``FloatingPointError`` becomes ``NoConvergence``.  The gufunc names were
checked on NumPy 2.4.6; the NumPy 1.x sources use the same three names.
The SVD goes through ``numpy.linalg.svd``, since its gufunc names
changed in NumPy 2.0.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, NoConvergence, NotHermitian, NotUnitary

TOL_EIG = 1e-11
TOL_PATH = 1e-8


# the LAPACK gufuncs behind np.linalg.eigh, eigvalsh and cholesky (lower
# triangle), bound here so that a test can substitute a failing solver
_eigh = _umath_linalg.eigh_lo
_eigvalsh = _umath_linalg.eigvalsh_lo
_cholesky = _umath_linalg.cholesky_lo


def _lapack(gufunc, A: np.ndarray, signature: str):
    """Run a LAPACK gufunc on a complex stack; a failed solve, flagged as
    an invalid operation, raises NoConvergence."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore",
                         under="ignore"):
            return gufunc(A, signature=signature)
    except FloatingPointError as exc:
        raise NoConvergence(f"LAPACK {gufunc.__name__} failed: {exc}") from exc


def _svd(*args, **kwargs):
    """numpy.linalg.svd; a failed solve raises NoConvergence."""
    try:
        return np.linalg.svd(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK svd failed: {exc}") from exc


def _adjoint(A: np.ndarray) -> np.ndarray:
    return A.conj().transpose(0, 2, 1)


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^*) / 2 per entry: LAPACK reads only one triangle, so the
    solvers see the Hermitian part.  On an exactly Hermitian entry this
    returns the same bits."""
    return (A + _adjoint(A)) / 2.0


def eig_stack(A: np.ndarray):
    """Eigendecomposition of the Hermitian parts of a stack (LAPACK).

    Returns ``(w, V)`` with ``w`` of shape (B, n) ascending per entry and
    ``V`` of shape (B, n, n) with orthonormal columns such that
    ``V diag(w) V^* == (A + A^*) / 2``; callers need not symmetrize.
    Each eigenvector's largest-magnitude entry is made real positive.
    Raises NotHermitian unless ``A`` is a stack of square matrices.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise NotHermitian(f"stack has shape {A.shape}, not (B, n, n)")
    w, V = _lapack(_eigh, _hermitian_part(A), "D->dD")
    B, n = w.shape
    if n <= 1:
        # LAPACK returns a 1x1 eigenvector as exactly 1: no phase to fix
        return w, V
    idx = np.abs(V).argmax(axis=1)  # (B, n)
    lead = V[np.arange(B)[:, None], idx, np.arange(n)]
    # a unit column's largest entry is at least 1/sqrt(n), never zero
    return w, V * (lead.conj() / np.abs(lead))[:, None, :]


def sqrtm_psd_stack(A: np.ndarray) -> np.ndarray:
    """(A)^{1/2} for a stack of PSD Hermitian matrices.

    Eigenvalues within a relative 1e-13 band of zero are snapped to
    exactly 0 before the square root: sqrt is not Lipschitz at 0, so
    roundoff-sized eigenvalues of a Gram matrix would otherwise inflate
    to ~1e-8 and poison every projection predicate downstream.
    """
    w, V = eig_stack(A)
    scale = float(np.abs(w).max(initial=0.0))
    snap = 1e-13 * (1.0 + scale)
    neg_ok = 100 * TOL_EIG * (1.0 + scale)
    if (w < -neg_ok).any():
        raise DomainError(
            f"sqrt of matrix with eigenvalue {float(w.min()):.3e}")
    sw = np.sqrt(np.where(w < snap, 0.0, w))
    return _hermitian_part((V * sw[:, None, :]) @ _adjoint(V))


def min_eig_stack(A: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each entry of a stack
    (0 if empty)."""
    A = np.asarray(A, dtype=np.complex128)
    w = _lapack(_eigvalsh, _hermitian_part(A), "D->d")
    return w[:, 0] if w.shape[1] else np.zeros(A.shape[0])


def cholesky_feasible_stack(A: np.ndarray) -> bool:
    """True iff every Hermitian entry of the complex stack is positive
    definite.

    Cholesky feasibility test used inside the order-unit-norm bisection;
    much cheaper than a full eigendecomposition.
    """
    try:
        _lapack(_cholesky, A, "D->D")
    except NoConvergence:
        return False
    return True


def svd_stack(A: np.ndarray):
    """Thin SVD of each entry of a (B, m, n) stack (LAPACK).

    Returns (left, s, right) of shapes (B, m, k), (B, k) and (B, n, k),
    k = min(m, n), with A = left @ diag(s) @ right^* per entry, s
    nonnegative descending and left/right with orthonormal columns.
    """
    left, s, right_h = _svd(np.asarray(A, dtype=np.complex128),
                            full_matrices=False)
    return left, s, _adjoint(right_h)


def unitary_eig(U: np.ndarray, tol: float = TOL_PATH):
    """Spectral decomposition of each entry of a stack of unitaries.

    Returns (phases, W), phases of shape (B, n) in (-pi, pi] and W of
    shape (B, n, n), with U = W diag(exp(i*phases)) W^* per entry.
    Diagonalizes the commuting Hermitian pair (U+U^*)/2 and (U-U^*)/(2i):
    the first for the whole stack in one ``eig_stack``, then the second
    restricted to each eigenvalue cluster of the first, on the entries
    that have one.  Raises NotUnitary at the first entry whose unitarity
    defect exceeds tol.
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.ndim != 3 or U.shape[1] != U.shape[2]:
        raise NotUnitary(f"stack has shape {U.shape}, not (B, n, n)")
    n = U.shape[-1]
    Uh = _adjoint(U)
    defect = np.abs(Uh @ U - np.eye(n)).max(axis=(1, 2), initial=0.0)
    bad = np.nonzero(defect > tol)[0]
    if bad.size:
        raise NotUnitary(f"unitarity defect {defect[bad[0]]:.3e} "
                         f"exceeds tol {tol:.3e}")
    w, W = eig_stack((U + Uh) / 2.0)
    cluster_tol = 1e-8 * (1.0 + np.abs(w).max(axis=1, initial=0.0))
    near = np.diff(w, axis=1) <= cluster_tol[:, None]
    for i in np.nonzero(near.any(axis=1))[0]:
        S = (U[i] - Uh[i]) / 2.0j
        S = (S + S.conj().T) / 2.0
        # clusters are the runs between the gaps of w[i]
        bounds = [0, *(np.flatnonzero(~near[i]) + 1), n]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop - start > 1:
                Qc = W[i, :, start:stop]
                _, Vc = eig_stack((Qc.conj().T @ S @ Qc)[None])
                W[i, :, start:stop] = Qc @ Vc[0]
    D = _adjoint(W) @ U @ W
    off = D[:, ~np.eye(n, dtype=bool)]
    if np.abs(off).max(initial=0.0) > 100 * max(tol, 1e-12) * n:
        raise NoConvergence("unitary diagonalization failed to decouple")
    return np.angle(np.diagonal(D, axis1=1, axis2=2)), W


def unitary_log_path(U: np.ndarray, samples: int,
                     tol: float = TOL_PATH) -> np.ndarray:
    """Sampled paths t -> exp(i t H) from I to U, H the principal log,
    for each entry of a (B, n, n) stack of unitaries.

    Returns a (samples, B, n, n) array for t evenly spaced in [0, 1], all
    samples and entries in one broadcast product; sample 0 is exactly I
    and the last sample exactly U.  Eigenphases are taken in (-pi, pi]
    so each path has length at most pi in operator norm.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    phases, W = unitary_eig(U, tol)
    ts = np.linspace(0.0, 1.0, samples)
    D = np.exp(1j * phases[None] * ts[:, None, None])
    out = (W * D[:, :, None, :]) @ _adjoint(W)
    out[0] = np.eye(W.shape[-1])
    out[-1] = U
    return out


def spectral_norms_per_entry(A: np.ndarray) -> np.ndarray:
    """Largest singular value of each entry of a stack, as a vector."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape[1] == 0 or A.shape[2] == 0:
        return np.zeros(A.shape[0])
    return _svd(A, compute_uv=False)[:, 0]


def spectral_norm_stack(A: np.ndarray) -> float:
    """Largest singular value over a stack of (rectangular) matrices."""
    return float(spectral_norms_per_entry(A).max(initial=0.0))
