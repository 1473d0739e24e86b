"""Equivalence relations with machine-checkable certificates.

Decisions run on complete invariants (the rank on each summand of
projections and supports; the degree of the loop on each grid summand
of unitaries), and every positive decision is backed by an explicitly
constructed witness: a partial isometry linking two projections, or a
sampled homotopy path.  Witnesses are re-validated before they are
returned.

Each public decider checks its operands once.  Inside a memo scope
(``model.memo_scope``) it eigendecomposes each projection once, for its
predicate, its rank and its range basis, all read from
``model.spectrum``; outside one, the predicate and the decomposition
each run one eigensolve.  The invariants are additive and cancellative,
so each stabilized relation is decided by its base decider.  Both
homotopy deciders build their path through ``_witness_path``.

A ``HomotopyPath`` keeps its samples as one read-only (T, B, r, c) stack
per summand, the element layout with a leading sample axis.  The path
builders compute these stacks in one piece, write the first and last
entries as exactly the two operands, and hand them to the path; the
validator and the report writer (``serialize.path_to_json``, then
``serialize.write_canonical``, which streams a chunk of samples at a
time) read them directly, and ``abs_homotopy_transfer`` maps them to the
stacks of its three paths.  Per-sample Elements (``samples``) are views
of the stacks; no path builder reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, model
from .algebra import (AlgebraSpec, Element, _freeze, direct_sum,
                      order_unit, zero)
from .errors import (AlgebraMismatch, LevelMismatch, NotPartialUnitary,
                     NotProjection, PredicateFailure, PreconditionFailure,
                     ShapeMismatch, SourceMismatch, Unsupported)

TOL_PATH = kernel.TOL_PATH
PATH_SAMPLES = 129
STEP_BOUND = 0.2
TOL_WIND = 1e-6

UNITARY_SET = "unitary"
PARTIAL_UNITARY_SET = "partial_unitary"
PROJECTION_SET = "projection"

# step_bound + tol_path must stay below the ceiling of the path's domain
# (_require_step_bound); unitary paths have none
STEP_CEILING = {PROJECTION_SET: 1.0, PARTIAL_UNITARY_SET: 0.5}


# -- invariants ------------------------------------------------------------

def _spectral_support(p: Element):
    """Rank of an order projection on each summand (one fd block, or the
    whole circle grid) and, per summand, its (range, kernel) eigenvector
    columns, read from ``model.spectrum(p)``.

    p must have passed ``model.is_order_projection``, so every eigenvalue
    is near 0 or 1 and the rank counts those above 1/2.  Raises
    NotProjection only when the rank varies across a summand's batch
    (circle grid samples)."""
    ranks, bases = [], []
    for w, V in model.spectrum(p):
        counts = np.count_nonzero(w > 0.5, axis=1)
        if np.any(counts != counts[0]):
            raise NotProjection("projection rank varies across grid samples")
        ranks.append(int(counts[0]))
        # eigenvalues ascend: the range is spanned by the last columns
        k = V.shape[-1] - ranks[-1]
        bases.append((V[..., k:], V[..., :k]))
    return tuple(ranks), bases


def proj_invariant(p: Element, tol: float = model.TOL_PRED) -> tuple:
    """Complete invariant of a projection: its rank on each summand, one
    entry per ``algebra.summands`` entry.

    Raises NotProjection("operand is not an order projection") when p
    fails ``model.is_order_projection`` at tol, and NotProjection when
    the rank of a circle projection varies across the grid."""
    require_operand(p, tol, PROJECTION_SET)
    return _spectral_support(p)[0]


@model._memoized
def k1_invariant(u: Element) -> tuple:
    """Complete K1 invariant of a unitary: the degree of its loop on each
    grid summand, in order.  fd blocks add no entry, since their unitary
    groups are connected, so the invariant is ``()`` over fd blocks and
    ``(w,)`` on the circle.  Memoized inside ``model.memo_scope``."""
    return tuple(_degree(a) for a, (b, _) in zip(u.stacks, u.algebra.summands)
                 if b > 1)


def _degree(U: np.ndarray) -> int:
    """Degree of the loop through the samples U_j of one grid summand.

    The loop is the piecewise geodesic from each sample to the next, so
    its degree is the sum over j of the principal eigen-angles of
    U_j* U_{j+1}, within TOL_WIND of a multiple of 2*pi.  A step with
    ||U_{j+1} - U_j||_F < 2/sqrt(n) has eigen-angles summing to less than
    pi in modulus (|theta| <= pi |sin(theta/2)| and Cauchy-Schwarz), so
    there the phase increment of det U_j is exact; only the other steps
    are diagonalized.  The screen keeps a relative margin of 1e-12, so
    rounding cannot clear a step with an eigen-angle within TOL_WIND of
    pi.  Raises Unsupported where a step has an eigenvalue at -1 (within
    TOL_WIND in angle), since no shortest geodesic joins its ends: by
    Bernstein's inequality, input of degree <= grid/4 has none.
    """
    dets = np.linalg.det(U)
    if np.any(np.abs(dets) < 1e-6):
        raise Unsupported("determinant loop passes too close to zero")
    inc = np.angle(np.roll(dets, -1) / dets)
    nxt = np.roll(U, -1, axis=0)
    steps = np.linalg.norm(nxt - U, axis=(1, 2)) * np.sqrt(U.shape[-1])
    far = ~(steps < 2.0 * (1.0 - 1e-12))
    if far.any():
        angles, _ = kernel.unitary_eig(
            U[far].conj().transpose(0, 2, 1) @ nxt[far])
        if np.any(np.pi - np.abs(angles) <= TOL_WIND):
            raise Unsupported("a grid step has an eigenvalue at -1")
        inc[far] = np.sum(angles, axis=1)
    total = float(np.sum(inc)) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > TOL_WIND:
        raise Unsupported(f"non-integer winding estimate {total}")
    return w


# -- certificates ----------------------------------------------------------

@dataclass(frozen=True)
class PartialIsometryCertificate:
    """Witness v for source ~ target: |v| = source, |v*| = target."""
    witness: Element
    source: Element
    target: Element

    def validate(self, tol: float = model.TOL_PRED) -> bool:
        v = self.witness
        if not model.is_partial_isometry(v, tol):
            return False
        return (model.distance(model.abs_value(v), self.source) <= tol
                and model.distance(model.abs_value(v.adjoint()), self.target) <= tol)


@dataclass(frozen=True, eq=False, init=False)
class HomotopyPath:
    """Sampled path between two elements inside a predicate set.

    Stored as one read-only complex (T, B, r, c) stack per summand of the
    algebra: entry t of stack j is stack j of sample t.  ``samples`` is
    either a sequence of Elements of one shape, stacked here once (a
    form for readers of a report's samples; the library builders use
    the other), or, with ``like`` given, one such (T, B, r, c) stack per
    summand at the algebra and levels of the element ``like``.  Every
    domain needs samples at a square level; others raise ShapeMismatch.
    ``relation_domain`` is one of ``UNITARY_SET``, ``PARTIAL_UNITARY_SET``
    and ``PROJECTION_SET``.
    """
    algebra: AlgebraSpec
    row_level: int
    col_level: int
    stacks: tuple = field(repr=False)
    relation_domain: str
    step_bound: float

    def __init__(self, samples, relation_domain: str,
                 step_bound: float = STEP_BOUND, *, like: Element = None):
        if relation_domain not in (UNITARY_SET, PARTIAL_UNITARY_SET,
                                   PROJECTION_SET):
            raise PreconditionFailure(
                f"unknown relation domain {relation_domain!r}")
        if like is None:
            samples = tuple(samples)
            if not samples:
                raise ShapeMismatch("a path needs at least one sample")
            like = samples[0]
            if not all(s.same_shape(like) for s in samples):
                raise ShapeMismatch("path samples differ in shape")
            samples = [np.stack([s.stacks[j] for s in samples])
                       for j in range(len(like.stacks))]
        if not like.is_square_level:
            raise ShapeMismatch(f"path samples at levels ({like.row_level}, "
                                f"{like.col_level}) are not square")
        stacks = tuple(_freeze(s) for s in samples)
        T = len(stacks[0]) if stacks and stacks[0].ndim else 0
        want = [(T,) + a.shape for a in like.stacks]
        if T < 1 or [s.shape for s in stacks] != want:
            raise ShapeMismatch(f"path stacks have shapes "
                                f"{[s.shape for s in stacks]}, expected {want}")
        vars(self).update(algebra=like.algebra, row_level=like.row_level,
                          col_level=like.col_level, stacks=stacks,
                          relation_domain=relation_domain,
                          step_bound=step_bound)

    @property
    def samples(self) -> tuple:
        """One Element per sample, viewing the stored stacks."""
        return tuple(Element(self.algebra, self.row_level, self.col_level,
                             (s[t] for s in self.stacks))
                     for t in range(len(self.stacks[0])))

    def validate(self, tol_path: float = TOL_PATH) -> bool:
        try:
            self.validate_strict(tol_path)
        except PredicateFailure:
            return False
        return True

    def validate_strict(self, tol_path: float = TOL_PATH) -> None:
        """Raise PredicateFailure at the first offending sample.

        Before any sample is checked, ``_require_step_bound`` refuses a
        step bound that could carry the path across the invariant of its
        domain.  Steps are screened by their Frobenius norm, an upper
        bound of the operator norm; only steps the bound cannot clear are
        measured exactly, so the verdict, index and message are those of
        an exact check of every step.  A sample with a non-finite entry
        fails its predicate, and a non-finite step has size inf."""
        _require_step_bound(self.relation_domain, self.step_bound, tol_path)
        limit = self.step_bound + tol_path
        with np.errstate(invalid="ignore", over="ignore"):
            per_summand = [self._residuals(S, limit) for S in self.stacks]
        worst = np.max([w for w, _ in per_summand], axis=0)
        steps = np.max([st for _, st in per_summand], axis=0)
        bad = np.nonzero(~(worst <= tol_path))[0]
        if bad.size:
            i = int(bad[0])
            raise PredicateFailure(
                f"sample {i} fails the {self.relation_domain} predicate",
                index=i)
        bad = np.nonzero(steps > limit)[0]
        if bad.size:
            i = int(bad[0])
            raise PredicateFailure(
                f"step {i}->{i + 1} has size {steps[i]:.3e}", index=i)

    def _residuals(self, S: np.ndarray, limit: float):
        """Predicate residual of each sample and a size of each step, over
        one summand's (T, B, n, n) stack of samples.

        A step's size is its Frobenius norm where that is within ``limit``
        (less a relative margin of 1e-12, so rounding cannot clear a step
        the exact norm fails), inf where that is not finite, and its
        operator norm elsewhere: the size is above ``limit`` exactly when
        the operator norm is, and then equals it."""
        T, B, n, _ = S.shape
        flat = S.reshape(T * B, n, n)
        sh = flat.conj().transpose(0, 2, 1)
        eye = np.eye(n)
        if self.relation_domain == UNITARY_SET:
            res = np.abs(sh @ flat - eye)
        elif self.relation_domain == PARTIAL_UNITARY_SET:
            p1 = sh @ flat
            p2 = flat @ sh
            res = np.maximum(np.abs(p1 - p2), np.abs(p1 @ p1 - p1))
        else:  # PROJECTION_SET
            res = np.maximum(np.abs(flat - sh), np.abs(flat @ flat - flat))
        diffs = (S[1:] - S[:-1]).reshape((T - 1) * B, n, n)
        norms = np.linalg.norm(diffs, axis=(1, 2))
        finite = np.isfinite(norms)
        norms[~finite] = np.inf
        loose = finite & (norms > limit * (1.0 - 1e-12))
        if loose.any():
            norms[loose] = kernel.spectral_norms_per_entry(diffs[loose])
        norms = norms.reshape(T - 1, B)
        return (np.max(res.reshape(T, -1), axis=1, initial=0.0),
                np.max(norms, axis=1, initial=0.0))


def _require_step_bound(domain: str, step_bound: float,
                        tol_path: float) -> None:
    """Raise PreconditionFailure unless ``step_bound`` is positive and
    ``step_bound + tol_path`` is below the ceiling of the domain
    (``STEP_CEILING``), so that no step of a valid path can change the
    invariant of its domain:

    - projections less than 1 apart have equal rank, so the projection
      ceiling is 1;
    - for contractions, ||u*u - v*v|| <= 2 ||u - v||, so partial
      unitaries less than 1/2 apart have supports less than 1 apart, of
      equal rank; the partial-unitary ceiling is 1/2.

    Unitary paths have no ceiling: fd unitary groups are connected, and
    the circle's bound waits for a grid-step check of the loops."""
    ceiling = STEP_CEILING.get(domain, np.inf)
    if not step_bound > 0:
        raise PreconditionFailure(f"step bound {step_bound!r} is not positive")
    if not step_bound + tol_path < ceiling:
        raise PreconditionFailure(
            f"step bound {step_bound!r} plus tol_path {tol_path!r} "
            f"is not below the {domain} ceiling {ceiling!r}")


# -- operands --------------------------------------------------------------

# per domain: the model predicate an operand must pass (by name, looked up
# per call), its error and message, and for the homotopy domains the message
# for operands not at one square level (MvN links projections at any levels).
# Every operand-predicate error of the library, here and in kgroups, comes
# from this table.
_OPERANDS = {
    PROJECTION_SET: ("is_order_projection", NotProjection,
                     "operand is not an order projection", None),
    UNITARY_SET: ("is_unitary", PreconditionFailure,
                  "operand fails the unitary predicate",
                  "homotopy needs unitaries at one common level"),
    PARTIAL_UNITARY_SET: ("is_partial_unitary", NotPartialUnitary,
                          "operand fails the partial-unitary predicate",
                          "homotopy needs operands at one common level"),
}


def require_operand(x: Element, tol: float, domain: str) -> None:
    """Raise the domain's error unless x passes its predicate at tol."""
    holds, error, message, _ = _OPERANDS[domain]
    if not getattr(model, holds)(x, tol):
        raise error(message)


def _check_operands(u: Element, v: Element, tol: float, domain: str) -> None:
    """The operand check of a public decider: one algebra, then for the
    homotopy domains one square level, then the domain predicate."""
    if u.algebra != v.algebra:
        raise AlgebraMismatch("operands live over different algebras")
    level_message = _OPERANDS[domain][3]
    if level_message and not (u.same_shape(v) and u.is_square_level):
        raise LevelMismatch(level_message)
    for x in (u, v):
        require_operand(x, tol, domain)


def _padded(u: Element, v: Element, level: int, filler, domain: str) -> list:
    """u and v padded with ``filler(algebra, k)`` to ``level``; only a
    square operand pads to a square level, any other fails the domain
    predicate."""
    if not (u.is_square_level and v.is_square_level):
        _, error, message, _ = _OPERANDS[domain]
        raise error(message)
    return [x if x.row_level == level else
            direct_sum(x, filler(x.algebra, level - x.row_level))
            for x in (u, v)]


# -- projection equivalence ------------------------------------------------

def mvn_equivalent(p: Element, q: Element, tol: float = model.TOL_PRED):
    """p ~ q: equal rank invariants, with a linking partial isometry.

    Returns (decision, certificate-or-None).  The witness has
    |v| = p (source) and |v*| = q (target).
    """
    _check_operands(p, q, tol, PROJECTION_SET)
    ip, bp = _spectral_support(p)
    iq, bq = _spectral_support(q)
    if ip != iq:
        return False, None
    # v = (range basis of q) (range basis of p)^*: v*v = p, vv* = q
    v = Element(p.algebra, q.row_level, p.row_level,
                tuple(rq @ rp.conj().transpose(0, 2, 1)
                      for (rp, _), (rq, _) in zip(bp, bq)))
    cert = PartialIsometryCertificate(witness=v, source=p, target=q)
    if not cert.validate(tol):
        raise PredicateFailure("constructed certificate failed validation")
    return True, cert


def condition_T_transport(u: PartialIsometryCertificate,
                          v: PartialIsometryCertificate,
                          tol: float = model.TOL_PRED) -> PartialIsometryCertificate:
    """Compose two witnesses sharing a source into one linking the targets.

    Given |u| = |v| (common source projection), w = u v* satisfies
    |w| = |v*| and |w*| = |u*|; the product is polished back onto the
    partial-isometry set through its singular vectors.
    """
    su = model.abs_value(u.witness)
    sv = model.abs_value(v.witness)
    if not su.same_shape(sv) or model.distance(su, sv) > tol:
        raise SourceMismatch("witnesses do not share a source projection")
    stacks = []
    for a, b in zip(u.witness.stacks, v.witness.stacks):
        w0 = a @ b.conj().transpose(0, 2, 1)
        if w0.size:
            # keep the singular directions above 1/2 of every entry
            left, s, right = kernel.svd_stack(w0)
            w0 = (left * (s > 0.5)[:, None, :]) @ right.conj().transpose(0, 2, 1)
        stacks.append(w0)
    w = Element(u.witness.algebra, u.witness.row_level,
                v.witness.row_level, tuple(stacks))
    cert = PartialIsometryCertificate(
        witness=w,
        source=model.abs_value(v.witness.adjoint()),
        target=model.abs_value(u.witness.adjoint()))
    if not cert.validate(tol):
        raise PredicateFailure("transport certificate failed validation")
    return cert


# -- homotopy witnesses ----------------------------------------------------

def _log_path(a: np.ndarray, b: np.ndarray, tol_path: float) -> np.ndarray:
    """Samples of t -> a exp(t log(a* b)) for one summand's stacks of
    unitaries a and b."""
    return a @ kernel.unitary_log_path(a.conj().transpose(0, 2, 1) @ b,
                                       PATH_SAMPLES, tol_path)


def _two_stage_path(a: np.ndarray, b: np.ndarray, ba, bb,
                    tol_path: float) -> np.ndarray:
    """Two-stage path on one summand: rotate the support of a onto that of
    b (their (range, kernel) bases ba, bb), then deform the corner unitary
    inside the common support."""
    half = PATH_SAMPLES // 2 + 1
    (rp, kp), (rq, kq) = ba, bb
    # stage 1: conjugate so supports match
    w = (np.concatenate([rq, kq], axis=2)
         @ np.concatenate([rp, kp], axis=2).conj().transpose(0, 2, 1))
    ws = kernel.unitary_log_path(w, half, tol_path)
    s1 = ws @ a @ ws.conj().transpose(0, 1, 3, 2)
    # stage 2: log path between the compressions onto the shared support
    rqh = rq.conj().transpose(0, 2, 1)
    ca = rqh @ s1[-1] @ rq
    cb = rqh @ b @ rq
    inner = kernel.unitary_log_path(ca.conj().transpose(0, 2, 1) @ cb,
                                    half, tol_path)
    return np.concatenate([s1, rq @ (ca @ inner[1:]) @ rqh])


def _witness_path(u: Element, v: Element, supports, domain: str,
                  tol_path: float) -> HomotopyPath:
    """The path from u to v, by one rule per summand, with end samples
    exactly u and v, validated at tol_path.  ``supports`` has one entry
    per summand: None at full support (a unitary), or (rank, bases of u,
    bases of v) of a partial unitary.  The first rule that applies: the
    log path at full support (every summand of a unitary, a grid of full
    rank); two stages on an fd block; constant on a grid of rank 0, the
    only other rank ``require_decided`` leaves there."""
    stacks = []
    for a, b, (batch, _), s in zip(u.stacks, v.stacks, u.algebra.summands,
                                   supports):
        if s is None or (batch > 1 and s[0]):
            p = _log_path(a, b, tol_path)
        elif batch == 1:
            p = _two_stage_path(a, b, s[1], s[2], tol_path)
        else:
            p = np.repeat(a[None], PATH_SAMPLES, axis=0)
        p[0], p[-1] = a, b
        stacks.append(p)
    path = HomotopyPath(stacks, domain, like=u)
    path.validate_strict(tol_path)
    return path


# -- unitary homotopy ------------------------------------------------------

def homotopic_unitaries(u: Element, v: Element, tol: float = model.TOL_PRED,
                        *, tol_path: float = TOL_PATH):
    """u ~h v inside the unitary set at a fixed level.

    True iff the K1 invariants, the degrees on the grid summands, agree
    (fd unitary groups are connected).  Positive answers return the log
    path of ``_witness_path`` on every summand, validated at tol_path.
    """
    _check_operands(u, v, tol, UNITARY_SET)
    if k1_invariant(u) != k1_invariant(v):
        return False, None
    return True, _witness_path(u, v, [None] * len(u.stacks), UNITARY_SET,
                               tol_path)


def sim1_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED, *,
                    tol_path: float = TOL_PATH):
    """Homotopy after padding both with order units to a common level.

    This also decides the stabilized relation u (+) w ~1 v (+) w for
    some unitary w: the degrees are additive and cancellative, so the
    two relations agree."""
    level = max(u.row_level, v.row_level) + 1
    return homotopic_unitaries(*_padded(u, v, level, order_unit, UNITARY_SET),
                               tol, tol_path=tol_path)


# -- partial-unitary homotopy ----------------------------------------------

def decides_mixed_ranks(summand) -> bool:
    """The fragment rule: partial-unitary homotopy is decided at every
    support rank on an fd block (batch 1), but on a grid (batch above 1)
    only at rank 0 and full rank, not at mixed ranks between them."""
    return summand[0] == 1


def decided_ranks(algebra: AlgebraSpec, rank_of) -> list:
    """One support rank per level-1 summand of size d: ``rank_of(d)``
    where ``decides_mixed_ranks``, full support d elsewhere.  ``rank_of``
    is called in summand order and only where it decides."""
    return [rank_of(d) if decides_mixed_ranks((b, d)) else d
            for b, d in algebra.summands]


def require_decided(x: Element, ranks, message: str) -> None:
    """Raise Unsupported(message) unless the support ranks of x, one per
    summand, are mixed only where ``decides_mixed_ranks``."""
    for s, r in zip(x.algebra.summands, ranks):
        if not (decides_mixed_ranks(s) or r in (0, x.row_level * s[1])):
            raise Unsupported(message)


def homotopic_partial_unitaries(u: Element, v: Element,
                                tol: float = model.TOL_PRED, *,
                                tol_path: float = TOL_PATH):
    """u ~h v inside the partial-unitary set at a fixed level.

    True iff the support ranks agree and so do the degrees on each grid
    summand of full support; mixed ranks on a grid raise Unsupported
    (``decides_mixed_ranks``).  The path, validated at tol_path, takes
    ``_witness_path``'s rule per summand: two stages on an fd block, the
    log path on a grid of full rank, constant on a grid of rank 0.
    """
    _check_operands(u, v, tol, PARTIAL_UNITARY_SET)
    iu, bu = _spectral_support(model.abs_value(u))
    iv, bv = _spectral_support(model.abs_value(v))
    if iu != iv:
        return False, None
    require_decided(u, iu, "circle-model homotopy of mixed-rank partial "
                           "unitaries is undecided")
    if any(_degree(a) != _degree(b) for a, b, (batch, _), r
           in zip(u.stacks, v.stacks, u.algebra.summands, iu)
           if batch > 1 and r):
        return False, None
    return True, _witness_path(u, v, list(zip(iu, bu, bv)),
                               PARTIAL_UNITARY_SET, tol_path)


def simK_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED, *,
                    tol_path: float = TOL_PATH):
    """Homotopy after padding both with zeros to a common level.

    This also decides the stabilized relation u (+) w ~K v (+) w for
    some partial unitary w: the support invariant is additive and
    cancellative, so the two relations agree."""
    level = max(u.row_level, v.row_level)
    return homotopic_partial_unitaries(
        *_padded(u, v, level, zero, PARTIAL_UNITARY_SET), tol,
        tol_path=tol_path)


# -- homotopy transfer through the absolute value --------------------------

def abs_homotopy_transfer(path: HomotopyPath, tol_path: float = TOL_PATH):
    """Push a partial-unitary path through t -> |f(t)| and
    t -> f(t) +- (e - |f(t)|).

    Returns (projection path, (plus unitary path, minus unitary path)),
    each validated samplewise against its domain predicate.  The three
    paths are built from the path's stacks: sample t of |f| is
    ``model.abs_value`` of sample t, so each sample keeps its own
    zero-snapping band.
    """
    if path.relation_domain != PARTIAL_UNITARY_SET:
        raise PreconditionFailure("transfer needs a partial-unitary path")
    e = order_unit(path.algebra, path.row_level)
    roots = [np.stack([kernel.sqrtm_psd_stack(s.conj().transpose(0, 2, 1) @ s)
                       for s in S]) for S in path.stacks]
    proj = HomotopyPath(roots, PROJECTION_SET, 2.0 * path.step_bound, like=e)
    gaps = [a - b for a, b in zip(e.stacks, roots)]
    plus, minus = (HomotopyPath([op(S, g) for S, g in zip(path.stacks, gaps)],
                                UNITARY_SET, 3.0 * path.step_bound, like=e)
                   for op in (np.add, np.subtract))
    for p in (proj, plus, minus):
        p.validate_strict(tol_path)
    return proj, (plus, minus)
