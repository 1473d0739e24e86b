"""Equivalence relations with machine-checkable certificates.

Decisions run on complete invariants (block ranks of projections and
supports; winding of the determinant loop in the circle model), and
every positive decision is backed by an explicitly constructed witness:
a partial isometry linking two projections, or a sampled homotopy path.
Witnesses are re-validated before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, model
from .algebra import (CIRCLE, FD, AlgebraSpec, Element, direct_sum,
                      order_unit, zero)
from .errors import (LevelMismatch, NotPartialUnitary, NotProjection,
                     PredicateFailure, PreconditionFailure, ShapeMismatch,
                     SourceMismatch, Unsupported)

TOL_PATH = 1e-8
PATH_SAMPLES = 129
STEP_BOUND = 0.2
TOL_WIND = 1e-6

UNITARY_SET = "unitary"
PARTIAL_UNITARY_SET = "partial_unitary"
PROJECTION_SET = "projection"


# -- invariants ------------------------------------------------------------

@dataclass(frozen=True)
class ProjInvariant:
    """Complete invariant of a projection: rank per block (fd) or the
    constant rank across grid samples (circle)."""
    ranks: tuple

    def __add__(self, other: "ProjInvariant") -> "ProjInvariant":
        return ProjInvariant(tuple(a + b for a, b in zip(self.ranks, other.ranks)))


def _component_rank(a: np.ndarray, tol: float) -> int:
    h = (a + a.conj().T) / 2.0
    if h.size == 0:
        return 0
    w, _ = kernel.eig_stack(h[None])
    w = w[0]
    near0 = np.abs(w) <= np.sqrt(tol)
    near1 = np.abs(w - 1.0) <= np.sqrt(tol)
    if not np.all(near0 | near1):
        raise NotProjection(
            f"eigenvalues {np.round(w, 6)} are not within tolerance of 0/1")
    return int(np.sum(near1))


def proj_invariant(p: Element, tol: float = model.TOL_PRED) -> ProjInvariant:
    """Rank invariant; raises NotProjection when spectra are not 0/1."""
    ranks = [_component_rank(a, tol) for a in p.data]
    if p.algebra.variant == CIRCLE:
        if len(set(ranks)) > 1:
            raise NotProjection("projection rank varies across grid samples")
        return ProjInvariant((ranks[0],))
    return ProjInvariant(tuple(ranks))


def winding(u: Element, tol_wind: float = TOL_WIND) -> int:
    """Degree of the determinant loop of a circle-model unitary.

    Summed phase increments of det(u(z_j)) around the grid; the total
    must be within tol_wind of an integer multiple of 2*pi.
    """
    if u.algebra.variant != CIRCLE:
        raise Unsupported("winding is a circle-model invariant")
    dets = np.array([np.linalg.det(a) for a in u.data])
    if np.any(np.abs(dets) < 1e-6):
        raise Unsupported("determinant loop passes too close to zero")
    inc = np.angle(np.roll(dets, -1) / dets)
    total = float(np.sum(inc)) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > tol_wind:
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


@dataclass(frozen=True)
class HomotopyPath:
    """Sampled path between two elements inside a predicate set."""
    samples: tuple
    relation_domain: str
    step_bound: float = STEP_BOUND

    @property
    def start(self) -> Element:
        return self.samples[0]

    @property
    def end(self) -> Element:
        return self.samples[-1]

    def validate(self, tol_path: float = TOL_PATH) -> bool:
        try:
            self.validate_strict(tol_path)
        except PredicateFailure:
            return False
        return True

    def validate_strict(self, tol_path: float = TOL_PATH) -> None:
        """Raise PredicateFailure at the first offending sample."""
        stacks = [model._uniform_stack(s) for s in self.samples]
        if all(st is not None for st in stacks):
            self._validate_batched(np.stack(stacks), tol_path)
            return
        # per-component batching across samples (fd blocks of mixed sizes)
        for j in range(len(self.samples[0].data)):
            block = np.stack([s.data[j] for s in self.samples])
            self._validate_batched(block[:, None, :, :], tol_path)

    def _validate_batched(self, S: np.ndarray, tol_path: float) -> None:
        """Same checks as the scalar route, on a (T, B, n, n) stack."""
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
        elif self.relation_domain == PROJECTION_SET:
            res = np.maximum(np.abs(flat - sh), np.abs(flat @ flat - flat))
        else:
            raise ValueError(f"unknown relation domain {self.relation_domain!r}")
        if n:
            worst = res.reshape(T, -1).max(axis=1)
            bad = np.nonzero(worst > tol_path)[0]
            if bad.size:
                i = int(bad[0])
                raise PredicateFailure(
                    f"sample {i} fails the {self.relation_domain} predicate",
                    index=i)
        if T > 1 and n:
            diffs = (S[1:] - S[:-1]).reshape((T - 1) * B, n, n)
            norms = kernel.spectral_norms_per_entry(diffs).reshape(T - 1, B)
            steps = norms.max(axis=1)
            bad = np.nonzero(steps > self.step_bound + tol_path)[0]
            if bad.size:
                i = int(bad[0])
                raise PredicateFailure(
                    f"step {i}->{i + 1} has size {steps[i]:.3e}", index=i)


def _range_basis(a: np.ndarray, tol: float):
    """(range columns, kernel columns) of a projection matrix."""
    h = (a + a.conj().T) / 2.0
    if h.size == 0:
        return (np.zeros((0, 0), dtype=complex),) * 2
    w, V = kernel.eig_stack(h[None])
    w, V = w[0], V[0]
    keep = w > 0.5
    return V[:, keep], V[:, ~keep]


# -- projection equivalence ------------------------------------------------

def mvn_equivalent(p: Element, q: Element, tol: float = model.TOL_PRED):
    """p ~ q: equal rank invariants, with a linking partial isometry.

    Returns (decision, certificate-or-None).  The witness has
    |v| = p (source) and |v*| = q (target).
    """
    for x in (p, q):
        if not model.is_order_projection(x, tol):
            raise NotProjection("operand is not an order projection")
    ip = proj_invariant(p, tol)
    iq = proj_invariant(q, tol)
    if ip != iq:
        return False, None
    mats = []
    for a, b in zip(p.data, q.data):
        rp, _ = _range_basis(a, tol)
        rq, _ = _range_basis(b, tol)
        # v = (range basis of q) (range basis of p)^*: v*v = p, vv* = q
        mats.append(rq @ rp.conj().T)
    v = Element(p.algebra, q.row_level, p.row_level, tuple(mats))
    cert = PartialIsometryCertificate(witness=v, source=p, target=q)
    if not cert.validate(tol):
        raise PredicateFailure("constructed certificate failed validation")
    return True, cert


def _pad_to_level(p: Element, level: int) -> Element:
    if p.row_level == level:
        return p
    return direct_sum(p, zero(p.algebra, level - p.row_level))


def stabilized_projection_equiv(p: Element, q: Element,
                                tol: float = model.TOL_PRED):
    """p (+) r ~ q (+) r for some r: reduces to ~ after zero-padding to
    a common level, because the rank invariant is additive and
    cancellative."""
    for x in (p, q):
        if not model.is_order_projection(x, tol):
            raise NotProjection("operand is not an order projection")
    level = max(p.row_level, q.row_level)
    return mvn_equivalent(_pad_to_level(p, level), _pad_to_level(q, level), tol)


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
    mats = []
    for a, b in zip(u.witness.data, v.witness.data):
        w0 = a @ b.conj().T
        if w0.size:
            left, s, right = kernel.svd(w0)
            keep = s > 0.5
            w0 = left[:, keep] @ right[:, keep].conj().T
        mats.append(w0)
    w = Element(u.witness.algebra, u.witness.row_level,
                v.witness.row_level, tuple(mats))
    cert = PartialIsometryCertificate(
        witness=w,
        source=model.abs_value(v.witness.adjoint()),
        target=model.abs_value(u.witness.adjoint()))
    if not cert.validate(tol):
        raise PredicateFailure("transport certificate failed validation")
    return cert


# -- unitary homotopy ------------------------------------------------------

def _log_path_stack(u: Element, w: Element, samples: int) -> list:
    """Samples of t -> u exp(t log(u* w)) per component."""
    st = model._uniform_stack(u)
    if st is not None:
        B, n, _ = st.shape
        phases = np.zeros((B, n))
        vecs = np.zeros((B, n, n), dtype=complex)
        for i, (a, b) in enumerate(zip(u.data, w.data)):
            phases[i], vecs[i] = kernel.unitary_eig(a.conj().T @ b)
        vh = vecs.conj().transpose(0, 2, 1)
        ts = np.linspace(0.0, 1.0, samples)
        out = []
        for j, t in enumerate(ts):
            d = np.exp(1j * phases * t)
            step = st @ ((vecs * d[:, None, :]) @ vh)
            out.append(Element(u.algebra, u.row_level, u.col_level,
                               tuple(step[i] for i in range(B))))
        out[0] = u
        out[-1] = w
        return out
    steps = [[] for _ in range(samples)]
    for a, b in zip(u.data, w.data):
        m = a.conj().T @ b
        for i, s in enumerate(kernel.unitary_log_path(m, samples=samples)):
            steps[i].append(a @ s)
    return [Element(u.algebra, u.row_level, u.col_level, tuple(s))
            for s in steps]


def homotopic_unitaries(u: Element, v: Element, tol: float = model.TOL_PRED,
                        samples: int = PATH_SAMPLES):
    """u ~h v inside the unitary set at a fixed level.

    fd model: always true (the unitary group is connected); circle
    model: true iff the determinant windings agree.  Positive answers
    return a validated log path.
    """
    if not u.same_shape(v) or not u.is_square_level:
        raise LevelMismatch("homotopy needs unitaries at one common level")
    for x in (u, v):
        if not model.is_unitary(x, tol):
            raise PreconditionFailure("operand fails the unitary predicate")
    if u.algebra.variant == CIRCLE and winding(u) != winding(v):
        return False, None
    path = HomotopyPath(samples=tuple(_log_path_stack(u, v, samples)),
                        relation_domain=UNITARY_SET)
    path.validate_strict()
    return True, path


def sim1_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED):
    """Homotopy after padding both with order units to a common level."""
    for x in (u, v):
        if not x.is_square_level or not model.is_unitary(x, tol):
            raise PreconditionFailure("operand fails the unitary predicate")
    k = max(u.row_level, v.row_level) + 1
    up = direct_sum(u, order_unit(u.algebra, k - u.row_level))
    vp = direct_sum(v, order_unit(v.algebra, k - v.row_level))
    return homotopic_unitaries(up, vp, tol)


def approx1_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED):
    """u (+) w ~1 v (+) w for some w; equals ~1 here because the
    winding invariant is additive and cancellative."""
    return sim1_equivalent(u, v, tol)


# -- partial-unitary homotopy ----------------------------------------------

def support_invariant(u: Element, tol: float = model.TOL_PRED) -> ProjInvariant:
    """Rank invariant of the support projection |u| of a partial unitary."""
    if not model.is_partial_unitary(u, tol):
        raise NotPartialUnitary("operand fails the partial-unitary predicate")
    return proj_invariant(model.abs_value(u), tol)


def _conjugation_path(u: Element, W: list, samples: int) -> list:
    """Samples of t -> W_t u W_t* for per-component unitaries W."""
    half = [[] for _ in range(samples)]
    for a, w0 in zip(u.data, W):
        ws = kernel.unitary_log_path(w0, samples=samples)
        for i, s in enumerate(ws):
            half[i].append(s @ a @ s.conj().T)
    return [Element(u.algebra, u.row_level, u.col_level, tuple(s))
            for s in half]


def _fd_partial_unitary_path(u: Element, v: Element, samples: int) -> HomotopyPath:
    """Two-stage path: rotate the support of u onto that of v, then
    deform the corner unitary inside the common support."""
    half = samples // 2 + 1
    tol = model.TOL_PRED
    # stage 1: conjugate so supports match
    W = []
    for a, b in zip(model.abs_value(u).data, model.abs_value(v).data):
        rp, kp = _range_basis(a, tol)
        rq, kq = _range_basis(b, tol)
        W.append(np.hstack([rq, kq]) @ np.hstack([rp, kp]).conj().T)
    stage1 = _conjugation_path(u, W, half)
    mid = stage1[-1]
    # stage 2: log path between the compressions onto the shared support
    steps = [[] for _ in range(half)]
    for a, b, q in zip(mid.data, v.data, model.abs_value(v).data):
        rq, _ = _range_basis(q, tol)
        ca = rq.conj().T @ a @ rq
        cb = rq.conj().T @ b @ rq
        if ca.size:
            inner = kernel.unitary_log_path(ca.conj().T @ cb, samples=half)
            for i, s in enumerate(inner):
                steps[i].append(rq @ (ca @ s) @ rq.conj().T)
        else:
            for i in range(half):
                steps[i].append(np.zeros_like(a))
    stage2 = [Element(u.algebra, u.row_level, u.col_level, tuple(s))
              for s in steps]
    samples_all = tuple(stage1 + stage2[1:])
    return HomotopyPath(samples=samples_all, relation_domain=PARTIAL_UNITARY_SET)


def homotopic_partial_unitaries(u: Element, v: Element,
                                tol: float = model.TOL_PRED,
                                samples: int = PATH_SAMPLES):
    """u ~h v inside the partial-unitary set at a fixed level.

    fd model: true iff the support ranks agree, witnessed by a validated
    two-stage path.  Circle model: decided for the full-support case
    (reduces to unitaries, via winding) and the zero case; mixed-rank
    functions are outside the decidable fragment.
    """
    if not u.same_shape(v) or not u.is_square_level:
        raise LevelMismatch("homotopy needs operands at one common level")
    iu = support_invariant(u, tol)
    iv = support_invariant(v, tol)
    if u.algebra.variant == FD:
        if iu != iv:
            return False, None
        path = _fd_partial_unitary_path(u, v, samples)
        path.validate_strict()
        return True, path
    n = u.row_level * u.algebra.dim
    if iu.ranks == (0,) and iv.ranks == (0,):
        path = HomotopyPath(samples=(u,) * samples,
                            relation_domain=PARTIAL_UNITARY_SET)
        path.validate_strict()
        return True, path
    if iu.ranks == (n,) and iv.ranks == (n,):
        ok, p = homotopic_unitaries(u, v, tol, samples)
        if not ok:
            return False, None
        path = HomotopyPath(samples=p.samples,
                            relation_domain=PARTIAL_UNITARY_SET)
        path.validate_strict()
        return True, path
    if iu != iv:
        return False, None
    raise Unsupported(
        "circle-model homotopy of mixed-rank partial unitaries is undecided")


def simK_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED):
    """Homotopy after padding both with zeros to a common level."""
    for x in (u, v):
        if not x.is_square_level or not model.is_partial_unitary(x, tol):
            raise NotPartialUnitary("operand fails the partial-unitary predicate")
    level = max(u.row_level, v.row_level)
    up = u if u.row_level == level else direct_sum(
        u, zero(u.algebra, level - u.row_level))
    vp = v if v.row_level == level else direct_sum(
        v, zero(v.algebra, level - v.row_level))
    if u.algebra.variant == CIRCLE and up.row_level > 0:
        # zero-padding creates mixed rank unless both inputs fill their
        # padded level; fall back to the invariant-only fragment.
        iu = support_invariant(up, tol)
        iv = support_invariant(vp, tol)
        n = level * u.algebra.dim
        if iu.ranks not in ((0,), (n,)) or iv.ranks not in ((0,), (n,)):
            if iu != iv:
                return False, None
            raise Unsupported(
                "circle-model decision needs full-support or zero operands")
    return homotopic_partial_unitaries(up, vp, tol)


def approxK_equivalent(u: Element, v: Element, tol: float = model.TOL_PRED):
    """u (+) w ~K v (+) w for some w; equals ~K here because the support
    invariant is additive and cancellative."""
    return simK_equivalent(u, v, tol)


# -- homotopy transfer through the absolute value --------------------------

def abs_homotopy_transfer(path: HomotopyPath, tol_path: float = TOL_PATH):
    """Push a partial-unitary path through t -> |f(t)| and
    t -> f(t) +- (e - |f(t)|).

    Returns (projection path, (plus unitary path, minus unitary path)),
    each validated samplewise against its domain predicate.
    """
    if path.relation_domain != PARTIAL_UNITARY_SET:
        raise PreconditionFailure("transfer needs a partial-unitary path")
    proj_samples = []
    plus_samples = []
    minus_samples = []
    for i, s in enumerate(path.samples):
        a = model.abs_value(s)
        e = order_unit(s.algebra, s.row_level)
        proj_samples.append(a)
        plus_samples.append(s + (e - a))
        minus_samples.append(s - (e - a))
    proj_path = HomotopyPath(samples=tuple(proj_samples),
                             relation_domain=PROJECTION_SET,
                             step_bound=2.0 * path.step_bound)
    plus_path = HomotopyPath(samples=tuple(plus_samples),
                             relation_domain=UNITARY_SET,
                             step_bound=3.0 * path.step_bound)
    minus_path = HomotopyPath(samples=tuple(minus_samples),
                              relation_domain=UNITARY_SET,
                              step_bound=3.0 * path.step_bound)
    for p in (proj_path, plus_path, minus_path):
        p.validate_strict(tol_path)
    return proj_path, (plus_path, minus_path)
