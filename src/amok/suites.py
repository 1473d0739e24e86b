"""Named property suites over a model algebra.

Each property draws its inputs from a per-trial RNG stream derived from
(seed, trial index), measures a residual, and records any trial whose
residual exceeds the property tolerance.  The same suites back the
command-line ``check-axioms`` run and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import equivalence as eqv
from . import kernel, model, rand
from .algebra import (FD, AlgebraSpec, Element, dilate, direct_sum,
                      scalar_conjugate, zero)
from .errors import AmokError

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 200
    tol_pred: float = model.TOL_PRED
    tol_path: float = eqv.TOL_PATH
    tol_bisect: float = model.TOL_BISECT


@dataclass
class PropertyResult:
    name: str
    trials: int
    worst_residual: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "trials": self.trials,
                "worst_residual": self.worst_residual,
                "failures": self.failures, "passed": self.passed}


def _run(name: str, cfg: RunConfig, trials: int, fn,
         tol: float = RESIDUAL_TOL) -> PropertyResult:
    worst = 0.0
    failures = []
    for t in range(trials):
        rng = rand.stream(cfg.seed, t)
        try:
            with model.memo_scope():
                res = float(fn(rng, t))
        except AmokError as exc:
            failures.append({"trial": t, "seed": cfg.seed,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        worst = max(worst, res)
        if res > tol:
            failures.append({"trial": t, "seed": cfg.seed, "residual": res})
    return PropertyResult(name, trials, worst, failures)


def _bool(ok) -> float:
    return 0.0 if ok else 1.0


def _neg_part(v: Element) -> float:
    """How far a self-adjoint element is from being positive."""
    return max([0.0] + [-float(np.min(kernel.min_eig_stack(a)))
                        for a in v.stacks])


def _levels(rng):
    return int(rng.integers(1, 4)), int(rng.integers(1, 4))


# -- element-calculus properties -------------------------------------------

def model_suite(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    results = []
    t_all = cfg.trials
    t_slow = max(10, cfg.trials // 4)

    def abs_scalar_contraction(rng, t):
        m, n = _levels(rng)
        r, s = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        alpha = (rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m)))
        beta = (rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s)))
        lhs = model.abs_value(scalar_conjugate(alpha, v, beta))
        vb = scalar_conjugate(np.eye(n), model.abs_value(v), beta)
        rhs = model.abs_value(vb).scale(float(np.linalg.norm(alpha, 2)))
        return _neg_part(rhs - lhs)

    results.append(_run("abs-scalar-contraction", cfg, t_all,
                        abs_scalar_contraction))

    def abs_direct_sum(rng, t):
        m, n = _levels(rng)
        u = rand.element(rng, algebra, m, n)
        w = rand.element(rng, algebra, n, m)
        lhs = model.abs_value(direct_sum(u, w))
        rhs = direct_sum(model.abs_value(u), model.abs_value(w))
        return model.distance(lhs, rhs)

    results.append(_run("abs-direct-sum", cfg, t_all, abs_direct_sum))

    def abs_dilation(rng, t):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        lhs = model.abs_value(dilate(v))
        rhs = direct_sum(model.abs_value(v.adjoint()), model.abs_value(v))
        return model.distance(lhs, rhs)

    results.append(_run("abs-dilation", cfg, t_all, abs_dilation))

    def abs_corner_positive(rng, t):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        top = model.abs_value(v.adjoint())
        bot = model.abs_value(v)
        corner = Element(algebra, m + n, m + n, tuple(
            np.block([[a, x], [x.conj().transpose(0, 2, 1), b]])
            for a, x, b in zip(top.stacks, v.stacks, bot.stacks)))
        return _neg_part(corner)

    results.append(_run("abs-corner-positive", cfg, t_all, abs_corner_positive))

    def abs_idempotent(rng, t):
        m, n = _levels(rng)
        a = model.abs_value(rand.element(rng, algebra, m, n))
        return model.distance(model.abs_value(a), a)

    results.append(_run("abs-idempotent-on-positives", cfg, t_all,
                        abs_idempotent))

    def orth_sum_iff(rng, t):
        n = int(rng.integers(1, 4))
        u, v = rand.orthogonal_pair(rng, algebra, n)
        res = 0.0
        for a, b in ((u, v), (u.adjoint(), v.adjoint())):
            for sign in (1.0, -1.0):
                lhs = model.abs_value(a + b.scale(sign))
                rhs = model.abs_value(a) + model.abs_value(b)
                res = max(res, model.distance(lhs, rhs))
        # converse: a generic dense pair is not orthogonal and breaks
        # at least one of the sum identities
        x = rand.element(rng, algebra, n, n)
        y = rand.element(rng, algebra, n, n)
        if not model.orthogonal(x, y, cfg.tol_pred):
            gap = model.distance(model.abs_value(x + y),
                                 model.abs_value(x) + model.abs_value(y))
            if gap <= cfg.tol_pred:
                gap = model.distance(model.abs_value(x - y),
                                     model.abs_value(x) + model.abs_value(y))
                if gap <= cfg.tol_pred:
                    res = max(res, 1.0)
        return res

    results.append(_run("orthogonality-sum-iff", cfg, t_all, orth_sum_iff))

    def orth_scalar_invariance(rng, t):
        n = int(rng.integers(1, 4))
        u, v = rand.orthogonal_pair(rng, algebra, n)
        alpha, beta = rand._cnormal(rng, (2,))
        return _bool(model.orthogonal(u.scale(alpha), v.scale(beta),
                                      cfg.tol_pred))

    results.append(_run("orthogonality-scalar-invariance", cfg, t_all,
                        orth_scalar_invariance))

    def orth_equals_algebraic(rng, t):
        n = int(rng.integers(1, 4))
        u, v = rand.positive_orthogonal_pair(rng, algebra, n)
        tol = cfg.tol_pred
        ok = model.orthogonal(u, v, tol) and model.orthogonal_infty_a(u, v, tol)
        # the normalized-sum characterization only covers nonzero operands
        if min(model.op_norm(u), model.op_norm(v)) > tol:
            ok = ok and model.orthogonal_infty(u, v, tol)
        x = rand.positive(rng, algebra, n)
        y = rand.positive(rng, algebra, n)
        ok = ok and (model.orthogonal(x, y, tol)
                     == model.orthogonal_infty_a(x, y, tol))
        return _bool(ok)

    results.append(_run("orthogonal-equals-algebraic", cfg, t_all,
                        orth_equals_algebraic))

    def norm_bisect_agreement(rng, t):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        return abs(model.order_unit_norm(v, cfg.tol_bisect) - model.op_norm(v))

    results.append(_run("norm-bisection-agreement", cfg, t_slow,
                        norm_bisect_agreement, tol=10 * cfg.tol_bisect))

    def norm_direct_sum_max(rng, t):
        m, n = _levels(rng)
        u = rand.element(rng, algebra, m, m)
        w = rand.element(rng, algebra, n, n)
        lhs = model.order_unit_norm(direct_sum(u, w), cfg.tol_bisect)
        return abs(lhs - max(model.op_norm(u), model.op_norm(w)))

    results.append(_run("norm-direct-sum-max", cfg, t_slow,
                        norm_direct_sum_max, tol=10 * cfg.tol_bisect))

    def isometry_abs(rng, t):
        m, n = _levels(rng)
        r = m + int(rng.integers(0, 3))
        v = rand.element(rng, algebra, m, n)
        g = rand._cnormal(rng, (r, m))
        q, _ = np.linalg.qr(g)
        alpha = q[:, :m]
        lhs = model.abs_value(scalar_conjugate(alpha, v, np.eye(n)))
        return model.distance(lhs, model.abs_value(v))

    results.append(_run("isometry-preserves-abs", cfg, t_all, isometry_abs))

    def unitary_conj_abs(rng, t):
        n = int(rng.integers(1, 4))
        v = rand.element(rng, algebra, n, n)
        g = rand._cnormal(rng, (n, n))
        q, _ = np.linalg.qr(g)
        lhs = model.abs_value(scalar_conjugate(q.conj().T, v, q))
        rhs = scalar_conjugate(q.conj().T, model.abs_value(v), q)
        return model.distance(lhs, rhs)

    results.append(_run("unitary-scalar-conjugation-abs", cfg, t_all,
                        unitary_conj_abs))

    def classify_lattice(rng, t):
        n = int(rng.integers(1, 3))
        ok = True
        for maker in (rand.projection, rand.partial_unitary):
            c = model.classify(maker(rng, algebra, n), cfg.tol_pred)
            if c.is_order_projection and not (
                    c.is_selfadjoint and c.is_positive and c.is_partial_unitary):
                ok = False
            if c.is_unitary and not (c.is_partial_isometry and c.is_partial_unitary):
                ok = False
        u = rand.unitary(rng, algebra, n)
        cu = model.classify(u, cfg.tol_pred)
        ok = ok and cu.is_unitary and cu.is_partial_isometry and cu.is_partial_unitary
        p = model.classify(rand.projection(rng, algebra, n), cfg.tol_pred)
        ok = ok and p.is_order_projection
        return _bool(ok)

    results.append(_run("classify-implication-lattice", cfg, t_slow,
                        classify_lattice))

    def abs_continuity(rng, t):
        n = int(rng.integers(1, 4))
        v = rand.element(rng, algebra, n, n)
        res = 0.0
        for delta in (1e-2, 1e-4, 1e-6):
            d = rand.element(rng, algebra, n, n, scale=delta)
            gap = model.distance(model.abs_value(v + d), model.abs_value(v))
            # square-root Hoelder bound with a generous stable constant
            if gap > 40.0 * np.sqrt(delta):
                res = max(res, gap)
        return res

    results.append(_run("abs-continuity", cfg, t_slow, abs_continuity))

    return results


# -- equivalence properties ------------------------------------------------

def equivalence_suite(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    results = []
    t_fast = max(10, cfg.trials // 4)
    t_path = max(5, cfg.trials // 20)

    tol, tol_path = cfg.tol_pred, cfg.tol_path

    def _rand_proj_pair_same_rank(rng, level):
        ranks = rand.uniform_ranks(rng, algebra, level)
        return (rand.projection(rng, algebra, level, ranks),
                rand.projection(rng, algebra, level, ranks))

    def proj_pad(rng, t):
        p = rand.projection(rng, algebra, 1)
        left = direct_sum(zero(algebra, 1), p)
        right = direct_sum(p, zero(algebra, 1))
        return _bool(eqv.stabilized_projection_equiv(p, left, tol)[0]
                     and eqv.stabilized_projection_equiv(p, right, tol)[0])

    results.append(_run("projection-zero-padding", cfg, t_fast, proj_pad))

    def proj_sum_compat(rng, t):
        p, p2 = _rand_proj_pair_same_rank(rng, 1)
        q, q2 = _rand_proj_pair_same_rank(rng, 1)
        return _bool(eqv.mvn_equivalent(direct_sum(p, q),
                                        direct_sum(p2, q2), tol)[0])

    results.append(_run("projection-sum-compatible", cfg, t_fast,
                        proj_sum_compat))

    def proj_swap(rng, t):
        p = rand.projection(rng, algebra, 1)
        q = rand.projection(rng, algebra, 1)
        return _bool(eqv.mvn_equivalent(direct_sum(p, q),
                                        direct_sum(q, p), tol)[0])

    results.append(_run("projection-swap", cfg, t_fast, proj_swap))

    def proj_orth_add(rng, t):
        u, v = rand.positive_orthogonal_pair(rng, algebra, 1)
        # snap the disjoint-support positives to projections
        p = _support_projection(u)
        q = _support_projection(v)
        if not model.orthogonal(p, q, tol):
            return 1.0
        return _bool(eqv.mvn_equivalent(p + q, direct_sum(p, q), tol)[0])

    results.append(_run("orthogonal-sum-matches-direct-sum", cfg, t_fast,
                        proj_orth_add))

    def condition_t(rng, t):
        p = rand.projection(rng, algebra, 2)
        u = rand.unitary(rng, algebra, 2).matmul(p)
        v = rand.unitary(rng, algebra, 2).matmul(p)
        cu = eqv.PartialIsometryCertificate(
            u, model.abs_value(u), model.abs_value(u.adjoint()))
        cv = eqv.PartialIsometryCertificate(
            v, model.abs_value(v), model.abs_value(v.adjoint()))
        # the transport raises PredicateFailure unless its certificate
        # validates
        eqv.condition_T_transport(cu, cv, tol)
        return 0.0

    results.append(_run("condition-T-transport", cfg, t_fast, condition_t))

    def holds(decide, x, y) -> bool:
        """The decision of a path decider at the run's tolerances."""
        return decide(x, y, tol, tol_path=tol_path)[0]

    def unitary_homotopy(rng, t):
        w = rand.draw_winding(rng, algebra, 2)
        u = rand.unitary(rng, algebra, 2, winding=w)
        v = rand.unitary(rng, algebra, 2, winding=w)
        return _bool(holds(eqv.homotopic_unitaries, u, v))

    results.append(_run("unitary-homotopy-paths", cfg, t_path,
                        unitary_homotopy))

    def sim1_laws(rng, t):
        ws = [rand.draw_winding(rng, algebra, 1) for _ in range(2)]
        u = rand.unitary(rng, algebra, 1, winding=ws[0])
        v = rand.unitary(rng, algebra, 1, winding=ws[0])
        w = rand.unitary(rng, algebra, 2, winding=ws[1])
        sim1 = eqv.sim1_equivalent
        ok = holds(sim1, u, u)                                 # reflexive
        uv = holds(sim1, u, v)
        ok = ok and uv == holds(sim1, v, u)                    # symmetric
        if uv and holds(sim1, v, w):                           # transitive
            ok = ok and holds(sim1, u, w)
        return _bool(ok)

    results.append(_run("sim1-equivalence-laws", cfg, t_path, sim1_laws))

    def decided_ranks(rng):
        # circle partial unitaries are decided at full or zero support only
        if algebra.variant == FD:
            return rand.uniform_ranks(rng, algebra, 1)
        return [algebra.dim]

    def simK_laws(rng, t):
        ranks = decided_ranks(rng)
        w0 = rand.draw_winding(rng, algebra, 1)
        u = rand.partial_unitary(rng, algebra, 1, ranks, winding=w0)
        v = rand.partial_unitary(rng, algebra, 1, ranks, winding=w0)
        simK = eqv.simK_equivalent
        ok = holds(simK, u, u)
        uv = holds(simK, u, v)
        ok = ok and uv == holds(simK, v, u)
        return _bool(ok)

    results.append(_run("simK-equivalence-laws", cfg, t_path, simK_laws))

    def approx_consistency(rng, t):
        w0 = rand.draw_winding(rng, algebra, 1)
        w1 = rand.draw_winding(rng, algebra, 1)
        u = rand.unitary(rng, algebra, 1, winding=w0)
        v = rand.unitary(rng, algebra, 1, winding=w1)
        w = rand.unitary(rng, algebra, 1, winding=0)
        lhs = holds(eqv.sim1_equivalent, direct_sum(u, w), direct_sum(v, w))
        rhs = holds(eqv.approx1_equivalent, u, v)
        return _bool(lhs == rhs)

    results.append(_run("stabilization-consistency", cfg, t_path,
                        approx_consistency))

    def cancellation(rng, t):
        r1, r2, rw = [decided_ranks(rng) for _ in range(3)]
        u = rand.partial_unitary(rng, algebra, 1, r1,
                                 winding=rand.draw_winding(rng, algebra, 1))
        v = rand.partial_unitary(rng, algebra, 1, r2,
                                 winding=rand.draw_winding(rng, algebra, 1))
        w = rand.partial_unitary(rng, algebra, 1, rw)
        lhs = holds(eqv.simK_equivalent, direct_sum(u, w), direct_sum(v, w))
        rhs = holds(eqv.simK_equivalent, u, v)
        return _bool(lhs == rhs)

    results.append(_run("simK-cancellation", cfg, t_path, cancellation))

    return results


def _support_projection(u: Element) -> Element:
    """Spectral support projection of a positive element."""
    stacks = []
    for a in u.stacks:
        w, V = kernel.eig_stack(a)
        m = (V * (w > 0.1)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        stacks.append((m + m.conj().transpose(0, 2, 1)) / 2.0)
    return Element(u.algebra, u.row_level, u.col_level, tuple(stacks))


def check_axioms(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    return model_suite(algebra, cfg) + equivalence_suite(algebra, cfg)
