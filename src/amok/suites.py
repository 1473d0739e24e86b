"""Named property suites over a model algebra.

Each property draws its inputs from a per-trial RNG stream derived from
(seed, trial index), measures a residual, and records any trial whose
residual exceeds the property tolerance.  The same suites back the
command-line ``check-axioms`` run and the test suite.  Only ``cli``
imports this module, so it may import any other module of the library.

The properties of a run are independent, so they run on forked worker
processes, one per usable CPU, with the calling process as one of them.
Results are collected in property order, so the report bytes are the
same for any CPU count.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import equivalence as eqv
from . import kernel, kgroups, model, rand
from .algebra import (AlgebraSpec, Element, dilate, direct_sum,
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


class Property(NamedTuple):
    """A law checked on ``trials`` seeded trials: ``fn(rng)`` returns a
    residual from the trial's stream ``rand.stream(seed, t)``, and a
    trial fails above ``tol``."""
    name: str
    trials: int
    fn: Callable
    tol: float = RESIDUAL_TOL


def _run(cfg: RunConfig, prop: Property) -> PropertyResult:
    worst = 0.0
    failures = []
    for t in range(prop.trials):
        rng = rand.stream(cfg.seed, t)
        try:
            with model.memo_scope():
                res = float(prop.fn(rng))
        except AmokError as exc:
            failures.append({"trial": t, "seed": cfg.seed,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        if not math.isfinite(res):
            # NaN would pass every comparison, and the report refuses both
            failures.append({"trial": t, "seed": cfg.seed,
                             "error": f"non-finite residual {res}"})
            continue
        worst = max(worst, res)
        if res > prop.tol:
            failures.append({"trial": t, "seed": cfg.seed, "residual": res})
    return PropertyResult(prop.name, prop.trials, worst, failures)


# -- the runner: properties on forked workers ------------------------------

_INDEX_BYTES = 4   # one property index on the task pipe


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drain(tasks: int) -> None:
    """Empty the task pipe, whose write end is closed."""
    while os.read(tasks, 1 << 16):
        pass


def _take(tasks: int, cfg: RunConfig, properties: list) -> tuple:
    """Run the properties whose indices this process reads from the task
    pipe, one at a time until EOF: ``({index: result}, failure)``.

    ``failure`` is None, or ``(index, exception)`` for the first
    exception; the queue is then drained, so every process stops after
    its current property.  Every index below a failing one was taken
    before it and still runs, so the lowest failing index over all
    processes is the one a serial run raises first.
    """
    done = {}
    while chunk := os.read(tasks, _INDEX_BYTES):
        i = int.from_bytes(chunk, "little")
        try:
            done[i] = _run(cfg, properties[i])
        except Exception as exc:
            _drain(tasks)
            return done, (i, exc)
    return done, None


def _fork_worker(tasks: int, cfg: RunConfig, properties: list,
                 inherited: list) -> tuple:
    """Fork a child that runs ``_take`` and pickles its outcome, with the
    traceback text of a failure, to a pipe of its own.  Returns
    ``(pid, read end of that pipe)``; the child closes ``inherited``,
    the read ends of earlier children."""
    out, feed = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(out)
        os.close(feed)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (*inherited, out):
                os.close(fd)
            done, failure = _take(tasks, cfg, properties)
            if failure is not None:
                import traceback  # loaded only by a failing worker
                failure += ("".join(traceback.format_exception(failure[1])),)
            with open(feed, "wb") as fh:
                pickle.dump((done, failure), fh)
            status = 0
        finally:
            # never flush the parent's buffers or run its exit handlers
            os._exit(status)
    os.close(feed)
    return pid, out


def run_properties(cfg: RunConfig, properties: list) -> list:
    """``_run`` every property; return the results in property order.

    The properties run on ``min(usable_cpus(), len(properties))``
    processes: this one and forked children, each taking one property
    index at a time from a shared pipe.  A trial draws only from
    ``rand.stream(seed, t)``, so no result depends on the process that
    computes it.  With one worker, or without ``os.fork``, every
    property runs here.  An exception is re-raised here from the lowest
    failing property index, the one a serial run raises first; no child
    outlives the call.
    """
    workers = min(usable_cpus(), len(properties)) if hasattr(os, "fork") else 1
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                            for i in range(len(properties))))
    os.close(feed)
    children, payloads = [], []
    try:
        for _ in range(workers - 1):
            children.append(_fork_worker(tasks, cfg, properties,
                                         [out for _, out in children]))
        done, failure = _take(tasks, cfg, properties)
        for _, out in children:
            with open(out, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    finally:
        # after an error here, the empty queue and the closed read ends
        # let each child finish its current property and exit
        _drain(tasks)
        os.close(tasks)
        for _, out in children:
            os.close(out)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    failures = [failure] if failure else []
    for (pid, _), status, payload in zip(children, statuses, payloads):
        if status != 0:
            raise ChildProcessError(
                f"property worker {pid} ended with wait status {status}")
        theirs, their_failure = pickle.loads(payload)
        done.update(theirs)
        if their_failure is not None:
            index, exc, text = their_failure
            exc.__cause__ = ChildProcessError(
                f"raised in property worker {pid}:\n{text}")
            failures.append((index, exc))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [done[i] for i in range(len(properties))]


def _bool(ok) -> float:
    return 0.0 if ok else 1.0


def _neg_part(v: Element) -> float:
    """How far a self-adjoint element is from being positive."""
    return max([0.0] + [-float(np.min(kernel.min_eig_stack(a)))
                        for a in v.stacks])


def _levels(rng):
    return int(rng.integers(1, 4)), int(rng.integers(1, 4))


# -- element-calculus properties -------------------------------------------

def _model_properties(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    properties = []
    t_all = cfg.trials
    t_slow = max(10, cfg.trials // 4)

    def abs_scalar_contraction(rng):
        m, n = _levels(rng)
        r, s = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        alpha = (rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m)))
        beta = (rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s)))
        lhs = model.abs_value(scalar_conjugate(alpha, v, beta))
        vb = scalar_conjugate(np.eye(n), model.abs_value(v), beta)
        rhs = model.abs_value(vb).scale(kernel.spectral_norm_stack(alpha[None]))
        return _neg_part(rhs - lhs)

    properties.append(Property("abs-scalar-contraction", t_all,
                               abs_scalar_contraction))

    def abs_direct_sum(rng):
        m, n = _levels(rng)
        u = rand.element(rng, algebra, m, n)
        w = rand.element(rng, algebra, n, m)
        lhs = model.abs_value(direct_sum(u, w))
        rhs = direct_sum(model.abs_value(u), model.abs_value(w))
        return model.distance(lhs, rhs)

    properties.append(Property("abs-direct-sum", t_all, abs_direct_sum))

    def abs_dilation(rng):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        lhs = model.abs_value(dilate(v))
        rhs = direct_sum(model.abs_value(v.adjoint()), model.abs_value(v))
        return model.distance(lhs, rhs)

    properties.append(Property("abs-dilation", t_all, abs_dilation))

    def abs_corner_positive(rng):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        top = model.abs_value(v.adjoint())
        bot = model.abs_value(v)
        corner = Element(algebra, m + n, m + n, tuple(
            np.block([[a, x], [x.conj().transpose(0, 2, 1), b]])
            for a, x, b in zip(top.stacks, v.stacks, bot.stacks)))
        return _neg_part(corner)

    properties.append(Property("abs-corner-positive", t_all,
                               abs_corner_positive))

    def abs_idempotent(rng):
        m, n = _levels(rng)
        a = model.abs_value(rand.element(rng, algebra, m, n))
        return model.distance(model.abs_value(a), a)

    properties.append(Property("abs-idempotent-on-positives", t_all,
                               abs_idempotent))

    def orth_sum_iff(rng):
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

    properties.append(Property("orthogonality-sum-iff", t_all, orth_sum_iff))

    def orth_scalar_invariance(rng):
        n = int(rng.integers(1, 4))
        u, v = rand.orthogonal_pair(rng, algebra, n)
        alpha, beta = rand._cnormal(rng, (2,))
        return _bool(model.orthogonal(u.scale(alpha), v.scale(beta),
                                      cfg.tol_pred))

    properties.append(Property("orthogonality-scalar-invariance", t_all,
                               orth_scalar_invariance))

    def orth_equals_algebraic(rng):
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

    properties.append(Property("orthogonal-equals-algebraic", t_all,
                               orth_equals_algebraic))

    def norm_bisect_agreement(rng):
        m, n = _levels(rng)
        v = rand.element(rng, algebra, m, n)
        return abs(model.order_unit_norm(v, cfg.tol_bisect) - model.op_norm(v))

    properties.append(Property("norm-bisection-agreement", t_slow,
                               norm_bisect_agreement, tol=10 * cfg.tol_bisect))

    def norm_direct_sum_max(rng):
        m, n = _levels(rng)
        u = rand.element(rng, algebra, m, m)
        w = rand.element(rng, algebra, n, n)
        lhs = model.order_unit_norm(direct_sum(u, w), cfg.tol_bisect)
        return abs(lhs - max(model.op_norm(u), model.op_norm(w)))

    properties.append(Property("norm-direct-sum-max", t_slow,
                               norm_direct_sum_max, tol=10 * cfg.tol_bisect))

    def isometry_abs(rng):
        m, n = _levels(rng)
        r = m + int(rng.integers(0, 3))
        v = rand.element(rng, algebra, m, n)
        g = rand._cnormal(rng, (r, m))
        q, _ = np.linalg.qr(g)
        alpha = q[:, :m]
        lhs = model.abs_value(scalar_conjugate(alpha, v, np.eye(n)))
        return model.distance(lhs, model.abs_value(v))

    properties.append(Property("isometry-preserves-abs", t_all, isometry_abs))

    def unitary_conj_abs(rng):
        n = int(rng.integers(1, 4))
        v = rand.element(rng, algebra, n, n)
        g = rand._cnormal(rng, (n, n))
        q, _ = np.linalg.qr(g)
        lhs = model.abs_value(scalar_conjugate(q.conj().T, v, q))
        rhs = scalar_conjugate(q.conj().T, model.abs_value(v), q)
        return model.distance(lhs, rhs)

    properties.append(Property("unitary-scalar-conjugation-abs", t_all,
                               unitary_conj_abs))

    def classify_lattice(rng):
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

    properties.append(Property("classify-implication-lattice", t_slow,
                               classify_lattice))

    def abs_continuity(rng):
        return kgroups.abs_hoelder_excess(rng, algebra,
                                          int(rng.integers(1, 4)))

    properties.append(Property("abs-continuity", t_slow, abs_continuity))

    return properties


# -- equivalence properties ------------------------------------------------

def _equivalence_properties(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    # the simK properties build partial-unitary paths at the library's step
    # bound; a tol_path no such path can meet is bad input, not a failure
    eqv._require_step_bound(eqv.PARTIAL_UNITARY_SET, eqv.STEP_BOUND,
                            cfg.tol_path)
    properties = []
    t_fast = max(10, cfg.trials // 4)
    t_path = max(5, cfg.trials // 20)

    tol, tol_path = cfg.tol_pred, cfg.tol_path

    def _rand_proj_pair_same_rank(rng, level):
        ranks = rand.uniform_ranks(rng, algebra, level)
        return (rand.projection(rng, algebra, level, ranks),
                rand.projection(rng, algebra, level, ranks))

    def proj_pad(rng):
        p = rand.projection(rng, algebra, 1)
        left = direct_sum(zero(algebra, 1), p)
        right = direct_sum(p, zero(algebra, 1))
        return _bool(eqv.stabilized_projection_equiv(p, left, tol)[0]
                     and eqv.stabilized_projection_equiv(p, right, tol)[0])

    properties.append(Property("projection-zero-padding", t_fast, proj_pad))

    def proj_sum_compat(rng):
        p, p2 = _rand_proj_pair_same_rank(rng, 1)
        q, q2 = _rand_proj_pair_same_rank(rng, 1)
        return _bool(eqv.mvn_equivalent(direct_sum(p, q),
                                        direct_sum(p2, q2), tol)[0])

    properties.append(Property("projection-sum-compatible", t_fast,
                               proj_sum_compat))

    def proj_swap(rng):
        p = rand.projection(rng, algebra, 1)
        q = rand.projection(rng, algebra, 1)
        return _bool(eqv.mvn_equivalent(direct_sum(p, q),
                                        direct_sum(q, p), tol)[0])

    properties.append(Property("projection-swap", t_fast, proj_swap))

    def proj_orth_add(rng):
        u, v = rand.positive_orthogonal_pair(rng, algebra, 1)
        # snap the disjoint-support positives to projections
        p = _support_projection(u)
        q = _support_projection(v)
        if not model.orthogonal(p, q, tol):
            return 1.0
        return _bool(eqv.mvn_equivalent(p + q, direct_sum(p, q), tol)[0])

    properties.append(Property("orthogonal-sum-matches-direct-sum", t_fast,
                               proj_orth_add))

    def condition_t(rng):
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

    properties.append(Property("condition-T-transport", t_fast, condition_t))

    def holds(decide, x, y) -> bool:
        """The decision of a path decider at the run's tolerances."""
        return decide(x, y, tol, tol_path=tol_path)[0]

    def unitary_homotopy(rng):
        w = rand.draw_winding(rng, algebra, 2)
        u = rand.unitary(rng, algebra, 2, winding=w)
        v = rand.unitary(rng, algebra, 2, winding=w)
        return _bool(holds(eqv.homotopic_unitaries, u, v))

    properties.append(Property("unitary-homotopy-paths", t_path,
                               unitary_homotopy))

    def sim1_laws(rng):
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

    properties.append(Property("sim1-equivalence-laws", t_path, sim1_laws))

    def decided_ranks(rng):
        # uniform where the rank is decided (fd blocks), full support on
        # the grids, which draw nothing
        return eqv.decided_ranks(algebra,
                                 lambda s: int(rng.integers(0, s + 1)))

    def simK_laws(rng):
        ranks = decided_ranks(rng)
        w0 = rand.draw_winding(rng, algebra, 1)
        u = rand.partial_unitary(rng, algebra, 1, ranks, winding=w0)
        v = rand.partial_unitary(rng, algebra, 1, ranks, winding=w0)
        simK = eqv.simK_equivalent
        ok = holds(simK, u, u)
        uv = holds(simK, u, v)
        ok = ok and uv == holds(simK, v, u)
        return _bool(ok)

    properties.append(Property("simK-equivalence-laws", t_path, simK_laws))

    def approx_consistency(rng):
        w0 = rand.draw_winding(rng, algebra, 1)
        w1 = rand.draw_winding(rng, algebra, 1)
        u = rand.unitary(rng, algebra, 1, winding=w0)
        v = rand.unitary(rng, algebra, 1, winding=w1)
        w = rand.unitary(rng, algebra, 1, winding=0)
        lhs = holds(eqv.sim1_equivalent, direct_sum(u, w), direct_sum(v, w))
        rhs = holds(eqv.approx1_equivalent, u, v)
        return _bool(lhs == rhs)

    properties.append(Property("stabilization-consistency", t_path,
                               approx_consistency))

    def cancellation(rng):
        r1, r2, rw = [decided_ranks(rng) for _ in range(3)]
        u = rand.partial_unitary(rng, algebra, 1, r1,
                                 winding=rand.draw_winding(rng, algebra, 1))
        v = rand.partial_unitary(rng, algebra, 1, r2,
                                 winding=rand.draw_winding(rng, algebra, 1))
        w = rand.partial_unitary(rng, algebra, 1, rw)
        lhs = holds(eqv.simK_equivalent, direct_sum(u, w), direct_sum(v, w))
        rhs = holds(eqv.simK_equivalent, u, v)
        return _bool(lhs == rhs)

    properties.append(Property("simK-cancellation", t_path, cancellation))

    return properties


def _support_projection(u: Element) -> Element:
    """Spectral support projection of a positive element."""
    stacks = []
    for w, V in model.spectrum(u):
        m = (V * (w > 0.1)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        stacks.append((m + m.conj().transpose(0, 2, 1)) / 2.0)
    return Element(u.algebra, u.row_level, u.col_level, tuple(stacks))


def check_axioms(algebra: AlgebraSpec, cfg: RunConfig) -> list:
    return run_properties(cfg, _model_properties(algebra, cfg)
                          + _equivalence_properties(algebra, cfg))
