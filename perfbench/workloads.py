"""The benchmark's workloads: closed-loop calls of ``amok.cli.main``.

One client sends the next call only after the previous one returned.
Every output is checked; a failed check is counted, never dropped or
retried.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from amok import cli, rand, serialize
from amok import equivalence as eqv

import layertrace


def percentile(values, q: int) -> float:
    """q-th percentile of two or more values, interpolated between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def call_cli(argv):
    """One CLI call: (exit code or None, wall seconds, crash message)."""
    t0 = time.perf_counter()
    try:
        rc, err = cli.main(argv), None
    except (Exception, SystemExit) as exc:  # a crash is a failed call
        rc, err = None, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, err


@dataclass
class Tally:
    """Operations attempted and the problems found in their outputs."""
    attempted: int = 0
    problems: list = field(default_factory=list)

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


def trace_metrics(tracer, reference_s: float, traced_s: float) -> dict:
    out = tracer.metrics()
    out["trace.overhead"] = (traced_s / reference_s - 1.0, "ratio")
    return out


# -- check-axioms ------------------------------------------------------------

class Axioms:
    """``check-axioms`` at a fixed ``--trials`` and ``--seed``, repeated.

    Every call must exit 0 with every property passed, and all calls of a
    run must write identical report bytes.
    """

    MIN_CALLS = 2   # a percentile needs two timed calls

    def __init__(self, algebra: dict, trials: int):
        self.algebra = algebra
        self.trials = trials

    def prepare(self, work: Path, seed: int) -> None:
        spec = work / "algebra.json"
        spec.write_text(json.dumps(self.algebra))
        self.report = work / "report.json"
        self.argv = ["check-axioms", str(spec), "--trials", str(self.trials),
                     "--seed", str(seed), "--format", "json",
                     "--out", str(self.report)]
        self.setup_inputs = [("algebra", spec)]
        self.reference = None
        self.tally = Tally()

    def call(self):
        """One checked call: (wall seconds, property trials run)."""
        self.report.unlink(missing_ok=True)
        rc, wall, problem = call_cli(self.argv)
        trials = 0
        if problem is None and rc != 0:
            problem = f"check-axioms exited {rc}"
        if problem is None:
            data = self.report.read_bytes()
            try:
                props = json.loads(data)["properties"]
                trials = sum(p["trials"] for p in props)
                failing = [p["name"] for p in props if not p["passed"]]
            except (ValueError, KeyError, TypeError) as exc:
                failing = [f"malformed report: {exc!r}"]
            if failing:
                problem = f"properties failed: {failing}"
            elif self.reference is None:
                self.reference = data
            elif data != self.reference:
                problem = "report bytes differ from the first call at this seed"
        self.tally.record(problem)
        return wall, trials

    def measure(self, seconds: float):
        self.call()   # warm-up; its report is the reference for the rest
        walls, trials = [], 0
        t0 = time.perf_counter()
        # start another call only if it should end within the run's time
        while (len(walls) < self.MIN_CALLS
               or time.perf_counter() - t0 + walls[-1] <= seconds):
            wall, n = self.call()
            walls.append(wall)
            trials += n
        loop = time.perf_counter() - t0
        metrics = {
            "trials_per_s": (trials / sum(walls), "1/s"),
            "query_ms_p90": (1e3 * percentile(walls, 90), "ms"),
            "queries_per_s": (len(walls) / loop, "1/s"),
        }
        counts = {"calls": len(walls), "warmup_calls": 1,
                  "trials_per_call": self.trials,
                  "percentile_samples": len(walls),
                  "query_ms_p50": 1e3 * statistics.median(walls),
                  "query_ms": [round(1e3 * w, 3) for w in walls]}
        return metrics, counts

    def finish(self) -> None:
        """Nothing is left to check after the loop."""

    def traced(self):
        reference, _ = self.call()
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced, _ = self.call()
        finally:
            tracer.uninstall()
        counts = {"calls": 2, "trials_per_call": self.trials}
        return tracer, trace_metrics(tracer, reference, traced), counts


# -- equiv --relation h --------------------------------------------------------

@dataclass
class Pair:
    u: Path
    v: Path
    windings: list
    first_out: Path
    repeat_out: Path
    digest: str | None = None
    problem: str | None = None       # verdict on the first output's content

    @property
    def equivalent(self) -> bool:
        return self.windings[0] == self.windings[1]


class Equiv:
    """``equiv U V --relation h`` over a pool of generated unitary pairs.

    The pool is cycled: every request of a pair must write the same
    bytes as its first request, whose report is checked in full after
    the timed loop (so the check neither delays requests nor counts in
    the peak memory of the loop).
    """

    def __init__(self, algebra: dict, pool: int, warmup: int,
                 min_requests: int):
        self.algebra = algebra
        self.pool = pool
        self.warmup = warmup
        self.min_requests = min_requests

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        negative = set(rng.permutation(self.pool)[: self.pool // 4].tolist())
        self.pairs = []
        for i in range(self.pool):
            wu = int(rng.integers(-2, 3))
            wv = wu
            if i in negative:
                wv = int(rng.choice([w for w in range(-2, 3) if w != wu]))
            self.pairs.append(Pair(work / f"u{i}.json", work / f"v{i}.json",
                                   [wu, wv], work / f"out{i}.json",
                                   work / f"out{i}-repeat.json"))
        self.generate()
        self.setup_inputs = [("element", self.pairs[0].u),
                             ("element", self.pairs[0].v)]
        self.requests = []           # (pair, problem seen at once) per request

    def generate(self) -> None:
        """Write the pool's elements; the same seed writes the same bytes."""
        algebra = serialize.parse_algebra(self.algebra)
        for i, pair in enumerate(self.pairs):
            for k, (path, w) in enumerate(zip((pair.u, pair.v), pair.windings)):
                x = rand.unitary(rand.stream(self.seed, 2 * i + k), algebra, 1,
                                 winding=w)
                path.write_text(serialize.dumps_canonical(
                    serialize.element_to_json(x)))

    def request(self) -> float:
        """Send the next pair of the cycle; return the request's wall time."""
        pair = self.pairs[len(self.requests) % self.pool]
        out = pair.first_out if pair.digest is None else pair.repeat_out
        out.unlink(missing_ok=True)
        rc, wall, problem = call_cli(
            ["equiv", str(pair.u), str(pair.v), "--relation", "h",
             "--format", "json", "--out", str(out)])
        if problem is None and rc != 0:
            problem = f"equiv exited {rc}"
        if problem is None:
            d = hashlib.sha256(out.read_bytes()).hexdigest()
            if pair.digest is None:
                pair.digest = d
            elif d != pair.digest:
                problem = "report bytes differ from the pair's first request"
        self.requests.append((pair, problem))
        return wall

    def warm_up(self) -> None:
        for _ in range(self.warmup):
            self.request()

    def measure(self, seconds: float):
        self.warm_up()
        walls = []
        t0 = time.perf_counter()
        while (len(walls) < self.min_requests
               or time.perf_counter() - t0 < seconds):
            walls.append(self.request())
        rate = len(walls) / (time.perf_counter() - t0)
        metrics = {
            "trials_per_s": (rate, "1/s"),   # one request decides one pair
            "query_ms_p90": (1e3 * percentile(walls, 90), "ms"),
            "queries_per_s": (rate, "1/s"),
        }
        counts = {"requests": len(walls), "warmup_requests": self.warmup,
                  "pool_pairs": self.pool, "percentile_samples": len(walls),
                  "query_ms_p50": 1e3 * statistics.median(walls),
                  "query_ms": [round(1e3 * w, 3) for w in walls]}
        return metrics, counts

    def traced(self):
        self.warm_up()
        tracer = layertrace.Tracer()

        def one_pass():
            t0 = time.perf_counter()
            self.generate()
            for k in range(self.pool):
                tracer.request = k
                self.request()
            return time.perf_counter() - t0

        reference = one_pass()
        tracer.install()
        try:
            traced = one_pass()
        finally:
            tracer.uninstall()
        counts = {"requests": len(self.requests), "traced_requests": self.pool,
                  "pool_pairs": self.pool}
        return tracer, trace_metrics(tracer, reference, traced), counts

    def check_pair(self, pair: Pair):
        """Problem with the pair's first report, or None if it is right."""
        report = json.loads(pair.first_out.read_bytes())
        if report["equivalent"] != pair.equivalent:
            return (f"equivalent={report['equivalent']}, "
                    f"drawn windings {pair.windings}")
        if report["windings"] != pair.windings:
            return f"windings {report['windings']}, drawn {pair.windings}"
        witness = report["witness"]
        if not pair.equivalent:
            return None if witness is None else "witness for a negative answer"
        kind, domain = witness["kind"], witness["relation_domain"]
        if (kind, domain) != ("path", eqv.UNITARY_SET):
            return f"witness is a {kind} in {domain}"
        samples = tuple(serialize.parse_element(s) for s in witness["samples"])
        # path_to_json drops step_bound, so the default bound applies
        eqv.HomotopyPath(samples, domain).validate_strict()
        for end, path in ((samples[0], pair.u), (samples[-1], pair.v)):
            given = serialize.load_element(str(path))
            gap = np.max(np.abs(np.stack(end.data) - np.stack(given.data)))
            if gap > eqv.TOL_PATH:
                return f"path endpoint is {gap:.2e} from its input"
        return None

    def finish(self) -> None:
        """Check each pair's first report, then tally every request."""
        for pair in self.pairs:
            if pair.digest is None:
                continue
            try:
                pair.problem = self.check_pair(pair)
            except Exception as exc:  # a malformed report fails its check
                pair.problem = f"{type(exc).__name__}: {exc}"
        self.tally = Tally()
        for pair, problem in self.requests:
            self.tally.record(problem or pair.problem)


# NOTES.md records why these sizes, and why axioms-circle was left out.
WORKLOADS = {
    "axioms-fd": lambda: Axioms({"variant": "fd", "blocks": [1, 2]}, trials=8),
    "equiv-circle": lambda: Equiv(
        {"variant": "circle", "dim": 2, "grid": 64}, pool=24, warmup=8,
        min_requests=100),
}

# Tiny sizes for the self-test: same code paths, seconds instead of minutes.
QUICK = {
    "axioms-fd": lambda: Axioms({"variant": "fd", "blocks": [1, 2]}, trials=1),
    "equiv-circle": lambda: Equiv(
        {"variant": "circle", "dim": 2, "grid": 16}, pool=4, warmup=4,
        min_requests=4),
}
