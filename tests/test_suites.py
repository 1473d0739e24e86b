"""Tests for the property runner: worker processes, result order, errors."""

import os
import time

import pytest

from amok import algebra, cli, serialize, suites

CPU_COUNTS = (1, 2, 3)


def fake_cpus(monkeypatch, n):
    monkeypatch.setattr(suites, "usable_cpus", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(properties, cfg=suites.RunConfig(trials=1)):
    try:
        return suites.run_properties(cfg, properties)
    finally:
        assert_no_child_left()


def sleeping(seconds, result=0.0):
    def fn(rng):
        time.sleep(seconds)
        return result
    return fn


def raising(exc, after=0.0):
    def fn(rng):
        time.sleep(after)
        raise exc
    return fn


@pytest.mark.parametrize("alg", [algebra.AlgebraSpec.fd([1, 2]),
                                 algebra.AlgebraSpec.fd([2, 2]),
                                 algebra.AlgebraSpec.circle(1, 16)],
                         ids=["fd12", "fd22", "circle1x16"])
def test_report_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                     alg):
    spec = tmp_path / "alg.json"
    spec.write_text(serialize.dumps_canonical(serialize.algebra_to_json(alg)))
    reports = []
    for n in CPU_COUNTS:
        fake_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}.json"
        assert cli.main(["check-axioms", str(spec), "--trials", "2",
                         "--format", "json", "--out", str(out)]) == 0
        assert_no_child_left()
        reports.append(out.read_bytes())
    assert len(set(reports)) == 1


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_results_come_back_in_property_order(monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    # the first properties take longest, so later ones finish first
    properties = [suites.Property(f"p{i}", 1, sleeping(0.01 * (6 - i), i))
                  for i in range(6)]
    results = run(properties)
    assert [r.name for r in results] == [p.name for p in properties]
    assert [r.worst_residual for r in results] == list(range(6))
    assert [r.passed for r in results] == [True] + [False] * 5


@pytest.mark.parametrize("cpus", [2, 3])
def test_worker_exception_reaches_the_caller(monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    parent = os.getpid()

    def only_in_a_worker(rng):
        time.sleep(0.05)
        if os.getpid() != parent:
            raise LookupError("raised in a worker")
        return 0.0

    properties = [suites.Property(f"p{i}", 1, only_in_a_worker)
                  for i in range(8)]
    with pytest.raises(LookupError, match="^raised in a worker$") as info:
        run(properties)
    cause = info.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert "LookupError: raised in a worker" in str(cause)


@pytest.mark.parametrize("head", [0.0, 0.1])
@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_lowest_failing_index_wins(monkeypatch, cpus, head):
    fake_cpus(monkeypatch, cpus)
    # index 3 fails at once, index 2 only later: a serial run raises 2.
    # A slow first property changes which process takes which index.
    properties = [suites.Property("p0", 1, sleeping(head)),
                  suites.Property("p1", 1, sleeping(0.0)),
                  suites.Property("p2", 1, raising(ValueError("two"), 0.2)),
                  suites.Property("p3", 1, raising(ZeroDivisionError("3"))),
                  suites.Property("p4", 1, sleeping(0.0))]
    with pytest.raises(ValueError, match="^two$"):
        run(properties)


class ParentStop(BaseException):
    """Raised in the calling process only, as an interrupt would be."""


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_no_child_outlives_an_error_in_the_caller(monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    parent = os.getpid()

    def stop_in_the_caller(rng):
        if os.getpid() == parent:
            raise ParentStop()
        time.sleep(0.1)
        return 0.0

    properties = [suites.Property(f"p{i}", 1, stop_in_the_caller)
                  for i in range(8)]
    with pytest.raises(ParentStop):
        run(properties)


def test_an_empty_property_list_runs_nothing(monkeypatch):
    fake_cpus(monkeypatch, 2)
    assert run([]) == []
