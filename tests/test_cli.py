"""Tests for the command-line front end: exit codes, reports, determinism."""

import contextlib
import importlib.util
import io
import json
from collections import Counter
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from amok import (algebra, cli, equivalence as eqv, errors, kernel, kgroups,
                  model, rand, serialize, suites)

from draws import circle_function

SRC = Path(__file__).resolve().parents[1] / "src"

M2 = algebra.AlgebraSpec.fd([2])
FD23 = algebra.AlgebraSpec.fd([2, 3])
CIRCLE1 = algebra.AlgebraSpec.circle(1, 64)


def write_json(path, obj):
    path.write_text(serialize.dumps_canonical(obj))
    return str(path)


def write_algebra(path, alg):
    return write_json(path, serialize.algebra_to_json(alg))


def write_element(path, v):
    return write_json(path, serialize.element_to_json(v))


def test_check_axioms_passes_small_run(tmp_path, capsys):
    spec = write_algebra(tmp_path / "alg.json", M2)
    code = cli.main(["check-axioms", spec, "--trials", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check-axioms"
    assert all(p["passed"] for p in report["properties"])
    assert all(p["worst_residual"] <= 1e-8 for p in report["properties"])


@pytest.mark.parametrize("residual", [float("nan"), float("inf")])
def test_check_axioms_fails_a_non_finite_residual(tmp_path, capsys,
                                                  monkeypatch, residual):
    spec = write_algebra(tmp_path / "alg.json", M2)
    prop = suites.Property("non_finite", 3, lambda rng: residual)
    monkeypatch.setattr(suites, "check_axioms",
                        lambda alg, cfg: suites.run_properties(cfg, [prop]))
    code = cli.main(["check-axioms", spec, "--trials", "3", "--format",
                     "json"])
    assert code == 1
    (result,) = json.loads(capsys.readouterr().out)["properties"]
    assert not result["passed"] and result["worst_residual"] == 0.0
    assert [f["trial"] for f in result["failures"]] == [0, 1, 2]
    assert all(f["error"] == f"non-finite residual {residual}"
               for f in result["failures"])


def test_check_axioms_refuses_a_tol_path_no_partial_unitary_path_can_meet(
        tmp_path, capsys):
    # the simK properties build partial-unitary paths at the step bound
    # 0.2, and step bound plus tol_path must stay below the ceiling 1/2
    spec = write_algebra(tmp_path / "alg.json", algebra.AlgebraSpec.fd([1, 2]))
    out = tmp_path / "report.json"
    args = ["check-axioms", spec, "--trials", "2", "--format", "json",
            "--out", str(out), "--tol-path"]
    assert cli.main(args + ["0.3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error (PreconditionFailure): step bound 0.2 plus tol_path 0.3 "
        "is not below the partial_unitary ceiling 0.5\n"))
    assert not out.exists()
    assert cli.main(args + ["0.29"]) == 0
    properties = json.loads(out.read_text())["properties"]
    assert len(properties) == 24 and all(p["passed"] for p in properties)


def test_malformed_json_gives_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["check-axioms", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "SpecParseError" in err


def test_unknown_field_gives_exit_2(tmp_path, capsys):
    spec = tmp_path / "alg.json"
    obj = serialize.algebra_to_json(M2)
    obj["bogus"] = 1
    spec.write_text(json.dumps(obj))
    assert cli.main(["check-axioms", str(spec)]) == 2
    capsys.readouterr()


def test_boolean_block_gives_exit_2(tmp_path, capsys):
    spec = write_json(tmp_path / "alg.json",
                      {"variant": "fd", "blocks": [True, 2]})
    assert cli.main(["check-axioms", spec, "--trials", "1"]) == 2
    assert "SpecParseError" in capsys.readouterr().err


@pytest.mark.parametrize("dim, grid, message", [
    (0, 16, "circle model needs dim >= 1"),
    (1, 48, "grid_points must be a power of two"),
    (2, 4, "grid_points must be at least 4*dim"),
])
def test_bad_circle_spec_gives_exit_2_with_its_message(tmp_path, capsys,
                                                       dim, grid, message):
    spec = write_json(tmp_path / "alg.json",
                      {"variant": "circle", "dim": dim, "grid": grid})
    assert cli.main(["kgroup", spec, "--which", "k"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error (SpecParseError): algebra: {message}\n"


def test_failing_properties_are_listed_with_their_failures(tmp_path,
                                                           capsys):
    # no residual is within 1e-300, so most properties fail
    spec = write_algebra(tmp_path / "alg.json",
                         algebra.AlgebraSpec.fd([1, 2]))
    assert cli.main(["check-axioms", spec, "--trials", "1",
                     "--tol-pred", "1e-300"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [i for i, line in enumerate(lines) if "[FAIL]" in line]
    assert len(failed) == 13
    for i in failed:
        count = int(re.search(r"failures=(\d+)$", lines[i]).group(1))
        assert count >= 1
        entries = lines[i + 1:i + 1 + min(count, 3)]
        assert all(e.startswith("      {'trial': ") for e in entries)
        assert not lines[i + 1 + len(entries)].startswith("      ")


def test_nan_entry_gives_exit_2(tmp_path, capsys):
    obj = serialize.element_to_json(algebra.order_unit(M2, 1))
    obj["data"][0][0][0] = [float("nan"), 0.0]
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["classify", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SpecParseError" in captured.err


def _set_cell(r, c, cell):
    def edit(rows):
        rows[r][c] = cell
    return edit


def _set_row(r, row):
    def edit(rows):
        rows[r] = row
    return edit


def _set_cells(*edits):
    def edit(rows):
        for e in edits:
            e(rows)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_cell(1, 0, [True, 0.0]), "entry (1,0) must be a [re, im] pair"),
    (_set_cell(0, 1, [0.5, False]), "entry (0,1) must be a [re, im] pair"),
    (_set_cell(0, 1, ["1", 0.0]), "entry (0,1) must be a [re, im] pair"),
    (_set_cell(1, 1, [1.0, 0.0, 0.0]), "entry (1,1) must be a [re, im] pair"),
    (_set_cell(1, 1, [1.0]), "entry (1,1) must be a [re, im] pair"),
    (_set_cell(0, 0, 1.0), "entry (0,0) must be a [re, im] pair"),
    (_set_cell(0, 0, None), "entry (0,0) must be a [re, im] pair"),
    (_set_cell(1, 0, [[1.0, 0.0], 0.0]), "entry (1,0) must be a [re, im] pair"),
    (lambda rows: rows[1].pop(), "row 1 must have 2 entries"),
    (lambda rows: rows[0].append([0.0, 0.0]), "row 0 must have 2 entries"),
    (_set_row(1, "ab"), "row 1 must have 2 entries"),
    (_set_row(0, {"a": 1, "b": 2}), "row 0 must have 2 entries"),
    (lambda rows: rows.pop(), "expected 2 rows"),
    (lambda rows: rows.append(rows[0]), "expected 2 rows"),
    (_set_cell(1, 0, [10 ** 400, 0.0]), "entry (1,0) is too large"),
    (_set_cell(0, 1, [0.0, -2 * 10 ** 308]), "entry (0,1) is too large"),
    (_set_cell(0, 0, [float("nan"), 0.0]), "entries must be finite numbers"),
    (_set_cell(1, 1, [0.0, float("inf")]), "entries must be finite numbers"),
    (_set_cell(0, 1, [float("-inf"), 1.0]), "entries must be finite numbers"),
    # the first bad cell in row order is named; the finite check comes last
    (_set_cells(_set_cell(0, 0, [float("nan"), 0.0]),
                _set_cell(1, 1, [True, 0.0])),
     "entry (1,1) must be a [re, im] pair"),
    (_set_cells(_set_cell(0, 1, [10 ** 400, 0.0]),
                _set_cell(1, 0, ["x", 0.0])), "entry (0,1) is too large"),
    (_set_cells(_set_cell(0, 0, [True, 0.0]),
                lambda rows: rows[1].pop()),
     "entry (0,0) must be a [re, im] pair"),
    (_set_cells(lambda rows: rows[0].pop(),
                _set_cell(1, 0, [True, 0.0])), "row 0 must have 2 entries"),
])
def test_bad_matrix_entry_gives_exit_2_with_its_message(tmp_path, capsys,
                                                        edit, message):
    obj = serialize.element_to_json(algebra.order_unit(M2, 1))
    edit(obj["data"][0])
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["classify", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error (SpecParseError): element.data[0]: "
                            f"{message}\n")


def test_out_into_missing_directory_gives_exit_2(tmp_path, capsys):
    spec = write_algebra(tmp_path / "alg.json", M2)
    out = tmp_path / "missing" / "report.json"
    code = cli.main(["kgroup", spec, "--which", "k0", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


def test_lapack_failure_gives_exit_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        # NumPy's LAPACK gufuncs flag a failed solve as an invalid operation
        return np.sqrt(np.full(1, -1.0))

    monkeypatch.setattr(kernel, "_eigh", fail)
    path = write_element(tmp_path / "e.json", algebra.order_unit(M2, 1))
    assert cli.main(["classify", path]) == 3
    assert "NoConvergence" in capsys.readouterr().err


def test_out_of_memory_gives_exit_3_without_a_traceback(tmp_path):
    # the coefficient degrees of the circle generators at grid 2**40 take
    # 1 TiB, with or without chunked evaluation; the child limits its own
    # address space to 3 GiB before it starts, so the allocation fails at
    # once instead of loading the machine
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    spec = write_json(tmp_path / "alg.json",
                      {"variant": "circle", "dim": 1, "grid": 2 ** 40})
    proc = fresh_process(["kgroup", spec, "--which", "k1"], timeout=60,
                         preexec_fn=limit_address_space)
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "MemoryError" in err


def test_every_error_has_one_exit_code():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = list(subclasses(errors.AmokError))
    assert errors.SourceMismatch in found
    for cls in found:
        as_input = issubclass(cls, cli._INPUT_ERRORS)
        as_numerical = issubclass(cls, cli._NUMERICAL_ERRORS)
        assert as_input != as_numerical, cls.__name__


def test_classify_unit(tmp_path, capsys):
    e = algebra.order_unit(M2, 2)
    path = write_element(tmp_path / "e.json", e)
    code = cli.main(["classify", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    flags = report["flags"]
    assert flags["is_unitary"] and flags["is_order_projection"]
    assert abs(report["norm"] - 1.0) <= 1e-8


def test_classify_matrix_unit(tmp_path, capsys):
    v = algebra.Element(M2, 1, 1, (np.array([[[0, 1], [0, 0]]], dtype=complex),))
    path = write_element(tmp_path / "v.json", v)
    code = cli.main(["classify", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    flags = report["flags"]
    assert flags["is_partial_isometry"]
    assert not flags["is_partial_unitary"]
    assert not flags["is_unitary"]


def test_classify_circle_coordinate(tmp_path, capsys):
    f = circle_function(CIRCLE1, lambda z: [[z]])
    path = write_element(tmp_path / "f.json", f)
    code = cli.main(["classify", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["flags"]["is_unitary"]


def test_kgroup_reports(tmp_path, capsys):
    spec = write_algebra(tmp_path / "fd.json", FD23)
    assert cli.main(["kgroup", spec, "--which", "k0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["view"]["rank"] == 2
    assert report["view"]["order_unit"] == [2, 3]

    circle = write_algebra(tmp_path / "circle.json", CIRCLE1)
    assert cli.main(["kgroup", circle, "--which", "k1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["view"]["rank"] == 1

    fd5 = write_algebra(tmp_path / "fd5.json", algebra.AlgebraSpec.fd([5]))
    assert cli.main(["kgroup", fd5, "--which", "k1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["view"]["rank"] == 0


def test_equiv_mvn_certificate(tmp_path, capsys):
    p = algebra.Element(M2, 1, 1, (np.diag([1.0, 0.0])[None],))
    q = algebra.Element(M2, 1, 1, (np.diag([0.0, 1.0])[None],))
    pf = write_element(tmp_path / "p.json", p)
    qf = write_element(tmp_path / "q.json", q)
    code = cli.main(["equiv", "--relation", "mvn", pf, qf, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["equivalent"] is True
    assert report["witness"]["kind"] == "certificate"


def test_equiv_constant_homotopy(tmp_path, capsys):
    rng = rand.stream(400, 0)
    u = rand.unitary(rng, M2, 1)
    uf = write_element(tmp_path / "u.json", u)
    code = cli.main(["equiv", "--relation", "h", uf, uf, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["equivalent"] is True
    assert report["witness"]["kind"] == "path"


def test_equiv_validates_each_witness_once(tmp_path, capsys, monkeypatch):
    validated = []
    validate_strict = eqv.HomotopyPath.validate_strict

    def counting(path, *args, **kwargs):
        validated.append(path)
        return validate_strict(path, *args, **kwargs)

    monkeypatch.setattr(eqv.HomotopyPath, "validate_strict", counting)
    rng = rand.stream(401, 0)
    uf = write_element(tmp_path / "u.json", rand.unitary(rng, M2, 1))
    vf = write_element(tmp_path / "v.json", rand.unitary(rng, M2, 1))
    assert cli.main(["equiv", uf, vf, "--relation", "h",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True
    assert len(validated) == 1
    # a path tolerance no sample can meet is a numerical failure
    assert cli.main(["equiv", uf, vf, "--relation", "h",
                     "--tol-path", "1e-30"]) == 3


def test_layer_tracer_counts_witnesses_samples_and_validations(tmp_path,
                                                              capsys):
    # the benchmark's tracer finds witness classes by their ``validate``,
    # wraps their ``validate*`` methods and counts ``samples``; dropping
    # any of these would zero its witness metrics without an error
    spec = importlib.util.spec_from_file_location(
        "layertrace", SRC.parent / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    circle = algebra.AlgebraSpec.circle(1, 16)
    rng = rand.stream(404, 0)
    uf, vf = (write_element(tmp_path / f"{n}.json",
                            rand.unitary(rng, circle, 1))
              for n in "uv")
    pf, qf = (write_element(tmp_path / f"{n}.json",
                            rand.projection(rng, FD23, 1, [1, 2]))
              for n in "pq")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["equiv", uf, vf, "--relation", "h"]),
                 cli.main(["equiv", pf, qf, "--relation", "mvn"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    lines = capsys.readouterr().out.splitlines()
    assert {"equiv --relation h: True",
            "equiv --relation mvn: True"} <= set(lines)
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    assert metrics["equivalence.witnesses_built"] == 2
    assert metrics["equivalence.validations"] == 2
    # 129 path samples, and one for the certificate
    assert metrics["equivalence.samples_validated"] == 130
    assert metrics["equivalence.validate_pass_ratio"] == 1.0


def test_equiv_computes_each_loop_degree_once(tmp_path, capsys,
                                              monkeypatch):
    degrees = []
    degree = eqv._degree

    def counting(U):
        degrees.append(U)
        return degree(U)

    monkeypatch.setattr(eqv, "_degree", counting)
    circle2 = algebra.AlgebraSpec.circle(2, 64)
    rng = rand.stream(402, 0)
    uf = write_element(tmp_path / "u.json",
                       rand.unitary(rng, circle2, 1, winding=1))
    vf = write_element(tmp_path / "v.json",
                       rand.unitary(rng, circle2, 1, winding=1))
    assert cli.main(["equiv", "--relation", "h", uf, vf,
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is True and report["windings"] == [1, 1]
    # the decider's invariants and the reported windings share them
    assert len(degrees) == 2


def test_path_not_buildable_at_path_tolerance_gives_exit_3(tmp_path, capsys):
    c, s = np.cos(0.3), np.sin(0.3)
    u = algebra.Element(M2, 1, 1, (np.array([[[c, -s], [s, c]]]),))
    # unitary at --tol-pred 1e-5, but not at the default path tolerance
    v = algebra.order_unit(M2, 1).scale(1 + 1e-6)
    uf = write_element(tmp_path / "u.json", u)
    vf = write_element(tmp_path / "v.json", v)
    assert cli.main(["equiv", uf, vf, "--relation", "h",
                     "--tol-pred", "1e-5"]) == 3
    err = capsys.readouterr().err
    assert "NotUnitary" in err and err.count("\n") == 1


def test_equiv_circle_windings_reported(tmp_path, capsys):
    z = circle_function(CIRCLE1, lambda s: [[s]])
    one = algebra.order_unit(CIRCLE1, 1)
    zf = write_element(tmp_path / "z.json", z)
    onef = write_element(tmp_path / "one.json", one)
    code = cli.main(["equiv", "--relation", "sim1", zf, onef,
                     "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["equivalent"] is False
    assert report["windings"] == [1, 0]


def test_equiv_h_reports_windings_of_loop_degree(tmp_path, capsys):
    # degrees 48 and -16 on circle dim 3 grid 64, where summing the
    # determinant's principal steps gives -16 for both
    alg = algebra.AlgebraSpec.circle(3, 64)
    u = circle_function(alg, lambda z: np.diag([z ** 16] * 3))
    v = circle_function(alg, lambda z: np.diag([z ** -16, 1, 1]))
    uf = write_element(tmp_path / "u.json", u)
    vf = write_element(tmp_path / "v.json", v)
    assert cli.main(["equiv", uf, vf, "--relation", "h",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is False
    assert report["windings"] == [48, -16]


def test_equiv_windings_do_not_hide_a_numerical_failure(tmp_path, capsys,
                                                        monkeypatch):
    # only an operand without a loop degree (Unsupported) goes without
    # windings; any other failure of the K1 invariant exits 3
    alg = algebra.AlgebraSpec.circle(1, 16)
    pf, qf = (write_element(tmp_path / f"p{k}.json",
                            rand.projection(rand.stream(3, k), alg, 1, [1]))
              for k in (0, 1))

    def fail(U):
        raise errors.NoConvergence("no loop degree")

    monkeypatch.setattr(eqv, "_degree", fail)
    assert cli.main(["equiv", pf, qf, "--relation", "mvn"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure (NoConvergence): no loop degree\n")


def test_projection_of_varying_rank_is_refused(tmp_path, capsys):
    # 1 on the first half of the grid points, 0 on the rest: an order
    # projection at every point, of rank 1 or 0
    p = algebra.Element(algebra.AlgebraSpec.circle(1, 16), 1, 1, [
        (np.arange(16) < 8).astype(complex).reshape(16, 1, 1)])
    assert model.is_order_projection(p)
    for invariant in (eqv.proj_invariant, kgroups.k0_class):
        with pytest.raises(errors.NotProjection) as exc:
            invariant(p)
        assert str(exc.value) == "projection rank varies across grid samples"
    pf = write_element(tmp_path / "p.json", p)
    assert cli.main(["equiv", pf, pf, "--relation", "mvn"]) == 2
    assert capsys.readouterr().err == (
        "error (NotProjection): projection rank varies across grid samples\n")


def test_equiv_h_joins_rank_zero_circle_partial_unitaries(tmp_path, capsys):
    # the zero is no unitary: the partial-unitary decider joins two zeros
    # by a constant path, and the report carries no windings, since the
    # zero's determinant loop sits at 0
    zero = algebra.zero(algebra.AlgebraSpec.circle(1, 16), 1)
    with pytest.raises(errors.Unsupported,
                       match="^determinant loop passes too close to zero$"):
        eqv.k1_invariant(zero)
    zf = write_element(tmp_path / "zero.json", zero)
    assert cli.main(["equiv", zf, zf, "--relation", "h",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is True
    assert report["witness"]["kind"] == "path"
    assert "windings" not in report


@pytest.mark.parametrize("alg", [algebra.AlgebraSpec.circle(1, 16),
                                 algebra.AlgebraSpec.fd([1, 2])],
                         ids=["circle1x16", "fd12"])
def test_stabilized_relations_report_as_their_base_relations(tmp_path,
                                                             capsys, alg):
    # approx1 and approxK are decided by the sim1 and simK deciders, so
    # their reports differ from those only in the relation field
    rng = rand.stream(405, 0)
    uf, vf = (write_element(tmp_path / f"{k}.json",
                            rand.unitary(rng, alg, 1, winding=1))
              for k in "uv")

    def report(relation):
        assert cli.main(["equiv", uf, vf, "--relation", relation,
                         "--format", "json"]) == 0
        return capsys.readouterr().out

    for stabilized, base in (("approx1", "sim1"), ("approxK", "simK")):
        got = report(stabilized)
        field = f'"relation":"{stabilized}"'
        assert got.count(field) == 1
        assert got.replace(field, f'"relation":"{base}"') == report(base)
        assert json.loads(got)["equivalent"] is True


_FD12 = algebra.AlgebraSpec.fd([1, 2])
# order units over different algebras, a rectangular operand, 2e
# (outside every predicate set), square operands at two different levels
_STABILIZED_OPERANDS = {
    "algebras": (algebra.order_unit(_FD12, 1),
                 algebra.order_unit(algebra.AlgebraSpec.fd([3]), 1)),
    "rectangular": (algebra.zero(_FD12, 1, 2), algebra.order_unit(_FD12, 1)),
    "outside-domain": (algebra.order_unit(_FD12, 1).scale(2.0),
                       algebra.order_unit(_FD12, 1)),
    "levels": (algebra.order_unit(_FD12, 1), algebra.order_unit(_FD12, 2)),
}


@pytest.mark.parametrize("row", _STABILIZED_OPERANDS)
@pytest.mark.parametrize("stabilized, base", [("approx1", "sim1"),
                                              ("approxK", "simK")])
def test_stabilized_relations_refuse_operands_as_their_base_relations(
        tmp_path, capsys, stabilized, base, row):
    # the operand refusals of approx1 and approxK are those of sim1 and
    # simK: the same exit code, the same error line, and a report that
    # differs only in the relation field
    uf, vf = (write_element(tmp_path / f"{k}.json", x)
              for k, x in zip("uv", _STABILIZED_OPERANDS[row]))

    def run(relation):
        code = cli.main(["equiv", uf, vf, "--relation", relation,
                         "--format", "json"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = run(stabilized)
    want_code, want_out, want_err = run(base)
    assert code == want_code
    assert err == want_err
    field = f'"relation":"{stabilized}"'
    assert out.count(field) == (code == 0)
    assert out.replace(field, f'"relation":"{base}"') == want_out
    # every row but the levels one is an operand error
    assert code == (0 if row == "levels" else 2)
    assert (err == "") == (code == 0)


def test_check_axioms_passes_on_the_smallest_circle_grid(tmp_path, capsys):
    # circle dim 1 grid 4: the generators keep every drawn loop at the
    # degree it was drawn with, so the homotopy properties hold
    spec = write_algebra(tmp_path / "alg.json",
                         algebra.AlgebraSpec.circle(1, 4))
    for seed in range(1, 6):
        assert cli.main(["check-axioms", spec, "--trials", "8",
                         "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_equiv_h_answers_in_either_operand_order(tmp_path, capsys):
    # a unitary against a rank-1 partial unitary: neither order may stop
    # at the unitary predicate of the second operand
    rng = rand.stream(403, 0)
    uf = write_element(tmp_path / "u.json", rand.unitary(rng, M2, 1))
    vf = write_element(tmp_path / "v.json",
                       rand.partial_unitary(rng, M2, 1, ranks=[1]))
    for a, b in ((uf, vf), (vf, uf)):
        assert cli.main(["equiv", a, b, "--relation", "h",
                         "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is False


def test_canonical_dump_is_the_stdlib_dump(tmp_path, capsys):
    circle2 = algebra.AlgebraSpec.circle(2, 64)
    rng = rand.stream(402, 0)
    uf = write_element(tmp_path / "u.json",
                       rand.unitary(rng, circle2, 1, winding=1))
    vf = write_element(tmp_path / "v.json",
                       rand.unitary(rng, circle2, 1, winding=1))
    code = cli.main(["equiv", "--relation", "h", uf, vf, "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["equivalent"] is True and report["witness"]
    stdlib = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert serialize.dumps_canonical(report) == stdlib == out[:-1]
    with pytest.raises(ValueError):
        serialize.dumps_canonical({"x": [1.0, float("nan")]})


def nested_list_path_json(path) -> dict:
    """A path object as the nested-list writer built it: one element dict
    per sample, for the stdlib dump to write."""
    samples = []
    for t in range(len(path.stacks[0])):
        data = [m for s in path.stacks
                for m in np.stack((s[t].real, s[t].imag), -1).tolist()]
        samples.append({"algebra": serialize.algebra_to_json(path.algebra),
                        "row_level": path.row_level,
                        "col_level": path.col_level,
                        "data": data})
    return {"kind": "path", "relation_domain": path.relation_domain,
            "step_bound": path.step_bound, "samples": samples}


def stdlib_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def special_float_path() -> eqv.HomotopyPath:
    """An fd [1,2] path whose entries run through signed zeros, a
    subnormal and the exponent forms of float repr."""
    fd12 = algebra.AlgebraSpec.fd([1, 2])
    values = np.array([-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.0, -1e-05, 1.5,
                       -5e-324, -1e22, 2.2250738585072014e-308, 1e-7,
                       123.456])
    T = 7
    # [re, im] pairs as complex entries, five per sample; the odd count
    # of values puts each of them in both parts
    z = np.resize(values, 2 * T * 5).view(np.complex128).reshape(T, 5)
    stacks = [z[:, :1].reshape(T, 1, 1, 1), z[:, 1:].reshape(T, 1, 2, 2)]
    return eqv.HomotopyPath(stacks, eqv.UNITARY_SET,
                            like=algebra.order_unit(fd12, 1))


def test_path_writer_matches_the_nested_list_dump():
    rng = rand.stream(403, 0)
    fd12 = algebra.AlgebraSpec.fd([1, 2])
    ok, fd_path = eqv.homotopic_unitaries(rand.unitary(rng, fd12, 1),
                                          rand.unitary(rng, fd12, 1))
    assert ok and [s.shape[1:] for s in fd_path.stacks] == [(1, 1, 1),
                                                            (1, 2, 2)]
    circle = algebra.AlgebraSpec.circle(2, 16)
    ok, circle_path = eqv.simK_equivalent(
        rand.unitary(rng, circle, 1, winding=1),
        rand.unitary(rng, circle, 1, winding=1))
    assert ok and circle_path.relation_domain == eqv.PARTIAL_UNITARY_SET
    special = special_float_path()
    flat = np.concatenate([s.view(np.float64).ravel() for s in special.stacks])
    for x in (-0.0, 5e-324, 1e-05, 1e16, 1e22):
        assert any(y == x and np.signbit(y) == np.signbit(x) for y in flat)
    for path in (fd_path, circle_path, special):
        want = nested_list_path_json(path)
        assert (serialize.dumps_canonical(serialize.path_to_json(path))
                == stdlib_dump(want))
        assert written(serialize.path_to_json(path)) == stdlib_dump(want)
        # inside nested dicts, beside values the stdlib dump writes
        report = {"witness": serialize.path_to_json(path), "windings": [1, 1],
                  "config": {"tol_path": 1e-08, "seed": 0}, "extra": None,
                  "nested": {"a": {"witness": serialize.path_to_json(path)},
                             "b": 2.5}}
        text = stdlib_dump(
            {"witness": want, "windings": [1, 1],
             "config": {"tol_path": 1e-08, "seed": 0}, "extra": None,
             "nested": {"a": {"witness": want}, "b": 2.5}})
        assert serialize.dumps_canonical(report) == text == written(report)
        # inside lists, beside values the stdlib dump writes
        report = {"z": [serialize.path_to_json(path), [1.5, "a"],
                        [{"witness": serialize.path_to_json(path)}]]}
        text = stdlib_dump({"z": [want, [1.5, "a"], [{"witness": want}]]})
        assert serialize.dumps_canonical(report) == text == written(report)
    # a report without any witness is the stdlib dump as it is
    report = {"windings": [1, -1], "witness": None, "equivalent": False,
              "config": {"tol_path": 1e-08, "seed": 0}, "name": "a\u00e9"}
    text = stdlib_dump(report)
    assert serialize.dumps_canonical(report) == text == written(report)


def written(obj) -> str:
    """The text ``write_canonical`` writes, less its newline, checked
    equal on a file and on stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        serialize.write_canonical(obj, lambda: open(out, "w"))
        to_file = out.read_bytes()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        serialize.write_canonical(
            obj, lambda: contextlib.nullcontext(sys.stdout))
    assert stdout.getvalue().encode() == to_file and to_file[-1:] == b"\n"
    return to_file[:-1].decode()


def repeated(path, T: int) -> eqv.HomotopyPath:
    """``path`` with its samples repeated in order to T samples."""
    return eqv.HomotopyPath(
        [np.resize(s, (T,) + s.shape[1:]) for s in path.stacks],
        path.relation_domain, like=path.samples[0])


def test_path_writer_streams_chunks_of_samples_across_boundaries():
    F = sum(s[0].size * 2 for s in special_float_path().stacks)
    per = serialize._CHUNK_FLOATS // F  # samples per chunk
    assert per > 1
    for T in (1, per - 1, per, per + 1, 2 * per - 1, 2 * per, 2 * per + 1):
        path = repeated(special_float_path(), T)
        want = nested_list_path_json(path)
        longest = max(len(stdlib_dump(s)) for s in want["samples"])
        pieces = []
        fh = types.SimpleNamespace(write=pieces.append)
        serialize.write_canonical({"witness": serialize.path_to_json(path)},
                                  lambda: contextlib.nullcontext(fh))
        text = stdlib_dump({"witness": want})
        assert "".join(pieces) == text + "\n", T
        assert serialize.dumps_canonical(
            {"witness": serialize.path_to_json(path)}) == text
        # one piece per chunk of samples: none holds more than a chunk
        assert max(map(len, pieces)) <= per * (longest + 1)
        assert written(serialize.path_to_json(path)) == stdlib_dump(want)


def test_path_writer_rejects_non_finite_samples():
    path = special_float_path()
    for bad in (float("nan"), float("inf")):
        stacks = [s.copy() for s in path.stacks]
        stacks[1][3, 0, 1, 0] = complex(0.5, bad)
        broken = eqv.HomotopyPath(stacks, path.relation_domain,
                                  like=path.samples[0])
        with pytest.raises(ValueError):
            serialize.dumps_canonical({"witness":
                                       serialize.path_to_json(broken)})
        # refused before the destination is opened
        for report in ({"witness": serialize.path_to_json(broken)},
                       {"witness": serialize.path_to_json(path),
                        "windings": [bad]},
                       # a string or key that reads as the path slot
                       {"witness": serialize.path_to_json(path),
                        "note": serialize._SLOT},
                       {serialize._SLOT: [serialize.path_to_json(path)]},
                       {"note": serialize._SLOT}):
            with pytest.raises(ValueError):
                serialize.write_canonical(
                    report, lambda: pytest.fail("the destination was opened"))


def test_equiv_with_a_non_finite_sample_keeps_an_existing_out_file(
        tmp_path, monkeypatch):
    circle = algebra.AlgebraSpec.circle(1, 16)
    rng = rand.stream(404, 0)
    u = rand.unitary(rng, circle, 1, winding=1)
    ok, path = eqv.homotopic_unitaries(u, u)
    assert ok
    stacks = [s.copy() for s in path.stacks]
    stacks[0][5, 3, 0, 0] = complex(float("nan"), 0.0)
    broken = eqv.HomotopyPath(stacks, path.relation_domain, like=u)
    monkeypatch.setattr(eqv, "homotopic_unitaries",
                        lambda *args, **kwargs: (True, broken))
    uf = write_element(tmp_path / "u.json", u)
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    with pytest.raises(ValueError):
        cli.main(["equiv", uf, uf, "--relation", "h", "--format", "json",
                  "--out", str(out)])
    assert out.read_bytes() == b"an earlier report\n"


def test_path_writer_writes_samples_without_entries():
    fd12 = algebra.AlgebraSpec.fd([1, 2])
    empty = algebra.order_unit(fd12, 0)
    ok, path = eqv.homotopic_unitaries(empty, empty)
    assert ok and path.stacks[1].shape == (eqv.PATH_SAMPLES, 1, 0, 0)
    want = stdlib_dump(nested_list_path_json(path))
    assert serialize.dumps_canonical(serialize.path_to_json(path)) == want
    assert written(serialize.path_to_json(path)) == want


def written_floats(x) -> list:
    """The text the path writer gives each float of ``x``."""
    comma = np.frombuffer(b",", np.uint8).reshape(1, 1)
    texts = []
    for block in np.array_split(x, -(-len(x) // 50_000)):
        rows = serialize._float_rows(block, comma)
        texts += rows[rows != 0].tobytes().decode("ascii").split(",")[1:]
    return texts


def test_float_writer_matches_repr_on_a_million_doubles():
    rng = np.random.default_rng(2024)
    signs = rng.choice([-1.0, 1.0], 300_000)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
    # k / 2**n are exact decimals; about 1,700 of these (n = 17 to 27) lie
    # halfway between the two nearest shortest decimals: the even one wins
    n = rng.integers(1, 64, 150_000)
    dyadic = (rng.integers(0, 2 ** 53, 150_000) % (2.0 ** np.minimum(n, 53))
              + 1) / 2.0 ** n
    anchors = np.array([1e-4, 1.0] + [10.0 ** e for e in range(-12, 6)]
                       + [2.0 ** -e for e in range(1, 16)])
    steps = np.arange(-3, 4)
    neighbours = (anchors[:, None].view(np.int64) + steps).view(np.float64)
    x = np.concatenate([
        rng.uniform(-1, 1, 450_000),
        signs * np.exp(rng.uniform(np.log(1e-9), np.log(1e3), 300_000)),
        bits[np.isfinite(bits)],
        dyadic, -dyadic,
        neighbours.ravel(), -neighbours.ravel(),
        [0.0, -0.0, 5e-324, -5e-324, 0.1, 0.01, 0.001, 0.5, 0.3]])
    assert len(x) >= 10 ** 6
    got, want = written_floats(x), [repr(v) for v in x.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_report_memory_stays_bounded(tmp_path):
    circle2 = algebra.AlgebraSpec.circle(2, 64)
    rng = rand.stream(402, 0)
    u = rand.unitary(rng, circle2, 1, winding=1)
    v = rand.unitary(rng, circle2, 1, winding=1)
    uf = write_element(tmp_path / "u.json", u)
    vf = write_element(tmp_path / "v.json", v)
    out = tmp_path / "report.json"
    argv = ["equiv", "--relation", "h", uf, vf, "--format", "json",
            "--out", str(out)]
    assert cli.main(argv) == 0  # warm-up: imports and cached parsers
    peak = traced_peak(lambda: cli.main(argv))
    size = out.stat().st_size
    assert json.loads(out.read_bytes())["witness"]["samples"]
    assert size > 10 ** 6
    # the whole command, from the inputs to the last byte written
    assert peak <= 2.5 * size, peak / size
    # the writer holds a chunk of samples at a time, however many there are
    ok, path = eqv.homotopic_unitaries(u, v)
    assert ok and len(path.stacks[0]) == eqv.PATH_SAMPLES == 129
    peaks = []
    for T in (129, 1025):
        report = {"witness": serialize.path_to_json(repeated(path, T))}
        peaks.append(traced_peak(lambda: serialize.write_canonical(
            report, lambda: open(os.devnull, "w"))))
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("command", ["classify", "kgroup", "theta"])
def test_unreadable_input_gives_exit_2(tmp_path, capsys, command):
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    extra = ["--which", "k"] if command == "kgroup" else []
    for path in (not_utf8, deep, tmp_path / "missing.json"):
        assert cli.main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "SpecParseError" in err and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--trials", "-3"), ("--trials", "0"), ("--trials", "2.5"),
    ("--seed", "-1"),
    ("--tol-bisect", "0"), ("--tol-path", "-1"), ("--tol-pred", "nan"),
    ("--tol-pred", "inf"), ("--tol-bisect", "1e400"), ("--tol-path", "x")])
def test_invalid_global_flag_gives_exit_2(tmp_path, capsys, flag, value):
    spec = write_algebra(tmp_path / "alg.json", M2)
    for argv in ([flag, value, "kgroup", spec, "--which", "k0"],
                 ["kgroup", spec, "--which", "k0", flag, value]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a" in err


def test_equiv_domain_violation_gives_exit_2(tmp_path, capsys):
    v = algebra.order_unit(M2, 1).scale(0.5)
    vf = write_element(tmp_path / "v.json", v)
    assert cli.main(["equiv", "--relation", "mvn", vf, vf]) == 2
    capsys.readouterr()


def test_theta_command(tmp_path, capsys):
    rng = rand.stream(401, 0)
    u = rand.partial_unitary(rng, FD23, 1, ranks=[1, 2])
    z = algebra.zero(FD23, 1)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"u": serialize.element_to_json(u),
                                "v": serialize.element_to_json(z)}))
    code = cli.main(["theta", str(pair), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["k0_part"] == [1, 2]
    assert report["k1_part"] == []


@pytest.mark.parametrize("relation", ("mvn", "h", "sim1", "approx1", "simK",
                                      "approxK"))
def test_equiv_over_different_algebras_gives_exit_2(tmp_path, capsys,
                                                   relation):
    # order units are projections, unitaries and partial unitaries alike
    p = write_element(tmp_path / "p.json",
                      algebra.order_unit(algebra.AlgebraSpec.fd([1, 2]), 1))
    q = write_element(tmp_path / "q.json",
                      algebra.order_unit(algebra.AlgebraSpec.fd([3]), 1))
    code = cli.main(["equiv", p, q, "--relation", relation,
                     "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "AlgebraMismatch" in captured.err


def test_theta_circle_splits_off_the_winding(tmp_path, capsys):
    circle = algebra.AlgebraSpec.circle(1, 16)
    u = rand.partial_unitary(rand.stream(402, 0), circle, 1, [1], winding=1)
    pair = write_json(tmp_path / "pair.json",
                      {"u": serialize.element_to_json(u),
                       "v": serialize.element_to_json(algebra.zero(circle, 1))})
    assert cli.main(["theta", pair, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k_class"] == [1, 1]
    assert report["k0_part"] == [1]
    assert report["k1_part"] == [1]
    assert cli.main(["theta", pair]) == 0
    out = capsys.readouterr().out
    assert "  K1 part: [1]\n" in out
    assert "trivial group" not in out


def test_theta_fd_text_names_the_trivial_k1_part(tmp_path, capsys):
    z = algebra.zero(FD23, 1)
    pair = write_json(tmp_path / "pair.json",
                      {"u": serialize.element_to_json(z),
                       "v": serialize.element_to_json(z)})
    assert cli.main(["theta", pair]) == 0
    assert "  K1 part: [] (trivial group)\n" in capsys.readouterr().out


def test_theta_circle_mixed_rank_gives_exit_2(tmp_path, capsys):
    circle = algebra.AlgebraSpec.circle(1, 16)
    u = rand.partial_unitary(rand.stream(403, 0), circle, 2, [1])
    pair = write_json(tmp_path / "pair.json",
                      {"u": serialize.element_to_json(u),
                       "v": serialize.element_to_json(algebra.zero(circle, 2))})
    assert cli.main(["theta", pair, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Unsupported" in captured.err


def test_theta_completion_failing_its_recheck_gives_exit_3(tmp_path, capsys):
    # v is a partial unitary at tol_pred, but its completion v + e - |v|
    # misses the unitary predicate: a derived element failed, not the input
    alg = algebra.AlgebraSpec.fd([3])
    u = rand.partial_unitary(rand.stream(77, 31), alg, 1, [1])
    g = rand.stream(78, 31)
    noise = g.standard_normal((1, 3, 3)) + 1j * g.standard_normal((1, 3, 3))
    v = algebra.Element(alg, 1, 1, (u.stacks[0] + 4e-10 * noise,))
    path = write_element(tmp_path / "v.json", v)
    pair = write_json(tmp_path / "pair.json",
                      {"u": serialize.element_to_json(v),
                       "v": serialize.element_to_json(v)})
    assert cli.main(["classify", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"]["is_partial_unitary"]
    assert cli.main(["equiv", path, path, "--relation", "simK"]) == 0
    capsys.readouterr()
    assert cli.main(["theta", pair, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure (PredicateFailure): "
                            "unitary completion failed validation\n")


def test_theta_of_zero_pair(tmp_path, capsys):
    z = algebra.zero(FD23, 1)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"u": serialize.element_to_json(z),
                                "v": serialize.element_to_json(z)}))
    code = cli.main(["theta", str(pair), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["k_class"] == [0, 0]
    assert report["k0_part"] == [0, 0]


def test_json_reports_are_byte_identical(tmp_path):
    spec = write_algebra(tmp_path / "alg.json", M2)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["check-axioms", spec, "--trials", "5",
                         "--seed", "7", "--format", "json",
                         "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    outs = []
    for name in ("c.json", "d.json"):
        out = tmp_path / name
        assert cli.main(["kgroup", spec, "--which", "k",
                         "--format", "json", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


FD12 = algebra.AlgebraSpec.fd([1, 2])

# (argv, exit code, every text line but the last, "elapsed: ...")
TEXT_REPORTS = [
    (["check-axioms", "fd12.json", "--trials", "2"], 0, [
        'check-axioms over {"blocks":[1,2],"variant":"fd"}',
        "  [pass] abs-scalar-contraction: trials=2 worst=2.825e-15 failures=0",
        "  [pass] abs-direct-sum: trials=2 worst=4.459e-16 failures=0",
        "  [pass] abs-dilation: trials=2 worst=1.114e-15 failures=0",
        "  [pass] abs-corner-positive: trials=2 worst=1.353e-15 failures=0",
        "  [pass] abs-idempotent-on-positives: trials=2 worst=1.567e-15 "
        "failures=0",
        "  [pass] orthogonality-sum-iff: trials=2 worst=5.424e-16 failures=0",
        "  [pass] orthogonality-scalar-invariance: trials=2 worst=0.000e+00 "
        "failures=0",
        "  [pass] orthogonal-equals-algebraic: trials=2 worst=0.000e+00 "
        "failures=0",
        "  [pass] norm-bisection-agreement: trials=10 worst=2.561e-10 "
        "failures=0",
        "  [pass] norm-direct-sum-max: trials=10 worst=4.335e-10 failures=0",
        "  [pass] isometry-preserves-abs: trials=2 worst=2.589e-15 failures=0",
        "  [pass] unitary-scalar-conjugation-abs: trials=2 worst=3.595e-16 "
        "failures=0",
        "  [pass] classify-implication-lattice: trials=10 worst=0.000e+00 "
        "failures=0",
        "  [pass] abs-continuity: trials=10 worst=0.000e+00 failures=0",
        "  [pass] projection-zero-padding: trials=10 worst=0.000e+00 "
        "failures=0",
        "  [pass] projection-sum-compatible: trials=10 worst=0.000e+00 "
        "failures=0",
        "  [pass] projection-swap: trials=10 worst=0.000e+00 failures=0",
        "  [pass] orthogonal-sum-matches-direct-sum: trials=10 "
        "worst=0.000e+00 failures=0",
        "  [pass] condition-T-transport: trials=10 worst=0.000e+00 failures=0",
        "  [pass] unitary-homotopy-paths: trials=5 worst=0.000e+00 failures=0",
        "  [pass] sim1-equivalence-laws: trials=5 worst=0.000e+00 failures=0",
        "  [pass] simK-equivalence-laws: trials=5 worst=0.000e+00 failures=0",
        "  [pass] stabilization-consistency: trials=5 worst=0.000e+00 "
        "failures=0",
        "  [pass] simK-cancellation: trials=5 worst=0.000e+00 failures=0"]),
    (["kgroup", "circle.json", "--which", "k"], 0, [
        'K of {"dim":1,"grid":16,"variant":"circle"}',
        "  rank: 2",
        "  order unit: [1, 0]",
        "  cone: support",
        "  homotopy-implies-equivalence: True",
        "  order-unit-finite: True",
        "  abs-continuous: True",
        "  fragment: True"]),
    (["equiv", "u.json", "v.json", "--relation", "h"], 0, [
        "equiv --relation h: True",
        "  windings: [1, 1]",
        "  witness kind: path (validated)"]),
    (["equiv", "p.json", "q.json", "--relation", "mvn"], 0, [
        "equiv --relation mvn: True",
        "  witness kind: certificate (validated)"]),
    (["classify", "x.json"], 0, [
        "classify x.json",
        "  is_selfadjoint: False",
        "  is_positive: False",
        "  is_order_projection: False",
        "  is_partial_isometry: False",
        "  is_unitary: False",
        "  is_partial_unitary: False",
        "  norm: 2.42530685774"]),
    (["theta", "pair.json"], 0, [
        "theta of K class [1, 1]",
        "  K0 part: [1, 1]",
        "  K1 part: [] (trivial group)",
        "  mu witness validated unitary"]),
]


def test_text_report_of_every_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    circle = algebra.AlgebraSpec.circle(1, 16)
    write_algebra(tmp_path / "fd12.json", FD12)
    write_algebra(tmp_path / "circle.json", circle)
    for name, x in (
            ("u", rand.unitary(rand.stream(5, 0), circle, 1, winding=1)),
            ("v", rand.unitary(rand.stream(5, 1), circle, 1, winding=1)),
            ("p", rand.projection(rand.stream(5, 2), FD12, 1, [1, 1])),
            ("q", rand.projection(rand.stream(5, 3), FD12, 1, [1, 1])),
            ("x", rand.element(rand.stream(5, 4), FD12, 1, 2))):
        write_element(tmp_path / f"{name}.json", x)
    write_json(tmp_path / "pair.json", {
        "u": serialize.element_to_json(
            rand.partial_unitary(rand.stream(5, 5), FD12, 1, [1, 2])),
        "v": serialize.element_to_json(
            rand.partial_unitary(rand.stream(5, 6), FD12, 1, [0, 1]))})
    for argv, code, lines in TEXT_REPORTS:
        assert cli.main(argv) == code, argv
        *got, last = capsys.readouterr().out.split("\n")
        assert last == ""
        assert got[:-1] == lines, argv
        assert re.fullmatch(r"elapsed: \d+\.\d\ds", got[-1]), argv


def test_global_flags_before_or_after_the_command_agree(tmp_path):
    spec = write_algebra(tmp_path / "alg.json", M2)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    flags = ["--seed", "5", "--tol-pred", "1e-10", "--format", "json"]
    assert cli.main(flags + ["--out", str(before), "check-axioms", spec,
                             "--trials", "1"]) == 0
    assert cli.main(["check-axioms", spec, "--trials", "1"] + flags
                    + ["--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()
    config = json.loads(before.read_bytes())["config"]
    assert (config["seed"], config["tol_pred"]) == (5, 1e-10)


def test_check_axioms_validates_each_witness_once(tmp_path, monkeypatch):
    """Every path that check-axioms builds, and every certificate that a
    decider returns, is validated exactly once.  (The condition-T
    property also builds its two input certificates itself; they are
    inputs of the transport, not witnesses of a decision.)"""
    # one worker: witnesses of forked workers are not recorded here
    monkeypatch.setattr(suites, "usable_cpus", lambda: 1)
    built, validated, alive = set(), Counter(), []

    def keep(witness):
        alive.append(witness)
        built.add(id(witness))

    def counted(validate):
        def wrapped(witness, *args, **kwargs):
            alive.append(witness)
            validated[id(witness)] += 1
            return validate(witness, *args, **kwargs)
        return wrapped

    def keeping_certificate(decide):
        def wrapped(*args, **kwargs):
            out = decide(*args, **kwargs)
            cert = out[1] if isinstance(out, tuple) else out
            if cert is not None:
                keep(cert)
            return out
        return wrapped

    path_init = eqv.HomotopyPath.__init__

    def init(path, *args, **kwargs):
        path_init(path, *args, **kwargs)
        keep(path)

    monkeypatch.setattr(eqv.HomotopyPath, "__init__", init)
    # validate() goes through validate_strict, so a path counts once
    monkeypatch.setattr(eqv.HomotopyPath, "validate_strict",
                        counted(eqv.HomotopyPath.validate_strict))
    monkeypatch.setattr(eqv.PartialIsometryCertificate, "validate",
                        counted(eqv.PartialIsometryCertificate.validate))
    for name in ("mvn_equivalent", "condition_T_transport"):
        monkeypatch.setattr(eqv, name, keeping_certificate(getattr(eqv, name)))
    spec = write_json(tmp_path / "alg.json", {"variant": "fd", "blocks": [1, 2]})
    assert cli.main(["check-axioms", spec, "--trials", "8", "--seed", "3",
                     "--format", "json",
                     "--out", str(tmp_path / "out.json")]) == 0
    assert built
    assert validated == Counter(dict.fromkeys(built, 1)), (
        f"{sum(validated.values())} validations of {len(validated)} "
        f"witnesses; {len(built)} built")


def fresh_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """``amok argv`` run to completion in a new interpreter, which draws
    its own hash seed; ``kwargs`` go to ``subprocess.run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    kwargs.setdefault("timeout", 300)
    return subprocess.run([sys.executable, "-m", "amok.cli"] + argv,
                          capture_output=True, env=env, **kwargs)


def stdout_of_fresh_process(argv) -> bytes:
    """Standard output of a successful ``amok argv`` in a new
    interpreter."""
    proc = fresh_process(argv)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_json_reports_are_byte_identical_across_processes(tmp_path):
    spec = write_json(tmp_path / "alg.json", {"variant": "fd", "blocks": [1, 2]})
    argv = ["check-axioms", spec, "--trials", "1", "--format", "json"]
    assert stdout_of_fresh_process(argv) == stdout_of_fresh_process(argv)


def test_equiv_reports_are_byte_identical_across_processes(tmp_path):
    circle = algebra.AlgebraSpec.circle(1, 16)
    rng = rand.stream(404, 0)
    uf = write_element(tmp_path / "u.json",
                       rand.unitary(rng, circle, 1, winding=1))
    vf = write_element(tmp_path / "v.json",
                       rand.unitary(rng, circle, 1, winding=1))
    argv = ["equiv", uf, vf, "--relation", "h", "--format", "json"]
    out = stdout_of_fresh_process(argv)
    assert out == stdout_of_fresh_process(argv)
    report = json.loads(out)
    assert report["equivalent"] is True
    assert len(report["witness"]["samples"]) == eqv.PATH_SAMPLES
    assert out.decode() == stdlib_dump(report) + "\n"


def test_memo_keeps_check_axioms_bytes(tmp_path, monkeypatch):
    algebras = (algebra.AlgebraSpec.fd([1, 2]), algebra.AlgebraSpec.fd([2, 2]),
                algebra.AlgebraSpec.circle(1, 16))
    for i, alg in enumerate(algebras):
        spec = write_algebra(tmp_path / f"alg{i}.json", alg)
        outs = []
        for memo in (model.memo_scope, contextlib.nullcontext):
            monkeypatch.setattr(model, "memo_scope", memo)
            out = tmp_path / f"out{i}-{len(outs)}.json"
            assert cli.main(["check-axioms", spec, "--trials", "1",
                             "--format", "json", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], alg


def test_memo_is_dropped_after_each_command(tmp_path, monkeypatch):
    # one worker: calls made in forked workers are not counted here
    monkeypatch.setattr(suites, "usable_cpus", lambda: 1)
    calls = []
    eigh = kernel._eigh

    def counting(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(kernel, "_eigh", counting)
    spec = write_algebra(tmp_path / "alg.json", M2)
    argv = ["check-axioms", spec, "--trials", "1", "--format", "json",
            "--out", str(tmp_path / "out.json")]
    counts = []
    for memo in (model.memo_scope, model.memo_scope, contextlib.nullcontext):
        monkeypatch.setattr(model, "memo_scope", memo)
        before = len(calls)
        assert cli.main(argv) == 0
        counts.append(len(calls) - before)
        assert model._MEMO.get(None) is None
    # a repeated call gets no hits from the first; the memo saves work
    assert counts[0] == counts[1] < counts[2]
