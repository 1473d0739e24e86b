"""Write the reference reports whose bytes a refactor must keep.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tools/reference_reports.py OUTDIR

Builds every input from seeded ``amok.rand`` draws and writes it under
``OUTDIR/inputs``, then runs each reference command through
``amok.cli.main`` with ``--format json --out`` into ``OUTDIR/reports``:

* ``check-axioms --trials 8 --seed 3`` on fd [1,2], [2,2], [3],
  circle dim 1 grid 16 and circle dim 2 grid 64;
* ``kgroup --which k0|k1|k`` on fd [1,2], [2,2], [3] and circle dim 1
  grid 16;
* ``equiv`` in every relation on fd [1,2], circle dim 1 grid 16 and
  circle dim 2 grid 64 pairs, equivalent and not;
* ``equiv --relation mvn`` on an fd [1,2] projection at level 1 against
  level-2 projections: its zero-padding, an equivalent draw and an
  inequivalent one;
* ``classify`` on fd [1,2] inputs, and ``theta`` on an fd [1,2] pair
  and on a circle dim 1 grid 16 pair of full support (windings 1, -1).

Exits 1 if any command exits non-zero.  To compare two checkouts, run it
once with each checkout's ``src`` on ``PYTHONPATH`` and ``diff -r`` the
two output directories.
"""

from __future__ import annotations

import sys
from pathlib import Path

from amok import cli, rand, serialize
from amok import equivalence as eqv
from amok.algebra import AlgebraSpec, direct_sum, zero

SEED = 3
AXIOM_ALGEBRAS = {"fd12": AlgebraSpec.fd([1, 2]),
                  "fd22": AlgebraSpec.fd([2, 2]),
                  "fd3": AlgebraSpec.fd([3]),
                  "circle1x16": AlgebraSpec.circle(1, 16)}
EQUIV_ALGEBRAS = {"fd12": AlgebraSpec.fd([1, 2]),
                  "circle1x16": AlgebraSpec.circle(1, 16),
                  "circle2x64": AlgebraSpec.circle(2, 64)}


def _write(path: Path, obj) -> str:
    path.write_text(serialize.dumps_canonical(obj))
    return str(path)


def _pair_inputs(name: str, algebra: AlgebraSpec, inputs: Path) -> dict:
    """Input files of one algebra's equiv pairs, keyed by role."""
    # the winding twists grid summands only, so fd draws ignore it
    wind = 1

    def draw(k: int):
        return rand.stream(SEED, k)

    def ranks(k: int):
        return [k % (d + 1) for _, d in algebra.summands]

    def support(k: int):
        # full support on each summand where mixed ranks are undecided
        return eqv.decided_ranks(algebra, lambda s: k % (s + 1))

    elements = {
        "u": rand.unitary(draw(0), algebra, 1, winding=wind),
        "v": rand.unitary(draw(1), algebra, 1, winding=wind),
        "w": rand.unitary(draw(2), algebra, 1, winding=-wind),
        "p": rand.projection(draw(3), algebra, 1, ranks(1)),
        "q": rand.projection(draw(4), algebra, 1, ranks(1)),
        "r": rand.projection(draw(5), algebra, 1, ranks(2)),
        "a": rand.partial_unitary(draw(6), algebra, 1, support(1),
                                  winding=wind),
        "b": rand.partial_unitary(draw(7), algebra, 1, support(1),
                                  winding=wind),
        "c": rand.partial_unitary(draw(8), algebra, 1, support(2)),
    }
    return {role: _write(inputs / f"{name}-{role}.json",
                         serialize.element_to_json(x))
            for role, x in elements.items()}


def commands(inputs: Path):
    """(report name, argv) of every reference command."""
    for name, algebra in AXIOM_ALGEBRAS.items():
        spec = _write(inputs / f"{name}.json",
                      serialize.algebra_to_json(algebra))
        yield (f"check-axioms-{name}",
               ["check-axioms", spec, "--trials", "8", "--seed", str(SEED)])
        for which in ("k0", "k1", "k"):
            yield f"kgroup-{which}-{name}", ["kgroup", spec, "--which", which]
    # the dim-2 grid runs the suite only
    spec = _write(inputs / "circle2x64.json",
                  serialize.algebra_to_json(EQUIV_ALGEBRAS["circle2x64"]))
    yield ("check-axioms-circle2x64",
           ["check-axioms", spec, "--trials", "8", "--seed", str(SEED)])
    for name, algebra in EQUIV_ALGEBRAS.items():
        f = _pair_inputs(name, algebra, inputs)
        pairs = [("mvn", "p", "q"), ("mvn", "p", "r"),
                 ("h", "u", "v"), ("h", "u", "w"), ("h", "a", "b"),
                 ("sim1", "u", "v"), ("sim1", "u", "w"),
                 ("approx1", "u", "v"),
                 ("simK", "a", "b"), ("simK", "a", "c"),
                 ("approxK", "a", "b")]
        for relation, x, y in pairs:
            yield (f"equiv-{relation}-{name}-{x}{y}",
                   ["equiv", f[x], f[y], "--relation", relation])
    fd12 = EQUIV_ALGEBRAS["fd12"]
    # MvN equivalence links projections at different levels
    p = str(inputs / "fd12-p.json")
    wider = {"p0": direct_sum(serialize.load_element(p), zero(fd12, 1)),
             "s": rand.projection(rand.stream(SEED, 12), fd12, 2, [1, 1]),
             "t": rand.projection(rand.stream(SEED, 13), fd12, 2, [2, 1])}
    for role, y in wider.items():
        yield (f"equiv-mvn-fd12-p{role}",
               ["equiv", p, _write(inputs / f"fd12-{role}.json",
                                   serialize.element_to_json(y)),
                "--relation", "mvn"])
    x = rand.element(rand.stream(SEED, 9), fd12, 1, 2)
    yield "classify-fd12-x", ["classify", _write(
        inputs / "fd12-x.json", serialize.element_to_json(x))]
    yield "classify-fd12-u", ["classify", str(inputs / "fd12-u.json")]
    pair = {"u": serialize.element_to_json(
                rand.partial_unitary(rand.stream(SEED, 10), fd12, 1, [1, 2])),
            "v": serialize.element_to_json(
                rand.partial_unitary(rand.stream(SEED, 11), fd12, 1, [0, 1]))}
    yield "theta-fd12", ["theta", _write(inputs / "fd12-theta.json", pair)]
    circle = EQUIV_ALGEBRAS["circle1x16"]
    pair = {role: serialize.element_to_json(rand.partial_unitary(
                rand.stream(SEED, k), circle, 1, [1], winding=w))
            for role, k, w in (("u", 14, 1), ("v", 15, -1))}
    yield ("theta-circle1x16",
           ["theta", _write(inputs / "circle1x16-theta.json", pair)])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: reference_reports.py OUTDIR\n")
        return 2
    out = Path(argv[0])
    inputs, reports = out / "inputs", out / "reports"
    inputs.mkdir(parents=True, exist_ok=True)
    reports.mkdir(parents=True, exist_ok=True)
    failed = []
    for name, args in commands(inputs):
        code = cli.main(args + ["--format", "json",
                                "--out", str(reports / f"{name}.json")])
        if code != 0:
            failed.append(f"{name}: exit {code}")
    for line in failed:
        sys.stderr.write(line + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
