"""Command-line front end.

Commands: check-axioms, classify, kgroup, equiv, theta.  Each command
``cmd_x(args, cfg)`` loads its inputs, computes, and returns its own
report fields, its text lines and its exit code; ``main`` runs the
envelope around it: the RunConfig, the memo scope, the timer, the
``command`` and ``config`` fields, the write to stdout or --out, and
the exit codes of errors.  All randomness derives from (--seed, trial
index); JSON reports are canonical (sorted keys, compact) so identical
configurations produce byte-identical output.  Exit codes: 0 all pass,
1 property failure, 2 input error, 3 numerical failure or out of
memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
import time

from . import equivalence as eqv
from . import kgroups, model, serialize, suites
from .errors import InputError, NumericalError, Unsupported

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# OSError covers unreadable input files and an unwritable --out path;
# MemoryError an allocation the process may not make
_INPUT_ERRORS = (InputError, OSError)
_NUMERICAL_ERRORS = (NumericalError, MemoryError)

# stabilized = base relation: the invariants are additive and cancellative
_PATH_DECIDERS = {"sim1": eqv.sim1_equivalent, "approx1": eqv.sim1_equivalent,
                  "simK": eqv.simK_equivalent, "approxK": eqv.simK_equivalent}


# Defaults of the global flags: those of RunConfig, plus the output
# flags.  The subparsers share the global flags' actions, so those
# actions default to SUPPRESS: a subparser then leaves a flag given
# before the command in place, and main() starts parsing from these
# values instead.
_GLOBAL_DEFAULTS = {**dataclasses.asdict(suites.RunConfig()),
                    "format": "text", "out": None}


def _integer_at_least(least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {least}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=functools.partial(_integer_at_least, 0))
    common.add_argument("--trials",
                        type=functools.partial(_integer_at_least, 1))
    common.add_argument("--tol-pred", type=_positive_float)
    common.add_argument("--tol-path", type=_positive_float)
    common.add_argument("--tol-bisect", type=_positive_float)
    common.add_argument("--format", choices=("json", "text"))
    common.add_argument("--out",
                        help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="amok",
        description="K-theory computations over finite block algebras "
                    "and circle-grid matrix algebras",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", parents=[common],
                       help="run the property suites")
    p.add_argument("algebra", help="path to an algebra JSON spec")

    p = sub.add_parser("classify", parents=[common],
                       help="evaluate the element predicates")
    p.add_argument("element", help="path to an element JSON file")

    p = sub.add_parser("kgroup", parents=[common], help="compute a K-group")
    p.add_argument("algebra", help="path to an algebra JSON spec")
    p.add_argument("--which", choices=("k0", "k1", "k"), required=True)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide an equivalence relation")
    p.add_argument("u", help="path to the first element")
    p.add_argument("v", help="path to the second element")
    p.add_argument("--relation", required=True,
                   choices=("mvn", "h", "sim1", "approx1", "simK", "approxK"))

    p = sub.add_parser("theta", parents=[common],
                       help="split a K class into (K0, K1) parts")
    p.add_argument("x", help="path to a JSON object {\"u\": element, "
                             "\"v\": element} of partial unitaries")
    return parser


def cmd_check_axioms(args, cfg):
    algebra = serialize.load_algebra(args.algebra)
    results = suites.check_axioms(algebra, cfg)
    report = {"algebra": serialize.algebra_to_json(algebra),
              "properties": [r.to_json() for r in results]}
    lines = [f"check-axioms over {serialize.dumps_canonical(report['algebra'])}"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.name}: trials={r.trials} "
                     f"worst={r.worst_residual:.3e} failures={len(r.failures)}")
        for f in r.failures[:3]:
            lines.append(f"      {f}")
    return (report, lines,
            EXIT_PASS if all(r.passed for r in results) else EXIT_PROPERTY)


def cmd_classify(args, cfg):
    v = serialize.load_element(args.element)
    flags = model.classify(v, cfg.tol_pred)
    a = model.abs_value(v)
    astar = model.abs_value(v.adjoint())
    norm = model.order_unit_norm(v, cfg.tol_bisect)
    report = {"flags": dataclasses.asdict(flags),
              "norm": norm,
              "abs": serialize.element_to_json(a),
              "abs_adjoint": serialize.element_to_json(astar)}
    lines = [f"classify {args.element}"]
    for k, val in report["flags"].items():
        lines.append(f"  {k}: {val}")
    lines.append(f"  norm: {norm:.12g}")
    return report, lines, EXIT_PASS


def cmd_kgroup(args, cfg):
    algebra = serialize.load_algebra(args.algebra)
    view = {"k0": kgroups.k0_group, "k1": kgroups.k1_group,
            "k": kgroups.k_group}[args.which](algebra)
    report = {"algebra": serialize.algebra_to_json(algebra),
              "view": serialize.group_view_to_json(view)}
    lines = [f"{view.order_unit.group_tag} of "
             f"{serialize.dumps_canonical(report['algebra'])}",
             f"  rank: {view.rank}",
             f"  order unit: {list(view.order_unit.normal_form)}",
             f"  cone: {view.cone}"]
    for name, val in view.flags:
        lines.append(f"  {name}: {val}")
    return report, lines, EXIT_PASS


def cmd_equiv(args, cfg):
    u = serialize.load_element(args.u)
    v = serialize.load_element(args.v)
    witness = None
    if args.relation == "mvn":
        # the decider validates its certificate at tol_pred before
        # returning it
        ok, cert = eqv.mvn_equivalent(u, v, cfg.tol_pred)
        if cert is not None:
            witness = serialize.certificate_to_json(cert)
    else:
        if args.relation == "h":
            # the unitary decider only for a pair of unitaries, so the
            # answer does not depend on the operand order
            decide = (eqv.homotopic_unitaries
                      if model.is_unitary(u, cfg.tol_pred)
                      and model.is_unitary(v, cfg.tol_pred)
                      else eqv.homotopic_partial_unitaries)
        else:
            decide = _PATH_DECIDERS[args.relation]
        # the decider validates its path at tol_path before returning it
        ok, path = decide(u, v, cfg.tol_pred, tol_path=cfg.tol_path)
        if path is not None:
            witness = serialize.path_to_json(path)
    report = {"relation": args.relation, "equivalent": bool(ok),
              "witness": witness}
    lines = [f"equiv --relation {args.relation}: {bool(ok)}"]
    with contextlib.suppress(Unsupported):
        # no windings over fd blocks (an empty K1 invariant) or for an
        # operand without a loop degree
        if windings := list(eqv.k1_invariant(u) + eqv.k1_invariant(v)):
            report["windings"] = windings
            lines.append(f"  windings: {windings}")
    if witness is not None:
        lines.append(f"  witness kind: {witness['kind']} (validated)")
    return report, lines, EXIT_PASS


def cmd_theta(args, cfg):
    u, v = serialize.load_pair(args.x)
    x = kgroups.k_pair_class(u, v, cfg.tol_pred)
    k0_part, k1_part = kgroups.theta_map(x)
    au, mu_u = kgroups.theta_witnesses(u, cfg.tol_pred)
    report = {"k_class": list(x.normal_form),
              "k0_part": list(k0_part.normal_form),
              "k1_part": list(k1_part.normal_form),
              "eta_witness": serialize.element_to_json(au),
              "mu_witness": serialize.element_to_json(mu_u)}
    lines = [f"theta of K class {list(x.normal_form)}",
             f"  K0 part: {list(k0_part.normal_form)}",
             f"  K1 part: {list(k1_part.normal_form)}"
             + ("" if k1_part.normal_form else " (trivial group)"),
             "  mu witness validated unitary"]
    return report, lines, EXIT_PASS


_COMMANDS = {"check-axioms": cmd_check_axioms, "classify": cmd_classify,
             "kgroup": cmd_kgroup, "equiv": cmd_equiv, "theta": cmd_theta}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    cfg = suites.RunConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(suites.RunConfig)})
    try:
        with model.memo_scope():
            t0 = time.time()
            report, lines, code = _COMMANDS[args.command](args, cfg)
            elapsed = time.time() - t0
        report.update(command=args.command, config=dataclasses.asdict(cfg))

        def open_out():
            return (open(args.out, "w") if args.out
                    else contextlib.nullcontext(sys.stdout))

        if args.format == "json":
            # streamed in pieces; a report the encoder refuses raises
            # before --out is opened
            serialize.write_canonical(report, open_out)
        else:
            with open_out() as fh:
                fh.write("\n".join(lines + [f"elapsed: {elapsed:.2f}s", ""]))
        return code
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")
        return EXIT_INPUT
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure ({type(exc).__name__}): {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
