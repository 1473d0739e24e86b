"""Strict JSON (de)serialization for algebras, elements, certificates,
paths, and group views.

Field names are part of the external contract; parsers reject unknown
fields.  Canonical dumps are sorted-key compact JSON so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import FD, AlgebraSpec, Element
from .errors import AmokError, SpecParseError


def _require_fields(obj: dict, allowed, required, where: str) -> None:
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SpecParseError(f"{where}: missing fields {sorted(missing)}")


def _is_int(x) -> bool:
    """True for a JSON integer; rejects ``bool``, which subclasses ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_to_json(algebra: AlgebraSpec) -> dict:
    if algebra.variant == FD:
        return {"variant": "fd", "blocks": list(algebra.block_dims)}
    return {"variant": "circle", "dim": algebra.dim,
            "grid": algebra.grid_points}


def parse_algebra(obj) -> AlgebraSpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise SpecParseError("algebra: missing field 'variant'")
    variant = obj["variant"]
    try:
        if variant == "fd":
            _require_fields(obj, ("variant", "blocks"), ("variant", "blocks"),
                            "algebra")
            blocks = obj["blocks"]
            if (not isinstance(blocks, list) or not blocks
                    or not all(_is_int(b) and b >= 1 for b in blocks)):
                raise SpecParseError("algebra: 'blocks' must be a nonempty "
                                     "list of positive integers")
            return AlgebraSpec.fd(blocks)
        if variant == "circle":
            _require_fields(obj, ("variant", "dim", "grid"),
                            ("variant", "dim", "grid"), "algebra")
            if not _is_int(obj["dim"]) or not _is_int(obj["grid"]):
                raise SpecParseError("algebra: 'dim' and 'grid' must be integers")
            return AlgebraSpec.circle(obj["dim"], obj["grid"])
    except ValueError as exc:
        raise SpecParseError(f"algebra: {exc}")
    raise SpecParseError(f"algebra: unknown variant {variant!r}")


def _parse_matrix(rows, shape, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise SpecParseError(f"{where}: expected {shape[0]} rows")
    out = np.zeros(shape, dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise SpecParseError(f"{where}: row {r} must have {shape[1]} entries")
        for c, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(type(x) in (int, float) for x in cell)):
                raise SpecParseError(
                    f"{where}: entry ({r},{c}) must be a [re, im] pair")
            try:
                out[r, c] = complex(cell[0], cell[1])
            except OverflowError:
                raise SpecParseError(f"{where}: entry ({r},{c}) is too large")
    if not np.all(np.isfinite(out)):
        raise SpecParseError(f"{where}: entries must be finite numbers")
    return out


def _pairs(s: np.ndarray) -> list:
    """A complex stack as nested lists with [re, im] pairs at the bottom."""
    return np.stack((s.real, s.imag), -1).tolist()


def _element_json(algebra: AlgebraSpec, row_level: int, col_level: int,
                  data: list) -> dict:
    return {"algebra": algebra_to_json(algebra),
            "row_level": row_level,
            "col_level": col_level,
            "data": data}


def element_to_json(v: Element) -> dict:
    return _element_json(v.algebra, v.row_level, v.col_level,
                         [m for s in v.stacks for m in _pairs(s)])


def parse_element(obj) -> Element:
    _require_fields(obj, ("algebra", "row_level", "col_level", "data"),
                    ("algebra", "row_level", "col_level", "data"), "element")
    algebra = parse_algebra(obj["algebra"])
    m, n = obj["row_level"], obj["col_level"]
    if not _is_int(m) or not _is_int(n) or m < 0 or n < 0:
        raise SpecParseError("element: levels must be nonnegative integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != algebra.components:
        raise SpecParseError(
            f"element: 'data' must list {algebra.components} matrices")
    mats = []
    for i, rows in enumerate(data):
        d = algebra.component_dim(i)
        mats.append(_parse_matrix(rows, (m * d, n * d), f"element.data[{i}]"))
    try:
        return Element(algebra, m, n, tuple(mats))
    except AmokError as exc:
        raise SpecParseError(f"element: {exc}")


def load_element(path: str) -> Element:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}")
    return parse_element(obj)


def load_algebra(path: str) -> AlgebraSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}")
    return parse_algebra(obj)


def path_to_json(path) -> dict:
    """A path with one element object per sample, written from slices of
    its (T, B, r, c) stacks."""
    per_summand = [_pairs(s) for s in path.stacks]
    samples = [_element_json(path.algebra, path.row_level, path.col_level,
                             [m for lists in per_summand for m in lists[t]])
               for t in range(len(path.stacks[0]))]
    return {"kind": "path",
            "relation_domain": path.relation_domain,
            "step_bound": path.step_bound,
            "samples": samples}


def certificate_to_json(cert) -> dict:
    return {"kind": "certificate",
            "witness": element_to_json(cert.witness),
            "source": element_to_json(cert.source),
            "target": element_to_json(cert.target)}


def group_view_to_json(view) -> dict:
    return {"group": view.group_tag,
            "rank": view.rank,
            "cone": view.cone,
            "order_unit": list(view.order_unit.normal_form),
            "flags": {k: v for k, v in view.flags},
            "generators": [element_to_json(g) for g in view.generators]}


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators.

    Reports are trees built afresh for each call, never cyclic, so the
    encoder skips its circular-reference bookkeeping."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, check_circular=False)
