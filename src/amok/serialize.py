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


def element_to_json(v: Element) -> dict:
    return {"algebra": algebra_to_json(v.algebra),
            "row_level": v.row_level,
            "col_level": v.col_level,
            "data": [m for s in v.stacks
                     for m in np.stack((s.real, s.imag), -1).tolist()]}


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


def _read_json(path: str):
    """The JSON value in the file at ``path``; an unreadable file, text
    that is not UTF-8 or not JSON, and nesting too deep to parse are
    input errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path}: not UTF-8 text ({exc.reason} at "
                             f"byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}")
    except RecursionError:
        raise SpecParseError(f"{path}: JSON nested too deeply")


def load_element(path: str) -> Element:
    return parse_element(_read_json(path))


def load_algebra(path: str) -> AlgebraSpec:
    return parse_algebra(_read_json(path))


class _PathSamples:
    """The samples of a path, kept as its (T, B, r, c) stacks until
    ``dumps_canonical`` writes them."""
    __slots__ = ("path",)

    def __init__(self, path):
        self.path = path


def path_to_json(path) -> dict:
    """A path whose ``"samples"`` are written by ``dumps_canonical`` as
    one element object per sample, straight from its stacks."""
    return {"kind": "path",
            "relation_domain": path.relation_domain,
            "step_bound": path.step_bound,
            "samples": _PathSamples(path)}


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


def _samples_json(path) -> str:
    """The canonical JSON of a path's samples, as ``element_to_json`` of
    each sample would give, written in one pass.

    One ``%`` template holds every sample, with a ``[%r,%r]`` cell per
    entry; it is filled from one flat list of the stacks' floats.
    ``'%r' % x`` is ``float.__repr__``, which the json encoder writes
    too, so signed zeros, subnormals and exponent forms keep their bytes.
    """
    T = len(path.stacks[0])
    flat = np.concatenate([s.view(np.float64).reshape(T, -1)
                           for s in path.stacks], axis=1)
    if not np.isfinite(flat).all():
        raise ValueError("Out of range float values are not JSON compliant")
    matrices = []
    for s in path.stacks:
        _, b, r, c = s.shape
        row = "[" + ",".join(["[%r,%r]"] * c) + "]"
        matrices += ["[" + ",".join([row] * r) + "]"] * b
    algebra = _dumps(algebra_to_json(path.algebra))  # holds no "%"
    sample = (f'{{"algebra":{algebra},"col_level":{path.col_level},'
              f'"data":[{",".join(matrices)}],"row_level":{path.row_level}}}')
    return "[" + ",".join([sample] * T) % tuple(flat.ravel().tolist()) + "]"


def _dumps(obj) -> str:
    # reports are trees built afresh for each call, never cyclic, so the
    # encoder skips its circular-reference bookkeeping
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, check_circular=False)


def _encode(obj):
    """The canonical JSON of ``obj`` if it holds path samples, else None:
    the stdlib dump of ``obj`` is then canonical as it is.  Path samples
    are looked for as dict values, through nested dicts only; the dicts
    on the way to them are written here, with string keys in sorted
    order, and every other value goes through the stdlib dump."""
    if isinstance(obj, _PathSamples):
        return _samples_json(obj.path)
    if not isinstance(obj, dict):
        return None
    keys = sorted(obj)
    parts = [_encode(obj[k]) for k in keys]
    if all(p is None for p in parts):
        return None
    return "{" + ",".join(
        f"{_dumps(k)}:{_dumps(obj[k]) if p is None else p}"
        for k, p in zip(keys, parts)) + "}"


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN.

    The bytes are those of the stdlib dump with ``sort_keys=True`` and
    compact separators, also for the samples of a ``path_to_json``
    witness, which are written from the path's stacks instead of from
    nested lists."""
    text = _encode(obj)
    return _dumps(obj) if text is None else text
