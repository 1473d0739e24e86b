"""Strict JSON (de)serialization for algebras, elements, certificates,
paths, and group views.

Field names are part of the external contract; parsers reject unknown
fields.  An element matrix is walked once, cell by cell in row order,
and its first bad row or entry is named.  Canonical dumps are
sorted-key compact JSON so identical inputs produce byte-identical
output, the bytes of the stdlib ``json.dumps``.
Path samples are written straight from their stacks, a few samples at a
time, with the float text of ``repr`` computed for whole arrays.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import SpecParseError


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
    """The fd form when every batch is 1, else the circle form."""
    if all(b == 1 for b, _ in algebra.summands):
        return {"variant": "fd", "blocks": [d for _, d in algebra.summands]}
    (n, d), = algebra.summands
    return {"variant": "circle", "dim": d, "grid": n}


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
    """The complex matrix of JSON rows of ``[re, im]`` pairs, walked once
    in row order; the first bad row or entry is named, and non-finite
    entries are refused once the walk is done."""
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise SpecParseError(f"{where}: expected {shape[0]} rows")
    values = []
    for r, row in enumerate(rows):
        if type(row) is not list or len(row) != shape[1]:
            raise SpecParseError(f"{where}: row {r} must have {shape[1]} entries")
        for c, cell in enumerate(row):
            if (type(cell) is not list or len(cell) != 2
                    or type(cell[0]) not in (int, float)
                    or type(cell[1]) not in (int, float)):
                raise SpecParseError(
                    f"{where}: entry ({r},{c}) must be a [re, im] pair")
            try:
                values.append(complex(cell[0], cell[1]))
            except OverflowError:
                raise SpecParseError(f"{where}: entry ({r},{c}) is too large")
    matrix = np.array(values, dtype=complex).reshape(shape)
    if not np.isfinite(matrix).all():
        raise SpecParseError(f"{where}: entries must be finite numbers")
    return matrix


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
    count = sum(b for b, _ in algebra.summands)
    if not isinstance(data, list) or len(data) != count:
        raise SpecParseError(f"element: 'data' must list {count} matrices")
    # one matrix per component, in order, grouped into one stack per summand
    stacks, i = [], 0
    for b, d in algebra.summands:
        stacks.append(np.stack([
            _parse_matrix(data[j], (m * d, n * d), f"element.data[{j}]")
            for j in range(i, i + b)]))
        i += b
    return Element(algebra, m, n, stacks)


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


def load_pair(path: str) -> tuple:
    """The elements ``u`` and ``v`` of the JSON object in the file at
    ``path`` (the input of ``theta``)."""
    obj = _read_json(path)
    _require_fields(obj, ("u", "v"), ("u", "v"), "theta input")
    return parse_element(obj["u"]), parse_element(obj["v"])


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
    return {"group": view.order_unit.group_tag,
            "rank": view.rank,
            "cone": view.cone,
            "order_unit": list(view.order_unit.normal_form),
            "flags": {k: v for k, v in view.flags},
            "generators": [element_to_json(g) for g in view.generators]}


_POW10 = np.array([float(10 ** k) for k in range(22)])  # exact below 1e23
_POW10_INT = _POW10[:18].astype(np.int64)
# the ASCII digits of 0..9999, four bytes to a uint32
_digits2 = (np.arange(100)[:, None] // [10, 1] % 10 + 48).astype(np.uint8)
_DIGITS4 = np.concatenate(np.broadcast_arrays(_digits2[:, None], _digits2),
                          axis=2).view(np.uint32).ravel()
# which bytes of "-0.0" and 20 digits to keep, by sign, k - 18 and J: the
# sign if negative, "0.", and the columns [24 - k, 24 - J)
_neg, _k, _J, _column = np.ix_(range(2), range(4), range(18), range(24))
_NUMBER_KEEP = ((_column == 0) & (_neg == 1) | (_column == 1) | (_column == 2)
                | (6 - _k <= _column) & (_column < 24 - _J)).reshape(-1, 24)
# floats per pass: four samples of a circle dim 2 grid 64 path; larger
# passes raise the peak memory of a dump
_CHUNK_FLOATS = 2048


def _float_rows(x, pieces):
    """Rows of bytes that read, once their zero bytes are dropped, row
    ``i % F`` of the ``(F, P)`` matrix ``pieces`` and then ``repr(x[i])``
    for each ``i``.  24 bytes hold any float repr.  For ``1e-4 <= |x| < 1``
    its digits come from exact float arithmetic, as in Ryu: ``|x| * 10**k
    = hi + lo`` (Dekker) with ``hi`` an integer in ``[1e17, 1e18)``; the
    half-ulp gap scaled by ``10**k`` is exact, and so are the integer
    bounds ``[low, high]`` of the decimals that read back as ``x``.  The
    digits are the multiple of the largest ``10**J`` in there nearest
    ``hi + lo``, ties to even.
    """
    n = len(x)
    F, P = pieces.shape
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    # exact: the doubles 0.1, 0.01 and 0.001 lie above those decimals
    k = 18 + (a < 0.1) + (a < 0.01) + (a < 0.001)
    b = _POW10[k]
    hi = a * b
    c = 134217729.0 * a  # 2**27 + 1: split a and b into 26-bit halves
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)
    up = np.spacing(a) * 0.5 * b  # the scaled half-ulp gap, exact
    li, ui = np.floor(lo), np.floor(up)
    lf, uf = lo - li, up - ui  # exact: multiples of 2**-46
    base = hi.astype(np.int64) + li.astype(np.int64)  # floor(hi + lo)
    # the ends hi + lo -+ up are odd multiples of powers of two below 1,
    # never integers; below a power of two the gap is half as wide, but the
    # powers of two here are short exact decimals, written either way
    low = base - ui.astype(np.int64) + (lf > uf)
    high = base + ui.astype(np.int64) + (lf + uf >= 1)
    J = np.zeros(n, np.int64)  # below 18: 1e18 is in no interval
    todo = np.arange(n)
    for j, p in enumerate(_POW10_INT[1:].tolist(), 1):
        todo = todo[high[todo] // p * p >= low[todo]]
        if not todo.size:
            break
        J[todo] = j
    p = _POW10_INT[J]
    q = base // p
    below = q * p
    # the multiple above is nearer when p - 2 (base - below) < 2 lf
    t = (p - 2 * (base - below)).astype(np.float64)
    nearer_above = (2 * lf > t) | ((2 * lf == t) & (q % 2 == 1))
    decimal = np.where((below < low) | (nearer_above & (below + p <= high)),
                       below + p, below)
    # four-digit groups, by division by scalars only (array divisors are slow)
    quotients = [decimal // g for g in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)]
    groups = np.stack([quotients[0]] + [
        lower - 10000 * upper
        for upper, lower in zip(quotients, quotients[1:] + [decimal])], axis=1)
    rows = np.empty((n, P + 24), np.uint8)
    rows.reshape(-1, F, P + 24)[:, :, :P + 4] = np.concatenate(
        [pieces, np.broadcast_to(np.frombuffer(b"-0.0", np.uint8), (F, 4))], 1)
    rows[:, P + 4:] = _DIGITS4.take(groups).view(np.uint8).reshape(n, 20)
    rows[:, P:] *= _NUMBER_KEEP.take(((x < 0) * 4 + k - 18) * 18 + J, axis=0)
    slow = np.flatnonzero(~fast)
    rows[slow, P:] = np.frombuffer(b"".join(
        repr(v).encode().ljust(24, b"\0") for v in x[slow].tolist()),
        np.uint8).reshape(-1, 24)
    return rows


def _samples_json(path) -> str:
    """The canonical JSON of a path's samples, as ``element_to_json`` of
    each sample would give, written straight from the stacks.

    The text of a sample is cut at its floats into a header, the short
    pieces between floats, and a trailer.  ``_float_rows`` writes the
    floats of a few samples at a time with their pieces, in the float text
    of the json encoder (``float.__repr__``); the headers and trailers go
    around them in one byte buffer, decoded once.
    """
    T = len(path.stacks[0])
    flat = np.concatenate([s.view(np.float64).reshape(T, -1)
                           for s in path.stacks], axis=1)
    if not np.isfinite(flat).all():
        raise ValueError("Out of range float values are not JSON compliant")
    matrices = []
    for s in path.stacks:
        _, b, r, c = s.shape
        row = "[" + ",".join(["[\0,\0]"] * c) + "]"
        matrices += ["[" + ",".join([row] * r) + "]"] * b
    algebra = _dumps(algebra_to_json(path.algebra))  # holds no "\0"
    sample = (f'{{"algebra":{algebra},"col_level":{path.col_level},'
              f'"data":[{",".join(matrices)}],"row_level":{path.row_level}}}')
    F = flat.shape[1]
    if not F:
        return "[" + ",".join([sample] * T) + "]"
    head, *inner, tail = (sample + ",").encode().split(b"\0")
    width = max(map(len, inner), default=0)
    pieces = np.frombuffer(b"".join(p.ljust(width, b"\0")
                                    for p in [b"", *inner]), np.uint8)
    pieces = pieces.reshape(F, width)
    per = max(1, _CHUNK_FLOATS // F)
    out = bytearray(b"[")
    for t in range(0, T, per):
        rows = _float_rows(flat[t:t + per].ravel(), pieces)
        text = memoryview(rows[rows != 0])
        ends = np.cumsum(np.count_nonzero(rows.reshape(-1, F * rows.shape[1]),
                                          axis=1)).tolist()
        for start, end in zip([0] + ends, ends):
            out += head
            out += text[start:end]
            out += tail
    out[-1:] = b"]"
    return out.decode("ascii")


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
