"""Strict JSON (de)serialization for algebras, elements, certificates,
paths, and group views.

Field names are part of the external contract; parsers reject unknown
fields.  An element matrix is walked once, cell by cell in row order,
and its first bad row or entry is named.  Canonical dumps are
sorted-key compact JSON so identical inputs produce byte-identical
output, the bytes of the stdlib ``json.dumps``, which lays out every
report: it writes each path, at any depth, as a slot string, and
``write_canonical`` streams the path's samples into the slot in pieces,
one per chunk of samples, each sliced straight from the path's stacks
with the float text of ``repr`` computed for the whole chunk; neither the
text nor a copy of a path's samples is ever held whole.
``dumps_canonical`` is the join of the same pieces.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraSpec, Element, zero
from .equivalence import HomotopyPath
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


def path_to_json(path) -> dict:
    """A path object that holds the path itself under ``"samples"``;
    ``write_canonical`` and ``dumps_canonical`` write it, at any depth of
    a report, as one element object per sample, straight from its
    stacks."""
    return {"kind": "path",
            "relation_domain": path.relation_domain,
            "step_bound": path.step_bound,
            "samples": path}


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
# floats per pass, eight samples of a circle dim 2 grid 64 path: a pass
# holds about 230 bytes per float at its peak.  Measured on that path's
# 1.4 MB report, on one core of a 2-core x86 VM: 17.1 ms per report at
# 2048, 15.2 ms at 4096, and 14.7 ms at 8192 for twice the memory
_CHUNK_FLOATS = 4096


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
    # in place where it can be, and each array dropped once it is dead:
    # this is the peak memory of a writer pass
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5
    # k - 18; exact: the doubles 0.1, 0.01 and 0.001 lie above those decimals
    k = np.add(a < 0.1, a < 0.01, dtype=np.int8)
    k += a < 0.001
    b = _POW10[18:][k]
    hi = a * b
    c = a * 134217729.0  # 2**27 + 1: split a and b into 26-bit halves
    ah = c - a
    np.subtract(c, ah, out=ah)
    al = a - ah
    np.multiply(b, 134217729.0, out=c)
    bh = c - b
    np.subtract(c, bh, out=bh)
    bl = b - bh
    del c
    # lo = al bl - (((hi - ah bh) - al bh) - ah bl)
    lo = ah * bh
    np.subtract(hi, lo, out=lo)
    t = al * bh
    lo -= t
    np.multiply(ah, bl, out=t)
    lo -= t
    np.multiply(al, bl, out=t)
    np.subtract(t, lo, out=lo)
    del ah, al, bh, bl, t
    up = np.spacing(a)  # the scaled half-ulp gap, exact
    up *= 0.5
    up *= b
    del a, b
    li, ui = np.floor(lo), np.floor(up)
    lf, uf = lo, up
    lf -= li  # exact: multiples of 2**-46
    uf -= ui
    base = hi.astype(np.int64)
    base += li.astype(np.int64)  # floor(hi + lo)
    del hi, li, lo, up
    ui = ui.astype(np.int64)
    # the ends hi + lo -+ up are odd multiples of powers of two below 1,
    # never integers; below a power of two the gap is half as wide, but the
    # powers of two here are short exact decimals, written either way
    low = base - ui
    low += lf > uf
    high = base + ui
    uf += lf
    high += uf >= 1
    del ui, uf
    J = np.zeros(n, np.int64)  # below 18: 1e18 is in no interval
    todo = np.arange(n)
    for j, p in enumerate(_POW10_INT[1:].tolist(), 1):
        todo = todo[high[todo] // p * p >= low[todo]]
        if not todo.size:
            break
        J[todo] = j
    del todo
    p = _POW10_INT[J]
    q = base // p
    decimal = q * p  # the multiple below, raised below where it is not
    # the multiple above is nearer when p - 2 (base - below) < 2 lf
    base -= decimal
    base *= 2
    t = (p - base).astype(np.float64)
    lf *= 2
    nearer_above = (lf > t) | ((lf == t) & (q % 2 == 1))
    del base, q, t, lf
    p += decimal
    nearer_above &= p <= high
    nearer_above |= decimal < low
    np.copyto(decimal, p, where=nearer_above)
    del p, low, high, nearer_above
    # four-digit groups, by division by scalars only (array divisors are
    # slow): each quotient less 10000 times the one above it
    groups = np.empty((5, n), np.int64)
    for row, g in zip(groups, (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(decimal, g, out=row)
    groups[4] = decimal
    for i in range(4, 0, -1):
        groups[i] -= 10000 * groups[i - 1]
    rows = np.empty((n, P + 24), np.uint8)
    rows.reshape(-1, F, P + 24)[:, :, :P + 4] = np.concatenate(
        [pieces, np.broadcast_to(np.frombuffer(b"-0.0", np.uint8), (F, 4))], 1)
    rows[:, P + 4:] = _DIGITS4.take(groups.T).view(np.uint8).reshape(n, 20)
    del groups
    # the keep row of sign, k - 18 and J
    J += 18 * k
    J[x < 0] += 72
    rows[:, P:] *= _NUMBER_KEEP.take(J, axis=0)
    slow = np.flatnonzero(~fast)
    rows[slow, P:] = np.frombuffer(b"".join(
        repr(v).encode().ljust(24, b"\0") for v in x[slow].tolist()),
        np.uint8).reshape(-1, 24)
    return rows


def _sample_pieces(path):
    """The canonical JSON of a path's samples, as ``element_to_json`` of
    each sample would give, in one piece of text per chunk of samples.

    The dump of a zero sample's ``element_to_json`` is cut at its floats
    into a header, the short pieces between floats, and a trailer.  Each
    chunk of samples is sliced straight from the stacks; ``_float_rows``
    writes its floats with their pieces, in the float text of the json
    encoder (``float.__repr__``), and the headers and trailers go around
    them in one byte buffer, decoded once.
    """
    T = len(path.stacks[0])
    # the algebra, the levels and the keys hold no "0.0"
    sample = _dumps(element_to_json(zero(
        path.algebra, path.row_level, path.col_level))).replace("0.0", "\0")
    F = sample.count("\0")
    head, *inner = sample.encode().split(b"\0")
    tail = inner.pop() if F else b""
    width = max(map(len, inner), default=0)
    pieces = np.frombuffer(b"".join(p.ljust(width, b"\0")
                                    for p in [b"", *inner]), np.uint8)
    pieces = pieces.reshape(F, width)
    per = max(1, _CHUNK_FLOATS // max(F, 1))
    sep = b"["
    for t in range(0, T, per):
        n = min(per, T - t)
        if F:
            rows = _float_rows(np.concatenate(
                [s[t:t + n].view(np.float64).reshape(n, -1)
                 for s in path.stacks], axis=1).ravel(), pieces)
            ends = np.cumsum(np.count_nonzero(rows.reshape(n, -1),
                                              axis=1)).tolist()
            text = memoryview(rows[rows != 0])
            del rows
        else:
            ends, text = [0] * n, b""
        out = bytearray()
        for start, end in zip([0] + ends, ends):
            out += sep
            out += head
            out += text[start:end]
            out += tail
            sep = b","
        yield out.decode("ascii")
    yield "]"


def _dumps(obj, default=None) -> str:
    # reports are trees built afresh for each call, never cyclic, so the
    # encoder skips its circular-reference bookkeeping
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, check_circular=False, default=default)


def _require_finite(path) -> None:
    """Refuse a path with a non-finite sample, as the json encoder would,
    without an array as large as the path: NaN propagates through ``min``
    and ``max``, and an infinity is one of them."""
    for s in path.stacks:
        x = s.view(np.float64)
        if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
            raise ValueError("Out of range float values are not JSON "
                             "compliant")


_SLOT = "\0"  # what the encoder writes in place of a path's samples


def _pieces(obj):
    """The canonical JSON of ``obj`` as an iterator of text pieces, none
    larger than a chunk of path samples: the stdlib dump of ``obj``, in
    which each path, at any depth, is written as ``_SLOT``, with the
    path's samples streamed into that slot.  Everything the encoder
    refuses, and a string of ``obj`` equal to ``_SLOT``, raise here,
    before the first piece is asked for."""
    paths = []

    def slot(value):
        if not isinstance(value, HomotopyPath):
            raise TypeError(f"Object of type {type(value).__name__} "
                            f"is not JSON serializable")
        _require_finite(value)
        paths.append(value)
        return _SLOT

    parts = _dumps(obj, default=slot).split(_dumps(_SLOT))
    if len(parts) != len(paths) + 1:
        raise ValueError(f"a string of the report is the slot {_SLOT!r}")

    def pieces():
        yield parts[0]
        for path, part in zip(paths, parts[1:]):
            yield from _sample_pieces(path)
            yield part
    return pieces()


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN.

    The bytes are those of the stdlib dump with ``sort_keys=True`` and
    compact separators, also for the samples of a ``path_to_json``
    witness, which are written from the path's stacks instead of from
    nested lists.  The text is the join of the pieces that
    ``write_canonical`` writes."""
    return "".join(_pieces(obj))


def write_canonical(obj, open_out) -> None:
    """Write ``dumps_canonical(obj)`` and a newline to the text stream
    that ``open_out()`` opens as a context manager, one bounded piece at a
    time, so that neither the text nor a copy of a path's samples is ever
    held whole.  Anything the encoder refuses raises before ``open_out``
    is called, so a file it would open keeps its bytes."""
    pieces = _pieces(obj)
    with open_out() as fh:
        for piece in pieces:
            fh.write(piece)
        fh.write("\n")
