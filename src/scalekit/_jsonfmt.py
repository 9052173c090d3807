"""Deterministic JSON writer for reports, and the table kernel under it.

Field order follows construction order; every float is printed as
Python's ``'%.17g' %`` prints it, so repeated runs are byte-identical
across platforms; a 2-D float array gives the bytes of its nested lists,
and a ScaleSignal those of its entry list, which io.to_dict leaves to
dumps as it is.  NaN and infinity are rejected.

_table writes a chunk of rows (int key columns and float64 columns
between literal separators) with numpy: the rows of a float array, of a
scale signal's entry list and of io's CSV tables.  Each float cell is the
text of ``'%.17g' % x`` byte for byte.  For |x| with decimal exponent k the 17
digits are round(P), half to even, of P = |x| 10^(16-k) in [1e16, 1e17).
P is a double-double: 10^(16-k) is the pair H = fl(10^(16-k)),
L = fl(10^(16-k) - H) of a table built from exact integers (Dekker,
Numer. Math. 1971), |x| H is an exact Dekker product (p, e), and
ph + pl = p + fl(e + fl(|x| L)) by a fast two-sum.  Each step is its own
ufunc, so no fused multiply-add can change a rounding.  With u = 2^-53
and P < 2^57, |P - (ph + pl)| <= 4.01 u^2 P < 2^-46, and where L = 0
(10^(16-k) is a double) ph + pl is P exactly.  A cell goes through
``'%.17g' %`` itself, which rounds correctly (Gay 1990), when ph + pl is
within 2^-46 of a rounding tie and L != 0, when log10 misjudged k (P
outside [1e16, 1e17)), when x is not finite, and when k is outside
[_K_MIN, _K_MAX] (subnormals, |x| near the overflow threshold), where a
product of the table could underflow or overflow.  A column more than
half nonzero is scaled whole, its zeros never decided (log10 gives
-inf); a sparser one is scaled at its nonzeros only.  Either way a zero
is the constant cell "0" or "-0", in place.  The first digit is written alone
and the other 16 as four groups of four, each group one take from
_GROUPS, the 10,000 four-digit ASCII texts packed into uint32s.  An int
key column is written from str(index + origin) of each distinct index,
exact for any origin; each row's text is gathered as packed 1-, 2-, 4-
or 8-byte words.  _table gives ASCII bytes, which io's CSV writer hands
to its binary file as they are, and dumps decodes once per chunk as it
joins them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .signals import ScaleSignal

__all__ = ["dumps"]

# rows per _table call: its temporaries grow with it, and below about
# 8,192 rows the per-call costs start to show
_CHUNK_ROWS = 1 << 13

# the standard escapes: quote, backslash, \b \f \n \r \t, other control
# characters as \u00xx; everything else, non-ASCII included, as is
_string = json.JSONEncoder(ensure_ascii=False).encode

_K_MIN, _K_MAX = -284, 299
_TIE_ERR = 2.0 ** -46  # bounds |P - (ph + pl)|, see above
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter
# slots of a float cell, NUL where unused: sign, "0.000", the 17 digits
# with a point among them, "e", exponent sign, three digits
_WIDTH = 29
_LEAD = np.frombuffer(b"0.000", np.uint8)
_PLACES = np.arange(18, dtype=np.int8)[:, None]


_POW10 = np.zeros((4, _K_MAX - _K_MIN + 1))  # filled by _pow10

# "%04d" % g for g < 10,000: its four ASCII digits, in memory order, as
# one uint32
_GROUPS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                   -1).view(np.uint32).reshape(-1)


def _pow10(cols: np.ndarray) -> np.ndarray:
    """Columns cols of the table with rows H, H_hi, H_lo, L, whose column
    _K_MAX - k holds 10^m, m = 16 - k: H = fl(10^m) and L = fl(10^m - H),
    each one division of exact integers (int / int rounds correctly), and
    H split into halves of 26 and 27 bits.  Each column is built the first
    time it is asked for (H = 0 until then)."""
    table = _POW10.take(cols, axis=1)
    if table[0].all():
        return table
    missing = (np.bincount(cols, minlength=_POW10.shape[1]) > 0) & (_POW10[0] == 0)
    for col in np.flatnonzero(missing).tolist():
        m = col + 16 - _K_MAX
        num, den = 10 ** max(m, 0), 10 ** max(-m, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        low = (num * h_den - h_num * den) / (den * h_den)
        t = h * _SPLIT
        hh = t - (t - h)
        _POW10[:, col] = h, hh, h - hh, low
    return _POW10.take(cols, axis=1)


def _scaled_digits(a: np.ndarray):
    """For |x| values a: the mask of the values decided here (never a
    zero), and their decimal exponents k and 17 digits as an int (valid
    where decided)."""
    with np.errstate(divide="ignore"):  # log10(0) = -inf: outside
        k = np.log10(a)
    np.floor(k, out=k)
    inside = (k >= _K_MIN) & (k <= _K_MAX)
    k = np.where(inside, k, 0).astype(np.intp)
    h, hh, hl, low = _pow10(_K_MAX - k)
    # the module docstring's steps, one ufunc each and in place: p takes
    # h's place, ph hh's and whole hl's, t and ah are scratch, e becomes s
    # then pl, and frac takes pl's place
    with np.errstate(over="ignore", invalid="ignore"):  # outside: not decided
        p = np.multiply(a, h, out=h)
        t = a * _SPLIT
        ah = t - a
        np.subtract(t, ah, out=ah)
        al = np.subtract(a, ah, out=t)
        e = ah * hh
        e -= p
        e += np.multiply(ah, hl, out=ah)
        e += np.multiply(al, hh, out=ah)
        e += np.multiply(al, hl, out=ah)
        e += np.multiply(a, low, out=ah)
        ph = np.add(p, e, out=hh)
        e -= np.subtract(ph, p, out=p)
        whole = np.floor(e, out=hl)
        frac = np.subtract(e, whole, out=e)
        d = ph.astype(np.int64)
        d += whole.astype(np.int64)
    # where 10^(16-k) is a double (L = 0) ph + pl is P exactly, and a tie
    # goes to the even neighbour
    decided = (inside & ((np.abs(frac - 0.5) > _TIE_ERR) | (low == 0))
               & (d >= 10 ** 16) & (d < 10 ** 17))
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1))
    top = d == 10 ** 17
    d[top] = 10 ** 16
    return decided, k + top, d


def _float_cells(x: np.ndarray, cells: np.ndarray) -> None:
    """Write '%.17g' % x[i] into the zeroed column i of cells (_WIDTH slots)."""
    n = len(x)
    # a cell not decided here, a zero among them, is "0" until '%' writes
    # it; a column at most half nonzero is scaled at its nonzeros only
    nonzero = np.flatnonzero(x)
    if 2 * len(nonzero) > n:
        decided, exp, scaled = _scaled_digits(np.abs(x))
        exp *= decided
        scaled *= decided
    else:
        decided, exp, scaled = np.zeros(n, bool), np.zeros(n, np.intp), np.zeros(n, np.int64)
        ok, k, d = _scaled_digits(np.abs(x[nonzero]))
        at = nonzero[ok]
        decided[at], exp[at], scaled[at] = True, k[ok], d[ok]
    # the 17 digits in rows 1..17: the first, then four groups of four,
    # each one take of its packed text
    digits = np.zeros((19, n), np.uint8)
    top = scaled // 10 ** 16
    digits[1] = top + 48
    scaled -= top * 10 ** 16
    groups = np.empty((4, n), np.uint32)
    for row, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        part = scaled // unit
        scaled -= part * unit
        _GROUPS.take(part, out=groups[row])
    _GROUPS.take(scaled, out=groups[3])
    digits[2:18].reshape(4, 4, n)[:] = groups.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    nsig = ((digits[1:18] != 48) * _PLACES[1:18]).max(axis=0, initial=1)
    fixed = (exp >= -4) & (exp <= 16)
    last = np.where(fixed, exp, 0).astype(np.int8)  # of the integer part
    # the significant digits, and the trailing zeros of an integer part
    digits[1:18] *= _PLACES[:17] < np.maximum(nsig, last + 1)
    # the point after digit last, if a kept digit follows it; 17 is none.
    # Slot c holds digit c (row c + 1) up to the point, then the point,
    # then digit c - 1 (row c); uint8 arithmetic wraps, and is much
    # cheaper than np.where here
    point = np.where((nsig > last + 1) & ((exp >= 0) | ~fixed), last, 17).astype(np.int8)
    out = cells[6:24]
    np.subtract(digits[:18], digits[1:19], out=out)
    out *= _PLACES > point
    out += digits[1:19]
    at = np.flatnonzero(point < 17)
    out[point[at] + 1, at] = 46
    np.multiply(np.signbit(x), np.uint8(45), out=cells[0])
    # "0." to "0.000" before the digits of 1e-4 <= |x| < 1: two ufuncs on
    # every column cost less than a scatter to the columns that use them
    lead = (1 - exp) * (fixed & (exp < 0))
    np.multiply(_PLACES[:5] < lead, _LEAD[:, None], out=cells[1:6])
    # the exponent slots, on the columns that use them only
    sci = np.flatnonzero(~fixed)
    if len(sci):
        e = exp[sci]
        mag = np.abs(e)
        cells[24, sci] = 101
        cells[25, sci] = np.where(e < 0, 45, 43)
        cells[26, sci] = (mag >= 100) * (48 + mag // 100)
        cells[27, sci] = 48 + mag // 10 % 10
        cells[28, sci] = 48 + mag % 10
    rest = np.flatnonzero(~decided & (x != 0))
    for i, value in zip(rest.tolist(), x[rest].tolist()):
        text = ("%.17g" % value).encode()
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, np.uint8)


def _key_cells(index: np.ndarray, origin: int) -> np.ndarray:
    """The NUL-padded text of index + origin, one column per row, from the
    str of each distinct index (of each in the span, if that is shorter),
    padded to a power of two bytes and gathered as whole 1-, 2-, 4- or
    8-byte words."""
    low, high = int(index.min()), int(index.max())
    if high - low < len(index):
        distinct, inverse = range(low, high + 1), index - low
    else:
        distinct, inverse = np.unique(index, return_inverse=True)
        distinct = distinct.tolist()
    text = np.array([str(i + origin) for i in distinct], "S")
    width = 1 << (text.itemsize - 1).bit_length()
    packed = text.astype(f"S{width}").view(f"u{min(width, 8)}").reshape(len(text), -1)
    return packed.take(inverse, axis=0).view(np.uint8)[:, :text.itemsize].T


def _table(parts, n: int, sep: str = "") -> bytes:
    """n rows joined by sep, each the concatenation of parts: a str is a
    literal, an (index, origin) pair an int key column, a float64 array a
    column of '%.17g' cells.  The rows are built as columns of slots, NUL
    where unused, and the NULs are dropped at the end; the text is ASCII."""
    blocks = [np.frombuffer(part.encode(), np.uint8)[:, None] if isinstance(part, str)
              else _key_cells(*part) if isinstance(part, tuple) else None
              for part in parts]
    widths = [_WIDTH if b is None else len(b) for b in blocks]
    buf = np.zeros((sum(widths) + len(sep), n), np.uint8)
    at = 0
    for part, block, width in zip(parts, blocks, widths):
        if block is None:
            _float_cells(part, buf[at:at + width])
        else:
            buf[at:at + width] = block
        at += width
    buf[at:, :-1] = np.frombuffer(sep.encode(), np.uint8)[:, None]
    # slots that are NUL in every row are dropped before the transposing copy
    used = buf.max(axis=1, initial=0) != 0
    if not used.all():
        buf = buf[used]
    return buf.tobytes("F").translate(None, b"\0")


def _interleave(items, sep: str) -> list:
    return [x for item in items for x in (sep, item)][1:]


def _keyed_chunks(shape, origin, flat, values: np.ndarray, head, mid, tail, sep=""):
    """Per chunk of rows, the ASCII bytes of the rows (head k_1,...,k_d mid
    re,im tail) joined by sep: the key of cell flat[i] of a box of this
    shape and origin, and the real and imaginary part of values[i]."""
    for start in range(0, len(values), _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        keys = [(i, int(o)) for i, o in zip(np.unravel_index(flat[part], shape), origin)]
        row = [head, *_interleave(keys, ","), mid, values[part].real, ",", values[part].imag, tail]
        yield _table(row, len(values[part]), sep)


def _write_chunks(chunks, out: list) -> None:
    """A JSON array whose items are the comma-joined rows of each chunk."""
    out.append("[")
    for i, text in enumerate(chunks):
        if i:
            out.append(",")
        out.append(text.decode("ascii"))
    out.append("]")


def _refuse_non_finite(array: np.ndarray) -> None:
    """ValueError naming the first non-finite float of a float array in C
    order, as dumps refuses it."""
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite float {float(array[~finite][0])!r}")


def _write_rows(array: np.ndarray, out: list) -> None:
    """The rows of a 2-D float array, one _table per chunk of rows."""
    _refuse_non_finite(array)
    chunks = (array[i:i + _CHUNK_ROWS] for i in range(0, len(array), _CHUNK_ROWS))
    _write_chunks((_table(["[", *_interleave(c.T, ","), "]"], len(c), ",") for c in chunks), out)


def _write_entries(sig: ScaleSignal, out: list) -> None:
    """The entry list [{"k": [k_1..k_p], "value": [re, im]}, ...] of a scale
    signal's nonzeros in C order, one _table per chunk of rows.  A -0.0
    part is written as 0, as in io.pair."""
    box = sig.array
    flat = np.flatnonzero(box)
    _write_chunks(_keyed_chunks(box.shape, sig.origin, flat, box.reshape(-1)[flat] + 0.0,
                                '{"k":[', '],"value":[', "]}", ","), out)


def _write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(_string(key))
            out.append(":")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        _write_rows(obj, out)
    elif isinstance(obj, ScaleSignal):
        _write_entries(obj, out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    out: list = []
    _write(obj, out)
    return "".join(out)
