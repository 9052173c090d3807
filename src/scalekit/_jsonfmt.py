"""Deterministic JSON writer for reports.

Field order follows construction order; floats are printed with 17
significant digits so repeated runs are byte-identical across platforms;
a 2-D float array gives the bytes of its nested lists, and an EntryList
those of its entry dicts.  NaN and infinity are rejected.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

__all__ = ["dumps", "EntryList"]

_CHUNK_ROWS = 1 << 14

# the standard escapes: quote, backslash, \b \f \n \r \t, other control
# characters as \u00xx; everything else, non-ASCII included, as is
_string = json.JSONEncoder(ensure_ascii=False).encode


def _write_rows(array: np.ndarray, out: list) -> None:
    """The rows of a 2-D float array, one %-format per chunk of rows."""
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite float {float(array[~finite][0])!r}")
    row = "[" + ",".join(["%.17g"] * array.shape[1]) + "]"
    chunks = (array[i:i + _CHUNK_ROWS] for i in range(0, len(array), _CHUNK_ROWS))
    out.append("[" + ",".join(",".join([row] * len(c)) % tuple(c.ravel().tolist())
                              for c in chunks) + "]")


def _keyed_rows(shape, origin, flat, values: np.ndarray):
    """Per chunk of rows, the rows (k_1, ..., k_d, re, im): the key of cell
    flat[i] of a box of this shape and origin as decimal text, and the real
    and imaginary part of values[i]; the rows of EntryList and io's CSV.
    Per axis of a chunk, the text of each distinct index is made once, from
    an exact Python int whatever the origin, and shared by its rows."""
    for start in range(0, len(values), _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        cols = []
        for idx, o in zip(np.unravel_index(flat[part], shape), origin):
            keys = idx.tolist()
            text = {i: str(i + int(o)) for i in set(keys)}
            cols.append([text[i] for i in keys])
        cols += [values[part].real.tolist(), values[part].imag.tolist()]
        yield len(cols[-1]), zip(*cols)


class EntryList:
    """The entry list [{"k": [k_1..k_p], "value": [re, im]}, ...] of the
    nonzeros of a finite complex box (array, origin), in C order: the JSON
    value of a scale signal.  dumps writes it one %-format per chunk of
    rows; iterating gives the entries as dicts, the generic walk's value."""

    def __init__(self, array: np.ndarray, origin):
        self.array, self.origin = array, tuple(origin)

    def _chunks(self):
        """_keyed_rows of the nonzeros, -0.0 written as 0 as in io.pair."""
        flat = np.flatnonzero(self.array)
        return _keyed_rows(self.array.shape, self.origin, flat,
                           self.array.reshape(-1)[flat] + 0.0)

    def __iter__(self):
        for _, rows in self._chunks():
            for *k, a, b in rows:
                yield {"k": [int(i) for i in k], "value": [a, b]}


def _write_entries(entries: EntryList, out: list) -> None:
    row = '{"k":[' + ",".join(["%s"] * entries.array.ndim) + '],"value":[%.17g,%.17g]}'
    out.append("[" + ",".join(",".join([row] * n) % tuple(chain.from_iterable(rows))
                              for n, rows in entries._chunks()) + "]")


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
    elif isinstance(obj, EntryList):
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
