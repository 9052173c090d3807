"""Deterministic JSON writer for reports.

Field order follows construction order; floats are printed with 17
significant digits so repeated runs are byte-identical across platforms;
a 2-D float array gives the bytes of its nested lists.  NaN and infinity
are rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["dumps"]

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
