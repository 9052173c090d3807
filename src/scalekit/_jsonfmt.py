"""Deterministic JSON writer for reports.

Field order follows construction order; floats are printed with 17
significant digits so repeated runs are byte-identical across platforms.
NaN and infinity are rejected.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps"]

# the standard escapes: quote, backslash, \b \f \n \r \t, other control
# characters as \u00xx; everything else, non-ASCII included, as is
_string = json.JSONEncoder(ensure_ascii=False).encode


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
