"""File formats: JSON dictionaries and CSV tables for every value type.

Complex numbers are always [re, im] pairs.  Signals travel either as CSV
with columns (n, k1..kp, re, im) sorted lexicographically, or as a dense
JSON tensor {arity, shape, origin, data} with data flattened in C order.
CSV rows are the signal's stack on (n, k); the JSON tensor is its to_dense
layout.  One codec per format: every value but a group and a signal goes
to JSON through the to_dict walk, every CSV table is written by
_write_table, and numpy parses CSV rows in one pass, in blocks from the
path of a large file.  Every float array and table (a complex array's
[re, im] rows, a scale signal's entry list, the CSV rows) is written a
chunk of rows at a time by _jsonfmt's table kernel, whose cells are
'%.17g' byte for byte; only near-ties and extreme exponents are formatted
one float at a time.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import fields, is_dataclass

import numpy as np

from ._jsonfmt import EntryList, _keyed_chunks, dumps
from .group import ScaleGroup, make_group
from .hardy import CoeffSeq
from .moebius import SuMatrix
from .moments import MomentSequence
from .signals import ScaleSignal, ScaleTimeSignal
from .spectral import SpectrumGrid

__all__ = [
    "pair", "unpair", "to_dict",
    "sumatrix_from_dict",
    "group_to_dict", "group_from_dict",
    "coeffseq_from_dict",
    "signal_to_dict", "signal_from_dict",
    "write_signal_csv", "read_signal_csv",
    "spectrum_to_dict", "write_spectrum_csv",
    "moments_from_dict", "report_to_dict", "empirical_to_dict",
    "read_time_signal", "write_time_signal",
]


def pair(z: complex) -> list:
    # + 0.0 writes -0.0 as 0: JSON readers parse "-0" as the integer 0
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]


def unpair(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if not (isinstance(obj, (list, tuple, np.ndarray)) and len(obj) == 2):
        raise ValueError(f"expected [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def to_dict(value):
    """The JSON value of a scalekit value: a dataclass becomes its fields in
    declaration order minus those that are None, a complex number an
    [re, im] pair, an array the (n, 2) float array of its [re, im] rows in
    C order, a ScaleSignal its entry list (an EntryList); dumps writes
    both by chunks of rows.  Adding 0.0 writes -0.0 as 0, since JSON
    readers parse "-0" as the integer 0 and its sign could not come back.
    Lists, tuples and dicts are walked, numpy scalars become Python's."""
    if is_dataclass(value):
        return {f.name: to_dict(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, complex):
        return pair(value)
    if isinstance(value, np.ndarray):
        pairs = np.stack((value.real, value.imag), -1).reshape(-1, 2)
        return pairs.astype(float, copy=False) + 0.0
    if isinstance(value, ScaleSignal):
        return EntryList(value.array, value.origin)
    if isinstance(value, (list, tuple)):
        return [to_dict(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_dict(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


spectrum_to_dict = report_to_dict = empirical_to_dict = to_dict


def sumatrix_from_dict(obj) -> SuMatrix:
    try:
        return SuMatrix(unpair(obj["a"]), unpair(obj["b"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {obj!r}") from exc


def group_to_dict(g: ScaleGroup) -> dict:
    return {"p": g.p, "generators": to_dict(g.generators)}


def group_from_dict(obj) -> ScaleGroup:
    try:
        gens = [sumatrix_from_dict(d) for d in obj["generators"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed group object: {obj!r}") from exc
    group = make_group(gens)
    declared = obj.get("p")
    if declared is not None and int(declared) != group.p:
        raise ValueError(f"declared p={declared} but {group.p} generators given")
    return group


def coeffseq_from_dict(obj) -> CoeffSeq:
    try:
        coeffs = [unpair(z) for z in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient object: {obj!r}") from exc
    return CoeffSeq(np.asarray(coeffs, complex), float(obj.get("tail_bound", 0.0)))


def signal_to_dict(sig: ScaleTimeSignal) -> dict:
    dense, origin = sig.to_dense()
    return {"arity": sig.arity, "shape": list(dense.shape), "origin": list(origin),
            "data": to_dict(dense)}


def signal_from_dict(obj) -> ScaleTimeSignal:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        origin = tuple(int(o) for o in obj["origin"])
        data = np.asarray(obj["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal object: {type(obj)!r}") from exc
    arity = int(obj.get("arity", len(shape) - 1))
    if len(shape) != arity + 1 or len(origin) != arity:
        raise ValueError(f"inconsistent signal shape {shape!r} / origin {origin!r}")
    if data.ndim == 2 and data.shape[1] == 2:
        data = np.ascontiguousarray(data).view(complex)
    elif data.ndim != 1:
        raise ValueError("signal data must be [re, im] pairs or real numbers")
    if data.size != math.prod(shape):
        raise ValueError(f"signal data length {data.size} does not match shape {shape!r}")
    return ScaleTimeSignal.from_dense(data.reshape(shape), origin)


def _write_table(fh, header, shape, origin, flat, values: np.ndarray) -> None:
    """A CSV header, then per row the key of cell flat[i] of a box of this
    shape and origin, and the real and imaginary part of values[i] as
    '%.17g' writes them; the _jsonfmt table kernel writes each chunk."""
    fh.write(",".join(header) + "\n")
    for text in _keyed_chunks(shape, origin, flat, values, "", ",", "\n"):
        fh.write(text)


def write_signal_csv(sig: ScaleTimeSignal, fh) -> None:
    box, flat = sig.stack.array, np.flatnonzero(sig.stack.array)
    _write_table(fh, ["n"] + [f"k{a + 1}" for a in range(sig.arity)] + ["re", "im"],
                 box.shape, sig.stack.origin, flat, box.reshape(-1)[flat])


def _parse_rows(source, dtype, skiprows=0) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
        try:
            rows = np.loadtxt(source, dtype, delimiter=",", quotechar='"', comments=None,
                              ndmin=1, skiprows=skiprows)
        except DeprecationWarning as exc:  # releases that cast a float-like int only warn
            raise ValueError(exc) from None
    if (rows["key"][:, 0] < 0).any():
        raise ValueError("negative time index")
    return rows


def _read_csv(fh, path=None) -> ScaleTimeSignal:
    """The signal in a CSV text handle whose header has not been read.

    numpy parses the rows in one pass: from path, when given, which it
    reads in blocks (skipping the header line), and otherwise from the
    handle, line by line.  Only a bad row sends a seekable handle back to
    name its file line.
    """
    header = [f.strip('"') for f in fh.readline().rstrip("\r\n").split(",")]
    if header[0] != "n" or header[-2:] != ["re", "im"]:
        raise ValueError("bad CSV header: expected n,k1..kp,re,im")
    arity = len(header) - 3
    if arity < 1:
        raise ValueError("CSV header must declare at least one scale axis")
    dtype = [("key", np.int64, (arity + 1,)), ("value", float, (2,))]
    start = fh.tell() if fh.seekable() else None
    try:
        rows = _parse_rows(fh, dtype) if path is None else _parse_rows(path, dtype, 1)
    except ValueError:
        if start is None:
            raise
        # numpy's row numbers skip blank lines: find the file line again
        fh.seek(start)
        for lineno, line in enumerate(fh, start=2):
            try:
                _parse_rows([line], dtype)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {str(exc).split(' at row')[0]}") from exc
        raise
    keys = rows["key"]
    values = np.ascontiguousarray(rows["value"]).view(complex)[:, 0]
    # the rows are the signal's stack on (n, k1..kp); no rows is one zero step
    time_len = int(keys[:, 0].max()) + 1 if len(keys) else 1
    return ScaleTimeSignal._from_stack(ScaleSignal._from_entries(keys, values), time_len)


def read_signal_csv(fh) -> ScaleTimeSignal:
    """Read a signal from a text handle (a file, a pipe, a StringIO)."""
    return _read_csv(fh)


# numpy parses a file it opens itself about 5 ns a byte faster than a
# handle's lines, but pays about 0.1 ms a file and 1.5 ms once a process
# to open it; at this size the saving about repays that in a fresh process
_BLOCK_READ_BYTES = 1 << 18


def read_time_signal(path: str) -> ScaleTimeSignal:
    """Load a scale-time signal from .csv or .json by extension; numpy
    reads a CSV file of at least _BLOCK_READ_BYTES from its path."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            if os.fstat(fh.fileno()).st_size < _BLOCK_READ_BYTES:
                return _read_csv(fh)
            # absolute: numpy's DataSource never takes it for a URL
            return _read_csv(fh, os.path.abspath(path))
    with open(path) as fh:
        return signal_from_dict(json.load(fh))


def write_time_signal(sig: ScaleTimeSignal, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            write_signal_csv(sig, fh)
        return
    with open(path, "w") as fh:
        fh.write(dumps(signal_to_dict(sig)))
        fh.write("\n")


def write_spectrum_csv(grid: SpectrumGrid, fh) -> None:
    values = grid.values.reshape(-1)
    _write_table(fh, [f"j{a + 1}" for a in range(grid.arity)] + ["re", "im"],
                 grid.grid_sizes, (0,) * grid.arity, range(values.size), values)


def moments_from_dict(obj) -> MomentSequence:
    try:
        return MomentSequence(tuple(unpair(z) for z in obj["t"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed moments object: {obj!r}") from exc
