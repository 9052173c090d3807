"""File formats: JSON dictionaries and CSV tables for every value type.

Complex numbers are always [re, im] pairs.  Signals travel either as CSV
with columns (n, k1..kp, re, im) sorted lexicographically, or as a dense
JSON tensor {arity, shape, origin, data} with data flattened in C order.
CSV rows are the signal's stack on (n, k); the JSON tensor is its to_dense
layout.  One codec per format: every value but a group and a time signal
goes to JSON through to_dict, which leaves a scale signal to dumps as it
is, and every JSON file is written by write_json (stdout for an empty
path); every CSV table is written by _write_table, and numpy parses CSV
rows in one pass, in blocks from the path of a large file.  Every float
array and table (a complex array's [re, im] rows, a scale signal's entry
list, the CSV rows) is written a chunk of rows at a time by _jsonfmt's
table kernel, whose cells are '%.17g' byte for byte; only near-ties and
extreme exponents are formatted one float at a time.  The kernel's
chunks are ASCII bytes, which write_time_signal's CSV file takes as they
are and a text handle gets decoded.  Both formats refuse a non-finite
value before anything is written, and write_time_signal before it opens
the file.

A CSV signal read back by the process that wrote it is not parsed again.
write_time_signal keeps one slot: the byte count and the bytes, chunk by
chunk, of the last CSV file it wrote, and the signal a read of those
bytes builds.  read_time_signal compares a CSV file with the kept chunks
only when its size is the slot's, and returns the slot's signal when
every byte is equal too.  The answer is a function of the file's bytes
either way, so a file changed by another writer is parsed, and a process
that reads only files it did not write never compares.  Nothing is read
back after a write, so any writable path takes a CSV signal.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import fields, is_dataclass

import numpy as np

from ._jsonfmt import _keyed_chunks, _refuse_non_finite, dumps
from .group import ScaleGroup, make_group
from .hardy import CoeffSeq
from .moebius import SuMatrix
from .moments import MomentSequence
from .signals import ScaleSignal, ScaleTimeSignal

__all__ = [
    "pair", "unpair", "to_dict",
    "sumatrix_from_dict",
    "group_to_dict", "group_from_dict",
    "coeffseq_from_dict",
    "signal_to_dict", "signal_from_dict",
    "write_signal_csv", "read_signal_csv",
    "spectrum_to_dict", "write_spectrum_csv",
    "moments_from_dict", "report_to_dict", "empirical_to_dict",
    "read_time_signal", "write_time_signal", "write_json",
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
    C order, and a ScaleSignal stays as it is; dumps writes the array by
    chunks of rows and the signal as its entry list, the same way.  Adding
    0.0 writes -0.0 as 0, since JSON readers parse "-0" as the integer 0
    and its sign could not come back.  Lists, tuples and dicts are walked,
    numpy scalars become Python's."""
    return _walk(value)


def _walk(value):
    if is_dataclass(value):
        return {f.name: _walk(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, complex):
        return pair(value)
    if isinstance(value, np.ndarray):
        pairs = np.stack((value.real, value.imag), -1).reshape(-1, 2)
        return pairs.astype(float, copy=False) + 0.0
    if isinstance(value, (list, tuple)):
        return [_walk(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _walk(v) for k, v in value.items()}
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
    return {"p": g.p, "generators": _walk(g.generators)}


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
        coeffs = _complex_values(obj["coeffs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient object: {obj!r}") from exc
    return CoeffSeq(coeffs, float(obj.get("tail_bound", 0.0)))


def signal_to_dict(sig: ScaleTimeSignal) -> dict:
    dense, origin = sig.to_dense()
    return {"arity": sig.arity, "shape": list(dense.shape), "origin": list(origin),
            "data": _walk(dense)}


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
    '%.17g' writes them; the _jsonfmt table kernel writes each chunk as
    bytes, which write_time_signal's _KeptWrites takes as they are and a
    text handle decoded.  A non-finite value raises dumps' ValueError
    before the header."""
    _refuse_non_finite(np.ascontiguousarray(values).view(float))
    text = not isinstance(fh, _KeptWrites)
    head = ",".join(header) + "\n"
    fh.write(head if text else head.encode("ascii"))
    for chunk in _keyed_chunks(shape, origin, flat, values, "", ",", "\n"):
        fh.write(chunk.decode("ascii") if text else chunk)


def write_signal_csv(sig: ScaleTimeSignal, fh) -> None:
    """Write a signal's CSV table to a text handle."""
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


# the last CSV file write_time_signal wrote: (byte count, its bytes as the
# chunks write_signal_csv wrote, the signal _read_csv builds from them),
# or None.  It is replaced whole and read once per call, and each triple
# holds for its own bytes whatever file they are found in, so threads
# need no lock
_written = None


class _KeptWrites(list):
    """A writer over a binary file: the list of the bytes of each chunk it
    wrote."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, chunk: bytes) -> None:
        self.append(chunk)
        self.fh.write(chunk)


def _holds(fh, chunks) -> bool:
    """Whether a binary handle's bytes from where it stands begin with the
    chunks, read and compared one chunk at a time."""
    return all(fh.read(len(chunk)) == chunk for chunk in chunks)


def _as_read(sig: ScaleTimeSignal) -> ScaleTimeSignal | None:
    """The signal _read_csv builds from the CSV text of sig, made from
    sig's stack: zero cells +0 (a copy only where one is -0), and time_len
    the last time with a row plus 1, or 1 without rows.  None where the
    text does not read back (a key outside int64)."""
    stack, box = sig.stack, sig.stack.array
    if not all(-2 ** 63 <= o and o + n <= 2 ** 63 for o, n in zip(stack.origin, box.shape)):
        return None
    signed = (box == 0) & (np.signbit(box.real) | np.signbit(box.imag))
    if signed.any():
        stack = ScaleSignal._from_box(np.where(signed, 0, box), stack.origin)
    return ScaleTimeSignal._from_stack(stack, max(stack.origin[0] + len(box), 1))


def read_time_signal(path: str) -> ScaleTimeSignal:
    """Load a scale-time signal from .csv or .json by extension.

    A CSV file the size of the last one write_time_signal wrote is
    compared with that write's bytes, a chunk at a time, and gives that
    write's signal when every byte is equal; any other file is parsed, by
    numpy from its path at _BLOCK_READ_BYTES or more and from the open
    handle below that.  The size, the compared bytes and a small file's
    rows all come from one open.
    """
    if path.endswith(".csv"):
        written = _written
        with open(path, newline="") as fh:
            size = os.fstat(fh.fileno()).st_size
            if written is not None and size == written[0]:
                if _holds(fh.buffer, written[1]):
                    return written[2]
                fh.seek(0)
            if size < _BLOCK_READ_BYTES:
                return _read_csv(fh)
            # absolute: numpy's DataSource never takes it for a URL
            return _read_csv(fh, os.path.abspath(path))
    with open(path) as fh:
        return signal_from_dict(json.load(fh))


def write_time_signal(sig: ScaleTimeSignal, path: str) -> None:
    """Write a scale-time signal as .csv or .json by extension.

    A CSV file is written by write_signal_csv into the binary file, whose
    writer keeps the bytes of each chunk; once the file has closed, the
    slot read_time_signal checks holds their count, the chunks and the
    signal a read of them builds.  Nothing is read back, so the path need
    not be seekable.  The slot is emptied first, so a failed write and a
    JSON write leave it empty.  A JSON file is written by write_json.  A
    non-finite value is refused before the file is opened.
    """
    global _written
    _written = None
    if path.endswith(".csv"):
        _refuse_non_finite(np.ascontiguousarray(sig.stack.array).view(float))
        with open(path, "wb") as fh:
            kept = _KeptWrites(fh)
            write_signal_csv(sig, kept)
        read = _as_read(sig)
        if read is not None:
            _written = (sum(map(len, kept)), tuple(kept), read)
        return
    write_json(signal_to_dict(sig), path)


def write_json(doc, path) -> None:
    """Write dumps(doc) and a newline to the file at path, or to stdout
    where path is empty.  dumps runs before the file opens, so a refused
    value creates no file; the text and its newline are written apart, as
    text + "\n" would copy the whole report once more."""
    text = dumps(doc)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)
        fh.write("\n")


def write_spectrum_csv(grid: SpectrumGrid, fh) -> None:
    values = grid.values.reshape(-1)
    _write_table(fh, [f"j{a + 1}" for a in range(grid.arity)] + ["re", "im"],
                 grid.grid_sizes, (0,) * grid.arity, range(values.size), values)


def _complex_values(t) -> np.ndarray:
    """The complex numbers of a list: in one numpy conversion for a list
    of [re, im] lists of numbers; anything else through unpair one item at
    a time, which accepts and refuses the same values with the same
    messages."""
    if isinstance(t, list) and set(map(type, t)) <= {list}:
        try:
            parts = np.asarray(t)
        except (ValueError, TypeError):  # ragged rows
            parts = None
        if parts is not None and parts.dtype.kind in "biuf" and parts.shape[1:] == (2,):
            return np.ascontiguousarray(parts, float).view(complex)[:, 0]
    return np.array([unpair(z) for z in t], complex)


def moments_from_dict(obj) -> MomentSequence:
    try:
        return MomentSequence(_complex_values(obj["t"]).tolist())
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed moments object: {obj!r}") from exc
