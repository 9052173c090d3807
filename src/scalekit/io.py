"""File formats: JSON dictionaries and CSV tables for every value type.

Complex numbers are always [re, im] pairs.  Signals travel either as CSV
with columns (n, k1..kp, re, im) sorted lexicographically, or as a dense
JSON tensor {arity, shape, origin, data} with data flattened in C order.
CSV rows are the signal's stack on (n, k); the JSON tensor is its to_dense
layout.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .group import ScaleGroup, make_group
from .hardy import CoeffSeq
from .moebius import SuMatrix
from .moments import MomentSequence
from .signals import ScaleSignal, ScaleTimeSignal
from .spectral import SpectrumGrid
from .stability import EmpiricalReport, OperatorNormBracket, StabilityReport

__all__ = [
    "pair", "unpair",
    "sumatrix_to_dict", "sumatrix_from_dict",
    "group_to_dict", "group_from_dict",
    "coeffseq_to_dict", "coeffseq_from_dict",
    "signal_to_dict", "signal_from_dict",
    "write_signal_csv", "read_signal_csv",
    "spectrum_to_dict", "write_spectrum_csv",
    "moments_from_dict", "moments_to_dict",
    "bracket_to_dict", "report_to_dict", "empirical_to_dict",
    "read_time_signal", "write_time_signal",
]

_FLOAT = ".17g"


def pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def unpair(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError(f"expected [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def sumatrix_to_dict(m: SuMatrix) -> dict:
    return {"a": pair(m.a), "b": pair(m.b)}


def sumatrix_from_dict(obj) -> SuMatrix:
    try:
        return SuMatrix(unpair(obj["a"]), unpair(obj["b"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {obj!r}") from exc


def group_to_dict(g: ScaleGroup) -> dict:
    return {
        "p": g.p,
        "generators": [sumatrix_to_dict(m) for m in g.generators],
    }


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


def coeffseq_to_dict(f: CoeffSeq) -> dict:
    return {
        "coeffs": [pair(z) for z in f.coeffs],
        "tail_bound": float(f.tail_bound),
    }


def coeffseq_from_dict(obj) -> CoeffSeq:
    try:
        coeffs = [unpair(z) for z in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient object: {obj!r}") from exc
    return CoeffSeq(np.asarray(coeffs, complex), float(obj.get("tail_bound", 0.0)))


def signal_to_dict(sig: ScaleTimeSignal) -> dict:
    dense, origin = sig.to_dense()
    return {
        "arity": sig.arity,
        "shape": list(dense.shape),
        "origin": list(origin),
        "data": dense.reshape(-1, 1).view(float).tolist(),
    }


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
        raise ValueError(
            f"signal data length {data.size} does not match shape {shape!r}"
        )
    return ScaleTimeSignal.from_dense(data.reshape(shape), origin)


def write_signal_csv(sig: ScaleTimeSignal, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["n"] + [f"k{a + 1}" for a in range(sig.arity)] + ["re", "im"])
    for n, idx, v in sig.items():
        writer.writerow(
            [n, *idx, format(v.real, _FLOAT), format(v.imag, _FLOAT)]
        )


def read_signal_csv(fh) -> ScaleTimeSignal:
    reader = csv.reader(fh)
    header = next(reader, None)
    if not header or header[0] != "n" or header[-2:] != ["re", "im"]:
        raise ValueError("bad CSV header: expected n,k1..kp,re,im")
    arity = len(header) - 3
    if arity < 1:
        raise ValueError("CSV header must declare at least one scale axis")
    time_len = 0

    def rows():
        nonlocal time_len
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != arity + 3:
                raise ValueError(f"line {lineno}: expected {arity + 3} fields")
            try:
                key = tuple(map(int, row[:1 + arity]))
                value = complex(float(row[-2]), float(row[-1]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if key[0] < 0:
                raise ValueError(f"line {lineno}: negative time index")
            time_len = max(time_len, key[0] + 1)
            yield key, value

    # the rows are the signal's stack on (n, k1..kp); no rows is one zero step
    stack = ScaleSignal(rows(), arity=arity + 1)
    return ScaleTimeSignal._from_stack(stack, max(time_len, 1))


def read_time_signal(path: str) -> ScaleTimeSignal:
    """Load a scale-time signal from .csv or .json by extension."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            return read_signal_csv(fh)
    import json

    with open(path) as fh:
        return signal_from_dict(json.load(fh))


def write_time_signal(sig: ScaleTimeSignal, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            write_signal_csv(sig, fh)
        return
    from ._jsonfmt import dumps

    with open(path, "w") as fh:
        fh.write(dumps(signal_to_dict(sig)) + "\n")


def spectrum_to_dict(grid: SpectrumGrid) -> dict:
    return {
        "grid_sizes": list(grid.grid_sizes),
        "values": [pair(z) for z in grid.values.reshape(-1)],
    }


def write_spectrum_csv(grid: SpectrumGrid, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"j{a + 1}" for a in range(grid.arity)] + ["re", "im"])
    for pos in np.ndindex(*grid.grid_sizes):
        z = grid.values[pos]
        writer.writerow(
            [*pos, format(z.real, _FLOAT), format(z.imag, _FLOAT)]
        )


def moments_to_dict(ms: MomentSequence) -> dict:
    return {"t": [pair(z) for z in ms.t]}


def moments_from_dict(obj) -> MomentSequence:
    try:
        return MomentSequence(tuple(unpair(z) for z in obj["t"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed moments object: {obj!r}") from exc


def bracket_to_dict(b: OperatorNormBracket) -> dict:
    return {
        "lower": float(b.lower),
        "upper": float(b.upper),
        "certified": bool(b.certified),
        "grid_sizes": list(b.grid_sizes),
        "witness_angles": [float(x) for x in b.witness_angles],
    }


def _detail_value(value):
    if isinstance(value, OperatorNormBracket):
        return bracket_to_dict(value)
    if isinstance(value, ScaleSignal):
        return [{"k": list(idx), "value": pair(v)} for idx, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_detail_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _detail_value(v) for k, v in value.items()}
    if isinstance(value, complex):
        return pair(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def report_to_dict(report: StabilityReport) -> dict:
    out = {"property": report.property, "verdict": report.verdict}
    if report.sufficient_upper is not None:
        out["sufficient_upper"] = float(report.sufficient_upper)
    if report.necessary_lower is not None:
        out["necessary_lower"] = float(report.necessary_lower)
    if report.sup_bracket is not None:
        out["sup_bracket"] = bracket_to_dict(report.sup_bracket)
    if report.gain is not None:
        out["gain"] = float(report.gain)
    out["witnesses"] = _detail_value(report.witnesses)
    out["details"] = _detail_value(report.details)
    return out


def empirical_to_dict(report: EmpiricalReport) -> dict:
    return {
        "property": report.property,
        "trials": report.trials,
        "seed": report.seed,
        "bound": float(report.bound),
        "max_ratio": float(report.max_ratio),
        "ok": bool(report.ok),
        "analyzer_verdict": report.analyzer_verdict,
    }
