"""Scale signals on the exponent lattice, stored as dense boxes, and time
signals, each held as one scale signal on (n, k_1, ..., k_p).

A scale signal is a finitely supported map from p-tuples of integer
exponents to complex values, held as one read-only complex array trimmed to
the bounding box of its nonzeros plus the exponent of the box's first cell.
Exact zeros are never entries.  The public constructor validates each
entry, then sums them in ScaleSignal._from_entries, which the CSV reader
calls on its parsed arrays; internal code hands over boxes it owns to
ScaleSignal._from_box.  No box may exceed MAX_BOX_CELLS cells.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "NORM_KINDS",
    "MAX_BOX_CELLS",
    "as_index",
    "in_causal_cone",
    "ScaleSignal",
    "ScaleTimeSignal",
    "support_bound",
]

NORM_KINDS = ("sup_l2", "energy", "l1_l2")

# Largest box (time steps included) a signal or convolution may allocate:
# 2^24 complex cells are 256 MB.
MAX_BOX_CELLS = 1 << 24


def as_index(idx, arity: int) -> tuple:
    """Coerce idx to a tuple of `arity` Python ints; rejects non-integers."""
    if isinstance(idx, (int, np.integer)):
        idx = (idx,)
    try:
        out = tuple(map(operator.index, idx))
    except TypeError as exc:
        raise TypeError(f"group index entries must be integers: {idx!r}") from exc
    if len(out) != arity:
        raise ValueError(f"group index {out!r} has length {len(out)}, expected {arity}")
    return out


def in_causal_cone(idx: tuple) -> bool:
    """Scale-causal cone membership: every exponent nonnegative."""
    return all(k >= 0 for k in idx)


def check_box(shape) -> tuple:
    """The box shape as a tuple; ValueError beyond MAX_BOX_CELLS cells."""
    shape = tuple(int(n) for n in shape)
    if math.prod(shape) > MAX_BOX_CELLS:
        raise ValueError(f"signal box {shape} exceeds MAX_BOX_CELLS = {MAX_BOX_CELLS}")
    return shape


def zeros_box(shape) -> np.ndarray:
    """Complex zeros of a checked box shape."""
    return np.zeros(check_box(shape), complex)


def trim_box(array: np.ndarray, origin) -> tuple[np.ndarray, tuple]:
    """View of array on the bounding box of its nonzeros, and its origin;
    an array without nonzeros gives an empty box at the zero origin."""
    hits = np.nonzero(array)
    if hits[0].size == 0:
        return array[(slice(0, 0),) * array.ndim], (0,) * array.ndim
    cut = tuple(slice(int(h.min()), int(h.max()) + 1) for h in hits)
    return array[cut], tuple(int(o) + c.start for o, c in zip(origin, cut))


def cone_box(array: np.ndarray, origin) -> tuple[np.ndarray, tuple]:
    """View of a box on the scale-causal cone (all exponents >= 0)."""
    cut = tuple(slice(max(0, -o), None) for o in origin)
    return array[cut], tuple(max(0, o) for o in origin)


def overlap(origin_a, shape_a, origin_b, shape_b):
    """Slices of box a and of box b that cover their intersection, or None."""
    cut_a, cut_b = [], []
    for oa, na, ob, nb in zip(origin_a, shape_a, origin_b, shape_b):
        lo, hi = max(oa, ob), min(oa + na, ob + nb)
        if lo >= hi:
            return None
        cut_a.append(slice(lo - oa, hi - oa))
        cut_b.append(slice(lo - ob, hi - ob))
    return tuple(cut_a), tuple(cut_b)


class ScaleSignal:
    """Finitely supported complex function on the exponent lattice Z^p.

    `array` is read-only and trimmed to the bounding box of the nonzeros;
    `origin` is the exponent of its first cell.
    """

    __slots__ = ("arity", "array", "origin")

    def __init__(self, entries=(), arity: int | None = None):
        if arity is None:
            raise ValueError("arity is required")
        arity = int(arity)
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        keys, values = [], []
        for idx, value in items:
            keys.append(as_index(idx, arity))
            values.append(complex(value))
        core = ScaleSignal._from_entries(np.array(keys, np.int64).reshape(-1, arity),
                                         np.array(values, complex))
        self._set(core.array, core.origin)

    def _set(self, array: np.ndarray, origin) -> None:
        array, origin = trim_box(array, origin)
        array.setflags(write=False)
        object.__setattr__(self, "arity", array.ndim)
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "origin", origin)

    @classmethod
    def _from_box(cls, array: np.ndarray, origin) -> "ScaleSignal":
        """Trusted constructor: takes ownership of a finite complex array."""
        out = cls.__new__(cls)
        out._set(array, origin)
        return out

    @classmethod
    def _from_entries(cls, keys: np.ndarray, values: np.ndarray) -> "ScaleSignal":
        """Signal from int64 keys, one row per entry, and complex values.

        Non-finite values are refused and zeros dropped.  The rest are added
        unbuffered, in row order, onto -0.0, the exact additive identity:
        duplicates sum as they are listed and signed zeros survive.
        """
        if not np.isfinite(values).all():
            raise ValueError("signal entries must be finite")
        keep = values != 0
        keys, values = keys[keep], values[keep]
        if not len(values):
            return cls._from_box(np.zeros((0,) * keys.shape[1], complex), (0,) * keys.shape[1])
        lo, hi = keys.min(axis=0).tolist(), keys.max(axis=0).tolist()
        box = np.full(check_box(b - a + 1 for a, b in zip(lo, hi)), complex(-0.0, -0.0))
        np.add.at(box, tuple((keys - lo).T), values)
        box[box == 0] = 0
        return cls._from_box(box, lo)

    def __setattr__(self, name, value):
        raise AttributeError("ScaleSignal is immutable")

    @classmethod
    def zero(cls, arity: int) -> "ScaleSignal":
        return cls((), arity=arity)

    @classmethod
    def delta(cls, idx, arity: int, value=1.0) -> "ScaleSignal":
        return cls({as_index(idx, arity): value}, arity=arity)

    def get(self, idx) -> complex:
        idx = as_index(idx, self.arity)
        pos = tuple(k - o for k, o in zip(idx, self.origin))
        if all(0 <= x < n for x, n in zip(pos, self.array.shape)):
            return complex(self.array[pos])
        return 0.0

    def items(self) -> Iterator[tuple[tuple, complex]]:
        """Entries (the nonzeros) in lexicographic index order."""
        pos = np.argwhere(self.array).tolist()
        values = self.array[self.array != 0].tolist()
        for row, value in zip(pos, values):
            yield tuple(map(operator.add, self.origin, row)), value

    def support(self) -> tuple[tuple, ...]:
        return tuple(idx for idx, _ in self.items())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    @property
    def is_zero(self) -> bool:
        return self.array.size == 0

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.array))

    def scaled(self, factor) -> "ScaleSignal":
        return ScaleSignal._from_box(complex(factor) * self.array, self.origin)

    def adjoint_reflect(self) -> "ScaleSignal":
        """Kernel of the adjoint convolution operator: k -> conj(value at -k)."""
        flipped = np.conj(self.array[(slice(None, None, -1),) * self.arity])
        origin = tuple(-(o + n - 1) for o, n in zip(self.origin, self.array.shape))
        return ScaleSignal._from_box(flipped, origin)

    def is_cone_supported(self) -> bool:
        return all(o >= 0 for o in self.origin)

    def project_cone(self) -> "ScaleSignal":
        """Drop every entry outside the scale-causal cone."""
        return ScaleSignal._from_box(*cone_box(self.array, self.origin))

    def support_box(self) -> tuple[tuple, tuple] | None:
        """Per-axis (min, max) exponents, or None for the zero signal."""
        if self.is_zero:
            return None
        return self.origin, tuple(o + n - 1 for o, n in zip(self.origin, self.array.shape))

    def distance(self, other: "ScaleSignal") -> float:
        """Largest entrywise modulus of self - other."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        mine, theirs = np.abs(self.array), np.abs(other.array)
        cuts = overlap(self.origin, self.array.shape, other.origin, other.array.shape)
        if cuts is not None:
            mine[cuts[0]] = np.abs(self.array[cuts[0]] - other.array[cuts[1]])
            theirs[cuts[1]] = 0.0
        return float(max(mine.max(initial=0.0), theirs.max(initial=0.0)))

    def inner(self, other: "ScaleSignal") -> complex:
        """<self, other> = sum self(k) * conj(other(k))."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        cuts = overlap(self.origin, self.array.shape, other.origin, other.array.shape)
        if cuts is None:
            return 0j
        return complex(np.vdot(other.array[cuts[1]], self.array[cuts[0]]))

    def __repr__(self) -> str:
        return f"ScaleSignal({dict(self.items())!r}, arity={self.arity})"


def support_bound(u: ScaleSignal) -> int | None:
    """Largest exponent of a one-generator signal supported on k >= 0.

    Returns None for the zero signal.  Raises for arity >= 2 or for support
    with negative exponents, where the ordered-cone reading is undefined.
    """
    if u.arity != 1:
        raise ValueError("support bound defined on ordered cyclic cone")
    if u.is_zero:
        return None
    (lo,), (hi,) = u.support_box()
    if lo < 0:
        raise ValueError("support bound defined on ordered cyclic cone")
    return hi


class ScaleTimeSignal:
    """Scale signals at times n = 0 .. T-1, held as one scale signal `stack`
    on (n, k_1..k_p) plus `time_len` T (trailing zero steps count).  Slices
    are views trimmed to their own boxes.  T times the slices' union box may
    not exceed MAX_BOX_CELLS, so drifting supports cost T x the union width."""

    __slots__ = ("arity", "stack", "time_len")

    def __init__(self, slices: Iterable[ScaleSignal] = (), arity: int | None = None):
        slices = tuple(slices)
        if arity is None:
            if not slices:
                raise ValueError("arity is required for an empty signal")
            arity = slices[0].arity
        arity = int(arity)
        for s in slices:
            if not isinstance(s, ScaleSignal):
                raise TypeError(f"slices must be ScaleSignal, got {type(s)!r}")
            if s.arity != arity:
                raise ValueError("all slices must share the group arity")
        entries = (((n,) + idx, v) for n, s in enumerate(slices) for idx, v in s.items())
        self._set(ScaleSignal(entries, arity=arity + 1), len(slices))

    def _set(self, stack: ScaleSignal, time_len: int) -> None:
        check_box((time_len,) + tuple(max(w, 1) for w in stack.array.shape[1:]))
        object.__setattr__(self, "arity", stack.arity - 1)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "time_len", int(time_len))

    def __setattr__(self, name, value):
        raise AttributeError("ScaleTimeSignal is immutable")

    @classmethod
    def _from_stack(cls, stack: ScaleSignal, time_len: int) -> "ScaleTimeSignal":
        """Trusted constructor from a stack that lies in times 0 .. time_len-1."""
        out = cls.__new__(cls)
        out._set(stack, time_len)
        return out

    @classmethod
    def _from_box(cls, array: np.ndarray, origin) -> "ScaleTimeSignal":
        """Trusted constructor from a finite (T, w_1, ..., w_p) array that
        the caller hands over; origin is the exponent of its first scale cell."""
        return cls._from_stack(ScaleSignal._from_box(array, (0,) + tuple(origin)), len(array))

    @property
    def slices(self) -> tuple[ScaleSignal, ...]:
        return tuple(map(self.slice, range(self.time_len)))

    def slice(self, n: int) -> ScaleSignal:
        """Time slice n; zero outside the stored range."""
        row = n - self.stack.origin[0]
        if 0 <= row < len(self.stack.array):
            return ScaleSignal._from_box(self.stack.array[row], self.stack.origin[1:])
        return ScaleSignal.zero(self.arity)

    def items(self) -> Iterator[tuple[int, tuple, complex]]:
        return ((idx[0], idx[1:], v) for idx, v in self.stack.items())

    @property
    def is_zero(self) -> bool:
        return self.stack.is_zero

    def norm(self, kind: str) -> float:
        """One of "sup_l2" (max over time of slice l2), "energy" (sum of
        squared slice l2), "l1_l2" (sum of slice l2)."""
        if kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
        slice_norms = [s.l2_norm() for s in self.slices]
        if kind == "sup_l2":
            return max(slice_norms, default=0.0)
        if kind == "energy":
            return float(sum(x * x for x in slice_norms))
        return float(sum(slice_norms))

    def scale_causal_projection(self) -> "ScaleTimeSignal":
        return ScaleTimeSignal._from_stack(self.stack.project_cone(), self.time_len)

    def is_cone_supported(self) -> bool:
        return self.stack.is_cone_supported()

    def support_box(self) -> tuple[tuple, tuple] | None:
        """Per-axis (min, max) scale exponents over all slices, or None."""
        box = self.stack.support_box()
        return None if box is None else (box[0][1:], box[1][1:])

    def distance(self, other: "ScaleTimeSignal") -> float:
        return self.stack.distance(other.stack)

    def to_dense(self) -> tuple[np.ndarray, tuple]:
        """Dense tensor of shape (T, w_1, ..., w_p) plus the scale origin,
        the layout of the JSON format; a zero signal is (T, 1, ..., 1)."""
        stack = self.stack
        if stack.is_zero:
            return zeros_box((self.time_len,) + (1,) * self.arity), (0,) * self.arity
        arr = zeros_box((self.time_len,) + stack.array.shape[1:])
        arr[stack.origin[0]:stack.origin[0] + len(stack.array)] = stack.array
        arr[arr == 0] = 0  # cells that hold no entry read +0, whatever their sign
        return arr, stack.origin[1:]

    @classmethod
    def from_dense(cls, arr: np.ndarray, origin: tuple) -> "ScaleTimeSignal":
        arr = np.array(arr, dtype=complex)
        arity = arr.ndim - 1
        origin = tuple(int(o) for o in origin)
        if arity < 1 or len(origin) != arity:
            raise ValueError("dense signals have shape (T, w_1..w_p), p = len(origin) >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("signal entries must be finite")
        return cls._from_box(arr, origin)

    def __repr__(self) -> str:
        return f"ScaleTimeSignal(T={self.time_len}, arity={self.arity})"
