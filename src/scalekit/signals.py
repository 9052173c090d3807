"""Sparse signals on the scale lattice and time-indexed stacks of them.

A scale signal is a finitely supported map from p-tuples of integer
exponents to complex values.  A scale-time signal is a finite sequence of
scale signals, one per time step.  Entries that are exactly zero are never
stored.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "NORM_KINDS",
    "as_index",
    "in_causal_cone",
    "ScaleSignal",
    "ScaleTimeSignal",
    "support_bound",
]

NORM_KINDS = ("sup_l2", "energy", "l1_l2")


def as_index(idx, arity: int) -> tuple:
    """Coerce idx to a tuple of `arity` Python ints; rejects non-integers."""
    if isinstance(idx, (int, np.integer)):
        idx = (idx,)
    try:
        out = tuple(operator.index(k) for k in idx)
    except TypeError as exc:
        raise TypeError(f"group index entries must be integers: {idx!r}") from exc
    if len(out) != arity:
        raise ValueError(f"group index {out!r} has length {len(out)}, expected {arity}")
    return out


def in_causal_cone(idx: tuple) -> bool:
    """Scale-causal cone membership: every exponent nonnegative."""
    return all(k >= 0 for k in idx)


def _clean_value(value) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"signal entries must be finite, got {value!r}")
    return value


class ScaleSignal:
    """Finitely supported complex function on the exponent lattice Z^p."""

    __slots__ = ("arity", "_entries")

    def __init__(self, entries=(), arity: int | None = None):
        if arity is None:
            raise ValueError("arity is required")
        arity = int(arity)
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict = {}
        for idx, value in items:
            idx = as_index(idx, arity)
            value = _clean_value(value)
            if value != 0:
                store[idx] = store.get(idx, 0.0) + value
                if store[idx] == 0:
                    del store[idx]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("ScaleSignal is immutable")

    @classmethod
    def zero(cls, arity: int) -> "ScaleSignal":
        return cls((), arity=arity)

    @classmethod
    def delta(cls, idx, arity: int, value=1.0) -> "ScaleSignal":
        return cls({as_index(idx, arity): value}, arity=arity)

    def get(self, idx) -> complex:
        return self._entries.get(as_index(idx, self.arity), 0.0)

    def items(self) -> Iterator[tuple[tuple, complex]]:
        """Entries in lexicographic index order."""
        for idx in sorted(self._entries):
            yield idx, self._entries[idx]

    def support(self) -> tuple[tuple, ...]:
        return tuple(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._entries.values()))

    def scaled(self, factor) -> "ScaleSignal":
        factor = complex(factor)
        return ScaleSignal(
            {idx: factor * v for idx, v in self._entries.items()}, arity=self.arity
        )

    def adjoint_reflect(self) -> "ScaleSignal":
        """Kernel of the adjoint convolution operator: k -> conj(value at -k)."""
        return ScaleSignal(
            {tuple(-k for k in idx): v.conjugate() for idx, v in self._entries.items()},
            arity=self.arity,
        )

    def is_cone_supported(self) -> bool:
        return all(in_causal_cone(idx) for idx in self._entries)

    def project_cone(self) -> "ScaleSignal":
        """Drop every entry outside the scale-causal cone."""
        return ScaleSignal(
            {idx: v for idx, v in self._entries.items() if in_causal_cone(idx)},
            arity=self.arity,
        )

    def support_box(self) -> tuple[tuple, tuple] | None:
        """Per-axis (min, max) exponents, or None for the zero signal."""
        if not self._entries:
            return None
        keys = list(self._entries)
        mins = tuple(min(k[a] for k in keys) for a in range(self.arity))
        maxs = tuple(max(k[a] for k in keys) for a in range(self.arity))
        return mins, maxs

    def distance(self, other: "ScaleSignal") -> float:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        keys = set(self._entries) | set(other._entries)
        return max(
            (abs(self._entries.get(k, 0.0) - other._entries.get(k, 0.0)) for k in keys),
            default=0.0,
        )

    def inner(self, other: "ScaleSignal") -> complex:
        """<self, other> = sum self(k) * conj(other(k))."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        small, large = self._entries, other._entries
        if len(large) < len(small):
            return other.inner(self).conjugate()
        return sum(v * large[k].conjugate() for k, v in small.items() if k in large)

    def __repr__(self) -> str:
        return f"ScaleSignal({dict(sorted(self._entries.items()))!r}, arity={self.arity})"


def support_bound(u: ScaleSignal) -> int | None:
    """Largest exponent of a one-generator signal supported on k >= 0.

    Returns None for the zero signal.  Raises for arity >= 2 or for support
    with negative exponents, where the ordered-cone reading is undefined.
    """
    if u.arity != 1:
        raise ValueError("support bound defined on ordered cyclic cone")
    if u.is_zero:
        return None
    keys = [idx[0] for idx in u.support()]
    if keys[0] < 0:
        raise ValueError("support bound defined on ordered cyclic cone")
    return keys[-1]


class ScaleTimeSignal:
    """Finite sequence of scale signals indexed by time n = 0 .. T-1."""

    __slots__ = ("arity", "slices")

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
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "slices", slices)

    def __setattr__(self, name, value):
        raise AttributeError("ScaleTimeSignal is immutable")

    @property
    def time_len(self) -> int:
        return len(self.slices)

    def slice(self, n: int) -> ScaleSignal:
        """Time slice n; zero outside the stored range."""
        if 0 <= n < len(self.slices):
            return self.slices[n]
        return ScaleSignal.zero(self.arity)

    def items(self) -> Iterator[tuple[int, tuple, complex]]:
        for n, s in enumerate(self.slices):
            for idx, v in s.items():
                yield n, idx, v

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.slices)

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
        return ScaleTimeSignal([s.project_cone() for s in self.slices], arity=self.arity)

    def is_cone_supported(self) -> bool:
        return all(s.is_cone_supported() for s in self.slices)

    def support_box(self) -> tuple[tuple, tuple] | None:
        boxes = [s.support_box() for s in self.slices]
        boxes = [bx for bx in boxes if bx is not None]
        if not boxes:
            return None
        mins = tuple(min(bx[0][a] for bx in boxes) for a in range(self.arity))
        maxs = tuple(max(bx[1][a] for bx in boxes) for a in range(self.arity))
        return mins, maxs

    def distance(self, other: "ScaleTimeSignal") -> float:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        t = max(self.time_len, other.time_len)
        return max((self.slice(n).distance(other.slice(n)) for n in range(t)), default=0.0)

    def to_dense(self) -> tuple[np.ndarray, tuple]:
        """Dense tensor of shape (T, w_1, ..., w_p) plus the scale origin."""
        box = self.support_box()
        if box is None:
            return np.zeros((self.time_len,) + (1,) * self.arity, complex), (0,) * self.arity
        mins, maxs = box
        widths = tuple(maxs[a] - mins[a] + 1 for a in range(self.arity))
        arr = np.zeros((self.time_len,) + widths, complex)
        for n, idx, v in self.items():
            arr[(n,) + tuple(idx[a] - mins[a] for a in range(self.arity))] = v
        return arr, mins

    @classmethod
    def from_dense(cls, arr: np.ndarray, origin: tuple) -> "ScaleTimeSignal":
        arr = np.asarray(arr, complex)
        arity = arr.ndim - 1
        origin = tuple(int(o) for o in origin)
        if len(origin) != arity:
            raise ValueError("origin length must match the number of scale axes")
        slices = []
        for n in range(arr.shape[0]):
            entries = {}
            for pos in np.argwhere(arr[n] != 0):
                idx = tuple(int(pos[a]) + origin[a] for a in range(arity))
                entries[idx] = complex(arr[(n,) + tuple(int(x) for x in pos)])
            slices.append(ScaleSignal(entries, arity=arity))
        return cls(slices, arity=arity)

    def __repr__(self) -> str:
        return f"ScaleTimeSignal(T={self.time_len}, arity={self.arity})"
