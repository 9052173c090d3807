"""Group convolution on the scale lattice and the time-causal double
convolution.

All convolutions are non-circular (support-growing); circular wrap is never
applied.  Summation order is fixed (lexicographic) for reproducibility.
"""

from __future__ import annotations

import numpy as np

from .signals import ScaleSignal, ScaleTimeSignal

__all__ = [
    "group_convolve",
    "double_convolve",
    "brute_force_double_convolve",
    "WORK_GUARD",
]

WORK_GUARD = 10 ** 8


def group_convolve(h: ScaleSignal, u: ScaleSignal) -> ScaleSignal:
    """(h * u)(k) = sum_j h(k - j) u(j) over the exponent lattice."""
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    out: dict = {}
    _accumulate_product(out, h, u)
    return ScaleSignal(out, arity=h.arity)


def _accumulate_product(acc: dict, h: ScaleSignal, u: ScaleSignal) -> None:
    for k, hv in h.items():
        for j, uv in u.items():
            key = tuple(a + b for a, b in zip(k, j))
            acc[key] = acc.get(key, 0.0) + hv * uv


def _validate_cone(h: ScaleTimeSignal, u: ScaleTimeSignal) -> None:
    if not h.is_cone_supported():
        raise ValueError("impulse response not scale-causal")
    if not u.is_cone_supported():
        raise ValueError("input signal not scale-causal")


def double_convolve(h: ScaleTimeSignal, u: ScaleTimeSignal,
                    scale_mode: str = "full",
                    method: str = "direct") -> ScaleTimeSignal:
    """y_n = sum_{m=0}^{n} h_{n-m} * u_m with * the group convolution.

    Output time length is T_h + T_u - 1.  With scale_mode="causal_cone" both
    operands must be supported on the scale-causal cone (and then so is the
    output).  method="direct" is the reference summation; method="fft" is the
    accelerated dense path, which tests compare against the reference.
    """
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    if scale_mode not in ("full", "causal_cone"):
        raise ValueError(f"unknown scale_mode {scale_mode!r}")
    if method not in ("direct", "fft"):
        raise ValueError(f"unknown method {method!r}")
    if scale_mode == "causal_cone":
        _validate_cone(h, u)
    t_out = h.time_len + u.time_len - 1
    if h.time_len == 0 or u.time_len == 0:
        return ScaleTimeSignal([], arity=h.arity)
    if method == "fft":
        result = _double_convolve_fft(h, u, t_out)
    else:
        slices = []
        for n in range(t_out):
            acc: dict = {}
            for m in range(u.time_len):
                j = n - m
                if 0 <= j < h.time_len:
                    _accumulate_product(acc, h.slices[j], u.slices[m])
            slices.append(ScaleSignal(acc, arity=h.arity))
        result = ScaleTimeSignal(slices, arity=h.arity)
    if scale_mode == "causal_cone" and not result.is_cone_supported():
        raise AssertionError("cone-supported inputs produced off-cone output")
    return result


def _double_convolve_fft(h: ScaleTimeSignal, u: ScaleTimeSignal,
                         t_out: int) -> ScaleTimeSignal:
    if h.is_zero or u.is_zero:
        return ScaleTimeSignal(
            [ScaleSignal.zero(h.arity) for _ in range(t_out)], arity=h.arity
        )
    dense_h, origin_h = h.to_dense()
    dense_u, origin_u = u.to_dense()
    shape = tuple(a + b - 1 for a, b in zip(dense_h.shape, dense_u.shape))
    axes = tuple(range(len(shape)))
    full = np.fft.ifftn(np.fft.fftn(dense_h, s=shape, axes=axes)
                        * np.fft.fftn(dense_u, s=shape, axes=axes), axes=axes)
    origin = tuple(a + b for a, b in zip(origin_h, origin_u))
    return ScaleTimeSignal.from_dense(full, origin)


def brute_force_double_convolve(h: ScaleTimeSignal, u: ScaleTimeSignal,
                                work_guard: int = WORK_GUARD) -> ScaleTimeSignal:
    """Literal quadruple loop over time indices and lattice points.

    Test oracle; refuses instances whose estimated work exceeds work_guard.
    """
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    if h.time_len == 0 or u.time_len == 0:
        return ScaleTimeSignal([], arity=h.arity)
    t_out = h.time_len + u.time_len - 1
    candidates = sorted(
        {
            tuple(a + b for a, b in zip(kh, ku))
            for hs in h.slices
            for kh in hs.support()
            for us in u.slices
            for ku in us.support()
        }
    )
    supp_sizes = sum(len(us) for us in u.slices)
    work = t_out * len(candidates) * max(1, supp_sizes)
    if work > work_guard:
        raise ValueError(f"work guard exceeded: estimated {work} > {work_guard}")
    slices = []
    for n in range(t_out):
        entries = {}
        for gamma in candidates:
            total = 0.0
            for m in range(u.time_len):
                j = n - m
                if not 0 <= j < h.time_len:
                    continue
                hs = h.slices[j]
                for phi, uv in u.slices[m].items():
                    total += hs.get(tuple(a - b for a, b in zip(gamma, phi))) * uv
            entries[gamma] = total
        slices.append(ScaleSignal(entries, arity=h.arity))
    return ScaleTimeSignal(slices, arity=h.arity)
