"""Group convolution on the scale lattice and the time-causal double
convolution.

All convolutions are non-circular (support-growing); circular wrap is never
applied.  The direct paths are one ordered add of every product of the two
operands' nonzeros, one operand's nonzeros taken in a fixed order, so each
output entry sums its products in the order of the lexicographic reference
loop.
"""

from __future__ import annotations

import cmath

import numpy as np

from .signals import ScaleSignal, ScaleTimeSignal, check_box, first_nonfinite, zeros_box

__all__ = [
    "group_convolve",
    "double_convolve",
    "brute_force_double_convolve",
    "WORK_GUARD",
]

WORK_GUARD = 10 ** 8


# products per np.add.at call in box_convolve, 24 bytes each in its index
# and product arrays: at 2^16 (1.5 MB) these came from fresh pages on
# every call
_BLOCK_PRODUCTS = 1 << 14


def box_convolve(h: np.ndarray, u: np.ndarray, positions=None) -> np.ndarray:
    """Full linear convolution of two boxes by one ordered add.

    Each product h(k) u(j), over the nonzeros k of h (lexicographic unless
    positions gives another order) and j of u, is added at output cell
    k + j by np.add.at, for blocks of h's nonzeros in turn.  ufunc.at
    applies its terms in index order, so each output cell sums its
    products in the given h order; the cost is nnz(h) nnz(u).  The
    skipped terms h(k) * 0 are signed zeros, which leave unchanged a
    running sum that starts at +0 (such a sum is never -0).  An empty
    operand gives an empty box.
    """
    out = zeros_box(a + b - 1 if h.size and u.size else 0 for a, b in zip(h.shape, u.shape))
    positions = np.argwhere(h) if positions is None else positions
    cells = np.nonzero(u)
    if out.size == 0 or len(cells[0]) == 0:
        return out
    offsets, u_nz = np.ravel_multi_index(cells, out.shape), u[cells]
    starts, h_nz = np.ravel_multi_index(tuple(positions.T), out.shape), h[tuple(positions.T)]
    flat, step = out.reshape(-1), max(1, _BLOCK_PRODUCTS // len(u_nz))
    for i in range(0, len(starts), step):
        block = slice(i, i + step)
        # (b, 1) by (1, m): numpy broadcasts (1, 1) by (1,) into its generic
        # loop, whose complex product can round unlike the vector loop that
        # h(k) * u takes (the latter may fuse a multiply-add)
        np.add.at(flat, (starts[block, None] + offsets).ravel(),
                  (h_nz[block, None] * u_nz[None]).ravel())
    return out


def group_convolve(h: ScaleSignal, u: ScaleSignal) -> ScaleSignal:
    """(h * u)(k) = sum_j h(k - j) u(j) over the exponent lattice."""
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    origin = tuple(a + b for a, b in zip(h.origin, u.origin))
    return ScaleSignal._from_box(box_convolve(h.array, u.array), origin)


def double_convolve(h: ScaleTimeSignal, u: ScaleTimeSignal,
                    method: str = "direct") -> ScaleTimeSignal:
    """y_n = sum_{m=0}^{n} h_{n-m} * u_m with * the group convolution.

    Output time length is T_h + T_u - 1, or 0 when an operand is empty.
    When both operands are supported on the scale-causal cone, so is the
    output.  method="direct" is the reference summation; method="fft" is
    the accelerated dense path.  The direct path runs box_convolve on the
    (n, k) stacks with h's time index descending: one ordered add of the
    nnz(h) nnz(u) products.
    Both methods store entries only on the exact product support.  The FFT
    path agrees with the direct one to about 1e-10 (acceptance criterion
    5), but its error is spread over the whole box: it does not meet the
    componentwise bound 4 (cnt + 2) eps sum |h| |u| that the direct path
    meets, and it can leave residues of about 1e-16 where products cancel
    exactly.  So the CLI runs the direct path, and no size-based switch
    picks the FFT.  An output entry that is not a finite double raises
    ValueError naming it as (n, k).
    """
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    if method not in ("direct", "fft"):
        raise ValueError(f"unknown method {method!r}")
    if h.time_len == 0 or u.time_len == 0:
        return ScaleTimeSignal([], arity=h.arity)
    # the stacks on (n, k): the double convolution is their convolution
    hs, us = h.stack, u.stack
    # products beyond the double range are reported below, entry by entry
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "fft" and not (hs.is_zero or us.is_zero):
            full = _convolve_fft(hs.array, us.array)
        else:
            # h's time index descending, then its scale index ascending: each
            # output entry sums over input time m ascending, as y_n's formula reads
            pos = np.argwhere(hs.array)
            full = box_convolve(hs.array, us.array, pos[np.argsort(-pos[:, 0], kind="stable")])
    # the origins add, so cone-supported operands give a cone-supported output
    origin = tuple(a + b for a, b in zip(hs.origin, us.origin))
    bad = first_nonfinite(full, origin)
    if bad is not None:
        raise ValueError(f"output entry (n, k) = {(bad[0], bad[1:])} is not a finite double")
    stack = ScaleSignal._from_box(full, origin)
    return ScaleTimeSignal._from_stack(stack, h.time_len + u.time_len - 1)


def _convolve_fft(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dense FFT convolution, zeroed off the exact product support.

    The support is where the convolution of the two nonzero indicators
    (a count of products, at least 1) exceeds one half; elsewhere the FFT
    leaves only roundoff.
    """
    shape = check_box(a + b - 1 for a, b in zip(h.shape, u.shape))
    axes = tuple(range(len(shape)))
    full = np.fft.ifftn(np.fft.fftn(h, s=shape, axes=axes)
                        * np.fft.fftn(u, s=shape, axes=axes), axes=axes)
    count = np.fft.irfftn(np.fft.rfftn(h != 0, s=shape, axes=axes)
                          * np.fft.rfftn(u != 0, s=shape, axes=axes), s=shape, axes=axes)
    full[count < 0.5] = 0.0
    return full


def brute_force_double_convolve(h: ScaleTimeSignal, u: ScaleTimeSignal) -> ScaleTimeSignal:
    """Literal quadruple loop over time indices and lattice points.

    Test oracle; refuses instances whose estimated work exceeds WORK_GUARD,
    and names an output entry that is not a finite double as double_convolve
    does.
    """
    if h.arity != u.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {u.arity}")
    if h.time_len == 0 or u.time_len == 0:
        return ScaleTimeSignal([], arity=h.arity)
    t_out = h.time_len + u.time_len - 1
    # each slice's entries, read once: a lookup table per h slice and an
    # ordered list per u slice
    h_maps = [dict(hs.items()) for hs in h.slices]
    u_lists = [list(us.items()) for us in u.slices]
    candidates = sorted(
        {
            tuple(a + b for a, b in zip(kh, ku))
            for hm in h_maps
            for kh in hm
            for ul in u_lists
            for ku, _ in ul
        }
    )
    supp_sizes = sum(map(len, u_lists))
    work = t_out * len(candidates) * max(1, supp_sizes)
    if work > WORK_GUARD:
        raise ValueError(f"work guard exceeded: estimated {work} > {WORK_GUARD}")
    slices = []
    for n in range(t_out):
        entries = {}
        for gamma in candidates:
            total = 0.0
            for m in range(u.time_len):
                j = n - m
                if not 0 <= j < h.time_len:
                    continue
                hm = h_maps[j]
                for phi, uv in u_lists[m]:
                    total += hm.get(tuple(a - b for a, b in zip(gamma, phi)), 0.0) * uv
            if not cmath.isfinite(total):
                raise ValueError(f"output entry (n, k) = {(n, gamma)} is not a finite double")
            entries[gamma] = total
        slices.append(ScaleSignal(entries, arity=h.arity))
    return ScaleTimeSignal(slices, arity=h.arity)
