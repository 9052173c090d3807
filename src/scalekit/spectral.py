"""Fourier analysis on the scale lattice, transfer functions, and the
Hermite transform, which evaluates a scale signal as a Laurent polynomial.

The forward transform pairs an exponent k with e^{-i k.theta} on a uniform
torus grid; the Hermite transform relabels the same coefficients as powers
z^k with no conjugation.  Evaluating the Hermite transform at e^{i theta}
therefore reproduces the forward transform at -theta.

Every torus evaluation goes through torus_values.  On the grid
theta_j = 2 pi j / n the character e^{-i k theta_j} depends on k only
modulo n, so coefficients are folded onto their residues (sums of
coefficients with congruent exponents) and one FFT gives the grid values
exactly, whatever the support width.  The converse needs the width guard:
the inverse FFT returns the folded sums, which equal the coefficients only
when no two exponents of the support are congruent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import ScaleGroup
from .signals import ScaleSignal, ScaleTimeSignal, as_index, check_box, zeros_box

__all__ = [
    "SpectrumGrid",
    "torus_values",
    "scale_fourier",
    "scale_fourier_inverse",
    "transfer_grid",
    "hermite_transform",
    "generalized_transfer",
    "haar_moment",
]


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex values sampled on the product grid theta_j = 2 pi j / size."""

    grid_sizes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.grid_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"grid sizes must be positive, got {sizes!r}")
        vals = np.asarray(self.values, complex)
        if vals.shape != sizes:
            vals = vals.reshape(sizes)
        object.__setattr__(self, "grid_sizes", sizes)
        object.__setattr__(self, "values", vals)

    @property
    def arity(self) -> int:
        return len(self.grid_sizes)

    def angles(self, axis: int) -> np.ndarray:
        n = self.grid_sizes[axis]
        return 2.0 * math.pi * np.arange(n) / n

    def mean_square(self) -> float:
        return float(np.mean(np.abs(self.values) ** 2))


def _check_alias(x, grid_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in grid_sizes)
    if len(sizes) != x.arity:
        raise ValueError(
            f"grid rank {len(sizes)} does not match signal arity {x.arity}"
        )
    if any(s < 1 for s in sizes):
        raise ValueError(f"grid sizes must be positive, got {sizes!r}")
    for a, (size, width) in enumerate(zip(sizes, x.array.shape)):
        if size < width:
            raise ValueError(
                f"aliasing on axis {a}: grid size {size} < support width {width}"
            )
    return sizes


def torus_values(array: np.ndarray, origin, sizes) -> np.ndarray:
    """sum_e c_e e^{-i e.theta} on the grid theta_j = 2 pi j / sizes.

    The coefficients c_e form a dense box: array, whose first cell has
    exponent origin.  Exponents may be negative and the box may be wider
    than the grid (congruent exponents fold onto one residue, which keeps
    the values exact).  Callers wanting the e^{+i e.theta} convention pass
    the flipped box with negated origin.  The FFT runs in place on the fold
    grid, so only one full-size array is allocated, and no grid may exceed
    MAX_BOX_CELLS points.
    """
    grid = zeros_box(sizes)
    residues = np.ix_(*[(o + np.arange(w)) % n
                        for o, w, n in zip(origin, array.shape, grid.shape)])
    np.add.at(grid, residues, array)
    return np.fft.fftn(grid, out=grid)


def scale_fourier(x: ScaleSignal, grid_sizes) -> SpectrumGrid:
    """Forward transform sum_k x(k) e^{-i k.theta} on the torus grid.

    Grid sizes must cover the support width on every axis (anti-aliasing
    guard); then the grid mean of |values|^2 equals the signal energy.
    """
    sizes = _check_alias(x, grid_sizes)
    return SpectrumGrid(sizes, torus_values(x.array, x.origin, sizes))


def scale_fourier_inverse(grid: SpectrumGrid, window) -> ScaleSignal:
    """Trigonometric quadrature with the normalized grid measure.

    window is a per-axis (kmin, kmax) range (inclusive) of exponents to
    reconstruct; exponents congruent modulo the grid size share values, so
    the window selects the intended representatives.
    """
    window = [(int(lo), int(hi)) for lo, hi in window]
    if len(window) != grid.arity:
        raise ValueError("window rank does not match grid rank")
    for a, (lo, hi) in enumerate(window):
        if lo > hi:
            raise ValueError(f"empty window on axis {a}")
    check_box(hi - lo + 1 for lo, hi in window)
    residues = np.fft.ifftn(grid.values)
    box = residues[np.ix_(*[np.arange(lo, hi + 1) % n
                            for (lo, hi), n in zip(window, grid.grid_sizes)])]
    return ScaleSignal._from_box(box, tuple(lo for lo, _ in window))


def _powers(w, lo: int, count: int) -> np.ndarray:
    return np.asarray(w, complex)[..., None] ** np.arange(lo, lo + count)


def _evaluate(array: np.ndarray, origin, points) -> np.ndarray:
    """sum_e c_e prod_a z_a^e_a over the box (array, origin) at each row z
    of points (shape (count, p)): each leading axis is contracted with the
    powers of its variable in turn, for all points at once."""
    points = np.asarray(points, complex)
    out = np.broadcast_to(array, (len(points),) + array.shape)
    for w, lo in zip(points.T, origin):
        out = np.einsum("ij,ij...->i...", _powers(w, lo, out.shape[1]), out)
    return out


def transfer_grid(h: ScaleTimeSignal, z: complex, grid_sizes) -> SpectrumGrid:
    """H(z, theta) = sum_n z^n hhat_n(theta) sampled on the torus grid."""
    for s in h.slices or (ScaleSignal.zero(h.arity),):
        sizes = _check_alias(s, grid_sizes)
    stack = h.stack
    folded = np.tensordot(_powers(z, stack.origin[0], len(stack.array)), stack.array,
                          axes=(0, 0))
    return SpectrumGrid(sizes, torus_values(folded, stack.origin[1:], sizes))


def hermite_transform(x: ScaleSignal, points) -> np.ndarray:
    """The Hermite transform sum_k x(k) z^k (delta_k -> z^k, no
    conjugation) evaluated at each row z of points, shape (count, p)."""
    points = np.asarray(points, complex)
    if points.ndim != 2 or points.shape[1] != x.arity:
        raise ValueError(f"points must have shape (count, {x.arity})")
    for a, lo in enumerate(x.origin):
        if lo < 0 and not points[:, a].all():
            raise ZeroDivisionError(f"variable {a} is zero but negative powers are present")
    return _evaluate(x.array, x.origin, points)


def generalized_transfer(h: ScaleTimeSignal, z: complex, zs) -> complex:
    """sum_n z^n sum_k h_n(k) zs^k, the transfer function in p+1 variables.

    When h carries negative scale exponents the scale variables must lie on
    the unit circle; cone-supported h evaluates anywhere in the closed
    polydisc (and beyond, since the sum is finite).
    """
    z = complex(z)
    zs = [complex(w) for w in zs]
    if len(zs) != h.arity:
        raise ValueError(f"expected {h.arity} scale coordinates")
    stack = h.stack
    for a in range(h.arity):
        if stack.origin[1 + a] < 0 and abs(abs(zs[a]) - 1.0) > 1e-9:
            raise ValueError("Laurent evaluation requires torus points")
    return complex(_evaluate(stack.array, stack.origin, [[z] + zs])[0])


def haar_moment(group: ScaleGroup, idx) -> complex:
    """Moment of a character power under the normalized dual-group measure.

    Character orthogonality makes every moment vanish except at the zero
    exponent, where the total mass is one.
    """
    idx = as_index(idx, group.p)
    return 1.0 + 0.0j if all(k == 0 for k in idx) else 0.0 + 0.0j
