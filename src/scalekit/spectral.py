"""Fourier analysis on the scale lattice, transfer functions, and the
Hermite transform, which evaluates a scale signal as a Laurent polynomial:
it relabels the forward transform's pairing of an exponent k with
e^{-i k.theta} on a torus grid as powers z^k with no conjugation, so at
e^{i theta} it reproduces the forward transform at -theta.

Every torus evaluation goes through torus_values.  On the grid
theta_j = 2 pi j / n the character e^{-i k theta_j} depends on k only
modulo n, so coefficients are folded onto their residues (sums of
coefficients with congruent exponents) and one FFT gives the grid values
exactly, whatever the support width.  The converse needs the width guard:
the inverse FFT returns the folded sums, which equal the coefficients only
when no two exponents of the support are congruent.

Every evaluation off the grid but one is Horner's rule along the leading
axis of a box (_horner): nested over the box axes in _evaluate
(hermite_transform, generalized_transfer, the Gram sample of
stability.dissipativity_check), over time in transfer_grid, and in one
variable in hardy and moments.herglotz_eval.  A value is within
_gamma(4 sum_a (w_a + 2 |lo_a|)) sum_e |c_e z^e| of the exact sum, w_a the
widths, lo the origin (_evaluate).  The exception is stability._direct,
which evaluates the cell centres and the witness of a torus bracket as a sum
of K exponentials: K per point is the unit stability.WORK_BUDGET counts,
where Horner's rule would cost the whole box of the lattice exponents (K = 3
for the exponents {0, 3, 1000}, against a box 1001 wide).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .signals import ScaleSignal, ScaleTimeSignal, as_index, check_box, first_nonfinite, zeros_box

__all__ = [
    "SpectrumGrid",
    "torus_values",
    "grid_shrink",
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
        vals = np.asarray(self.values, complex).reshape(sizes)
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


def grid_shrink(widths, sizes) -> float:
    """sqrt(prod_a cos(pi n_a / M_a)), n_a = w_a - 1: the grid inequality.

    h with a coefficient box of widths w_a makes |h|^2 a real trigonometric
    polynomial of degree n_a in theta_a.  On any grid of M_a > 2 n_a
    equispaced points per axis, Ehlich and Zeller (Math. Z. 1964), applied
    axis by axis, give sup|h| <= max_grid|h| / grid_shrink(widths, sizes).
    Each factor is evaluated as sin(pi (M_a - 2 n_a) / (2 M_a)), which keeps a
    few ulps of relative accuracy where cos(pi n_a / M_a) nears zero.
    """
    return math.sqrt(math.prod(math.sin(math.pi * (m - 2 * (w - 1)) / (2 * m))
                               for w, m in zip(widths, sizes)))


def _gamma(n: int) -> float:
    """n u / (1 - n u), u = eps / 2: the factor of n roundings (Higham 3.1)."""
    u = float(np.finfo(float).eps) / 2.0
    return n * u / (1.0 - n * u)


def _fft_error(sizes, norm: float) -> float:
    """Bound on |computed - exact| at every point of an FFT grid.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2) bounds the l2 error of a radix-2 FFT of N points by
    L eta / (1 - L eta) ||y||_2, L = log2 N and eta = mu + gamma_4 (sqrt 2 + mu),
    mu the error of the twiddle factors, taken as one eps.  A
    multidimensional FFT runs one such FFT per axis, and the per-axis
    factors multiply to at most the bound with L = sum_a log2 M_a.  Parseval
    gives ||y||_2 = sqrt(N) norm, norm the l2 norm of the folded
    coefficients, and the l2 error bounds the error at each point.
    """
    eps = float(np.finfo(float).eps)
    eta = eps + _gamma(4) * (math.sqrt(2.0) + eps)
    steps = sum(int(m).bit_length() - 1 for m in sizes) * eta
    return steps / (1.0 - steps) * math.sqrt(math.prod(sizes)) * norm


def scale_fourier(x: ScaleSignal, grid_sizes) -> SpectrumGrid:
    """Forward transform sum_k x(k) e^{-i k.theta} on the torus grid.

    Grid sizes must cover the support width on every axis (anti-aliasing
    guard); then the grid mean of |values|^2 equals the signal energy.
    A value beyond the double range raises ValueError naming its grid index.
    """
    sizes = _check_alias(x, grid_sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        values = torus_values(x.array, x.origin, sizes)
    bad = first_nonfinite(values, (0,) * len(sizes))
    if bad is not None:
        raise ValueError(f"spectrum value at grid index j = {bad} is not a finite double")
    return SpectrumGrid(sizes, values)


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


def _horner(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's rule along the leading axis, x
    broadcast against each slab, in one accumulator updated in place (zeros
    for no coeffs); in 1-D it takes polyval's operations, so bit for bit."""
    acc = x * 0 + (coeffs[-1] if len(coeffs) else np.zeros(coeffs.shape[1:]))
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _evaluate(array: np.ndarray, origin, points: np.ndarray) -> np.ndarray:
    """sum_e c_e prod_a z_a^e_a over the box (array, origin) at each row z
    of the complex points (count, p): nested Horner, last axis first, for
    all points at once, times z_a^origin_a.  Roundoff: a complex product
    counts as three roundings and a sum as one (Higham, 2nd ed., Lemma 3.5
    and section 5.1), and numpy's z^lo is within 4 |lo| eps relative where
    |log |z|| <= 1, which gives the module docstring's bound."""
    for a in reversed(range(array.ndim)):
        w = points[:, a].reshape((-1,) + (1,) * a)
        array = _horner(w, np.moveaxis(array, -1, 0)) * w ** origin[a]
    return array


def transfer_grid(h: ScaleTimeSignal, z: complex, grid_sizes) -> SpectrumGrid:
    """H(z, theta) = sum_n z^n hhat_n(theta) sampled on the torus grid."""
    for s in h.slices or (ScaleSignal.zero(h.arity),):
        sizes = _check_alias(s, grid_sizes)
    folded = _horner(complex(z), h.stack.array) * complex(z) ** h.stack.origin[0]
    return SpectrumGrid(sizes, torus_values(folded, h.stack.origin[1:], sizes))


def hermite_transform(x: ScaleSignal, points) -> np.ndarray:
    """The Hermite transform sum_k x(k) z^k (delta_k -> z^k, no
    conjugation) evaluated at each row z of points, shape (count, p)."""
    points = np.asarray(points, complex)
    if points.ndim != 2 or points.shape[1] != x.arity:
        raise ValueError(f"points must have shape (count, {x.arity})")
    for a, lo in enumerate(x.origin):
        if not np.isfinite(points[:, a]).all():
            raise ValueError(f"coordinate {a} of a point is not finite")
        if lo < 0 and not points[:, a].all():
            raise ZeroDivisionError(f"variable {a} is zero but negative powers are present")
    return _evaluate(x.array, x.origin, points)


def generalized_transfer(h: ScaleTimeSignal, z: complex, zs) -> complex:
    """sum_n z^n sum_k h_n(k) zs^k, the transfer function in p+1 variables.

    When h carries negative scale exponents the scale variables must lie on
    the unit circle; cone-supported h evaluates anywhere in the closed
    polydisc (and beyond, since the sum is finite, unless it overflows).
    The value carries _evaluate's roundoff bound only where |log |z_a|| <= 1
    on every axis with a nonzero origin; numpy's z^lo is unbounded beyond.
    """
    point = [complex(w) for w in [z, *zs]]
    if len(point) != h.arity + 1:
        raise ValueError(f"expected {h.arity} scale coordinates")
    stack = h.stack
    for a, w in enumerate(point):
        if not cmath.isfinite(w):
            raise ValueError(f"{'z' if a == 0 else f'zs[{a - 1}]'} is not finite: {w!r}")
        if stack.origin[a] < 0 and abs(abs(w) - 1.0) > 1e-9:
            raise ValueError("Laurent evaluation requires torus points")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_evaluate(stack.array, stack.origin, np.array([point]))[0])
    if not cmath.isfinite(value):
        raise ValueError(f"the transfer value overflows at z={point[0]!r}, zs={point[1:]!r}")
    return value


def haar_moment(group: ScaleGroup, idx) -> complex:
    """Moment of a character power under the normalized dual-group measure.

    Character orthogonality makes every moment vanish except at the zero
    exponent, where the total mass is one.
    """
    idx = as_index(idx, group.p)
    return 1.0 + 0.0j if all(k == 0 for k in idx) else 0.0 + 0.0j
