"""Trigonometric moment sequences: Toeplitz positivity, the associated
disc function with positive real part, and interval mass recovery.

A sequence t_0, ..., t_N (with t_{-n} = t_n* implied) is the moment list of
a positive circle measure exactly when every Toeplitz matrix (t_{n-m}) is
positive semidefinite.  Interval masses are recovered from the boundary
behaviour of Phi(z) = t_0 + 2 sum_{n>=1} t_n z^n; the 1/(2 pi) factor in
the inversion makes the full-circle mass equal t_0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .signals import check_box

__all__ = [
    "MomentSequence",
    "PsdReport",
    "HerglotzValue",
    "toeplitz_psd_check",
    "herglotz_eval",
    "stieltjes_invert",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MomentSequence:
    """Moments t_0 .. t_N; t_0 must be real (sign checked by the PSD test)."""

    t: tuple

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.t)
        if not vals:
            raise ValueError("at least one moment is required")
        for v in vals:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"moments must be finite, got {v!r}")
        t0 = vals[0]
        if abs(t0.imag) > 1e-12 * (1.0 + abs(t0)):
            raise ValueError(f"t_0 must be real, got {t0!r}")
        object.__setattr__(self, "t", vals)

    @property
    def order(self) -> int:
        return len(self.t) - 1

    def herglotz_coeffs(self) -> np.ndarray:
        """Power-series coefficients (t_0, 2 t_1, ..., 2 t_N)."""
        coef = np.asarray(self.t, complex).copy()
        coef[1:] *= 2.0
        return coef


PsdReport = namedtuple("PsdReport", ["is_psd", "min_eigenvalue", "order"])
HerglotzValue = namedtuple("HerglotzValue", ["value", "order"])


def toeplitz_psd_check(ms: MomentSequence, tol: float = 1e-10) -> PsdReport:
    """Smallest eigenvalue of the full Toeplitz matrix (t_{n-m}).

    is_psd holds when the smallest eigenvalue is >= -tol.  A negative t_0 is
    rejected immediately with order 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    t0 = ms.t[0].real
    if t0 < 0.0:
        return PsdReport(False, t0, 0)
    col = np.asarray(ms.t, complex)
    check_box((col.size, col.size))
    idx = np.arange(col.size)
    diff = idx[:, None] - idx[None, :]
    matrix = np.where(diff >= 0, col[np.abs(diff)], np.conj(col)[np.abs(diff)])
    eigs = np.linalg.eigvalsh(matrix)
    min_eig = float(eigs[0])
    return PsdReport(bool(min_eig >= -tol), min_eig, len(ms.t))


def _herglotz_values(ms: MomentSequence, zs: np.ndarray) -> np.ndarray:
    coef = ms.herglotz_coeffs()
    return np.polynomial.polynomial.polyval(zs, coef)


def herglotz_eval(ms: MomentSequence, z: complex) -> HerglotzValue:
    """Truncated t_0 + 2 sum t_n z^n inside the disc, plus the truncation
    order so the caller can bound the omitted tail."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"evaluation requires |z| < 1, got |z| = {abs(z)!r}")
    value = complex(_herglotz_values(ms, np.asarray([z]))[0])
    return HerglotzValue(value, ms.order)


def stieltjes_invert(ms: MomentSequence, a: float, b: float, r: float,
                     quad_points: int) -> float:
    """Approximate measure mass of the arc (a, b] from inside the circle.

    Returns (1/2 pi) int_a^b Re Phi(r e^{i theta}) d theta; as r -> 1 this
    converges to the interval mass.  The angles may be negative or wrap
    (the integrand is periodic); the full circle uses the periodic
    trapezoid rule, shorter arcs composite Simpson.
    """
    a = float(a)
    b = float(b)
    r = float(r)
    quad_points = int(quad_points)
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    if quad_points < 16:
        raise ValueError(f"quad_points must be >= 16, got {quad_points}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if b - a > TWO_PI + 1e-12:
        raise ValueError(f"arc length {b - a!r} exceeds the full circle")
    panels = quad_points + (quad_points % 2)
    check_box((panels + 1,))  # the most samples either rule takes
    if abs((b - a) - TWO_PI) <= 1e-12:
        theta = a + (b - a) * np.arange(quad_points) / quad_points
        vals = _herglotz_values(ms, r * np.exp(1j * theta)).real
        return float(np.mean(vals))
    theta = np.linspace(a, b, panels + 1)
    vals = _herglotz_values(ms, r * np.exp(1j * theta)).real
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return float((b - a) / (3.0 * panels) * np.dot(weights, vals) / TWO_PI)
