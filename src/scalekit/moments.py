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
from numpy.lib.stride_tricks import sliding_window_view

from .signals import _scale_back, check_box
from .spectral import _horner

__all__ = ["MomentSequence", "PsdReport", "HerglotzValue", "toeplitz_psd_check",
           "herglotz_eval", "stieltjes_invert"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MomentSequence:
    """Moments t_0 .. t_N; t_0 must be real (sign checked by the PSD test).

    Realness is asked of t 2^-E, with the E of toeplitz_psd_check, so t and
    t 2^k pass or fail it together wherever the scaling is exact."""

    t: tuple

    def __post_init__(self):
        vals = tuple(map(complex, self.t))
        if not vals:
            raise ValueError("at least one moment is required")
        col = np.array(vals)
        finite = np.isfinite(col)
        if not finite.all():
            raise ValueError(f"moments must be finite, got {vals[finite.argmin()]!r}")
        re, im = np.ldexp(col[:1].view(float), -_scale_exponent(col))
        if abs(im) > 1e-12 * (1.0 + math.hypot(re, im)):
            raise ValueError(f"t_0 must be real, got {vals[0]!r}")
        object.__setattr__(self, "t", vals)

    @property
    def order(self) -> int:
        return len(self.t) - 1

    def herglotz_coeffs(self) -> np.ndarray:
        """Power-series coefficients (t_0, 2 t_1, ..., 2 t_N)."""
        coef = np.asarray(self.t, complex).copy()
        coef[1:] *= 2.0
        return coef


def _scale_exponent(col: np.ndarray) -> int:
    """E with 2^E the power of two at or below the largest |Re| or |Im| of
    a complex array, and 0 for zeros."""
    top = float(np.abs(col.view(float)).max())
    return math.frexp(top)[1] - 1 if top else 0


PsdReport = namedtuple("PsdReport", ["is_psd", "min_eigenvalue", "order"])
HerglotzValue = namedtuple("HerglotzValue", ["value", "order"])


def toeplitz_psd_check(ms: MomentSequence, tol: float = 1e-10) -> PsdReport:
    """Smallest eigenvalue of the full Toeplitz matrix (t_{n-m}).

    The question is asked of t 2^-E, 2^E the power of two at or below the
    largest |Re t_n| or |Im t_n| (E = 0 for zeros), since a positive scale
    does not change whether a matrix is positive: is_psd holds when the
    smallest eigenvalue there is >= -tol, so tol is relative to 2^E, and
    the eigenvalue is scaled back by 2^E (_scale_back).  t 2^k then gets
    the same verdict, and 2^k times the eigenvalue, wherever both scalings
    are exact; a sequence whose largest part is in [1, 2) is not scaled.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    col = np.asarray(ms.t, complex)
    check_box((col.size, col.size))
    scale = _scale_exponent(col)
    if scale:
        col = np.ldexp(col.view(float), -scale).view(complex)
    # windows[i, j] = t_{i+j-N}, t_{-m} = conj(t_m): the Toeplitz matrix
    # A + iB = (t_{i-j}) with its columns reversed, as a strided view
    windows = sliding_window_view(np.concatenate((np.conj(col[:0:-1]), col)), col.size)
    # (I + iJ)/sqrt 2, J the exchange matrix, carries A + iB to real symmetric A - BJ
    eigs = np.linalg.eigvalsh(windows.real[:, ::-1] - windows.imag)
    min_eig = float(eigs[0])
    return PsdReport(bool(min_eig >= -tol), _scale_back(min_eig, scale, "min_eigenvalue"),
                     len(ms.t))


def herglotz_eval(ms: MomentSequence, z: complex) -> HerglotzValue:
    """Truncated t_0 + 2 sum t_n z^n inside the disc by Horner's rule
    (spectral._horner), and the order, for the caller to bound the tail."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"evaluation requires |z| < 1, got |z| = {abs(z)!r}")
    value = complex(_horner(z, ms.herglotz_coeffs()))
    return HerglotzValue(value, ms.order)


def stieltjes_invert(ms: MomentSequence, a: float, b: float, r: float) -> float:
    """Measure mass of the arc (a, b] seen from radius r inside the circle:
    (1/2 pi) int_a^b Re Phi(r e^{i theta}) d theta, which tends to the arc
    mass as r -> 1, integrated term by term into
    (1/2 pi) [t_0 (b - a) + 2 sum_{n>=1} Re(t_n r^n (e^{inb} - e^{ina}) / (in))].
    The angles may be negative or wrap; an arc of length 2 pi gives t_0.

    Roundoff: for the floats given, underflow of r^n aside, the result is
    within eps / (2 pi) [(N + 16) A + 2 (|a| + |b|) P] of the exact value,
    with eps = 2^-52, N = ms.order, A = |t_0| (b - a) + 4 sum |t_n| r^n / n
    (a bound on the summands) and P = sum |t_n| r^n.  The second term is the
    phase error of n b and n a, up to eps n (|a| + |b|) per term before the
    1/n; the first covers summing N + 1 terms and the few roundings in each,
    libm cos, sin and pow taken within 4 ulps.
    """
    a, b, r = float(a), float(b), float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if b - a > TWO_PI + 1e-12:
        raise ValueError(f"arc length {b - a!r} exceeds the full circle")
    t = np.asarray(ms.t, complex)
    n = np.arange(1, t.size)
    # Re(w / (i n)) = Im(w) / n
    chord = (t[1:] * (np.exp(1j * (n * b)) - np.exp(1j * (n * a)))).imag
    return float((t[0].real * (b - a) + 2.0 * np.sum(chord * r ** n / n)) / TWO_PI)
