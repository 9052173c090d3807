"""SU(1,1) matrices acting on the unit disc by Moebius maps."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

__all__ = ["MapClass", "SuMatrix", "HyperbolicData", "make_scale_shift"]

# Tolerance for the determinant constraint, relative to the entry scale.
DET_TOL = 1e-12
# Tolerance on |Re a| - 1 when classifying a map.
CLASS_TOL = 1e-12


class MapClass(enum.Enum):
    """Conjugacy type of a disc automorphism."""

    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _require_finite(value: complex, name: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must have finite components, got {value!r}")


@dataclass(frozen=True)
class HyperbolicData:
    """Fixed-point data of a hyperbolic disc map.

    ``xi1`` is the attracting and ``xi2`` the repelling fixed point, both on
    the unit circle.  ``multiplier`` is the contraction rate in (0, 1), and
    ``lam`` = sqrt((Re a)^2 - 1) + i Im a gives xi1 = lam / b* and
    xi2 = -lam* / b*.
    """

    multiplier: float
    lam: complex
    xi1: complex
    xi2: complex


@dataclass(frozen=True)
class SuMatrix:
    """Matrix [[a, b], [b*, a*]] with |a|^2 - |b|^2 = 1.

    Acts on the closed unit disc by z -> (a z + b) / (b* z + a*).  Since
    (a, b) and (-a, -b) describe the same map, instances are sign-normalized:
    Re a > 0, or Re a = 0 (within tolerance) and Im a > 0.
    """

    a: complex
    b: complex

    def __post_init__(self, scale=None):
        # the determinant scale is the pair's own 1 + |a|^2 unless compose
        # passes its factors'
        a = complex(self.a)
        b = complex(self.b)
        _require_finite(a, "a")
        _require_finite(b, "b")
        det = abs(a) ** 2 - abs(b) ** 2
        if not abs(a) > abs(b) or abs(det - 1.0) > DET_TOL * (scale or 1.0 + abs(a) ** 2):
            raise ValueError(f"not an SU(1,1) pair: |a|^2 - |b|^2 = {det!r}")
        if a.real < -CLASS_TOL or (abs(a.real) <= CLASS_TOL and a.imag < 0.0):
            a, b = -a, -b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def c(self) -> complex:
        return self.b.conjugate()

    @property
    def d(self) -> complex:
        return self.a.conjugate()

    @staticmethod
    def identity() -> "SuMatrix":
        return SuMatrix(1.0, 0.0)

    def compose(self, other: "SuMatrix") -> "SuMatrix":
        """Matrix product self @ other (acts as self after other on points),
        its determinant checked at the factors' scale (1 + |a1|^2)(1 + |a2|^2)."""
        m = object.__new__(SuMatrix)
        object.__setattr__(m, "a", self.a * other.a + self.b * other.b.conjugate())
        object.__setattr__(m, "b", self.a * other.b + self.b * other.a.conjugate())
        m.__post_init__((1.0 + abs(self.a) ** 2) * (1.0 + abs(other.a) ** 2))
        return m

    def inverse(self) -> "SuMatrix":
        return SuMatrix(self.a.conjugate(), -self.b)

    def classify(self) -> MapClass:
        if abs(self.a - 1.0) <= CLASS_TOL and abs(self.b) <= CLASS_TOL:
            return MapClass.IDENTITY
        r = abs(self.a.real)
        if r > 1.0 + CLASS_TOL:
            return MapClass.HYPERBOLIC
        if r >= 1.0 - CLASS_TOL:
            return MapClass.PARABOLIC
        return MapClass.ELLIPTIC

    def multiplier(self) -> float:
        """Contraction rate in (0, 1) of a hyperbolic map.

        Computed as 1 / (|Re a| + sqrt(Re(a)^2 - 1))^2, which avoids the
        cancellation the textbook quotient suffers for large |Re a|.
        """
        if self.classify() is not MapClass.HYPERBOLIC:
            raise ValueError("multiplier undefined for non-hyperbolic map")
        r = abs(self.a.real)
        t = r + math.sqrt(r * r - 1.0)
        return 1.0 / (t * t)

    def log_multiplier(self) -> float:
        """log(multiplier), stable even when the multiplier underflows."""
        if self.classify() is not MapClass.HYPERBOLIC:
            raise ValueError("multiplier undefined for non-hyperbolic map")
        return -2.0 * math.acosh(abs(self.a.real))

    def fixed_points(self) -> HyperbolicData:
        if self.classify() is not MapClass.HYPERBOLIC:
            raise ValueError("fixed points defined only for hyperbolic maps")
        r = abs(self.a.real)
        s = math.sqrt(r * r - 1.0)
        lam = complex(s, self.a.imag)
        bc = self.b.conjugate()
        t = r + s
        return HyperbolicData(
            multiplier=1.0 / (t * t),
            lam=lam,
            xi1=lam / bc,
            xi2=-lam.conjugate() / bc,
        )

    def apply(self, z: complex) -> complex:
        """Evaluate the map at a point; the pole -a*/b* lies outside the disc."""
        z = complex(z)
        _require_finite(z, "z")
        den = self.b.conjugate() * z + self.a.conjugate()
        if abs(den) <= 1e-14 * abs(self.a):
            raise ValueError("evaluation at pole of the map")
        return (self.a * z + self.b) / den

    def entry_distance(self, other: "SuMatrix") -> float:
        """Entrywise sup distance between the sign-normalized pairs."""
        return max(abs(self.a - other.a), abs(self.b - other.b))


def make_scale_shift(alpha: float, theta: float = 0.0) -> SuMatrix:
    """Disc form of the half-plane scale map s -> alpha * s.

    Parameters
    ----------
    alpha : float
        Positive scale factor.  alpha = 1 gives the identity; alpha < 1 is
        the "zooming" orientation.
    theta : float
        Rotation parameter of the conformal conjugation, |theta| < pi/2.

    Returns
    -------
    SuMatrix
        a = (e^{i theta} + alpha e^{-i theta}) / (2 sqrt(alpha) cos theta),
        b = (1 - alpha) / (2 sqrt(alpha) cos theta), sign-normalized.
    """
    alpha = float(alpha)
    theta = float(theta)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be a positive real, got {alpha!r}")
    if not (math.isfinite(theta) and abs(theta) < math.pi / 2):
        raise ValueError(f"theta must satisfy |theta| < pi/2, got {theta!r}")
    scale = 2.0 * math.sqrt(alpha) * math.cos(theta)
    a = (cmath.exp(1j * theta) + alpha * cmath.exp(-1j * theta)) / scale
    b = (1.0 - alpha) / scale
    return SuMatrix(a, b)
