"""Finitely generated commuting groups of hyperbolic disc maps.

Group elements are indexed by integer exponent vectors.  Generators are
stored in "zooming" orientation (multiplier of the designated attracting
fixed point less than one), so nonnegative exponents form the scale-causal
cone.  Commuting hyperbolic maps share their fixed points, so the whole
group lies on one hyperbolic one-parameter subgroup cosh(v) I + sinh(v) X:
every generator is the point v_j = -log(mu_j) / 2 on the axis X of
generator 0, and an element is the point v = -order_key / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moebius import MapClass, SuMatrix
from .signals import as_index, in_causal_cone

__all__ = ["ScaleGroup", "make_group", "MAX_EXPONENT"]

# Tolerance on the distance of two generators' axes, relative to the sum of
# their rounding scales |a| |b|^2 / s^3 (see _axis).
AXIS_TOL = 1e-14
MULTIPLIER_SEP = 1e-12
# Exponent guard.  What limits depth is |a| and |b| rounding equal: beyond
# about e^|v| > 2^26 (|order_key| > 36) rounding decides whether SuMatrix
# refuses an element.
MAX_EXPONENT = 64


def _prefers_flip(m: SuMatrix) -> bool:
    """True when the attracting fixed point is not the lexicographically
    larger point of the fixed pair (by real part, then imaginary part)."""
    fp = m.fixed_points()
    key1 = (fp.xi1.real, fp.xi1.imag)
    key2 = (fp.xi2.real, fp.xi2.imag)
    if abs(key1[0] - key2[0]) <= 1e-9:
        return key2[1] > key1[1]
    return key2[0] > key1[0]


def _axis(m: SuMatrix) -> tuple[float, float]:
    """Norm s = sqrt(|b|^2 - Im(a)^2) of a hyperbolic pair's axis, which
    makes X = [[i Im a, b], [b*, -i Im a]] / s square to I, and the scale
    |a| |b|^2 / s^3 by which an eps-relative change of the entries moves X."""
    im, ab = abs(m.a.imag), abs(m.b)
    s = math.sqrt((ab - im) * (ab + im))
    return s, abs(m.a) * ab * ab / s ** 3


@dataclass(frozen=True)
class ScaleGroup:
    """Commuting hyperbolic generators plus their log multipliers."""

    generators: tuple[SuMatrix, ...]
    gen_log_multipliers: tuple[float, ...]
    reoriented: tuple[bool, ...]

    @property
    def p(self) -> int:
        return len(self.generators)

    def element(self, idx) -> SuMatrix:
        """Product of generator powers: cosh(v) I + sinh(v) X at v =
        -order_key(idx) / 2 on generator 0's axis X (see _axis).

        Its determinant is 1 up to a few eps |a|^2 at any depth.  Relative
        to m e^w (m = |b0| / s0, w = sum_j |k_j v_j|), it is within about
        (w + 4) eps + sum_j |k_j e_j| / (1 - mu_j) of the product of the
        stored generators' powers, plus the axis distance make_group admits.
        e_j = |a_j|^2 - |b_j|^2 - 1 is generator j's rounding; its term, from
        v_j read off Re a_j alone, dominates near mu_j = 1.
        """
        idx = as_index(idx, self.p)
        for k in idx:
            if abs(k) > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {k} exceeds the guard |k| <= {MAX_EXPONENT}"
                )
        g0 = self.generators[0]
        v = -self.order_key(idx) / 2.0
        sh = math.sinh(v) / _axis(g0)[0]
        return SuMatrix(complex(math.cosh(v), g0.a.imag * sh), g0.b * sh)

    def order_key(self, idx) -> float:
        """Signed log multiplier sum; negative on the zooming side."""
        idx = as_index(idx, self.p)
        return float(sum(k * lm for k, lm in zip(idx, self.gen_log_multipliers)))

    def in_causal_cone(self, idx) -> bool:
        return in_causal_cone(as_index(idx, self.p))


def make_group(generators) -> ScaleGroup:
    """Validate generators and build a ScaleGroup.

    Each generator must be hyperbolic; any generator attracting to the
    non-designated fixed point is replaced by its inverse (recorded in
    `reoriented`).  The generators must commute, which for hyperbolic maps
    is sharing generator 0's axis up to the rounding of their entries, and
    the multipliers must be pairwise distinct.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    oriented: list[SuMatrix] = []
    flips: list[bool] = []
    for i, g in enumerate(gens):
        if not isinstance(g, SuMatrix):
            raise TypeError(f"generator {i} is not an SuMatrix")
        if g.classify() is not MapClass.HYPERBOLIC:
            raise ValueError(f"generator {i} is not hyperbolic")
        flip = _prefers_flip(g)
        oriented.append(g.inverse() if flip else g)
        flips.append(flip)
    g0 = oriented[0]
    s0, r0 = _axis(g0)
    for j, g in enumerate(oriented[1:], 1):
        s, r = _axis(g)
        dist = max(abs(g.a.imag / s - g0.a.imag / s0), abs(g.b / s - g0.b / s0))
        if dist > AXIS_TOL * (r0 + r):
            raise ValueError(
                f"generators 0 and {j} do not commute "
                f"(axis distance {dist:.3e})"
            )
    p = len(oriented)
    mults = [g.multiplier() for g in oriented]
    for i in range(p):
        for j in range(i + 1, p):
            if abs(mults[i] - mults[j]) < MULTIPLIER_SEP:
                raise ValueError(
                    f"generators {i} and {j} have duplicated multiplier "
                    f"{mults[i]!r}"
                )
    logs = tuple(g.log_multiplier() for g in oriented)
    return ScaleGroup(tuple(oriented), logs, tuple(flips))
