"""Finitely generated commuting groups of hyperbolic disc maps.

Group elements are indexed by integer exponent vectors.  Generators are
stored in "zooming" orientation (multiplier of the designated attracting
fixed point less than one), so nonnegative exponents form the scale-causal
cone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .moebius import MapClass, SuMatrix
from .signals import as_index, in_causal_cone

__all__ = ["ScaleGroup", "make_group", "MAX_EXPONENT"]

COMMUTATOR_TOL = 1e-10
MULTIPLIER_SEP = 1e-12
# Exponent guard: keeps matrix entries comfortably inside double range.
MAX_EXPONENT = 64


def _power(m: SuMatrix, k: int) -> SuMatrix:
    if k < 0:
        m = m.inverse()
        k = -k
    result = SuMatrix.identity()
    base = m
    while k:
        if k & 1:
            result = result.compose(base)
        k >>= 1
        if k:
            base = base.compose(base)
    return result


def _prefers_flip(m: SuMatrix) -> bool:
    """True when the attracting fixed point is not the lexicographically
    larger point of the fixed pair (by real part, then imaginary part)."""
    fp = m.fixed_points()
    key1 = (fp.xi1.real, fp.xi1.imag)
    key2 = (fp.xi2.real, fp.xi2.imag)
    if abs(key1[0] - key2[0]) <= 1e-9:
        return key2[1] > key1[1]
    return key2[0] > key1[0]


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
        """Product of generator powers for an exponent vector."""
        idx = as_index(idx, self.p)
        for k in idx:
            if abs(k) > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {k} exceeds the guard |k| <= {MAX_EXPONENT}"
                )
        result = SuMatrix.identity()
        for g, k in zip(self.generators, idx):
            if k:
                result = result.compose(_power(g, k))
        return result

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
    `reoriented`).  All pairs must commute and the multipliers must be
    pairwise distinct.
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
    p = len(oriented)
    for i in range(p):
        for j in range(i + 1, p):
            dist = oriented[i].compose(oriented[j]).entry_distance(
                oriented[j].compose(oriented[i])
            )
            if dist > COMMUTATOR_TOL:
                raise ValueError(
                    f"generators {i} and {j} do not commute "
                    f"(commutator norm {dist:.3e})"
                )
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
