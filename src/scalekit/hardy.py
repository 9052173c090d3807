"""Action of disc automorphisms on Taylor coefficient sequences.

The map sends the coefficients of f to those of (1/(b* z + a*)) f(phi(z)),
where phi(z) = (a z + b)/(b* z + a*).  The operator is an isometry of the
coefficient l2 norm; outputs carry a certified l2 bound on everything the
returned head misses: the discarded tail and the aliasing of the sampled
evaluation.  The bound is a Cauchy estimate on circles |z| = R > 1, where
max |f(phi(z))| comes from samples of f on the image circle through the
grid inequality that also brackets torus suprema (spectral.grid_shrink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import ScaleGroup
from .moebius import SuMatrix
from .signals import MAX_BOX_CELLS, ScaleTimeSignal, as_index, zeros_box
from .spectral import grid_shrink

__all__ = ["CoeffSeq", "TruncationError", "transform_coeffs", "scale_transform", "MAX_LEN"]

MAX_LEN = 1 << 16   # the most coefficients an output may hold


class TruncationError(RuntimeError):
    """Raised when no output length within budget certifies the tail bound."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class CoeffSeq:
    """Truncated power-series coefficients with a certified l2 tail bound."""

    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        tail = float(self.tail_bound)
        if not (math.isfinite(tail) and tail >= 0.0):
            raise ValueError(f"tail bound must be a nonnegative real, got {tail!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "tail_bound", tail)

    def __len__(self) -> int:
        return int(self.coeffs.size)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _as_coeffseq(f) -> CoeffSeq:
    if isinstance(f, CoeffSeq):
        return f
    return CoeffSeq(np.asarray(f, dtype=complex))


def _certified_length(coeffs: np.ndarray, m: SuMatrix, tol: float) -> tuple[int, float]:
    """Smallest output length n whose certified l2 error bound is <= tol.

    The transformed series is analytic up to the pole -d/c of radius
    R0 = |d|/|c| > 1.  phi maps the circle |z| = R < R0 onto the circle
    Gamma_R of center a b (1 - R^2) / (|a|^2 - |b|^2 R^2) and radius
    R (|a|^2 - |b|^2) / (|a|^2 - |b|^2 R^2), on which f of degree d is a
    trigonometric polynomial of degree d in the angle.  Its samples at
    M > 2d equispaced angles bound max |f| on Gamma_R by the grid inequality
    (spectral.grid_shrink).  Gamma_R encloses the unit disc, so each sample
    is evaluated as w^d f~(1/w), f~ the reversed coefficients, with w^d in
    log space; the Horner roundoff is at most gamma P, where the plain sum
    P = sum_k |f_k| (max |w|)^k also caps the bound, and alone bounds max |f|
    when the grid's Horner work 9 M (d + 1) exceeds MAX_BOX_CELLS.  Roundoff
    in the sample points is not yet inside the bound.  Over |d| - |c| R this
    bounds M(R) = max_{|z|=R} |g|, so |g_k| <= M(R) R^-k (Cauchy).
    With C = M(R) / sqrt(1 - R^-2) and q = R^-n, the coefficient tail beyond
    n has l2 norm <= C q, and sampling at N >= 2n roots of unity adds
    g_{k+N} + g_{k+2N} + ... to each head coefficient, of l2 norm
    <= C q^2 / (1 - q^2).  Requiring q <= tol / (C + tol) keeps the sum
    <= tol.  Minimized over a ladder of radii, all evaluated at once; a
    radius that rounds onto 1 or R0 certifies nothing, and a bound beyond
    double range is reported as inf.
    """
    f = np.trim_zeros(coeffs, "b")
    deg = f.size - 1
    abs_a, abs_b = abs(m.a), abs(m.b)
    radius = (abs_a / abs_b) ** np.array([0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97])
    size = 1 << (2 * deg).bit_length()
    gamma = (2 * deg + 2) * np.finfo(float).eps   # complex Horner, Higham Lemma 3.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = abs_a - abs_b * radius                    # |d| - |c| R
        scale = 1.0 / (den * (abs_a + abs_b * radius))  # 1 / (|a|^2 - |b|^2 R^2)
        center = (m.a * m.b * (1.0 - radius ** 2) * scale)[:, None]
        rad = (radius * (abs_a ** 2 - abs_b ** 2) * scale)[:, None]
        # log P, one radius at a time so that memory stays O(deg f)
        log_f, k = np.log(np.abs(f)), np.arange(f.size)
        log_sup = np.array([np.logaddexp.reduce(log_f + k * log_w)
                            for log_w in np.log(np.abs(center[:, 0]) + rad[:, 0])])
        if radius.size * size * f.size <= MAX_BOX_CELLS:
            w = center + rad * np.exp(2j * math.pi * np.arange(size) / size)
            reversed_vals = np.polynomial.polynomial.polyval(1.0 / w, f[::-1])  # w^-d f(w)
            log_grid = (deg * np.log(np.abs(w)) + np.log(np.abs(reversed_vals))).max(axis=1)
            log_sample = np.logaddexp(log_grid, math.log(gamma) + log_sup)
            log_sup = np.fmin(log_sample - math.log(grid_shrink((f.size,), (size,))), log_sup)
        log_base = log_sup - np.log(den) - 0.5 * np.log1p(-radius ** -2.0)
        log_r = np.log(radius)
        log_tol = math.log(tol)
        need = np.ceil((np.logaddexp(log_base, log_tol) - log_tol) / log_r)
        n = need[need <= MAX_LEN].min(initial=np.inf)
        certified = n <= MAX_LEN
        x = (n if certified else MAX_LEN) * log_r   # log of C q (1 + q / (1 - q^2))
        log_bound = log_base - x + np.log1p(np.exp(-x) / -np.expm1(-2.0 * x))
        bound = float(np.exp(np.fmin.reduce(log_bound, initial=np.inf)))
    if not certified:
        raise TruncationError(
            f"truncation not converged: certified bound {bound:.3e} at "
            f"length {MAX_LEN} exceeds tol={tol:.3e}",
            achieved_bound=bound,
        )
    return int(n), min(tol, bound)


def transform_coeffs(m: SuMatrix, f, tol: float) -> CoeffSeq:
    """Coefficients of the transformed series, with certified tail bound.

    Samples g(z) = f(phi(z)) / (b* z + a*) at the N-th roots of unity, N the
    power of two >= 2n for the certified output length n, evaluating f by
    Horner's rule in w = phi(z).  One FFT (the periodic trapezoidal rule)
    turns the samples into g_k + g_{k+N} + g_{k+2N} + ...; the first n are
    returned.  g is analytic beyond the unit circle, so the aliased terms
    obey the same Cauchy estimate as the discarded tail, and tail_bound
    covers both (see _certified_length).

    Parameters
    ----------
    m : SuMatrix
        The disc automorphism.
    f : CoeffSeq or array_like
        Input coefficients (finite).
    tol : float
        Target l2 bound on the error of the returned head against the
        exact series (omitted tail plus aliasing).  No output holds more
        than MAX_LEN coefficients: TruncationError if tol needs more.
    """
    f = _as_coeffseq(f)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive real, got {tol!r}")
    coeffs = f.coeffs
    if coeffs.size == 0 or not np.any(coeffs):
        return CoeffSeq(np.zeros(1, complex), f.tail_bound)
    a, b = m.a, m.b
    c, d = m.c, m.d
    if abs(b) == 0.0:
        # Rotation-like map: output degree equals input degree, no tail.
        n = np.arange(coeffs.size)
        phase = (a / d) ** n / d
        return CoeffSeq(coeffs * phase, f.tail_bound)
    n_out, bound = _certified_length(coeffs, m, tol)
    size = 1 << (2 * n_out - 1).bit_length()
    z = np.exp(2j * math.pi * np.arange(size) / size)
    den = c * z + d
    samples = np.polynomial.polynomial.polyval((a * z + b) / den, coeffs) / den
    out = np.fft.fft(samples, norm="forward")[:n_out]
    return CoeffSeq(out, bound + f.tail_bound)


def scale_transform(group: ScaleGroup, x, scale_window, time_len: int,
                    tol: float) -> ScaleTimeSignal:
    """Observe a coefficient sequence through a window of group scales.

    Column at index idx is transform_coeffs(group.element(idx), x) truncated
    or zero-padded to time_len rows; row n collects the n-th coefficient of
    every column.  The columns fill one (time_len, window box) array.
    """
    x = _as_coeffseq(x)
    window = [as_index(idx, group.p) for idx in scale_window]
    if not window:
        raise ValueError("scale window must be nonempty")
    if len(set(window)) != len(window):
        raise ValueError("scale window contains duplicate indices")
    time_len = int(time_len)
    if time_len < 1:
        raise ValueError(f"time_len must be >= 1, got {time_len}")
    mins = tuple(map(min, zip(*window)))
    widths = tuple(hi - lo + 1 for lo, hi in zip(mins, map(max, zip(*window))))
    dense = zeros_box((time_len,) + widths)
    for idx in window:
        mat = group.element(idx)
        try:
            col = transform_coeffs(mat, x, tol)
        except TruncationError as exc:
            raise TruncationError(
                f"scale index {idx}: {exc}", exc.achieved_bound
            ) from exc
        except ValueError as exc:
            raise ValueError(f"scale index {idx}: {exc}") from exc
        take = min(time_len, len(col))
        column = (slice(0, take),) + tuple(k - lo for k, lo in zip(idx, mins))
        dense[column] = col.coeffs[:take]
    return ScaleTimeSignal._from_box(dense, mins)
