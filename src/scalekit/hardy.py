"""Action of disc automorphisms on Taylor coefficient sequences.

The map sends the coefficients of f to those of (1/(b* z + a*)) f(phi(z)),
where phi(z) = (a z + b)/(b* z + a*).  The operator is an isometry of the
coefficient l2 norm; outputs carry a certified l2 bound on everything the
returned head misses: the discarded tail and the aliasing of the sampled
evaluation.  The bound is a Cauchy estimate on circles |z| = R > 1, where max
|f(phi(z))| comes from the plain sum of |f_k| |w|^k on the image circle, or
from samples of f there through the grid inequality that also brackets torus
suprema (spectral.grid_shrink).  scale_transform samples those only where the
plain sum fails, and of each image only the first time_len coefficients, on
a circle |z| = rho <= 1 that trades aliasing for a roundoff amplification
rho^-k (Lyness and Moler, SIAM J. Numer. Anal. 1967; Bornemann, Found.
Comput. Math. 2011), roundoff included in its bound (_head_grid).

The unit of work is the window, not the column: scale_transform runs each
stage once over all the columns it samples, as arrays with one row per map.
What depends on f alone is computed once; the ladder's log-sum-exps are row
blocks of one 2-D reduce (_plain_ladder), the certified lengths and the
(rho, N) choices are array ops over the maps (_certified_length,
_head_grid), and f is evaluated by one Horner pass over the sample points of
all the columns, the roots of unity built once (_sample_heads).  The
ladder's samples (_sampled_ladder) and the FFTs stay one column at a time.
Each stage is elementwise along the maps or reduces within one map's row in
the single-column order, so a column's bytes do not depend on the other
columns of its window.  Memory stays bounded by constants whatever the
window's width: _SUM_TERMS log terms per block of the ladder, _GRID_MAPS
maps per _head_grid array and _POINTS sample points (plus one column's) per
Horner pass.  transform_coeffs runs the same stages on a one-column window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moebius import SuMatrix
from .signals import MAX_BOX_CELLS, ScaleTimeSignal, as_index, energy, zeros_box
from .spectral import _fft_error, _horner, grid_shrink

__all__ = ["CoeffSeq", "TruncationError", "transform_coeffs", "scale_transform", "MAX_LEN"]

MAX_LEN = 1 << 16   # the most coefficients an output may hold
_SUM_TERMS = 1 << 16   # log terms per block of the ladder's plain sums
_GRID_MAPS = 64        # maps per _head_grid array of (map, N, rho, R) cells
_POINTS = 1 << 16      # sample points per Horner pass, besides one column's


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
        return math.sqrt(energy(self.coeffs))


def _as_coeffseq(f) -> CoeffSeq:
    if isinstance(f, CoeffSeq):
        return f
    return CoeffSeq(np.asarray(f, dtype=complex))


def _plain_ladder(coeffs: np.ndarray, mats):
    """The ladder of nine circles |z| = R, 1 < R < R0 = |d|/|c| (the pole of
    the image), one row per map of a window: f trimmed, R, |d| - |c| R, and
    the center a b (1 - R^2) s and radius R (|a|^2 - |b|^2) s,
    s = 1 / (|a|^2 - |b|^2 R^2), of their images Gamma_R under phi; last
    log_sup = log P, where P = sum_k |f_k| (max |w|)^k >= max |f| on Gamma_R.
    |a|, |b|, a b and |a|^2 - |b|^2 are Python scalars per map.  The
    log-sum-exps are row blocks of one 2-D reduce, each of at most
    _SUM_TERMS terms or one row, so that memory stays O(deg f)."""
    f = np.trim_zeros(coeffs, "b")
    abs_a, abs_b, ab, det = (np.array(v)[:, None] for v in zip(*[
        (abs(m.a), abs(m.b), m.a * m.b, abs(m.a) ** 2 - abs(m.b) ** 2) for m in mats]))
    radius = (abs_a / abs_b) ** np.array([0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = abs_a - abs_b * radius                    # |d| - |c| R
        scale = 1.0 / (den * (abs_a + abs_b * radius))  # 1 / (|a|^2 - |b|^2 R^2)
        center = ab * (1.0 - radius ** 2) * scale
        rad = radius * det * scale
        log_f, k = np.log(np.abs(f)), np.arange(f.size)
        log_w, rows = np.log(np.abs(center) + rad).reshape(-1, 1), max(1, _SUM_TERMS // f.size)
        log_p = np.concatenate([np.logaddexp.reduce(log_f + k * log_w[i:i + rows], axis=1)
                                for i in range(0, log_w.size, rows)])
    return f, radius, den, center, rad, log_p.reshape(radius.shape)


def _sampled_ladder(f, center, rad, log_p):
    """log_sup of one row of _plain_ladder's circles from samples, at most
    log P.  On Gamma_R, f of degree d is a trigonometric polynomial of degree
    d in the angle, bounded by samples at M > 2d angles
    (spectral.grid_shrink).  The circle encloses the unit disc, so a sample
    is w^d f~(1/w), f~ reversed, w^d in log space, and its Horner roundoff is
    at most gamma P.  P stays when the Horner work 9 M (d + 1) would exceed
    MAX_BOX_CELLS.  Roundoff in the sample points is not yet inside the
    bound."""
    deg = f.size - 1
    size = 1 << (2 * deg).bit_length()
    if center.size * size * f.size > MAX_BOX_CELLS:
        return log_p
    gamma = (2 * deg + 2) * np.finfo(float).eps   # complex Horner, Higham Lemma 3.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = center[:, None] + rad[:, None] * np.exp(2j * math.pi * np.arange(size) / size)
        reversed_vals = _horner(1.0 / w, f[::-1])  # w^-d f(w)
        log_grid = (deg * np.log(np.abs(w)) + np.log(np.abs(reversed_vals))).max(axis=1)
        log_sample = np.logaddexp(log_grid, math.log(gamma) + log_p)
        shrink = math.log(grid_shrink((f.size,), (size,)))
        return np.fmin(log_sample - shrink, log_p)


def _certified_length(radius, den, log_sup, tol: float):
    """For each row of circles, the smallest output length n whose certified
    l2 error bound is <= tol, from log_sup >= log max |f| on each Gamma_R.
    Over |d| - |c| R it bounds M(R) = max_{|z|=R} |g|, so |g_k| <= M(R) R^-k
    (Cauchy).  With C = M(R) / sqrt(1 - R^-2) and q = R^-n, the tail beyond
    n has l2 norm <= C q, and sampling at N >= 2n roots of unity adds
    g_{k+N} + g_{k+2N} + ... to each head coefficient, of l2 norm
    <= C q^2 / (1 - q^2); q <= tol / (C + tol) keeps the sum <= tol.  A
    radius that rounds onto 1 or R0 certifies nothing, and a bound beyond
    double range is reported as inf.  Returns n (inf where no length within
    MAX_LEN certifies), the bound at min(n, MAX_LEN), and the ladder
    (log C, log R) for _head_grid."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_base = log_sup - np.log(den) - 0.5 * np.log1p(-radius ** -2.0)
        log_r = np.log(radius)
        log_tol = math.log(tol)
        need = np.ceil((np.logaddexp(log_base, log_tol) - log_tol) / log_r)
        n = np.where(need <= MAX_LEN, need, np.inf).min(axis=1)
        x = np.minimum(n, MAX_LEN)[:, None] * log_r   # log of C q (1 + q / (1 - q^2))
        log_bound = log_base - x + np.log1p(np.exp(-x) / -np.expm1(-2.0 * x))
        bound = np.exp(np.fmin.reduce(log_bound, axis=1, initial=np.inf))
    return n, bound, (log_base, log_r)


def _certify(coeffs: np.ndarray, mats, tol: float, names, sample_all: bool = False):
    """_certified_length of each map's column, from the plain sums, and from
    the ladder's samples where those fail (the samples only tighten P) or,
    with sample_all, everywhere.  Raises TruncationError for the first
    column (in order) that no length within MAX_LEN certifies, its message
    prefixed by its entry of names."""
    f, radius, den, center, rad, log_sup = _plain_ladder(coeffs, mats)
    certified = _certified_length(radius, den, log_sup, tol)
    redo = np.flatnonzero(sample_all | (certified[0] > MAX_LEN))
    for c in redo:
        log_sup[c] = _sampled_ladder(f, center[c], rad[c], log_sup[c])
    n, bound, ladder = _certified_length(radius, den, log_sup, tol) if redo.size else certified
    for c in np.flatnonzero(n > MAX_LEN)[:1]:
        raise TruncationError(f"{names[c]}truncation not converged: certified bound "
                              f"{bound[c]:.3e} at length {MAX_LEN} exceeds tol={tol:.3e}",
                              achieved_bound=float(bound[c]))
    return n.astype(int), bound, ladder


def _sample_heads(mats, coeffs: np.ndarray, n: int, sizes: np.ndarray,
                  rhos: np.ndarray) -> np.ndarray:
    """First n Taylor coefficients of g(z) = f(phi(z)) / (b* z + a*), one
    row per map, from its samples at the points rho w^j, w = e^(2 pi i / N),
    0 < rho <= 1, with the map's N in sizes and rho in rhos.

    One FFT (the periodic trapezoidal rule) gives
    sum_j g_{k + j N} rho^(k + j N) for k < N; the first n, rescaled by
    rho^-k, are g_k plus the aliasing and roundoff that _head_grid bounds.
    The roots of unity are built once, for the largest N (the angle
    2 pi k / N scales exactly by powers of two), and f is evaluated by one
    Horner pass over the maps' points laid end to end, at most _POINTS of
    them plus one map's per pass.  Every step before the FFTs is elementwise, so
    a row does not depend on the other maps, except that numpy's in-place
    complex product rounds an array of one element without the fused
    multiply-add it uses on longer ones: a map sampled at N = 1 point has a
    pass of its own.
    """
    # a pass: the maps whose points start in one span of _POINTS, or a map of one point alone
    span = np.where(sizes > 1, (np.cumsum(sizes) - sizes) // _POINTS, -1 - np.arange(sizes.size))
    cuts = np.flatnonzero(np.diff(span)) + 1
    if cuts.size:
        return np.concatenate([_sample_heads([mats[i] for i in p], coeffs, n, sizes[p], rhos[p])
                               for p in np.split(np.arange(len(mats)), cuts)])
    top = int(sizes.max())
    roots = np.exp(2j * math.pi * np.arange(top) / top)   # N's: every (top / N)-th, bit for bit
    a, b, c, d = np.array([(m.a, m.b, m.c, m.d) for m in mats]).T
    z = np.concatenate([roots[::top // s] for s in sizes.tolist()])
    z *= np.repeat(rhos, sizes)
    den = np.repeat(c, sizes) * z
    den += np.repeat(d, sizes)
    w = np.repeat(a, sizes) * z
    del z
    w += np.repeat(b, sizes)
    w /= den
    samples = _horner(w, coeffs)
    del w
    samples /= den
    heads = np.array([np.fft.fft(s, norm="forward")[:n]
                      for s in np.split(samples, np.cumsum(sizes)[:-1])])
    return heads * rhos[:, None] ** -np.arange(n, dtype=float)


def _head_grid(mats, coeffs: np.ndarray, n: int, n_out: np.ndarray, ladder,
               tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each map, radius rho <= 1 and power of two N >= n for the first
    n coefficients from _sample_heads, and the roundoff e that the head may
    carry beyond tol.

    The head's l2 error is at most A + rho^-(n - 1) e.  A, the aliasing, is
    C x / (1 - x), x = (rho / R)^N, least over the ladder radii R of
    _certified_length and their C.  e bounds the root mean square of the
    samples' errors, which the forward-normalized FFT passes on in l2
    (Parseval), plus the FFT's own error (spectral._fft_error) and the
    rescaling's eps, both relative to ||f||_2 + tol (g is an isometric
    image of f, and A <= tol wherever e is used).  To first order in eps,
    u = eps / 2, S0 = sum |f_k| and S1 = sum k |f_k|, the sample at
    z = rho w^j is off g(z) by alpha |den|^-3 + beta |den|^-2 + gam |den|^-1,
    den = b* z + a*, from:
    - the point: the angle is rounded twice, cos and sin are within an ulp
      and the product by rho rounds, so |z~ - z| <= (4 pi + sqrt 2 + 1) u,
      and |g'| <= S1 |den|^-3 + |b| S0 |den|^-2;
    - phi(z): numerator and denominator, a complex product and a sum each,
      are within k (|a| + |b|), k = (2 sqrt 2 + 1) u, and a complex quotient
      is taken as 8 u relative, which moves f by at most S1 times
      2 k (|a| + |b|) / |den| + 8 u;
    - Horner's (2 deg + 2) eps S0, and the division by den.
    Over the N points the mean of |den|^-2 is the Poisson kernel summed at
    the roots of unity, (1 + r^N) / ((1 - r^N)(|a|^2 - |b|^2 rho^2)),
    r = |b| rho / |a|, and 1 / (|a| - |b| rho) bounds |den|^-1 in the
    higher powers.

    For each N, rho minimizes C (rho / R)^N + e rho^-(n - 1) for each ladder
    radius (e taken at rho = 1), or is 1; the first N whose best rho has
    A + (rho^-(n - 1) - 1) e <= tol is taken, so the head is within tol + e.
    rho = 1 at N >= 2 n_out always qualifies: A <= tol q / (1 + q) there,
    q = tol / (C + tol).

    The maps run as one array (map, N, rho, R), which scale_transform keeps
    to _GRID_MAPS maps.  A map's radii that certify nothing (C not finite,
    or R rounded onto 1) and its N past max(n, 2 n_out) count as inf, so
    each map picks what it would pick alone.
    """
    eps = float(np.finfo(float).eps)
    u = eps / 2.0
    log_c, log_r = (v[:, None, :] for v in ladder)   # (map, 1, R)
    keep = np.isfinite(log_c) & (log_r > 0.0)
    abs_f = np.abs(coeffs)
    s0, s1 = float(abs_f.sum()), float(np.arange(abs_f.size) @ abs_f)
    deg = int(np.flatnonzero(abs_f)[-1])
    abs_a, abs_b = (np.array(v)[:, None, None] for v in zip(*[(abs(m.a), abs(m.b)) for m in mats]))
    eta = (4.0 * math.pi + math.sqrt(2.0) + 1.0) * u
    k_op = (2.0 * math.sqrt(2.0) + 1.0) * u
    alpha = eta * s1
    beta = eta * abs_b * s0 + k_op * (abs_a + abs_b) * (2.0 * s1 + s0)
    gam = (2 * deg + 2) * eps * s0 + 8.0 * u * (s0 + s1)
    norm = math.sqrt(energy(coeffs)) + tol
    top = 1 << np.array([(max(n, 2 * int(k)) - 1).bit_length() for k in n_out])  # last N
    sizes = 1 << np.arange((n - 1).bit_length(), int(top.max()).bit_length())
    size = sizes[:, None]
    fft = np.array([_fft_error((s,), norm) / math.sqrt(s) for s in sizes])[:, None]

    def error(rho):
        gap = abs_a - abs_b * rho                                # 1 / max |den|^-1
        r_n = -np.expm1(size * np.log(abs_b * rho / abs_a))     # 1 - r^N
        rms = np.sqrt((2.0 - r_n) / (r_n * gap * (abs_a + abs_b * rho)))
        return (alpha / gap ** 2 + beta / gap + gam) * rms + fft + eps * norm

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_e = np.log((n - 1) * error(np.ones((len(mats),) + size.shape)) / size)  # -inf at n = 1
        # rho = 0 would sample g(0) alone; the smallest normal keeps logs finite
        log_rho = np.clip((log_e - log_c + size * log_r) / (size + n - 1),
                          math.log(np.finfo(float).tiny), 0.0)
        rho = np.exp(np.concatenate([log_rho, np.zeros_like(log_e)], axis=2))  # last: 1
        err = error(rho)
        x = size[:, :, None] * (np.log(rho)[..., None] - log_r[:, :, None])
        alias = np.exp(log_c[:, :, None] + x - np.log(-np.expm1(x)))
        alias = np.where(keep[:, :, None], alias, np.inf).min(axis=3)
        total = alias + np.expm1(-(n - 1) * np.log(rho)) * err
    candidates = np.concatenate([keep, np.ones_like(keep[..., :1])], axis=2)
    total = np.where(candidates & (size <= top[:, None, None]), total, np.inf)
    best = total.argmin(axis=2)
    fits = total.min(axis=2) <= tol   # NaN where argmin takes a NaN
    maps = np.arange(len(mats))
    i = np.where(fits.any(axis=1), fits.argmax(axis=1), np.searchsorted(sizes, top))
    j = np.where(fits.any(axis=1), best[maps, i], -1)
    return rho[maps, i, j], sizes[i], err[maps, i, j]


def _exact_image(m: SuMatrix, f: CoeffSeq, tol: float):
    """The transformed series where it needs no sampling (zero input, or a
    rotation-like map with b = 0), else None; checks tol."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive real, got {tol!r}")
    coeffs = f.coeffs
    if coeffs.size == 0 or not np.any(coeffs):
        return CoeffSeq(np.zeros(1, complex), f.tail_bound)
    if abs(m.b) == 0.0:
        # Rotation-like map: output degree equals input degree, no tail.
        phase = (m.a / m.d) ** np.arange(coeffs.size) / m.d
        return CoeffSeq(coeffs * phase, f.tail_bound)
    return None


def transform_coeffs(m: SuMatrix, f, tol: float) -> CoeffSeq:
    """Coefficients of the transformed series, with certified tail bound.

    Samples g(z) = f(phi(z)) / (b* z + a*) at the N-th roots of unity, N the
    power of two >= 2n for the certified output length n, evaluating f by
    Horner's rule in w = phi(z) (spectral._horner).  One FFT (the periodic
    trapezoidal rule) turns the samples into g_k + g_{k+N} + g_{k+2N} + ...;
    the first n are returned.  g is analytic beyond the unit circle, so the
    aliased terms obey the same Cauchy estimate as the discarded tail, and
    tail_bound covers both (see _certified_length).

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
    exact = _exact_image(m, f, tol)
    if exact is not None:
        return exact
    n_out, bound, _ = _certify(f.coeffs, [m], tol, [""], sample_all=True)
    size = 1 << (2 * int(n_out[0]) - 1).bit_length()
    head = _sample_heads([m], f.coeffs, int(n_out[0]), np.array([size]), np.ones(1))[0]
    return CoeffSeq(head, min(tol, float(bound[0])) + f.tail_bound)


def scale_transform(group: ScaleGroup, x, scale_window, time_len: int,
                    tol: float) -> ScaleTimeSignal:
    """Observe a coefficient sequence through a window of group scales.

    Column at index idx holds the first time_len coefficients of the image
    of x under group.element(idx); row n collects the n-th coefficient of
    every column.  The columns fill one (time_len, window box) array.
    Each column is certified from the plain sum, or where that fails from
    the ladder's samples (raising where transform_coeffs would); only
    time_len rows are sampled, on the circle and at the count _head_grid
    picks: each column is within tol, plus the roundoff it states, of the
    exact coefficients, rows past the certified length included.

    The stages run once per window over all its sampled columns (see the
    module docstring), in memory bounded by constants whatever the window's
    width, and a column's bytes are those it would have in a window of its
    own.  Errors are raised as a column-by-column pass would raise them: the
    first column, in window order, whose map, tol or certification fails
    names its scale index.
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
    sampled, failed = [], None
    for idx in window:
        try:
            mat = group.element(idx)
            col = _exact_image(mat, x, tol)
        except ValueError as exc:
            failed = idx, exc
            break
        if col is None:
            sampled.append((idx, mat))
        else:
            dense[(slice(0, len(col)),) + tuple(np.subtract(idx, mins))] = col.coeffs[:time_len]
    if sampled:
        idxs, mats = zip(*sampled)
        n_out, _, ladder = _certify(x.coeffs, mats, tol, [f"scale index {i}: " for i in idxs])
        for i in range(0, len(mats), _GRID_MAPS):
            part = slice(i, i + _GRID_MAPS)
            rho, size, _ = _head_grid(mats[part], x.coeffs, time_len, n_out[part],
                                      [v[part] for v in ladder], tol)
            heads = _sample_heads(mats[part], x.coeffs, time_len, size, rho)
            dense[(slice(None),) + tuple(np.subtract(idxs[part], mins).T)] = heads.T
    if failed:
        raise ValueError(f"scale index {failed[0]}: {failed[1]}") from failed[1]
    return ScaleTimeSignal._from_box(dense, mins)
