"""Shared random generators for the test suite, a named-pipe reader, and the
per-element references that the vectorized kernels are held to bit for bit.

Everything is seeded through numpy Generators so failures reproduce.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

import numpy as np

import scalekit.hardy as hardy
from scalekit import CoeffSeq, ScaleSignal, ScaleTimeSignal, SuMatrix, make_scale_shift
from scalekit.signals import MAX_BOX_CELLS, as_index, energy, zeros_box
from scalekit.spectral import _fft_error, _horner, grid_shrink


@contextlib.contextmanager
def fifo_bytes(path):
    """A named pipe made at path, read to its end by a thread: the list
    yielded holds its bytes once the block has left (empty if nothing
    opened the pipe within 10 s)."""
    os.mkfifo(path)
    got: list = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    try:
        yield got
    finally:
        reader.join(10)


def random_hyperbolic(rng, mult_lo=0.1, mult_hi=0.9, theta_max=1.2) -> SuMatrix:
    """Hyperbolic map with multiplier in [mult_lo, mult_hi]."""
    alpha = rng.uniform(mult_lo, mult_hi)
    theta = rng.uniform(-theta_max, theta_max)
    m = make_scale_shift(alpha, theta)
    if rng.random() < 0.5:
        m = m.inverse()
    return m


def random_elliptic(rng) -> SuMatrix:
    psi = rng.uniform(0.2, np.pi - 0.2)
    return SuMatrix(complex(np.cos(psi), np.sin(psi)), 0.0)


def random_unit_coeffs(rng, max_deg=32) -> CoeffSeq:
    deg = int(rng.integers(0, max_deg + 1))
    vals = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    vals /= np.linalg.norm(vals)
    return CoeffSeq(vals)


def random_scale_signal(rng, arity, width=3, terms=4) -> ScaleSignal:
    entries = {}
    for _ in range(terms):
        idx = tuple(int(k) for k in rng.integers(-width, width + 1, arity))
        entries[idx] = complex(rng.standard_normal(), rng.standard_normal())
    return ScaleSignal(entries, arity=arity)


def random_time_signal(rng, arity, time_len, width=3, terms=4) -> ScaleTimeSignal:
    slices = [
        random_scale_signal(rng, arity, width=width, terms=terms)
        for _ in range(time_len)
    ]
    return ScaleTimeSignal(slices, arity=arity)


def torus_points(sizes) -> np.ndarray:
    """The product grid of sizes[a] roots of unity per axis, one point per
    row: shape (prod(sizes), len(sizes))."""
    axes = [np.exp(2j * np.pi * np.arange(m) / m) for m in sizes]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def disc_point(rng, radius=0.99) -> complex:
    r = radius * np.sqrt(rng.random())
    phi = 2.0 * np.pi * rng.random()
    return complex(r * np.cos(phi), r * np.sin(phi))


def slab_convolve(h: np.ndarray, u: np.ndarray, positions=None) -> np.ndarray:
    """Full linear convolution of two boxes by slab adds, the reference for
    convolve.box_convolve: for each nonzero position k of h (lexicographic
    unless positions gives another order), h(k) * u is added into the
    output window at offset k, whatever u's fill."""
    out = np.zeros([a + b - 1 if h.size and u.size else 0 for a, b in zip(h.shape, u.shape)],
                   complex)
    if positions is None:
        positions = np.argwhere(h)
    for pos in map(tuple, positions.tolist()):
        out[tuple(slice(k, k + n) for k, n in zip(pos, u.shape))] += h[pos] * u
    return out


def two_branch_convolve(h: np.ndarray, u: np.ndarray, positions=None) -> np.ndarray:
    """convolve.box_convolve as it was before its one ordered add, the
    reference for it: when u is less than half full, h(k) * u_nz is added
    at the flat output cells of u's nonzeros, one nonzero k of h at a time
    (lexicographic unless positions gives another order); otherwise the
    slab loop."""
    if positions is None:
        positions = np.argwhere(h)
    if not (len(positions) and 2 * np.count_nonzero(u) < u.size):
        return slab_convolve(h, u, positions)
    out = np.zeros([a + b - 1 for a, b in zip(h.shape, u.shape)], complex)
    cells = np.nonzero(u)
    offsets, u_nz = np.ravel_multi_index(cells, out.shape), u[cells]
    flat = out.reshape(-1)
    starts = np.ravel_multi_index(tuple(positions.T), out.shape).tolist()
    for start, value in zip(starts, h[tuple(positions.T)].tolist()):
        flat[offsets + start] += value * u_nz
    return out


def _column_plain_ladder(coeffs: np.ndarray, m: SuMatrix):
    """hardy._plain_ladder for one column: the nine circles as (9,) rows, one
    log-sum-exp per radius."""
    f = np.trim_zeros(coeffs, "b")
    abs_a, abs_b = abs(m.a), abs(m.b)
    radius = (abs_a / abs_b) ** np.array([0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = abs_a - abs_b * radius                    # |d| - |c| R
        scale = 1.0 / (den * (abs_a + abs_b * radius))  # 1 / (|a|^2 - |b|^2 R^2)
        center = (m.a * m.b * (1.0 - radius ** 2) * scale)[:, None]
        rad = (radius * (abs_a ** 2 - abs_b ** 2) * scale)[:, None]
        log_f, k = np.log(np.abs(f)), np.arange(f.size)
        log_p = np.array([np.logaddexp.reduce(log_f + k * log_w)
                          for log_w in np.log(np.abs(center[:, 0]) + rad[:, 0])])
    return f, radius, den, center, rad, log_p


def _column_sampled_ladder(circles):
    """hardy._sampled_ladder on the circles of one column."""
    f, radius, den, center, rad, log_p = circles
    deg = f.size - 1
    size = 1 << (2 * deg).bit_length()
    if center.size * size * f.size > MAX_BOX_CELLS:
        return circles
    gamma = (2 * deg + 2) * np.finfo(float).eps   # complex Horner, Higham Lemma 3.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = center + rad * np.exp(2j * math.pi * np.arange(size) / size)
        reversed_vals = _horner(1.0 / w, f[::-1])  # w^-d f(w)
        log_grid = (deg * np.log(np.abs(w)) + np.log(np.abs(reversed_vals))).max(axis=1)
        log_sample = np.logaddexp(log_grid, math.log(gamma) + log_p)
        shrink = math.log(grid_shrink((f.size,), (size,)))
        return f, radius, den, center, rad, np.fmin(log_sample - shrink, log_p)


def _column_certified_length(circles, tol: float):
    """hardy._certified_length for one column, raising where it fails."""
    _, radius, den, _, _, log_sup = circles
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_base = log_sup - np.log(den) - 0.5 * np.log1p(-radius ** -2.0)
        log_r = np.log(radius)
        log_tol = math.log(tol)
        need = np.ceil((np.logaddexp(log_base, log_tol) - log_tol) / log_r)
        n = need[need <= hardy.MAX_LEN].min(initial=np.inf)
        x = min(n, hardy.MAX_LEN) * log_r   # log of C q (1 + q / (1 - q^2))
        log_bound = log_base - x + np.log1p(np.exp(-x) / -np.expm1(-2.0 * x))
        bound = float(np.exp(np.fmin.reduce(log_bound, initial=np.inf)))
    if n > hardy.MAX_LEN:
        raise hardy.TruncationError(
            f"truncation not converged: certified bound {bound:.3e} at "
            f"length {hardy.MAX_LEN} exceeds tol={tol:.3e}",
            achieved_bound=bound,
        )
    return int(n), min(tol, bound), (log_base, log_r)


def _column_sample_head(m: SuMatrix, coeffs: np.ndarray, n: int, size: int,
                        rho: float) -> np.ndarray:
    """hardy._sample_heads for one column: its own roots of unity, Horner pass
    and FFT."""
    z = np.exp(2j * math.pi * np.arange(size) / size)
    z *= rho
    den = m.c * z
    den += m.d
    w = m.a * z
    del z
    w += m.b
    w /= den
    samples = _horner(w, coeffs)
    del w
    samples /= den
    head = np.fft.fft(samples, norm="forward")[:n]
    head *= rho ** -np.arange(n, dtype=float)
    return head


def _column_head_grid(m: SuMatrix, coeffs: np.ndarray, n: int, n_out: int, ladder,
                      tol: float) -> tuple[float, int, float]:
    """hardy._head_grid for one column: only its own kept radii and its own
    grid sizes."""
    eps = float(np.finfo(float).eps)
    u = eps / 2.0
    keep = np.isfinite(ladder[0]) & (ladder[1] > 0.0)
    log_c, log_r = ladder[0][keep], ladder[1][keep]
    abs_f = np.abs(coeffs)
    s0, s1 = float(abs_f.sum()), float(np.arange(abs_f.size) @ abs_f)
    deg = int(np.flatnonzero(abs_f)[-1])
    abs_a, abs_b = abs(m.a), abs(m.b)
    eta = (4.0 * math.pi + math.sqrt(2.0) + 1.0) * u
    k_op = (2.0 * math.sqrt(2.0) + 1.0) * u
    alpha = eta * s1
    beta = eta * abs_b * s0 + k_op * (abs_a + abs_b) * (2.0 * s1 + s0)
    gam = (2 * deg + 2) * eps * s0 + 8.0 * u * (s0 + s1)
    norm = math.sqrt(energy(coeffs)) + tol
    sizes = 1 << np.arange((n - 1).bit_length(), (max(n, 2 * n_out) - 1).bit_length() + 1)
    size = sizes[:, None]
    fft = np.array([_fft_error((s,), norm) / math.sqrt(s) for s in sizes])[:, None]

    def error(rho):
        gap = abs_a - abs_b * rho                                # 1 / max |den|^-1
        r_n = -np.expm1(size * np.log(abs_b * rho / abs_a))     # 1 - r^N
        rms = np.sqrt((2.0 - r_n) / (r_n * gap * (abs_a + abs_b * rho)))
        return (alpha / gap ** 2 + beta / gap + gam) * rms + fft + eps * norm

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_e = np.log((n - 1) * error(np.ones(size.shape)) / size)   # -inf at n = 1
        # rho = 0 would sample g(0) alone; the smallest normal keeps logs finite
        log_rho = np.clip((log_e - log_c + size * log_r) / (size + n - 1),
                          math.log(np.finfo(float).tiny), 0.0)
        rho = np.exp(np.concatenate([log_rho, np.zeros(size.shape)], axis=1))  # last: 1
        err = error(rho)
        x = size[:, :, None] * (np.log(rho)[:, :, None] - log_r)
        alias = np.exp(log_c + x - np.log(-np.expm1(x))).min(axis=2)
        total = alias + np.expm1(-(n - 1) * np.log(rho)) * err
    best = total.argmin(axis=1)
    fits = total[np.arange(sizes.size), best] <= tol
    i = int(np.argmax(fits)) if fits.any() else -1
    j = best[i] if fits.any() else -1
    return float(rho[i, j]), int(sizes[i]), float(err[i, j])


def per_column_scale_transform(group, x, scale_window, time_len: int,
                               tol: float) -> ScaleTimeSignal:
    """hardy.scale_transform as it was before its window pass, the reference
    for it: each column of the window in turn is certified from the plain
    sum (from the ladder's samples where that fails), gets its own (rho, N)
    and its own Horner pass and FFT; the first column that raises names its
    scale index."""
    x = hardy._as_coeffseq(x)
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
        try:
            mat = group.element(idx)
            col = hardy._exact_image(mat, x, tol)
            if col is None:
                circles = _column_plain_ladder(x.coeffs, mat)
                try:   # the samples only tighten P, so they serve where P fails
                    n_out, _, ladder = _column_certified_length(circles, tol)
                except hardy.TruncationError:
                    circles = _column_sampled_ladder(circles)
                    n_out, _, ladder = _column_certified_length(circles, tol)
                rho, size, _ = _column_head_grid(mat, x.coeffs, time_len, n_out, ladder, tol)
                col = _column_sample_head(mat, x.coeffs, time_len, size, rho)
            else:
                col = col.coeffs[:time_len]
        except hardy.TruncationError as exc:
            raise hardy.TruncationError(
                f"scale index {idx}: {exc}", exc.achieved_bound
            ) from exc
        except ValueError as exc:
            raise ValueError(f"scale index {idx}: {exc}") from exc
        column = (slice(0, len(col)),) + tuple(k - lo for k, lo in zip(idx, mins))
        dense[column] = col
    return ScaleTimeSignal._from_box(dense, mins)
