"""Shared random generators for the test suite, and a named-pipe reader.

Everything is seeded through numpy Generators so failures reproduce.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

from scalekit import CoeffSeq, ScaleSignal, ScaleTimeSignal, SuMatrix, make_scale_shift


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
