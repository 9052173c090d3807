"""Certified stability analyzers for double convolution systems.

Three system properties are analyzed: bounded input / bounded output gain,
energy dissipativity, and l1-to-l2 boundedness.  Torus suprema are
certified by refining cells (_certify_sup): the symbol is scaled by an
exact power of two and reduced to its difference lattice, one coarse FFT
grid gives a global bound by the grid inequality at spectral.grid_shrink,
and cells around the grid points are bounded by Taylor's theorem and
Bernstein's inequality, then halved until the bracket is decided, roundoff
included in the upper bound.  A precision question stops at relative
width tol, a threshold question once it is decided.  Every report carries
enough data (bounds, witnesses, grids, work) to replay the verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .convolve import double_convolve, group_convolve
from .signals import MAX_BOX_CELLS, ScaleSignal, ScaleTimeSignal, check_box, energy, zeros_box
from .spectral import _evaluate, _fft_error, _gamma, grid_shrink, torus_values

__all__ = [
    "OperatorNormBracket",
    "StabilityReport",
    "EmpiricalReport",
    "mult_operator_norm",
    "bibo_analysis",
    "adversarial_input",
    "dissipativity_check",
    "l1l2_gain",
    "empirical_verify",
    "resonant_input",
]

# work units a torus bracket may spend (see _certify_sup)
WORK_BUDGET = MAX_BOX_CELLS


@dataclass(frozen=True)
class OperatorNormBracket:
    """Two-sided bound on a torus supremum: lower <= sup <= upper.

    lower is |h| at witness_angles and upper covers the roundoff.
    certified means upper - lower <= tol lower for a precision question,
    and upper <= threshold for a threshold question.  grid_sizes is the
    coarse grid of the lattice-reduced symbol and evaluations the work
    units spent (see _certify_sup).
    """

    lower: float
    upper: float
    certified: bool
    grid_sizes: tuple = ()
    witness_angles: tuple = ()
    evaluations: int = 0


@dataclass
class StabilityReport:
    property: str
    verdict: str
    sufficient_upper: float | None = None
    necessary_lower: float | None = None
    sup_bracket: OperatorNormBracket | None = None
    gain: float | None = None
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EmpiricalReport:
    property: str
    trials: int
    seed: int
    bound: float
    max_ratio: float
    ok: bool
    analyzer_verdict: str


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1)).bit_length()


def _exponent(array: np.ndarray) -> int:
    """E such that array 2^-E, exact where normal, has its largest real or
    imaginary part in [1/2, 1): its np.frexp exponent, at least -1021 so
    that 2^-E is a double (0 for zeros).  Parts the scale would leave
    subnormal, a span over 2^1021, raise ValueError."""
    parts = np.abs([array.real, array.imag])
    scale = max(-1021, int(np.frexp(parts.max(initial=0.0))[1]))
    if ((parts > 0) & (parts < math.ldexp(1.0, scale - 1022))).any():
        raise ValueError("coefficient parts span more than 2^1021")
    return scale


def _scale_back(x: float, k: int, name: str, toward: float = 0.0) -> float:
    """x 2^k, one ulp toward toward where that is inexact (subnormal);
    ValueError naming the result where it is not a finite double."""
    if not math.isfinite(x) or math.frexp(x)[1] + k > 1024:
        raise ValueError(f"{name} {x!r} * 2^{k} is not a finite double")
    y = math.ldexp(x, k)
    return y if math.ldexp(y, -k) == x else math.nextafter(y, toward)


def _difference_lattice(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A basis L (rows) of the lattice spanned by e_j - e_0, the rows of
    exps less the first, and the coordinates m with e_j - e_0 = m_j L.

    L is the Hermite normal form of the differences (Cohen, A Course in
    Computational Algebraic Number Theory, Sec. 2.4), in exact integers.
    Column by column, Euclid's algorithm reduces every row by the one of
    least nonzero entry there, which moves last, until one row keeps an
    entry: made positive, that row is the column's pivot, and the basis
    rows above it are reduced into [0, pivot) there.  The steps are
    unimodular, and the form is unique: echelon, positive pivots, the
    identity when the lattice is Z^p.
    """
    diffs = exps - exps[0]
    rest, basis, cols = diffs.astype(object), [], []
    for col in range(diffs.shape[1]):
        while len(live := np.flatnonzero(rest[:, col])) > 1:
            pivot = rest[live[np.argmin(np.abs(rest[live, col]))]]
            rest = np.vstack([rest - (rest[:, col] // pivot[col])[:, None] * pivot, pivot])
        if len(live):
            row, rest = rest[live[0]], np.delete(rest, live[0], axis=0)
            row = row if row[col] > 0 else -row
            basis = [b - b[col] // row[col] * row for b in basis] + [row]
            cols.append(col)
    lattice = np.array(basis, np.int64).reshape(-1, diffs.shape[1])
    coords = np.empty((len(diffs), len(cols)), np.int64)
    for i, c in enumerate(cols):
        coords[:, i] = diffs[:, c] // lattice[i, c]
        diffs = diffs - coords[:, i:i + 1] * lattice[i]
    return lattice, coords


_CHUNK_CELLS = 1 << 18


def _weights(exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Columns c_j and i e_ja c_j: the coefficients of g = sum_j c_j
    e^{i e_j.theta} and of its partial derivatives."""
    return np.column_stack([coefs, 1j * exps * coefs[:, None]])


def _direct(points: np.ndarray, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """g and its gradient at each row theta of points: a (count, 1 + d)
    array, one chunk of rows at a time so that no temporary exceeds
    _CHUNK_CELLS cells."""
    weights = _weights(exps, coefs)
    exps = exps.T.astype(float)
    out = np.empty((len(points), weights.shape[1]), complex)
    rows = max(1, _CHUNK_CELLS // len(coefs))
    for start in range(0, len(points), rows):
        part = slice(start, start + rows)
        out[part] = np.einsum("ij,jk->ik", np.exp(1j * (points[part] @ exps)), weights)
    return out


def _direct_error(exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Bound on |computed - exact| in each column of _direct, at points whose
    coordinates have modulus below 8.

    The phase e_j.theta is a dot product of d terms, off by at most
    gamma_d 8 ||e_j||_1; cos and sin add an ulp each, so each character is
    off by tau <= that + 2 eps.  A gradient weight i e_ja c_j is off by u
    relative, and the complex inner product of K terms by
    2 gamma_{K+2} sum |w_j||z_j| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Sec. 3.6).  With S the weight sums
    sum_j |w_j|, the bound is S (tau + u_w (1 + tau)) + 2 gamma_{K+2} S
    (1 + u_w) (1 + tau), u_w = 0 for g and u for the gradient.
    """
    eps = float(np.finfo(float).eps)
    tau = _gamma(exps.shape[1]) * 8.0 * float(np.abs(exps).sum(axis=1).max()) + 2.0 * eps
    sums = np.abs(_weights(exps, coefs)).sum(axis=0)
    rel = np.r_[0.0, np.full(exps.shape[1], eps / 2.0)]
    gamma = 2.0 * _gamma(len(coefs) + 2)
    return sums * (tau + (rel + gamma * (1.0 + rel)) * (1.0 + tau))


def _cell_upper(vals: np.ndarray, err: np.ndarray, delta: np.ndarray, spread: float,
                widths: np.ndarray) -> np.ndarray:
    """Upper bound on |g| over each cell |phi - c| <= delta (per axis),
    given g and its gradient at the centre c (columns of vals) and their
    roundoff bounds err.

    P = |g|^2 is a trigonometric polynomial bounded by spread^2 >= sup |g|^2.
    On a segment c + t s, |s_a| <= delta_a, its frequencies have modulus at
    most N = sum_a n_a delta_a (n_a = widths_a - 1), so Bernstein's inequality
    for P - spread^2 / 2 (a function of exponential type N bounded by
    spread^2 / 2) bounds the second derivative by N^2 spread^2 / 2, and
    Taylor's theorem gives P <= P(c) + sum_a |d_a P(c)| delta_a
    + N^2 spread^2 / 4.  P(c) and d_a P(c) = 2 Re(conj(g) d_a g) are taken
    from the computed values with their roundoff; a final factor covers the
    rounding of the bound's own arithmetic.
    """
    eps = float(np.finfo(float).eps)
    g, grads = vals[:, 0], vals[:, 1:]
    mag = np.abs(g)
    bound = np.square(mag + err[0])
    for ga, ea, d in zip(grads.T, err[1:], delta):
        slope = 2.0 * (np.abs((g.conj() * ga).real) + mag * ea + (np.abs(ga) + ea) * err[0])
        bound += slope * d
    reach = float(np.dot(widths - 1, delta))
    bound += 0.25 * (spread * reach) ** 2
    return np.nextafter(np.sqrt(bound * (1.0 + 8.0 * (len(delta) + 2) * eps)), np.inf)


def _grid_bound(mags: np.ndarray, sizes, widths, norm: float) -> float:
    """sup |g| <= (grid max + e) / grid_shrink, rounded up: the grid
    inequality on the FFT grid values mags of g, whose coefficients have l2
    norm norm, with e = _fft_error covering their roundoff."""
    return math.nextafter((float(mags.max()) + _fft_error(sizes, norm))
                          / grid_shrink(widths, sizes), math.inf)


def _grid_angles(index, sizes) -> np.ndarray:
    """The angles 2 pi j / sizes of the grid points with flat index index."""
    return np.stack(np.unravel_index(index, sizes), -1) * (2.0 * math.pi / np.array(sizes))


def _certify_sup(array, tol, threshold=None) -> OperatorNormBracket:
    """Bracket the sup of |h| = |sum c_e e^{i e.theta}| over the torus.

    The K nonzero coefficients c_e form the dense box array; its origin
    changes no modulus.

    Scale.  The coefficients, and the threshold if any, are scaled by 2^-E,
    which puts the largest part in [1/2, 1) (_exponent), and lower and
    upper back by 2^E (_scale_back), as Blue's norm scales (ACM TOMS
    1978).  The scale is exact and every step below commutes with it, so
    any 2^k multiple gets the same witness angles and evaluations, and the
    squares in _cell_upper and the relative roundoff bounds stay in the
    normal range.  A box with at most one term is then exact, and any
    angle attains its sup.  Otherwise:

    Lattice.  The differences e_j - e_0 span a lattice with basis L (rows,
    _difference_lattice), e_j = e_0 + m_j L, so |h(theta)| = |g(L theta)|
    with g(phi) = sum_j c_j e^{i m_j.phi}, a polynomial in r <= p variables
    with the same sup (L has rank r, so theta -> L theta covers the r-torus).
    m is centred, so g has exponents in [-n_a / 2, n_a / 2] on axis a.

    Coarse level.  One FFT grid of M_a = next_pow2(4 w_a) points per axis
    (next_pow2(2 w_a - 1) if that exceeds the budget), w_a = n_a + 1, gives
    the Ehlich-Zeller bound spread = (grid_max + e) / grid_shrink(w, M) >=
    sup |g|, e = _fft_error covering the FFT roundoff, and r more FFTs give
    the gradient.  Each grid point is the centre of a cell of half-width
    pi / M_a.

    Cells.  A cell is bounded by _cell_upper.  It is dropped when its
    bound is at most (lower - s)(1 + tol), lower the largest |g| seen at a
    centre and s the roundoff of lower and of the reported witness value;
    with a threshold the cut is the threshold, and a centre above it
    decides a fail.  Every other cell is halved on every axis, and its 2^r
    children are evaluated directly (_direct, roundoff _direct_error); a
    child's half-width is rounded up by 16 eps so that the children cover
    their parent in floating point.

    Budget.  WORK_BUDGET, the constant MAX_BOX_CELLS = 2^24, counts work:
    one unit per grid point and K per evaluated cell.  No coarse grid
    exceeds MAX_BOX_CELLS (torus_values refuses it), so evaluations never
    exceed the budget.  The loop stops when no cell is left, when halving
    no longer shrinks a cell, (threshold) at a fail, or when a level would
    exceed the budget; then the units left buy the finest grid of g that
    fits, whose Ehlich-Zeller bound replaces spread where it is tighter
    and whose max may raise lower.  upper is the largest bound of a
    dropped or remaining cell, at most spread and never below lower, so it
    holds whenever the loop stops.  The witness solves L theta = phi* for the
    best centre phi*, and lower is |h| there, evaluated from the original
    exponents.  certified means upper - lower <= tol lower as computed
    (never, for a tol below the roundoff floor), or with a threshold
    upper <= threshold, and evaluations counts the units spent.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    scale = _exponent(array)
    array = array * 2.0 ** -scale
    threshold = None if threshold is None else threshold * 2.0 ** -scale
    back = lambda b: replace(b, lower=_scale_back(b.lower, scale, "lower"),
                             upper=_scale_back(b.upper, scale, "upper", math.inf))
    if np.count_nonzero(array) <= 1:
        value = float(np.abs(array).max(initial=0.0))
        return back(OperatorNormBracket(value, value, threshold is None or value <= threshold,
                                        witness_angles=(0.0,) * array.ndim))
    nonzero = np.nonzero(array)
    exps, coefs = np.stack(nonzero, -1), array[nonzero]
    lattice, m = _difference_lattice(exps)
    m -= (m.min(axis=0) + m.max(axis=0)) // 2
    widths = m.max(axis=0) - m.min(axis=0) + 1
    r, eps = len(widths), float(np.finfo(float).eps)

    sizes = tuple(_next_pow2(4 * w) for w in widths)
    if math.prod(sizes) > WORK_BUDGET:
        sizes = tuple(_next_pow2(2 * w - 1) for w in widths)
    # g's box under negated exponents: torus_values pairs e with e^{-i e.phi}
    top = m.max(axis=0)
    box = zeros_box(tuple(widths))
    cells = tuple((top - m).T)
    weights = _weights(m, coefs)
    vals = np.empty((math.prod(sizes), r + 1), complex)
    err = np.empty(r + 1)
    for col, w in enumerate(weights.T):
        box[cells] = w
        vals[:, col] = torus_values(box, tuple(-top), sizes).reshape(-1)
        err[col] = _fft_error(sizes, math.sqrt(energy(w)))
    # the gradient weights i m_ja c_j are rounded once, by at most u |m_ja c_j|
    err[1:] += eps / 2.0 * np.abs(weights[:, 1:]).sum(axis=0)
    norm = math.sqrt(energy(coefs))
    spread = _grid_bound(np.abs(vals[:, 0]), sizes, widths, norm)
    centres = _grid_angles(np.arange(len(vals)), sizes)
    delta = np.array([math.nextafter(math.pi / n, math.inf) for n in sizes])

    # |h| is evaluated about the centre of its box, the smallest phases
    shifted = exps - (exps.min(axis=0) + exps.max(axis=0)) // 2
    direct_err = _direct_error(m, coefs)
    slack = max(err[0], direct_err[0]) + _direct_error(shifted, coefs)[0]
    offsets = np.array(list(itertools.product((-0.5, 0.5), repeat=r)))
    units, lower, dropped = math.prod(sizes), -1.0, 0.0
    while True:
        ub = _cell_upper(vals, err, delta, spread, widths)
        mags = np.abs(vals[:, 0])
        best = int(np.argmax(mags))
        if mags[best] > lower:
            lower, witness = float(mags[best]), centres[best]
        if threshold is not None and lower > threshold:
            break
        cut = threshold if threshold is not None else (lower - slack) * (1.0 + tol)
        keep = ub > cut
        dropped = max(dropped, float(ub[~keep].max(initial=0.0)))
        centres, ub = centres[keep], ub[keep]
        child = delta / 2.0 + 16.0 * eps
        if not len(centres) or (child > 0.75 * delta).any():
            break
        if units + len(coefs) * len(offsets) * len(centres) > WORK_BUDGET:
            # a cell costs K units and a grid point one: the units left buy
            # the finest grid that fits, doubled where n_a / M_a is largest
            fine = list(sizes)
            while units + 2 * math.prod(fine) <= WORK_BUDGET:
                a = max(range(r), key=lambda a: (widths[a] - 1) / fine[a])
                fine[a] *= 2
            if fine != list(sizes):
                box[cells] = coefs
                mags = np.abs(torus_values(box, tuple(-top), fine)).reshape(-1)
                units += math.prod(fine)
                spread = min(spread, _grid_bound(mags, fine, widths, norm))
                best = int(np.argmax(mags))
                if mags[best] > lower:
                    lower, witness = float(mags[best]), _grid_angles(best, fine)
            break
        centres = (centres[:, None, :] + offsets * delta).reshape(-1, r)
        units += len(coefs) * len(centres)
        vals, err, delta = _direct(centres, m, coefs), direct_err, child
    angles = np.linalg.lstsq(lattice.astype(float), witness, rcond=None)[0] % (2.0 * math.pi)
    lower = float(abs(_direct(angles[None, :], shifted, coefs)[0, 0]))
    upper = max(lower, min(spread, max(dropped, float(ub.max(initial=0.0)))))
    certified = upper - lower <= tol * lower if threshold is None else upper <= threshold
    return back(OperatorNormBracket(lower, upper, certified, sizes, tuple(angles.tolist()), units))


def mult_operator_norm(h: ScaleSignal, tol: float = 1e-6) -> OperatorNormBracket:
    """Norm of the scale-convolution operator u -> h * u.

    Equals the torus supremum of the symbol: exactly for the two-sided
    operator, and, for a scale-causal h (polynomial symbol), also for its
    compression to the scale-causal cone by the maximum principle.
    """
    return _certify_sup(h.array, tol)


def _slice_bound(slices, tol: float) -> tuple[list, float, str]:
    """The slice operator-norm brackets, the sum of their uppers (a BIBO gain
    bound) and the verdict they support."""
    brackets = [mult_operator_norm(s, tol=tol) for s in slices]
    verdict = "pass" if all(b.certified for b in brackets) else "inconclusive"
    total = _scale_back(float(sum(b.upper for b in brackets)), 0, "sufficient_upper")
    return brackets, total, verdict


def _golden_max(f) -> float:
    """A maximizer of a concave f on [0, 1], by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    for _ in range(40):   # 0.618^40 < 1e-8
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        lo, hi = (lo, b) if f(a) >= f(b) else (a, hi)
    return (lo + hi) / 2.0


def _frank_wolfe(power: np.ndarray) -> dict:
    """Grid measure rho maximizing sum_n sqrt(m_n), m_n = sum_j rho_j power[n, j].

    The objective is concave in rho.  Conditional gradient (Frank and Wolfe,
    Naval Res. Logist. Q. 1956) from the best point mass: each step moves
    toward the point mass of largest gradient sum_n power[n, j] / sqrt(m_n),
    by a golden-section step length.  A row with m_n = 0 takes 1/sqrt(tiny),
    so a slice the atoms miss pulls hard and an all-zero one adds nothing.
    Returns {flat grid index: weight}.
    """
    j = int(np.argmax(sum(np.sqrt(row) for row in power)))
    rho, m = {j: 1.0}, power[:, j]
    value = float(np.sqrt(m).sum())
    for _ in range(100):
        pull = 1.0 / np.sqrt(np.maximum(m, np.finfo(float).tiny))
        j = int(np.argmax(np.einsum("n,nj->j", pull, power)))
        q = power[:, j]
        step = lambda g: float(np.sqrt((1.0 - g) * m + g * q).sum())
        g = _golden_max(step)
        gained = step(g)
        if gained <= value * (1.0 + 1e-12):
            break
        rho = {k: (1.0 - g) * w for k, w in rho.items()}
        rho[j] = rho.get(j, 0.0) + g
        m, value = (1.0 - g) * m + g * q, gained
    return rho


def bibo_analysis(h: ScaleTimeSignal, tol: float = 1e-6) -> StabilityReport:
    """Bracket the bounded-input / bounded-output gain.

    sufficient_upper sums the certified slice operator norms.  The gain is
    G = sup_rho sum_n (int |h_n|^2 drho)^(1/2) over probability measures rho
    on the torus, h_n the slice symbols.  The lower bound is deterministic:
    Frank-Wolfe (_frank_wolfe) picks rho among the measures on a grid, and
    one unit witness realizes it on a window of W_a cells on axis a, from o:
    v = sum_j sqrt(rho_j) c_j / ||c_j||, normalized, with c_j(k) =
    e^{i theta_j.(k - o + l)} prod_a sin(pi (k_a - o_a + 1) / (W_a + 1)) and
    l the support box's lower corner.  necessary_lower is sum_n ||M_n^* v||
    clipped to sufficient_upper; any unit v gives a valid lower bound.

    One grid of G_a = W_a + max(W_a, d_a) points per axis carries both the
    atoms and the value, d_a the width of the support box on axis a less
    one: twice the witness's resolution where W_a >= d_a, and no adjoint
    image (W_a + d_a cells per axis) wraps on it; an axis where h does not
    vary (d_a = 0) gets one point.  The powers and the value are taken from
    h 2^-E (_exponent), and the value is scaled back.  So, by Parseval,
    necessary_lower is sum_n sqrt(sum_j |h_n(theta_j)|^2 |v(theta_j)|^2 / N)
    over its N points, the Frank-Wolfe objective at v's own spectral measure.
    The window follows the support of h: W_a = 256 d_a + 1, with the widest
    axis halved (or cut to what fits) until the window has at most 2^16
    cells and the T slices' grid powers fit MAX_BOX_CELLS together,
    T prod_a G_a <= 2^24.  Where even one-cell windows do not fit, it raises
    ValueError before any slice is bracketed.  The taper spreads an atom
    over about pi / W_a and costs a relative (pi d_a / W_a)^2 / 8 at worst
    (the symbol (1 + z^d) / 2), about 2e-5 per axis where nothing was cut.
    character_angles is the heaviest atom and window_spans the window.  The
    witness is built at the origin o it is reported at: l, or for a
    scale-causal h (every exponent >= 0) the box's upper corner, which puts
    every adjoint image in the cone, where the cone compressions of the
    slice operators act on v as the two-sided ones do;
    adversarial_input(h, n, v) is then scale-causal too.
    """
    p = h.arity
    slices = h.slices
    lows, highs = h.support_box() or ((0,) * p, (0,) * p)
    widths = [256 * (hi - lo) + 1 for lo, hi in zip(lows, highs)]
    grid = lambda: tuple(w + max(w, hi - lo) * (hi > lo) for w, lo, hi in zip(widths, lows, highs))
    while math.prod(widths) > 1 << 16 or len(slices) * math.prod(grid()) > MAX_BOX_CELLS:
        a = widths.index(max(widths))
        if widths[a] == 1:
            raise ValueError(f"BIBO witness grid {grid()} for {len(slices)} slices "
                             f"exceeds MAX_BOX_CELLS = {MAX_BOX_CELLS}")
        fit = (1 << 16) // (math.prod(widths) // widths[a])
        widths[a] = max(fit, widths[a] // 2) if fit < widths[a] else widths[a] // 2
    sizes = grid()
    brackets, sufficient_upper, verdict = _slice_bound(slices, tol)

    origin = highs if h.is_cone_supported() else lows
    # |h_n|^2 2^-2E on the grid: the adjoint images of the character
    # e^{i k.theta} have norms |sum_k h_n(k) e^{-i k.theta}|, the convention
    # of torus_values
    scale = _exponent(h.stack.array)
    power = np.zeros((len(slices), math.prod(sizes)))
    for row, s in zip(power, slices):
        np.square(np.abs(torus_values(s.array * 2.0 ** -scale, s.origin, sizes)).ravel(), out=row)
    rho = _frank_wolfe(power)
    angles = {j: tuple(2.0 * math.pi * int(i) / n
                       for i, n in zip(np.unravel_index(j, sizes), sizes)) for j in rho}

    exps = np.ix_(*[lo + np.arange(w) for lo, w in zip(lows, widths)])
    taper = math.prod(np.sin(math.pi * k / (w + 1))
                      for k, w in zip(np.ix_(*[np.arange(1, w + 1) for w in widths]), widths))
    v = taper * sum(math.sqrt(w) * np.exp(1j * sum(t * e for t, e in zip(angles[j], exps)))
                    for j, w in rho.items())
    v *= 1.0 / math.sqrt(energy(v))
    # ||M_n^* v||^2 by Parseval: the image's symbol is conj(hhat_n) vhat
    power *= np.square(np.abs(torus_values(v, lows, sizes))).ravel() / math.prod(sizes)
    value = sum(math.sqrt(m) for m in power.sum(axis=1).tolist())

    return StabilityReport(
        property="bibo",
        verdict=verdict,
        sufficient_upper=sufficient_upper,
        necessary_lower=min(_scale_back(value, scale, "necessary_lower"), sufficient_upper),
        witnesses={"maximizer": ScaleSignal._from_box(v, origin),
                   "character_angles": angles[max(rho, key=rho.get)]},
        details={
            "slice_brackets": brackets,
            "certified": verdict == "pass",
            "window_spans": [(o, o + w - 1) for o, w in zip(origin, widths)],
        },
    )


def adversarial_input(h: ScaleTimeSignal, n: int, v: ScaleSignal) -> ScaleTimeSignal:
    """Worst-case input aligned with the adjoint images of a unit vector.

    u_m is the normalized image of v under the adjoint of convolution by
    h_{n-m} (zero where that image vanishes).  Feeding u through the system
    makes <y_n, v> equal the partial adjoint-norm sum, which witnesses the
    gain from below.
    """
    if abs(v.l2_norm() - 1.0) > 1e-12:
        raise ValueError("v must have unit norm")
    n = int(n)
    if n < 0:
        raise ValueError("time index must be nonnegative")
    slices = []
    for m in range(n + 1):
        image = group_convolve(h.slice(n - m).adjoint_reflect(), v)  # zero beyond h's last step
        norm = image.l2_norm()
        slices.append(image.scaled(1.0 / norm) if norm > 0.0 else image)
    return ScaleTimeSignal(slices, arity=h.arity)


def _threshold_verdict(bracket: OperatorNormBracket, tol: float) -> str:
    """The answer a sup bracket gives to "is sup |h| <= 1 + tol?"."""
    if bracket.lower > 1.0 + tol:
        return "fail"
    return "pass" if bracket.upper <= 1.0 + tol else "inconclusive"


def dissipativity_check(h: ScaleTimeSignal, tol: float = 1e-9) -> StabilityReport:
    """Certify or refute contractivity of the transfer function.

    Brackets the supremum of the (p+1)-variable symbol over the torus
    (which bounds the polydisc supremum) only as far as the threshold
    1 + tol needs: passes once every cell's bound, roundoff included, is
    <= 1 + tol, and fails with a witness once a cell centre's value
    exceeds it.  tol is the slack in the threshold, not a precision
    target, so a pass may come from coarse cells with a loose upper bound.
    For scale-causal systems, the kernel (1 - g(z) conj(g(w))) / prod_a
    (1 - z_a conj(w_a)) of g = h / (1 + tol), positive if sup |h| <= 1 + tol,
    is sampled on 20 fixed sets of 12 points: gram_bug marks a pass with
    an eigenvalue below -tol, which only an analyzer fault can cause.
    """
    stack = h.stack
    bracket = _certify_sup(stack.array, tol, threshold=1.0 + tol)
    verdict = _threshold_verdict(bracket, tol)

    witnesses: dict = {}
    if verdict == "fail":
        witnesses["argmax_angles"] = bracket.witness_angles
        witnesses["argmax_value"] = bracket.lower

    details: dict = {"tol": tol}
    if h.is_cone_supported():
        # radius 0.9 sqrt(U), angle 2 pi V per variable, from one seed-0 stream
        draws = np.random.default_rng(0).random((20, 2, 12, h.arity + 1))
        pts = 0.9 * np.sqrt(draws[:, 0]) * np.exp(1j * (2.0 * math.pi * draws[:, 1]))
        g = _evaluate(stack.array, stack.origin, pts.reshape(240, -1)) / (1 + tol)
        # products of disc Szego kernels 1 / (1 - z_i conj(z_j)), one per variable
        kern = np.prod(1.0 / (1.0 - pts[:, :, None, :] * pts[:, None, :, :].conj()), axis=3)
        gram = (1.0 - g.reshape(20, 12, 1) * g.conj().reshape(20, 1, 12)) * kern
        gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))
        gram_min = float(np.linalg.eigvalsh(gram)[:, 0].min())
        details["gram_min_eigenvalue"] = gram_min
        if verdict == "pass" and gram_min < -tol:
            details["gram_bug"] = True
    else:
        details["gram"] = "skipped (not scale-causal)"

    return StabilityReport(
        property="dissipative",
        verdict=verdict,
        sup_bracket=bracket,
        witnesses=witnesses,
        details=details,
    )


def l1l2_gain(h: ScaleTimeSignal) -> StabilityReport:
    """Gain of the l1-in-time to l2-in-time map: the coefficient l2 norm.

    The transfer function lies in the tensor Hardy space exactly when this
    sum is finite, and the squared norm is the plain coefficient energy;
    the Hermite-side statement gives the same number.  It is summed over
    h 2^-E (_exponent) and scaled back, each value a finite double or a
    ValueError.
    """
    scale = _exponent(h.stack.array)
    total = float(energy(h.stack.array * 2.0 ** -scale))
    return StabilityReport(
        property="l1_l2",
        verdict="pass",
        gain=_scale_back(math.sqrt(total), scale, "gain"),
        details={"coefficient_energy": _scale_back(total, 2 * scale, "coefficient_energy")},
    )


def resonant_input(arity: int, time_len: int, phi: float, thetas=(),
                   box=None) -> ScaleTimeSignal:
    """Unit-energy input concentrated at one symbol frequency.

    u_m(k) = e^{-i(m phi + k.theta)} on [0, time_len) x box, normalized to
    total energy one; thetas=() means theta = 0, and box (one (lo, hi) per
    axis) the origin.  Away from the window's edges h scales it by
    generalized_transfer(h, e^{i phi}, e^{i theta}) =
    sum c_e e^{+i e.(phi, theta)}, so dissipativity_check's argmax replays.
    """
    if time_len < 1:
        raise ValueError(f"time_len must be >= 1, got {time_len!r}")
    thetas = tuple(float(t) for t in thetas) or (0.0,) * arity
    if len(thetas) != arity:
        raise ValueError(f"resonant_input needs {arity} angles, got {len(thetas)}")
    box = [(int(lo), int(hi)) for lo, hi in box] if box is not None else [(0, 0)] * arity
    if len(box) != arity or any(lo > hi for lo, hi in box):
        raise ValueError(f"box must hold {arity} (lo, hi) ranges with lo <= hi, got {box!r}")
    origin = tuple(lo for lo, _ in box)
    widths = tuple(hi - lo + 1 for lo, hi in box)
    shape = check_box((time_len,) + widths)
    exps = np.ix_(*[o + np.arange(n) for o, n in zip((0,) + origin, shape)])
    phase = exps[0] * phi + sum(e * t for e, t in zip(exps[1:], thetas))
    amp = 1.0 / math.sqrt(math.prod(shape))
    return ScaleTimeSignal._from_box(amp * np.exp(-1j * phase), origin)


_NORM_BY_PROPERTY = {"bibo": "sup_l2", "dissipative": "energy", "l1_l2": "l1_l2"}


def empirical_verify(h: ScaleTimeSignal, property: str, trials: int,
                     seed: int) -> EmpiricalReport:
    """Monte-Carlo check of an analyzer bound on seeded random inputs.

    Draws complex Gaussian inputs on a fixed support, normalizes them in
    the property's input norm, runs the double convolution, and compares
    the observed gain with the certified bound.  A ratio above 1 + 1e-9
    indicates an analyzer bug, since the bounds are theorems.
    """
    prop = property.replace("-", "_")
    if prop == "l1l2":
        prop = "l1_l2"
    if prop not in _NORM_BY_PROPERTY:
        raise ValueError(f"unknown property {property!r}")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = h.arity
    if prop == "bibo":
        _, bound, verdict = _slice_bound(h.slices, 1e-6)
        measure = lambda y: y.norm("sup_l2")
    elif prop == "dissipative":
        # the verdict of dissipativity_check(h, 1e-6), without its Gram sample
        bracket = _certify_sup(h.stack.array, 1e-6, threshold=1.0 + 1e-6)
        verdict = _threshold_verdict(bracket, 1e-6)
        if verdict == "pass":   # checked against the precision bracket's bound
            bracket = _certify_sup(h.stack.array, 1e-6)
        bound = bracket.upper ** 2
        measure = lambda y: y.norm("energy")
    else:
        report = l1l2_gain(h)
        bound, verdict = report.gain, report.verdict
        measure = lambda y: math.sqrt(y.norm("energy"))

    mins, maxs = h.support_box() or ((0,) * p, (0,) * p)
    origin = tuple(min(0, lo) - 1 for lo in mins)
    time_len = max(3, h.time_len)
    shape = check_box((time_len,) + tuple(hi + 2 - lo for lo, hi in zip(origin, maxs)))
    cells = math.prod(shape[1:])
    rng = np.random.default_rng(seed)

    max_ratio = 0.0
    for _ in range(trials):
        # per time step: the real parts, then the imaginary parts
        draws = rng.standard_normal((time_len, 2, cells))
        vals = (draws[:, 0] + 1j * draws[:, 1]).reshape(shape)
        unorm = ScaleTimeSignal._from_box(vals, origin).norm(_NORM_BY_PROPERTY[prop])
        if prop == "dissipative":
            unorm = math.sqrt(unorm)
        u = ScaleTimeSignal._from_box(vals * (1.0 / unorm), origin)
        observed = measure(double_convolve(h, u))
        if bound == 0.0:
            ratio = 0.0 if observed == 0.0 else math.inf
        else:
            ratio = observed / bound
        max_ratio = max(max_ratio, ratio)

    return EmpiricalReport(
        property=prop,
        trials=trials,
        seed=int(seed),
        bound=float(bound),
        max_ratio=float(max_ratio),
        ok=bool(max_ratio <= 1.0 + 1e-9),
        analyzer_verdict=verdict,
    )
