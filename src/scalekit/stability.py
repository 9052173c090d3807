"""Certified stability analyzers for double convolution systems.

Three system properties are analyzed: bounded input / bounded output gain,
energy dissipativity, and l1-to-l2 boundedness.  Torus suprema are
certified on uniform grids by the grid inequality stated at
spectral.grid_shrink, FFT roundoff included in the upper bound: a
precision question is answered on one grid chosen from the box widths, a
threshold question on doubling grids until it is decided.  Every report
carries enough data (bounds, witnesses, grids, seeds) to replay the
verdict.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .convolve import box_convolve, double_convolve, group_convolve
from .signals import MAX_BOX_CELLS, ScaleSignal, ScaleTimeSignal, check_box
from .spectral import _evaluate, grid_shrink, torus_values

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
    "GRID_BUDGET_ENV",
]

GRID_BUDGET_ENV = "SCALEKIT_MAX_GRID"


def _grid_budget() -> int:
    budget = int(os.environ.get(GRID_BUDGET_ENV) or MAX_BOX_CELLS)
    if budget > MAX_BOX_CELLS:
        raise ValueError(f"grid budget {budget} exceeds MAX_BOX_CELLS = {MAX_BOX_CELLS}")
    return budget


@dataclass(frozen=True)
class OperatorNormBracket:
    """Two-sided bound on a torus supremum: lower <= sup <= upper.

    lower is a grid value and upper covers the FFT roundoff.  certified
    means upper - lower <= tol lower for a precision question, and
    upper <= threshold for a threshold question (see _certify_sup).
    """

    lower: float
    upper: float
    certified: bool
    grid_sizes: tuple = ()
    witness_angles: tuple = ()


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


def _exponents(origin, shape) -> list:
    """Per-axis exponent arrays of a box, shaped to broadcast against it."""
    p = len(shape)
    return [(o + np.arange(n)).reshape((-1,) + (1,) * (p - 1 - a))
            for a, (o, n) in enumerate(zip(origin, shape))]


def _fft_error(sizes, norm: float) -> float:
    """Bound on |computed - exact| at every point of an FFT grid.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2) bounds the l2 error of a radix-2 FFT of N points by
    L eta / (1 - L eta) ||y||_2, L = log2 N and eta = mu + gamma_4 (sqrt 2 + mu),
    mu the error of the twiddle factors, taken as one eps.  A
    multidimensional FFT runs one such FFT per axis, and the per-axis
    factors multiply to at most the bound with L = sum_a log2 M_a.  Parseval
    gives ||y||_2 = sqrt(N) norm, norm the l2 norm of the folded
    coefficients, and the l2 error bounds the error at each point.
    """
    eps = float(np.finfo(float).eps)
    gamma4 = 2.0 * eps / (1.0 - 2.0 * eps)   # 4 u / (1 - 4 u), u = eps / 2
    eta = eps + gamma4 * (math.sqrt(2.0) + eps)
    steps = sum(int(m).bit_length() - 1 for m in sizes) * eta
    return steps / (1.0 - steps) * math.sqrt(math.prod(sizes)) * norm


def _certify_sup(array, origin, tol, threshold=None) -> OperatorNormBracket:
    """Bracket the sup of |h| = |sum c_e e^{i e.theta}| over the torus.

    The coefficients c_e form the dense box (array, origin), of width w_a
    on axis a.  On a grid of M_a points per axis, lower = grid_max and
    upper = (grid_max + e) / grid_shrink(widths, sizes), rounded up: the
    grid inequality of spectral.grid_shrink, with e = _fft_error(sizes,
    ||c||_2) covering the FFT roundoff in the grid values (no exponents
    fold, since M_a >= w_a).  e >= L eta grid_max, many ulps of grid_max,
    so it also covers the rounding of |.|, of ||c||_2 and of grid_shrink.
    lower carries no roundoff term.  The first grid has
    M_a = next_pow2(max(2 w_a - 1, 8)) > 2 (w_a - 1), so the inequality
    holds from the start and doubling keeps it.

    The tolerance grid is the first doubling on which
    (1 + _fft_error(sizes, 1)) / grid_shrink - 1 <= tol, else the last one
    within the point budget.  As grid_max >= ||c||_2 (Parseval), it bounds
    (upper - lower) / lower by tol, roundoff included, before any FFT runs.
    Without a threshold only that grid is evaluated, and certified means
    upper - lower <= tol lower as computed (never, for a tol below the
    roundoff floor).  With a threshold the grids up to it are evaluated in
    turn until grid_max > threshold or upper <= threshold, certified means
    upper <= threshold, and tol is the slack in the threshold.  A box with
    at most one term is exact, and any angle attains its sup.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    budget = _grid_budget()
    if np.count_nonzero(array) <= 1:
        value = float(np.abs(array).max(initial=0.0))
        return OperatorNormBracket(value, value, threshold is None or value <= threshold,
                                   witness_angles=(0.0,) * array.ndim)
    norm = float(np.linalg.norm(array))
    # torus_values pairs e with e^{-i e.theta}: the flipped box with negated
    # exponents gives the e^{+i e.theta} symbol, whose grid argmax is the
    # reported witness
    array = array[(slice(None, None, -1),) * array.ndim]
    origin = tuple(-(o + n - 1) for o, n in zip(origin, array.shape))
    grids = [tuple(_next_pow2(max(2 * w - 1, 8)) for w in array.shape)]
    while ((1.0 + _fft_error(grids[-1], 1.0)) / grid_shrink(array.shape, grids[-1]) - 1.0 > tol
           and math.prod(grids[-1]) * 2 ** array.ndim <= budget):
        grids.append(tuple(2 * n for n in grids[-1]))
    for sizes in grids if threshold is not None else grids[-1:]:
        mags = np.abs(torus_values(array, origin, sizes))
        pos = np.unravel_index(int(np.argmax(mags)), sizes)
        lower = float(mags[pos])
        del mags
        upper = math.nextafter((lower + _fft_error(sizes, norm)) / grid_shrink(array.shape, sizes),
                               math.inf)
        if threshold is not None and (lower > threshold or upper <= threshold):
            break
    certified = upper - lower <= tol * lower if threshold is None else upper <= threshold
    angles = tuple(float(2.0 * math.pi * j / n) for j, n in zip(pos, sizes))
    return OperatorNormBracket(lower, upper, certified, sizes, angles)


def mult_operator_norm(h: ScaleSignal, tol: float = 1e-6) -> OperatorNormBracket:
    """Norm of the scale-convolution operator u -> h * u.

    Equals the torus supremum of the symbol: exactly for the two-sided
    operator, and, for a scale-causal h (polynomial symbol), also for its
    compression to the scale-causal cone by the maximum principle.
    """
    return _certify_sup(h.array, h.origin, tol)


def _slice_bound(h: ScaleTimeSignal, tol: float) -> tuple[list, float, str]:
    """The slice operator-norm brackets, the sum of their uppers (a BIBO gain
    bound) and the verdict they support."""
    brackets = [mult_operator_norm(s, tol=tol) for s in h.slices]
    verdict = "pass" if all(b.certified for b in brackets) else "inconclusive"
    return brackets, float(sum(b.upper for b in brackets)), verdict


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
        j = int(np.argmax((1.0 / np.sqrt(np.maximum(m, np.finfo(float).tiny))) @ power))
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
    one unit witness realizes it on a window of W_a cells on axis a:
    v = sum_j sqrt(rho_j) c_j / ||c_j||, normalized, c_j the character at
    atom theta_j tapered by prod_a sin(pi (k_a - o_a + 1) / (W_a + 1)).
    necessary_lower is sum_n ||M_n^* v|| clipped to sufficient_upper; any
    unit v gives a valid lower bound.

    The window follows the support of h: W_a = 256 d_a + 1, d_a the width
    of the support box on axis a less one, with the widest axis halved (or
    cut to what fits) until the window has at most 2^16 cells.  The taper
    spreads an atom over about pi / W_a and costs a relative
    (pi d_a / W_a)^2 / 8 at worst (the symbol (1 + z^d) / 2), about 2e-5 per
    axis where nothing was cut.  The grid has
    min(2 W_a, 2^floor(log2(2^24 / T) / p)) points per axis: twice the
    witness's resolution, and few enough that the T slices' grid powers fit
    MAX_BOX_CELLS together.
    character_angles is the heaviest atom and window_spans the window.  For
    a scale-causal h (every exponent >= 0) the witness and window_spans are
    translated into the cone, where the cone compressions of the slice
    operators act on v as the two-sided ones do; adversarial_input(h, n, v)
    is then scale-causal too.
    """
    p = h.arity
    slices = h.slices
    brackets, sufficient_upper, verdict = _slice_bound(h, tol)

    lows, highs = h.support_box() or ((0,) * p, (0,) * p)
    widths = [256 * (hi - lo) + 1 for lo, hi in zip(lows, highs)]
    while math.prod(widths) > 1 << 16:
        a = widths.index(max(widths))
        widths[a] = max((1 << 16) // (math.prod(widths) // widths[a]), widths[a] // 2)
    cap = 1 << ((MAX_BOX_CELLS // max(1, len(slices))).bit_length() - 1) // p
    sizes = tuple(min(2 * w, cap) for w in widths)
    # |h_n|^2 on the grid: the adjoint images of the character e^{i k.theta}
    # have norms |sum_k h_n(k) e^{-i k.theta}|, the convention of torus_values
    power = np.zeros((len(slices), math.prod(sizes)))
    for row, s in zip(power, slices):
        np.square(np.abs(torus_values(s.array, s.origin, sizes)).ravel(), out=row)
    rho = _frank_wolfe(power)
    angles = {j: tuple(2.0 * math.pi * int(i) / n
                       for i, n in zip(np.unravel_index(j, sizes), sizes)) for j in rho}

    exps = _exponents(lows, widths)
    taper = math.prod(np.sin(math.pi * k / (w + 1))
                      for k, w in zip(_exponents((1,) * p, widths), widths))
    v = taper * sum(math.sqrt(w) * np.exp(1j * sum(t * e for t, e in zip(angles[j], exps)))
                    for j, w in rho.items())
    v *= 1.0 / np.linalg.norm(v)
    value = sum(float(np.linalg.norm(box_convolve(s.adjoint_reflect().array, v)))
                for s in slices)

    maximizer = ScaleSignal._from_box(v, lows)
    spans = [(lo, lo + w - 1) for lo, w in zip(lows, widths)]
    if h.is_cone_supported():
        # a translation changes no norm, and this one puts every adjoint image in the cone
        shift = [max(0, hi - lo) for hi, lo in zip(highs, maximizer.origin)]
        maximizer = ScaleSignal._from_box(
            maximizer.array, tuple(o + d for o, d in zip(maximizer.origin, shift)))
        spans = [(lo + d, hi + d) for (lo, hi), d in zip(spans, shift)]

    return StabilityReport(
        property="bibo",
        verdict=verdict,
        sufficient_upper=sufficient_upper,
        necessary_lower=float(min(value, sufficient_upper)),
        witnesses={"maximizer": maximizer,
                   "character_angles": angles[max(rho, key=rho.get)]},
        details={
            "slice_brackets": brackets,
            "certified": verdict == "pass",
            "window_spans": spans,
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


def _sample_polydisc(rng, count: int, dims: int, radius: float = 0.9) -> np.ndarray:
    r = radius * np.sqrt(rng.random((count, dims)))
    phi = 2.0 * math.pi * rng.random((count, dims))
    return r * np.exp(1j * phi)


def dissipativity_check(h: ScaleTimeSignal, sample_count: int = 20, tol: float = 1e-9,
                        points_per_set: int = 12, seed: int = 0) -> StabilityReport:
    """Certify or refute contractivity of the transfer function.

    Brackets the supremum of the (p+1)-variable symbol over the torus
    (which bounds the polydisc supremum) only as far as the threshold
    1 + tol needs: passes once the upper bound, FFT roundoff included, is
    <= 1 + tol, and fails with a grid witness once the lower bound (a grid
    value) exceeds it.  tol is the slack in the threshold, not a precision
    target, so a pass may come from a coarse grid with a loose upper bound.
    For scale-causal systems, additionally checks positivity of the
    contractivity kernel against products of disc reproducing kernels on
    random point sets.
    """
    stack = h.stack
    bracket = _certify_sup(stack.array, stack.origin, tol, threshold=1.0 + tol)

    witnesses: dict = {}
    if bracket.lower > 1.0 + tol:
        verdict = "fail"
        witnesses["argmax_angles"] = bracket.witness_angles
        witnesses["argmax_value"] = bracket.lower
    elif bracket.upper <= 1.0 + tol:
        verdict = "pass"
    else:
        verdict = "inconclusive"

    details: dict = {"seed": seed, "tol": tol, "sample_count": sample_count,
                     "points_per_set": points_per_set}
    if sample_count > 0 and h.is_cone_supported() and not h.is_zero:
        rng = np.random.default_rng(seed)
        gram_min = math.inf
        for _ in range(sample_count):
            pts = _sample_polydisc(rng, points_per_set, h.arity + 1)
            hv = _evaluate(stack.array, stack.origin, pts)
            # products of disc Szego kernels 1 / (1 - z_i conj(z_j)), one per variable
            kern = np.prod(1.0 / (1.0 - pts[:, None, :] * pts[None, :, :].conj()), axis=2)
            gram = (1.0 - hv[:, None] * hv.conj()[None, :]) * kern
            gram = 0.5 * (gram + gram.conj().T)
            gram_min = min(gram_min, float(np.linalg.eigvalsh(gram)[0]))
        details["gram_min_eigenvalue"] = gram_min
        if verdict == "pass" and gram_min < -tol:
            details["gram_bug"] = True
    elif sample_count > 0:
        details["gram"] = "skipped (not scale-causal)"
    else:
        details["gram"] = "skipped (no samples requested)"

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
    the Hermite-side statement gives the same number.
    """
    total = float(sum(np.vdot(s.array, s.array).real for s in h.slices))
    gain = math.sqrt(total)
    return StabilityReport(
        property="l1_l2",
        verdict="pass",
        gain=gain,
        details={"coefficient_energy": total},
    )


def resonant_input(arity: int, time_len: int, phi: float, thetas=(),
                   box=None) -> ScaleTimeSignal:
    """Unit-energy input concentrated at one symbol frequency.

    u_m(k) = e^{-i(m phi + k.theta)} on [0, time_len) x box, normalized to
    total energy one; thetas=() means theta = 0.  Away from the window's
    edges h scales it by generalized_transfer(h, e^{i phi}, e^{i theta}) =
    sum c_e e^{+i e.(phi, theta)}, so dissipativity_check's argmax replays.
    """
    if time_len < 1:
        raise ValueError(f"time_len must be >= 1, got {time_len!r}")
    thetas = tuple(float(t) for t in thetas) or (0.0,) * arity
    if len(thetas) != arity:
        raise ValueError(f"resonant_input needs {arity} angles, got {len(thetas)}")
    origin = tuple(int(lo) for lo, _ in box) if box else (0,) * arity
    widths = tuple(int(hi) - int(lo) + 1 for lo, hi in box) if box else (1,) * arity
    shape = check_box((time_len,) + widths)
    exps = _exponents((0,) + origin, shape)
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
        _, bound, verdict = _slice_bound(h, 1e-6)
        measure = lambda y: y.norm("sup_l2")
    elif prop == "dissipative":
        report = dissipativity_check(h, tol=1e-6, sample_count=0, seed=seed)
        bound, verdict = report.sup_bracket.upper ** 2, report.verdict
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
