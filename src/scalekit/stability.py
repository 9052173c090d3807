"""Certified stability analyzers for double convolution systems.

Three system properties are analyzed: bounded input / bounded output gain,
energy dissipativity, and l1-to-l2 boundedness.  Torus suprema are
certified on auto-refining uniform grids by one inequality (Ehlich and
Zeller, Math. Z. 1964): a real trigonometric polynomial of degree <= n_a
in theta_a, sampled on M_a > 2 n_a equispaced points per axis, has
supremum at most its grid maximum over prod_a cos(pi n_a / M_a), the
constant applied axis by axis.  |h|^2 is such a polynomial with n_a the
support width minus one.  FFT roundoff is not yet inside the bound.  Every
report carries enough data (bounds, witnesses, grids, seeds) to replay the
verdict.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .convolve import box_convolve, double_convolve
from .signals import (
    MAX_BOX_CELLS, ScaleSignal, ScaleTimeSignal, check_box, cone_box, overlap, zeros_box,
)
from .spectral import _evaluate, torus_values

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
    "DEFAULT_GRID_BUDGET",
    "GRID_BUDGET_ENV",
]

DEFAULT_GRID_BUDGET = MAX_BOX_CELLS
GRID_BUDGET_ENV = "SCALEKIT_MAX_GRID"

# bibo_analysis: window margin per axis for p = 1, 2, >= 3; ascent steps per start
WINDOW_MARGINS = (24, 5, 3)
ASCENT_ITERS = 300


def _grid_budget(override=None) -> int:
    if override is None:
        override = os.environ.get(GRID_BUDGET_ENV) or DEFAULT_GRID_BUDGET
    if int(override) > MAX_BOX_CELLS:
        raise ValueError(f"grid budget {override} exceeds MAX_BOX_CELLS = {MAX_BOX_CELLS}")
    return int(override)


@dataclass(frozen=True)
class OperatorNormBracket:
    """Two-sided bound on a torus supremum: lower <= sup <= upper."""

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


def _certify_sup(array, origin, min_sizes, tol, budget,
                 fail_above=None) -> OperatorNormBracket:
    """Bracket the sup of |h| = |sum c_e e^{i e.theta}| over the torus.

    The coefficients c_e form the dense box (array, origin), of width w_a
    on axis a, so |h|^2 is a real trigonometric polynomial of degree at
    most n_a = w_a - 1 in theta_a.  The grid inequality of Ehlich and
    Zeller: a real trigonometric polynomial T of degree <= n in one
    variable satisfies sup|T| <= max_j |T(theta_j)| / cos(pi n / M) on any
    M > 2n equispaced points theta_j.  Applied axis by axis (free one axis
    at a time, the others held on their grid values),

        sup|h|^2 <= max_grid|h|^2 / prod_a cos(pi n_a / M_a),   M_a > 2 n_a,

    and upper = grid_max / sqrt(prod_a cos(pi n_a / M_a)).  The first grid
    has M_a = next_pow2(max(2 w_a - 1, min_sizes[a], 8)), so the hypothesis
    holds from the start and doubling keeps it.  Grids double until the
    bracket is within a tol fraction of the grid max or the point budget is
    exceeded.  If fail_above is given and the grid max passes it, the sweep
    stops early (the lower bound already decides the verdict).  A box with
    at most one term is exact.  FFT roundoff is not yet inside the bound.
    """
    if np.count_nonzero(array) <= 1:
        value = float(np.abs(array).max(initial=0.0))
        return OperatorNormBracket(value, value, True)
    # torus_values pairs e with e^{-i e.theta}: the flipped box with negated
    # exponents gives the e^{+i e.theta} symbol, whose grid argmax is the
    # reported witness
    array = array[(slice(None, None, -1),) * array.ndim]
    origin = tuple(-(o + n - 1) for o, n in zip(origin, array.shape))
    sizes = tuple(_next_pow2(max(2 * w - 1, int(m), 8))
                  for w, m in zip(array.shape, min_sizes))
    while True:
        mags = np.abs(torus_values(array, origin, sizes))
        pos = np.unravel_index(int(np.argmax(mags)), sizes)
        grid_max = float(mags[pos])
        del mags
        angles = tuple(float(2.0 * math.pi * j / n) for j, n in zip(pos, sizes))
        shrink = math.prod(math.cos(math.pi * (w - 1) / n)
                           for w, n in zip(array.shape, sizes))
        upper = grid_max / math.sqrt(shrink)
        if fail_above is not None and grid_max > fail_above:
            return OperatorNormBracket(grid_max, upper, False, sizes, angles)
        if upper - grid_max <= tol * grid_max:
            return OperatorNormBracket(grid_max, upper, True, sizes, angles)
        doubled = tuple(2 * n for n in sizes)
        if math.prod(doubled) > budget:
            return OperatorNormBracket(grid_max, upper, False, sizes, angles)
        sizes = doubled


def mult_operator_norm(h: ScaleSignal, cone: bool = False, tol: float = 1e-6,
                       max_grid=None) -> OperatorNormBracket:
    """Norm of the scale-convolution operator u -> h * u.

    Equals the torus supremum of the symbol in both settings: exactly for
    the two-sided operator, and via the maximum principle for the
    compression to the scale-causal cone (polynomial symbol).
    """
    if cone and not h.is_cone_supported():
        raise ValueError("symbol not scale-causal")
    return _certify_sup(h.array, h.origin, (0,) * h.arity, tol, _grid_budget(max_grid))


def _box_apply(kernel, box, cone: bool):
    """Convolve the (array, origin) box by a kernel box, then project onto
    the scale-causal cone if asked."""
    (k, k_origin), (x, x_origin) = kernel, box
    out = box_convolve(k, x), tuple(a + b for a, b in zip(k_origin, x_origin))
    return cone_box(*out) if cone else out


def _bibo_objective(adjoints, v, cone: bool) -> tuple[float, list]:
    images = [_box_apply(adj, v, cone) for adj in adjoints]
    return sum(float(np.linalg.norm(img)) for img, _ in images), images


def _bibo_ascent(kernels, adjoints, v, cone: bool, window):
    """Monotone fixed-point ascent of v -> sum_n ||M_n^* v|| on the unit
    sphere of the window subspace.

    v and the kernels are (array, origin) boxes; window is the (origin,
    shape) of the box the ascent projects onto.
    """
    w_origin, w_shape = window
    value, images = _bibo_objective(adjoints, v, cone)
    for _ in range(ASCENT_ITERS):
        g = zeros_box(w_shape)
        for kernel, (image, origin) in zip(kernels, images):
            norm = float(np.linalg.norm(image))
            if norm == 0.0:
                continue
            forward, f_origin = _box_apply(kernel, (image * (1.0 / norm), origin), cone)
            cuts = overlap(w_origin, w_shape, f_origin, forward.shape)
            if cuts is not None:
                g[cuts[0]] += forward[cuts[1]]
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        v_next = (g * (1.0 / gn), w_origin)
        next_value, next_images = _bibo_objective(adjoints, v_next, cone)
        improved = next_value > value + 1e-11 * max(1.0, value)
        if next_value >= value:
            v, value, images = v_next, next_value, next_images
        if not improved:
            break
    return v, value


def bibo_analysis(h: ScaleTimeSignal, cone: bool = False, tol: float = 1e-6,
                  max_grid=None, seed: int = 0) -> StabilityReport:
    """Bracket the bounded-input / bounded-output gain.

    sufficient_upper sums the certified slice operator norms.
    necessary_lower maximizes sum_n ||M_n^* v|| over unit v from a bank of
    character-concentrated candidates plus monotone local ascent on a finite
    window; any unit v gives a valid lower bound, so the bracket is sound
    regardless of the window.
    """
    p = h.arity
    slices = h.slices
    brackets = [mult_operator_norm(s, cone=cone, tol=tol, max_grid=max_grid) for s in slices]
    sufficient_upper = float(sum(b.upper for b in brackets))
    certified = all(b.certified for b in brackets)

    margin = WINDOW_MARGINS[min(p, len(WINDOW_MARGINS)) - 1]
    spans = [(0 if cone else lo - margin, hi + margin)
             for lo, hi in zip(*(h.support_box() or ((0,) * p, (0,) * p)))]
    w_origin = tuple(lo for lo, _ in spans)
    w_shape = check_box(hi - lo + 1 for lo, hi in spans)
    wsize = math.prod(w_shape)

    kernels = [(s.array, s.origin) for s in slices]
    adjoints = [(a.array, a.origin) for a in (s.adjoint_reflect() for s in slices)]

    # Candidate angles from the grid argmax of the summed slice symbols.  The
    # adjoint images of the character e^{i k.theta} have norms
    # |sum_k h_n(k) e^{-i k.theta}|, the forward convention of torus_values.
    cand_sizes = tuple(256 if p == 1 else 64 for _ in range(p))
    total = np.zeros(check_box(cand_sizes))
    for s in slices:
        total += np.abs(torus_values(s.array, s.origin, cand_sizes))
    pos = np.unravel_index(int(np.argmax(total)), cand_sizes)
    theta_star = tuple(
        float(2.0 * math.pi * j / n) for j, n in zip(pos, cand_sizes)
    )

    phase = sum(t * e for t, e in zip(theta_star, _exponents(w_origin, w_shape)))
    rng = np.random.default_rng(seed)
    starts = [(np.exp(1j * phase) / math.sqrt(wsize), w_origin),
              (np.ones((1,) * p, complex), (0,) * p)]
    for _ in range(2):
        vals = rng.standard_normal(wsize) + 1j * rng.standard_normal(wsize)
        starts.append(((vals * (1.0 / np.linalg.norm(vals))).reshape(w_shape), w_origin))

    best_v, best_val = None, -1.0
    for v0 in starts:
        v, value = _bibo_ascent(kernels, adjoints, v0, cone, (w_origin, w_shape))
        if value > best_val:
            best_v, best_val = v, value
    necessary_lower = min(best_val, sufficient_upper)

    return StabilityReport(
        property="bibo",
        verdict="pass" if certified else "inconclusive",
        sufficient_upper=sufficient_upper,
        necessary_lower=float(necessary_lower),
        witnesses={"maximizer": ScaleSignal._from_box(*best_v),
                   "character_angles": theta_star},
        details={
            "slice_brackets": brackets,
            "certified": certified,
            "window_spans": spans,
            "cone": cone,
            "seed": seed,
        },
    )


def adversarial_input(h: ScaleTimeSignal, n: int, v: ScaleSignal,
                      cone: bool = False) -> ScaleTimeSignal:
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
        adj = h.slice(n - m).adjoint_reflect()  # zero beyond h's last step
        image, origin = _box_apply((adj.array, adj.origin), (v.array, v.origin), cone)
        norm = float(np.linalg.norm(image))
        slices.append(ScaleSignal._from_box(
            image * (1.0 / norm) if norm > 0.0 else image, origin))
    return ScaleTimeSignal(slices, arity=h.arity)


def _sample_polydisc(rng, count: int, dims: int, radius: float = 0.9) -> np.ndarray:
    r = radius * np.sqrt(rng.random((count, dims)))
    phi = 2.0 * math.pi * rng.random((count, dims))
    return r * np.exp(1j * phi)


def dissipativity_check(h: ScaleTimeSignal, grid_sizes=None,
                        sample_count: int = 20, tol: float = 1e-9,
                        points_per_set: int = 12, seed: int = 0,
                        max_grid=None) -> StabilityReport:
    """Certify or refute contractivity of the transfer function.

    Certifies the supremum of the (p+1)-variable symbol over the torus
    (which bounds the polydisc supremum); passes when the certified upper
    bound is <= 1 + tol, fails with a grid witness when the lower bound
    exceeds it.  For scale-causal systems, additionally checks positivity
    of the contractivity kernel against products of disc reproducing
    kernels on random point sets.
    """
    stack = h.stack
    if grid_sizes and len(grid_sizes) != stack.arity:
        raise ValueError(f"grid_sizes needs p + 1 = {stack.arity} sizes (time first), "
                         f"got {len(grid_sizes)}")
    bracket = _certify_sup(stack.array, stack.origin, grid_sizes or (0,) * stack.arity, tol,
                           _grid_budget(max_grid), fail_above=1.0 + tol)

    witnesses: dict = {}
    if bracket.lower > 1.0 + tol:
        verdict = "fail"
        witnesses["argmax_angles"] = bracket.witness_angles
        witnesses["argmax_value"] = bracket.lower
    elif bracket.certified and bracket.upper <= 1.0 + tol:
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

    u_m(k) = e^{i(m phi + k.theta)} on [0, time_len) x box, normalized to
    total energy one; thetas=() means theta = 0.  Used to realize a gain
    witness found on the torus.
    """
    thetas = tuple(float(t) for t in thetas) or (0.0,) * arity
    if len(thetas) != arity:
        raise ValueError(f"resonant_input needs {arity} angles, got {len(thetas)}")
    origin = tuple(int(lo) for lo, _ in box) if box else (0,) * arity
    widths = tuple(int(hi) - int(lo) + 1 for lo, hi in box) if box else (1,) * arity
    shape = check_box((time_len,) + widths)
    exps = _exponents((0,) + origin, shape)
    phase = exps[0] * phi + sum(e * t for e, t in zip(exps[1:], thetas))
    amp = 1.0 / math.sqrt(math.prod(shape))
    return ScaleTimeSignal._from_box(amp * np.exp(1j * phase), origin)


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
        report = bibo_analysis(h, tol=1e-6)
        bound = report.sufficient_upper
        measure = lambda y: y.norm("sup_l2")
    elif prop == "dissipative":
        report = dissipativity_check(h, tol=1e-6, sample_count=0, seed=seed)
        bound = report.sup_bracket.upper ** 2
        measure = lambda y: y.norm("energy")
    else:
        report = l1l2_gain(h)
        bound = report.gain
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
        analyzer_verdict=report.verdict,
    )
