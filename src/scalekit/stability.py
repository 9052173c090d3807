"""Certified stability analyzers for double convolution systems.

Three system properties are analyzed: bounded input / bounded output gain,
energy dissipativity, and l1-to-l2 boundedness.  Torus suprema are
certified with explicit Lipschitz constants (l1-weighted coefficient sums)
on auto-refining uniform grids; every report carries enough data (bounds,
witnesses, grids, seeds) to replay the verdict.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .convolve import double_convolve, group_convolve
from .signals import ScaleSignal, ScaleTimeSignal
from .spectral import generalized_transfer, torus_values

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

DEFAULT_GRID_BUDGET = 1 << 24
GRID_BUDGET_ENV = "SCALEKIT_MAX_GRID"


def _grid_budget(override=None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get(GRID_BUDGET_ENV)
    return int(env) if env else DEFAULT_GRID_BUDGET


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


def _certify_sup(items, widths, tol, budget, fail_above=None) -> OperatorNormBracket:
    """Bracket the sup of |sum c_e e^{i e.theta}| over the torus.

    Per grid cell the bound is the smaller of the Lipschitz form
    grid_value + L * delta (L the l1-weighted coefficient sum) and a
    second-order form on the squared modulus, whose gradient is computed
    on the grid and vanishes at interior maxima, so the bracket width
    shrinks quadratically with the spacing.  Grids double until the
    bracket is within a tol fraction of the grid max or the point budget
    is exceeded.  If fail_above is given and the grid max passes it, the
    sweep stops early (the lower bound already decides the verdict).
    """
    axes = len(widths)
    lipschitz = sum(sum(abs(k) for k in e) * abs(v) for e, v in items)
    quad = sum(sum(abs(k) for k in e) ** 2 * abs(v) for e, v in items)
    # torus_values pairs e with e^{-i e.theta}: negated exponents give the
    # e^{+i e.theta} symbol, whose grid argmax is the reported witness
    items = [(tuple(-k for k in e), v) for e, v in items]
    sizes = tuple(_next_pow2(max(w, 8)) for w in widths)
    while True:
        vals = torus_values(items, sizes)
        mags = np.abs(vals)
        flat = int(np.argmax(mags))
        pos = np.unravel_index(flat, sizes)
        angles = tuple(float(2.0 * math.pi * j / n) for j, n in zip(pos, sizes))
        grid_max = float(mags[pos])
        delta = max(math.pi / n for n in sizes)
        first_order = grid_max + lipschitz * delta
        # squared-modulus refinement: |h|^2(theta + d) <= |h_j|^2 +
        # |grad|h_j|^2|_1 delta + (L^2 + sup|h| Q) delta^2
        grad_sq = np.zeros(sizes)
        for a in range(axes):
            dvals = torus_values([(e, -1j * e[a] * v) for e, v in items], sizes)
            grad_sq += np.abs(2.0 * np.real(np.conj(vals) * dvals))
        hessian_bound = lipschitz ** 2 + first_order * quad
        refined_sq = float(np.max(mags ** 2 + grad_sq * delta))
        refined_sq += hessian_bound * delta ** 2
        upper = min(first_order, math.sqrt(max(refined_sq, 0.0)))
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
    if h.is_zero:
        return OperatorNormBracket(0.0, 0.0, True)
    items = list(h.items())
    if len(items) == 1:
        value = abs(items[0][1])
        return OperatorNormBracket(value, value, True)
    mins, maxs = h.support_box()
    widths = tuple(maxs[a] - mins[a] + 1 for a in range(h.arity))
    return _certify_sup(items, widths, tol, _grid_budget(max_grid))


def _adjoint_apply(h_adj: ScaleSignal, v: ScaleSignal, cone: bool) -> ScaleSignal:
    out = group_convolve(h_adj, v)
    return out.project_cone() if cone else out


def _bibo_objective(adjoints, v: ScaleSignal, cone: bool) -> tuple[float, list]:
    images = [_adjoint_apply(ha, v, cone) for ha in adjoints]
    return sum(img.l2_norm() for img in images), images


def _bibo_ascent(slices, adjoints, v: ScaleSignal, cone: bool,
                 window: frozenset, iters: int) -> tuple[ScaleSignal, float]:
    """Monotone fixed-point ascent of v -> sum_n ||M_n^* v|| on the unit
    sphere of the window subspace."""
    value, images = _bibo_objective(adjoints, v, cone)
    for _ in range(iters):
        acc: dict = {}
        for h_n, image in zip(slices, images):
            norm = image.l2_norm()
            if norm == 0.0:
                continue
            forward = group_convolve(h_n, image.scaled(1.0 / norm))
            if cone:
                forward = forward.project_cone()
            for k, val in forward.items():
                if k in window:
                    acc[k] = acc.get(k, 0.0) + val
        g = ScaleSignal(acc, arity=v.arity)
        gn = g.l2_norm()
        if gn == 0.0:
            break
        v_next = g.scaled(1.0 / gn)
        next_value, next_images = _bibo_objective(adjoints, v_next, cone)
        improved = next_value > value + 1e-11 * max(1.0, value)
        if next_value >= value:
            v, value, images = v_next, next_value, next_images
        if not improved:
            break
    return v, value


def _window_box(h: ScaleTimeSignal, cone: bool, margin: int) -> list[range]:
    box = h.support_box()
    if box is None:
        mins = maxs = (0,) * h.arity
    else:
        mins, maxs = box
    spans = []
    for a in range(h.arity):
        lo = 0 if cone else mins[a] - margin
        hi = maxs[a] + margin
        spans.append(range(lo, hi + 1))
    return spans


def _box_indices(spans) -> list[tuple]:
    out = [()]
    for span in spans:
        out = [prefix + (k,) for prefix in out for k in span]
    return out


def bibo_analysis(h: ScaleTimeSignal, cone: bool = False, tol: float = 1e-6,
                  max_grid=None, window_margin: int | None = None,
                  ascent_iters: int = 300, seed: int = 0) -> StabilityReport:
    """Bracket the bounded-input / bounded-output gain.

    sufficient_upper sums the certified slice operator norms.
    necessary_lower maximizes sum_n ||M_n^* v|| over unit v from a bank of
    character-concentrated candidates plus monotone local ascent on a finite
    window; any unit v gives a valid lower bound, so the bracket is sound
    regardless of the window.
    """
    p = h.arity
    brackets = [
        mult_operator_norm(s, cone=cone, tol=tol, max_grid=max_grid)
        for s in h.slices
    ]
    sufficient_upper = float(sum(b.upper for b in brackets))
    certified = all(b.certified for b in brackets)

    if window_margin is None:
        window_margin = 24 if p == 1 else (5 if p == 2 else 3)
    spans = _window_box(h, cone, window_margin)
    window_keys = _box_indices(spans)
    window = frozenset(window_keys)
    wsize = len(window_keys)

    adjoints = [s.adjoint_reflect() for s in h.slices]

    # Candidate angles from the grid argmax of the summed slice symbols.  The
    # adjoint images of the character e^{i k.theta} have norms
    # |sum_k h_n(k) e^{-i k.theta}|, the forward convention of torus_values.
    cand_sizes = tuple(256 if p == 1 else 64 for _ in range(p))
    total = np.zeros(cand_sizes)
    for s in h.slices:
        total += np.abs(torus_values(s.items(), cand_sizes))
    pos = np.unravel_index(int(np.argmax(total)), cand_sizes)
    theta_star = tuple(
        float(2.0 * math.pi * j / n) for j, n in zip(pos, cand_sizes)
    )

    def character(angles) -> ScaleSignal:
        amp = 1.0 / math.sqrt(wsize)
        return ScaleSignal(
            {
                k: amp * complex(math.cos(x), math.sin(x))
                for k in window_keys
                for x in (sum(ki * ti for ki, ti in zip(k, angles)),)
            },
            arity=p,
        )

    rng = np.random.default_rng(seed)
    starts = [character(theta_star), ScaleSignal.delta((0,) * p, arity=p)]
    for _ in range(2):
        vals = rng.standard_normal(wsize) + 1j * rng.standard_normal(wsize)
        raw = ScaleSignal(dict(zip(window_keys, vals)), arity=p)
        starts.append(raw.scaled(1.0 / raw.l2_norm()))

    best_v, best_val = None, -1.0
    for v0 in starts:
        v, value = _bibo_ascent(h.slices, adjoints, v0, cone, window, ascent_iters)
        if value > best_val:
            best_v, best_val = v, value
    necessary_lower = min(best_val, sufficient_upper)

    return StabilityReport(
        property="bibo",
        verdict="pass" if certified else "inconclusive",
        sufficient_upper=sufficient_upper,
        necessary_lower=float(necessary_lower),
        witnesses={"maximizer": best_v, "character_angles": theta_star},
        details={
            "slice_brackets": brackets,
            "certified": certified,
            "window_spans": [(s.start, s.stop - 1) for s in spans],
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
        j = n - m
        if j >= h.time_len:
            slices.append(ScaleSignal.zero(h.arity))
            continue
        image = _adjoint_apply(h.slices[j].adjoint_reflect(), v, cone)
        norm = image.l2_norm()
        slices.append(image.scaled(1.0 / norm) if norm > 0.0 else image)
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
    items = [((n,) + idx, v) for n, idx, v in h.items()]
    if not items:
        bracket = OperatorNormBracket(0.0, 0.0, True)
    elif len(items) == 1:
        value = abs(items[0][1])
        bracket = OperatorNormBracket(value, value, True)
    else:
        exps = np.array([e for e, _ in items])
        widths = tuple(
            int(exps[:, a].max() - exps[:, a].min() + 1) for a in range(exps.shape[1])
        )
        if grid_sizes is not None:
            widths = tuple(max(w, int(g)) for w, g in zip(widths, grid_sizes))
        bracket = _certify_sup(
            items, widths, tol, _grid_budget(max_grid), fail_above=1.0 + tol
        )

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
            hv = np.array(
                [generalized_transfer(h, pt[0], pt[1:]) for pt in pts]
            )
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
    total = sum(abs(v) ** 2 for _, _, v in h.items())
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
    total energy one.  Used to realize a gain witness found on the torus.
    """
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != arity:
        thetas = (0.0,) * arity
    keys = _box_indices([range(lo, hi + 1) for lo, hi in box]) if box else [(0,) * arity]
    amp = 1.0 / math.sqrt(time_len * len(keys))
    slices = []
    for m in range(time_len):
        entries = {}
        for k in keys:
            phase = m * phi + sum(ki * ti for ki, ti in zip(k, thetas))
            entries[k] = amp * complex(math.cos(phase), math.sin(phase))
        slices.append(ScaleSignal(entries, arity=arity))
    return ScaleTimeSignal(slices, arity=arity)


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

    box = h.support_box()
    mins, maxs = box if box is not None else ((0,) * p, (0,) * p)
    spans = [range(min(0, mins[a]) - 1, maxs[a] + 2) for a in range(p)]
    keys = _box_indices(spans)
    time_len = max(3, h.time_len)
    rng = np.random.default_rng(seed)

    max_ratio = 0.0
    for _ in range(trials):
        slices = []
        for _ in range(time_len):
            vals = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
            slices.append(ScaleSignal(dict(zip(keys, vals)), arity=p))
        u = ScaleTimeSignal(slices, arity=p)
        unorm = u.norm(_NORM_BY_PROPERTY[prop])
        if prop == "dissipative":
            unorm = math.sqrt(unorm)
        u = ScaleTimeSignal([s.scaled(1.0 / unorm) for s in u.slices], arity=p)
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
