import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    adversarial_input,
    bibo_analysis,
    dissipativity_check,
    double_convolve,
    empirical_verify,
    generalized_transfer,
    group_convolve,
    l1l2_gain,
    mult_operator_norm,
    resonant_input,
)
from scalekit.cli import main
from scalekit.io import write_time_signal
from scalekit.signals import MAX_BOX_CELLS
from scalekit.spectral import grid_shrink, torus_values
from scalekit.stability import _fft_error
from helpers import random_scale_signal, random_time_signal


def delta(idx, arity, value=1.0):
    return ScaleSignal.delta(idx, arity, value)


def geometric_system(a=0.5, arity=1, floor=1e-16):
    n_terms = 1 + int(math.floor(math.log(floor) / math.log(abs(a))))
    slices = [delta((0,) * arity, arity, a ** n) for n in range(n_terms)]
    return ScaleTimeSignal(slices, arity=arity)


def maximizer_value(h, report, cone=False):
    """sum_n ||adjoint(h_n) * v|| at the reported maximizer v, re-derived
    through the public convolution (projected onto the cone if asked)."""
    v = report.witnesses["maximizer"]
    images = (group_convolve(s.adjoint_reflect(), v) for s in h.slices)
    return sum((img.project_cone() if cone else img).l2_norm() for img in images)


class TestMultOperatorNorm:
    def test_delta(self):
        b = mult_operator_norm(delta((0,), 1))
        assert (b.lower, b.upper, b.certified) == (1.0, 1.0, True)

    def test_scaled_shifted_delta(self):
        b = mult_operator_norm(delta((7,), 1, 0.3 - 0.4j))
        assert b.lower == pytest.approx(0.5)
        assert b.upper == pytest.approx(0.5)
        assert b.certified

    def test_two_taps_sup(self):
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        b = mult_operator_norm(h, tol=1e-6)
        assert b.certified
        assert b.lower <= 2.0 <= b.upper
        assert b.upper - b.lower < 1e-5

    def test_zero(self):
        b = mult_operator_norm(ScaleSignal.zero(1))
        assert b.upper == 0.0

    def test_cone_flag_validates(self):
        with pytest.raises(ValueError, match="scale-causal"):
            mult_operator_norm(delta((-1,), 1), cone=True)

    def test_budget_exhaustion_leaves_sound_bracket(self, monkeypatch):
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setenv("SCALEKIT_MAX_GRID", "4096")
        b = mult_operator_norm(h, tol=1e-12)
        assert not b.certified
        assert b.lower <= 2.0 <= b.upper

    def test_budget_env_override(self, monkeypatch):
        # tol 1e-9 needs 2^16 points for 1 + z: 4096 falls short of them
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setenv("SCALEKIT_MAX_GRID", "4096")
        b = mult_operator_norm(h, tol=1e-9)
        assert not b.certified
        monkeypatch.delenv("SCALEKIT_MAX_GRID")
        assert mult_operator_norm(h, tol=1e-9).certified

    def test_tol_below_roundoff_floor_is_not_certified(self, monkeypatch):
        # the FFT roundoff term alone is about 2.6e-11 of the norm at 2^21
        # points, so no grid within the budget brackets 1 + z to 1e-12
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setenv("SCALEKIT_MAX_GRID", str(1 << 21))
        b = mult_operator_norm(h, tol=1e-12)
        assert b.grid_sizes == (1 << 21,)
        assert not b.certified
        assert b.upper - b.lower > 1e-12 * b.lower
        assert b.lower <= 2.0 <= b.upper

    def test_budget_above_box_cap_refused_up_front(self, monkeypatch):
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setenv("SCALEKIT_MAX_GRID", str(1 << 25))
        with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
            mult_operator_norm(h, tol=1e-12)

    def test_witness_angles_replay_lower_bound(self):
        # the symbol is sum_k h(k) e^{+i k theta}, the convention of
        # generalized_transfer on the torus; complex taps tell it from -theta
        h = ScaleSignal({(0,): 1.0, (1,): 1j, (2,): 0.5}, arity=1)
        b = mult_operator_norm(h, tol=1e-6)
        (theta,) = b.witness_angles
        value = abs(1.0 + 1j * np.exp(1j * theta) + 0.5 * np.exp(2j * theta))
        assert value == pytest.approx(b.lower, rel=1e-12)
        hs = ScaleTimeSignal([h, delta((1,), 1, 0.5j)], arity=1)
        report = dissipativity_check(hs, sample_count=0)
        phi, theta = report.witnesses["argmax_angles"]
        value = abs(generalized_transfer(hs, np.exp(1j * phi), [np.exp(1j * theta)]))
        assert value == pytest.approx(report.sup_bracket.lower, rel=1e-12)

    def test_bracket_contains_independent_sup(self):
        # the certified upper bound must dominate values sampled on a randomly
        # offset dense grid the sweep never saw (2^16 points for p=1, 256^2
        # for p=2); tol 1.0 stops on the first, coarsest grid, where the grid
        # inequality is least tight, tol 1e-3 a few doublings later
        rng = np.random.default_rng(97)
        for p, size in ((1, 1 << 16), (2, 256)):
            for _ in range(10):
                width = int(rng.integers(2, 10))
                lo = int(rng.integers(-6, 1))
                keys = [(lo,) * p, (lo + width - 1,) * p]
                keys += [tuple(int(k) for k in rng.integers(lo, lo + width, p))
                         for _ in range(3)]
                h = ScaleSignal({k: complex(rng.standard_normal(), rng.standard_normal())
                                 for k in keys}, arity=p)
                theta = [2 * np.pi * (np.arange(size) + rng.uniform(0, 1)) / size
                         for _ in range(p)]
                vals = 0.0
                for k, v in h.items():
                    term = v
                    for a, (e, t) in enumerate(zip(k, theta)):
                        term = term * np.exp(1j * e * t).reshape((-1,) + (1,) * (p - 1 - a))
                    vals = vals + term
                dense_max = float(np.abs(vals).max())
                for tol in (1.0, 1e-3):
                    b = mult_operator_norm(h, tol=tol)
                    assert b.certified
                    assert dense_max <= b.upper + 1e-12

    def test_matches_dense_svd_on_truncation(self):
        # operator matrix on a window is a section of the full operator, so
        # its largest singular value lower-bounds the symbol sup
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_scale_signal(rng, 1, width=2, terms=3)
            b = mult_operator_norm(h, tol=1e-8)
            size = 40
            mat = np.zeros((2 * size + 1, 2 * size + 1), complex)
            for (k,), v in h.items():
                for j in range(-size, size + 1):
                    if -size <= j + k <= size:
                        mat[j + k + size, j + size] = v
            smax = np.linalg.svd(mat, compute_uv=False)[0]
            assert smax <= b.upper + 1e-9
            assert smax >= b.lower - 0.2


class TestBiboAnalysis:
    def test_geometric_scalar_system(self):
        h = geometric_system(0.5)
        report = bibo_analysis(h)
        assert report.verdict == "pass"
        assert report.sufficient_upper == pytest.approx(2.0, abs=1e-10)
        assert report.necessary_lower == pytest.approx(2.0, abs=1e-10)

    def test_trivial_group_reduces_to_coefficient_sum(self):
        rng = np.random.default_rng(5)
        cs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h = ScaleTimeSignal([delta((0,), 1, c) for c in cs], arity=1)
        report = bibo_analysis(h)
        assert report.sufficient_upper == pytest.approx(
            float(np.abs(cs).sum()), abs=1e-12
        )
        assert report.necessary_lower == pytest.approx(
            float(np.abs(cs).sum()), abs=1e-10
        )

    def test_two_slice_bracket(self):
        h = ScaleTimeSignal(
            [
                ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1),
                ScaleSignal({(0,): 1.0, (1,): -1.0}, arity=1),
            ],
            arity=1,
        )
        report = bibo_analysis(h, tol=1e-6)
        assert report.sufficient_upper == pytest.approx(4.0, abs=1e-4)
        # the true gain sup equals 2 sqrt(2); a finite search window
        # undershoots it by O(1/window)
        assert maximizer_value(h, report) <= report.sufficient_upper * (1 + 1e-12)
        assert report.necessary_lower <= report.sufficient_upper + 1e-12
        assert report.necessary_lower >= 2 * math.sqrt(2) - 5e-2

    def test_character_start_maximizes_adjoint_images(self):
        # the adjoint images of the character e^{i k theta} have norm
        # |sum_k h(k) e^{-i k theta}|; the start angle maximizes that symbol,
        # not its mirror image (they differ for complex taps)
        h = ScaleTimeSignal([ScaleSignal({(0,): 1.0, (1,): 1j, (2,): 0.5}, arity=1)],
                            arity=1)
        theta = bibo_analysis(h).witnesses["character_angles"][0]
        symbol = lambda t: np.abs(1.0 + 1j * np.exp(-1j * t) + 0.5 * np.exp(-2j * t))
        fine = np.max(symbol(2 * math.pi * np.arange(4096) / 4096))
        assert symbol(theta) >= fine - 0.05

    def test_bracket_order(self):
        # necessary_lower is clipped to sufficient_upper, so the order is
        # checked on the value re-derived from the reported maximizer
        rng = np.random.default_rng(11)
        cases = [random_time_signal(rng, 1, time_len=3, width=2, terms=3)
                 for _ in range(5)]
        cases += [random_time_signal(rng, 2, time_len=2, width=1, terms=3)
                  for _ in range(2)]
        for h, cone in [(h, False) for h in cases] + [
                (cases[0].scale_causal_projection(), True),
                (cases[5].scale_causal_projection(), True)]:
            report = bibo_analysis(h, cone=cone, tol=1e-6 if h.arity == 1 else 1e-3)
            derived = maximizer_value(h, report, cone)
            assert derived <= report.sufficient_upper * (1 + 1e-12)
            assert report.necessary_lower == pytest.approx(
                min(derived, report.sufficient_upper), rel=1e-9)


class TestAdversarialInput:
    def test_scalar_alignment(self):
        cs = [1.0, -2.0, 0.5j]
        h = ScaleTimeSignal([delta((0,), 1, c) for c in cs], arity=1)
        v = delta((0,), 1)
        n = 2
        u = adversarial_input(h, n, v)
        y = double_convolve(h, u)
        gain = y.slice(n).inner(v)
        assert gain.real == pytest.approx(sum(abs(c) for c in cs), abs=1e-12)
        assert abs(gain.imag) < 1e-12

    def test_zero_system_gives_zero_input(self):
        h = ScaleTimeSignal([ScaleSignal.zero(1)], arity=1)
        u = adversarial_input(h, 3, delta((0,), 1))
        assert u.is_zero
        assert u.time_len == 4

    def test_requires_unit_norm(self):
        h = geometric_system(0.5)
        with pytest.raises(ValueError, match="unit norm"):
            adversarial_input(h, 1, delta((0,), 1, 2.0))

    def test_achieves_analyzer_lower_bound(self):
        rng = np.random.default_rng(13)
        h = random_time_signal(rng, 1, time_len=3, width=2, terms=3)
        report = bibo_analysis(h)
        v = report.witnesses["maximizer"]
        n = h.time_len - 1
        u = adversarial_input(h, n, v)
        y = double_convolve(h, u)
        achieved = y.slice(n).inner(v).real
        assert achieved >= report.necessary_lower - 1e-8
        sup_in = u.norm("sup_l2")
        assert y.norm("sup_l2") <= report.sufficient_upper * sup_in + 1e-9


class TestDissipativity:
    def test_constant_contraction_passes(self):
        h = ScaleTimeSignal([delta((0,), 1, 0.9)], arity=1)
        report = dissipativity_check(h)
        assert report.verdict == "pass"
        assert report.sup_bracket.lower == pytest.approx(0.9, abs=1e-12)
        assert report.sup_bracket.upper == pytest.approx(0.9, abs=1e-12)
        assert report.details["gram_min_eigenvalue"] >= -1e-9

    def test_one_plus_z_fails_with_witness(self):
        h = ScaleTimeSignal([delta((0,), 1), delta((0,), 1)], arity=1)
        report = dissipativity_check(h)
        assert report.verdict == "fail"
        assert report.witnesses["argmax_value"] == pytest.approx(2.0, abs=1e-6)
        angles = report.witnesses["argmax_angles"]
        assert abs(angles[0]) < 1e-12

    def test_single_term_certified_only_below_threshold(self):
        # one term is an exact bracket; certified still answers sup <= 1 + tol
        for value, verdict in ((2.0, "fail"), (0.9, "pass")):
            h = ScaleTimeSignal([delta((3,), 1, value)], arity=1)
            report = dissipativity_check(h, sample_count=0)
            assert report.verdict == verdict
            assert report.sup_bracket.certified == (verdict == "pass")

    def test_resonant_input_violates_energy(self):
        h = ScaleTimeSignal([delta((0,), 1), delta((0,), 1)], arity=1)
        report = dissipativity_check(h)
        phi = report.witnesses["argmax_angles"][0]
        u = resonant_input(1, 64, phi, report.witnesses["argmax_angles"][1:])
        assert u.norm("energy") == pytest.approx(1.0, abs=1e-12)
        y = double_convolve(h, u)
        assert y.norm("energy") > 1.0

    def test_resonant_input_checks_angle_count(self):
        with pytest.raises(ValueError, match="2 angles, got 1"):
            resonant_input(2, 4, 0.5, (0.25,))
        zero_angles = resonant_input(2, 4, 0.5)
        assert zero_angles.distance(resonant_input(2, 4, 0.5, (0.0, 0.0))) == 0.0

    def test_shift_product_on_boundary_passes(self):
        h = ScaleTimeSignal([ScaleSignal.zero(1), delta((1,), 1)], arity=1)
        report = dissipativity_check(h)
        assert report.verdict == "pass"
        assert report.sup_bracket.lower == pytest.approx(1.0, abs=1e-10)
        assert report.sup_bracket.upper == pytest.approx(1.0, abs=1e-10)
        assert report.details["gram_min_eigenvalue"] >= -1e-9

    def test_sup_scales_linearly(self):
        rng = np.random.default_rng(17)
        h = random_time_signal(rng, 1, time_len=2, width=2, terms=3)
        s = 0.375
        scaled = ScaleTimeSignal([sl.scaled(s) for sl in h.slices], arity=1)
        b1 = dissipativity_check(h, tol=1e-6).sup_bracket
        b2 = dissipativity_check(scaled, tol=1e-6).sup_bracket
        assert b2.lower == pytest.approx(s * b1.lower, abs=1e-12)

    def test_first_grid_meets_the_grid_inequality_hypothesis(self):
        # width 9 on both axes, sup 4: the sweep fails on its first grid, and
        # that grid already has M_a > 2 (w_a - 1) points on every axis
        taps = ScaleSignal({(0,): 1.0, (8,): 1.0}, arity=1)
        h = ScaleTimeSignal([taps] + [ScaleSignal.zero(1)] * 7 + [taps], arity=1)
        report = dissipativity_check(h, sample_count=0)
        assert report.verdict == "fail"
        bracket = report.sup_bracket
        assert all(m > 2 * (9 - 1) for m in bracket.grid_sizes)

    def test_gram_skipped_off_cone(self):
        h = ScaleTimeSignal([delta((-1,), 1, 0.5)], arity=1)
        report = dissipativity_check(h)
        assert "gram_min_eigenvalue" not in report.details
        assert report.details["gram"].startswith("skipped")

    def test_gram_positive_for_pass_systems(self):
        # products of unimodular shifts stay contractive in two variables
        h = ScaleTimeSignal(
            [ScaleSignal.zero(2), delta((1, 1), 2, 0.8)], arity=2
        )
        report = dissipativity_check(h, sample_count=20, points_per_set=12, seed=4)
        assert report.verdict == "pass"
        assert report.details["gram_min_eigenvalue"] >= -1e-9


    def test_gram_matches_elementwise_kernel(self):
        # the broadcast Gram matrix against the entry-by-entry definition
        # (1 - h_i conj(h_j)) prod_a 1 / (1 - z_ia conj(z_ja)), same samples
        from scalekit.stability import _sample_polydisc
        h = ScaleTimeSignal([delta((0,), 1, 0.3), delta((1,), 1, 0.4)], arity=1)
        report = dissipativity_check(h, sample_count=3, points_per_set=5, seed=8)
        rng = np.random.default_rng(8)
        worst = math.inf
        for _ in range(3):
            pts = _sample_polydisc(rng, 5, 2)
            hv = [generalized_transfer(h, pt[0], pt[1:]) for pt in pts]
            gram = np.empty((5, 5), complex)
            for i in range(5):
                for j in range(5):
                    kern = 1.0
                    for a in range(2):
                        kern /= 1.0 - pts[i, a] * np.conj(pts[j, a])
                    gram[i, j] = (1.0 - hv[i] * np.conj(hv[j])) * kern
            gram = 0.5 * (gram + gram.conj().T)
            worst = min(worst, float(np.linalg.eigvalsh(gram)[0]))
        assert report.details["gram_min_eigenvalue"] == pytest.approx(worst, abs=1e-12)


def peaked_system(rng, p, time_len, width, sup, theta0):
    """Positive magnitudes summing to sup, phased so that the symbol
    sum_e c_e e^{i e.theta} peaks at theta0: its torus sup is exactly sup."""
    keys = [(n,) + tuple(int(k) for k in rng.integers(0, width, p))
            for n in range(time_len) for _ in range(2)]
    keys = sorted(set(keys) | {(0,) * (p + 1), (time_len - 1,) + (width - 1,) * p})
    mags = rng.uniform(0.2, 1.0, len(keys))
    mags *= sup / mags.sum()
    slices = [{} for _ in range(time_len)]
    for (n, *k), m in zip(keys, mags):
        slices[n][tuple(k)] = m * np.exp(-1j * np.dot((n, *k), theta0))
    return ScaleTimeSignal([ScaleSignal(d, arity=p) for d in slices], arity=p)


def offset_grid_max(h, size, offset) -> float:
    """max |sum_e c_e e^{i e.theta}| by direct sums on the grid
    theta_j = 2 pi (j + offset) / size, every axis, time first."""
    axes = np.meshgrid(*(2 * math.pi * (np.arange(size) + offset) / size
                         for _ in range(h.arity + 1)), indexing="ij")
    vals = 0.0
    for n, s in enumerate(h.slices):
        for k, v in s.items():
            vals = vals + v * np.exp(1j * sum(e * t for e, t in zip((n, *k), axes)))
    return float(np.abs(vals).max())


class TestThresholdSweep:
    """dissipativity_check decides sup <= 1 + tol and stops as soon as it can."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_sup_above_slack_never_passes(self, tol, monkeypatch):
        monkeypatch.setenv("SCALEKIT_MAX_GRID", str(1 << 15))
        rng = np.random.default_rng(21)
        for p in (1, 2):
            for on_grid in (True, False, False):
                theta0 = np.zeros(p + 1) if on_grid else rng.uniform(0, 2 * math.pi, p + 1)
                h = peaked_system(rng, p, 3, 3, 1.0 + 2.0 * tol, theta0)
                report = dissipativity_check(h, tol=tol, sample_count=0)
                assert report.verdict != "pass"
                if on_grid:
                    assert report.verdict == "fail"

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_sup_within_slack_never_fails(self, tol, monkeypatch):
        monkeypatch.setenv("SCALEKIT_MAX_GRID", str(1 << 15))
        rng = np.random.default_rng(22)
        for p in (1, 2):
            for on_grid in (True, False, False):
                theta0 = np.zeros(p + 1) if on_grid else rng.uniform(0, 2 * math.pi, p + 1)
                h = peaked_system(rng, p, 3, 3, 1.0 + 0.5 * tol, theta0)
                report = dissipativity_check(h, tol=tol, sample_count=0)
                assert report.verdict != "fail"

    @pytest.mark.parametrize("seed", [1, 11, 12])
    def test_sup_095_passes_on_a_coarse_grid(self, seed, tmp_path):
        # p = 2, two terms per slice across a width-3 box, T = 2, scaled so
        # the max on a 64^3 grid is 0.95: the grid inequality puts the
        # upper bound below 1 by 32^3 points, far short of the 2^24 budget
        rng = np.random.default_rng(seed)
        slices = []
        for _ in range(2):
            slices.append(ScaleSignal({k: complex(rng.standard_normal(), rng.standard_normal())
                                       for k in ((0, 0), (2, 2))}, arity=2))
        h = ScaleTimeSignal(slices, arity=2)
        grid = np.abs(torus_values(h.stack.array, h.stack.origin, (64, 64, 64)))
        h = ScaleTimeSignal([s.scaled(0.95 / grid.max()) for s in slices], arity=2)
        report = dissipativity_check(h)
        bracket = report.sup_bracket
        assert report.verdict == "pass"
        assert bracket.certified
        assert math.prod(bracket.grid_sizes) <= 1 << 15
        assert bracket.lower <= 0.95 * (1 + 1e-12) and bracket.upper <= 1.0
        assert report.details["gram_min_eigenvalue"] >= -1e-9
        path = tmp_path / "sys.csv"
        write_time_signal(h, str(path))
        assert main(["analyze", "--property", "dissipative", "--system", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0

    @settings(max_examples=40)
    @given(p=st.integers(1, 2), time_len=st.integers(1, 3), width=st.integers(1, 3),
           target=st.floats(0.8, 1.2), tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_verdicts_replay_independently(self, p, time_len, width, target, tol, seed):
        rng = np.random.default_rng(seed)
        h = random_time_signal(rng, p, time_len=time_len, width=width, terms=3)
        if h.is_zero:
            return
        size = 256 if p == 1 else 32
        coarse = np.abs(torus_values(h.stack.array, h.stack.origin,
                                     (size,) * (p + 1))).max()
        h = ScaleTimeSignal([s.scaled(target / coarse) for s in h.slices], arity=p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SCALEKIT_MAX_GRID", str(1 << 16))
            report = dissipativity_check(h, tol=tol, sample_count=0)
        bracket = report.sup_bracket
        if report.verdict == "pass":
            assert offset_grid_max(h, size, rng.uniform(0, 1)) <= bracket.upper <= 1.0 + tol
        elif report.verdict == "fail":
            phi, *thetas = report.witnesses["argmax_angles"]
            value = abs(generalized_transfer(h, np.exp(1j * phi), np.exp(1j * np.array(thetas))))
            assert value > 1.0 + tol


def criterion_grid(widths, tol, budget):
    """The tolerance grid by brute doubling: the first power-of-two grid with
    M_a >= max(2 w_a - 1, 8) points, doubled while the roundoff-inclusive
    gap exceeds tol and the doubled grid fits the budget."""
    sizes = []
    for w in widths:
        m = 8
        while m < 2 * w - 1:
            m *= 2
        sizes.append(m)
    sizes = tuple(sizes)
    while (1.0 + _fft_error(sizes, 1.0)) / grid_shrink(widths, sizes) - 1.0 > tol:
        doubled = tuple(2 * m for m in sizes)
        if math.prod(doubled) > budget:
            break
        sizes = doubled
    return sizes


def corner_signal(rng, widths):
    """Random complex taps spanning exactly the box [0, w_a) on each axis."""
    p = len(widths)
    keys = {(0,) * p, tuple(w - 1 for w in widths)}
    keys |= {tuple(int(rng.integers(0, w)) for w in widths) for _ in range(3)}
    return ScaleSignal({k: complex(rng.standard_normal(), rng.standard_normal())
                        for k in keys}, arity=p)


class Evaluated(Exception):
    """Raised by a torus_values stand-in to stop a bracket before its FFT."""


class TestToleranceGrid:
    """mult_operator_norm evaluates one grid, chosen from the widths alone."""

    def test_one_torus_grid_per_bracket(self, monkeypatch):
        import scalekit.stability as stability
        grids = []

        def recording(array, origin, sizes):
            grids.append(tuple(sizes))
            return torus_values(array, origin, sizes)

        monkeypatch.setattr(stability, "torus_values", recording)
        rng = np.random.default_rng(31)
        for widths, tol in (((5,), 1e-9), ((3, 4), 1e-3), ((2, 3, 2), 1e-2), ((9,), 1e-8)):
            grids.clear()
            b = mult_operator_norm(corner_signal(rng, widths), tol=tol)
            assert grids == [b.grid_sizes] == [criterion_grid(widths, tol, MAX_BOX_CELLS)]
        # verify --property bibo runs the slice brackets alone, one grid each,
        # and reports the bound bibo_analysis reports
        h = ScaleTimeSignal([corner_signal(rng, (4,)) for _ in range(3)], arity=1)
        grids.clear()
        report = empirical_verify(h, "bibo", trials=2, seed=5)
        assert len(grids) == 3
        assert report.bound == bibo_analysis(h, tol=1e-6).sufficient_upper

    def test_grid_choice_counts_the_roundoff(self):
        # a tol between the bare grid gap of 2^16 points and that gap plus
        # the roundoff term: 2^16 points would leave upper - lower above
        # tol lower, so the bracket takes 2^17 and certifies
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        sizes = (1 << 16,)
        tol = 1.0 / grid_shrink((2,), sizes) - 1.0 + 0.5 * _fft_error(sizes, 1.0)
        b = mult_operator_norm(h, tol=tol)
        assert b.grid_sizes == (1 << 17,)
        assert b.certified

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           tol=st.floats(1e-12, 1e-2), budget_log=st.integers(12, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_matches_brute_doubling(self, widths, tol, budget_log, seed):
        # the grid is fixed before any FFT, so the stand-in stops the bracket
        # there and budgets up to the cap cost nothing
        widths = (max(widths[0], 2), *widths[1:])  # at least two terms
        h = corner_signal(np.random.default_rng(seed), widths)
        import scalekit.stability as stability
        grids = []

        def stop(array, origin, sizes):
            grids.append(tuple(sizes))
            raise Evaluated

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "torus_values", stop)
            mp.setenv("SCALEKIT_MAX_GRID", str(1 << budget_log))
            with pytest.raises(Evaluated):
                mult_operator_norm(h, tol=tol)
        assert grids == [criterion_grid(widths, tol, 1 << budget_log)]

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           tol=st.floats(1e-12, 1e-2), budget_log=st.integers(12, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_brackets_are_sound(self, widths, tol, budget_log, seed):
        # evaluated budgets stop at 2^16 points to keep the test small
        widths = (max(widths[0], 2), *widths[1:])  # at least two terms
        rng = np.random.default_rng(seed)
        h = corner_signal(rng, widths)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SCALEKIT_MAX_GRID", str(1 << budget_log))
            b = mult_operator_norm(h, tol=tol)
        assert b.grid_sizes == criterion_grid(widths, tol, 1 << budget_log)
        if b.certified:
            assert b.upper - b.lower <= tol * b.lower
        size = {1: 256, 2: 32, 3: 12}[len(widths)]
        assert offset_grid_max(ScaleTimeSignal([h]), size, rng.uniform(0, 1)) <= b.upper


class TestFftError:
    @staticmethod
    def longdouble_grid(array, origin, sizes):
        """sum_e c_e e^{-i e.theta} on the grid 2 pi j / sizes in np.longdouble,
        each character taken from a table of roots at the residue e j mod M."""
        pi = 4 * np.arctan(np.longdouble(1))
        roots = [np.exp(np.clongdouble(-2j) * pi * np.arange(m, dtype=np.longdouble) / m)
                 for m in sizes]
        out = np.zeros(sizes, np.clongdouble)
        for idx in zip(*np.nonzero(array)):
            term = np.clongdouble(array[idx])
            for a, (i, o, m) in enumerate(zip(idx, origin, sizes)):
                factor = roots[a][(i + o) * np.arange(m) % m]
                term = term * factor.reshape((-1,) + (1,) * (len(sizes) - 1 - a))
            out += term
        return out

    @pytest.mark.parametrize("sizes, width, count", [
        ((8,), 5, 5), ((1 << 12,), 40, 8), ((1 << 20,), 6, 2),
        ((16, 16), 6, 5), ((1 << 10, 1 << 10), 5, 2), ((8, 16, 8), 4, 5),
        ((64, 128, 128), 4, 2),
    ])
    def test_bound_covers_fft_against_longdouble(self, sizes, width, count):
        # random dense boxes, widths within the grid as in _certify_sup
        rng = np.random.default_rng(sum(sizes) + width)
        for _ in range(count):
            shape = tuple(int(rng.integers(1, min(width, m) + 1)) for m in sizes)
            array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            array *= 10.0 ** rng.uniform(-3, 3)
            origin = tuple(int(o) for o in rng.integers(-width, width + 1, len(sizes)))
            gap = np.abs(torus_values(array, origin, sizes)
                         - self.longdouble_grid(array, origin, sizes)).max()
            bound = _fft_error(sizes, float(np.linalg.norm(array)))
            assert gap <= bound
            assert bound <= 1e-10 * np.linalg.norm(array)


class TestL1L2:
    def test_delta(self):
        h = ScaleTimeSignal([delta((0,), 1)], arity=1)
        assert l1l2_gain(h).gain == pytest.approx(1.0)

    def test_geometric(self):
        h = geometric_system(0.6)
        report = l1l2_gain(h)
        assert report.gain == pytest.approx(1.25, abs=1e-10)
        assert report.verdict == "pass"

    def test_impulse_achieves_gain_squared(self):
        h = geometric_system(0.6)
        u = ScaleTimeSignal([delta((0,), 1)], arity=1)
        y = double_convolve(h, u)
        assert y.norm("energy") == pytest.approx(l1l2_gain(h).gain ** 2, abs=1e-10)

    def test_random_inputs_respect_inequality(self):
        rng = np.random.default_rng(23)
        h = random_time_signal(rng, 1, time_len=3, width=2, terms=3)
        gain = l1l2_gain(h).gain
        for _ in range(50):
            u = random_time_signal(rng, 1, time_len=4, width=2, terms=3)
            y = double_convolve(h, u)
            assert math.sqrt(y.norm("energy")) <= gain * u.norm("l1_l2") + 1e-9


class TestEmpiricalVerify:
    def test_dissipative_constant(self):
        h = ScaleTimeSignal([delta((0,), 1, 0.9)], arity=1)
        report = empirical_verify(h, "dissipative", trials=20, seed=7)
        assert report.ok
        assert report.max_ratio * report.bound <= 0.81 + 1e-9

    def test_bibo_geometric(self):
        h = geometric_system(0.5)
        report = empirical_verify(h, "bibo", trials=20, seed=11)
        assert report.ok
        assert report.bound == pytest.approx(2.0, abs=1e-10)

    def test_l1l2(self):
        h = geometric_system(0.6)
        report = empirical_verify(h, "l1l2", trials=20, seed=13)
        assert report.ok
        assert report.property == "l1_l2"

    def test_deterministic(self):
        h = geometric_system(0.5)
        r1 = empirical_verify(h, "bibo", trials=5, seed=3)
        r2 = empirical_verify(h, "bibo", trials=5, seed=3)
        assert r1 == r2

    def test_rejects_unknown_property(self):
        h = geometric_system(0.5)
        with pytest.raises(ValueError):
            empirical_verify(h, "stable", 5, 0)
