import math

import numpy as np
import pytest

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

    def test_budget_exhaustion_leaves_sound_bracket(self):
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        b = mult_operator_norm(h, tol=1e-12, max_grid=4096)
        assert not b.certified
        assert b.lower <= 2.0 <= b.upper

    def test_budget_env_override(self, monkeypatch):
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setenv("SCALEKIT_MAX_GRID", "4096")
        b = mult_operator_norm(h, tol=1e-12)
        assert not b.certified
        monkeypatch.delenv("SCALEKIT_MAX_GRID")
        assert mult_operator_norm(h, tol=1e-12).certified

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
        # requested grid sizes are a floor on the first grid
        bracket = dissipativity_check(h, grid_sizes=(64, 8), sample_count=0).sup_bracket
        assert bracket.grid_sizes == (64, 32)

    def test_grid_sizes_need_one_per_axis(self):
        # one size for time and one per scale axis: p + 1 = 2 here
        h = ScaleTimeSignal([ScaleSignal({(0,): 0.5, (1,): 0.25}, arity=1)], arity=1)
        for sizes in ((64,), (64, 8, 8)):
            with pytest.raises(ValueError, match=r"p \+ 1 = 2 sizes"):
                dissipativity_check(h, grid_sizes=sizes)

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
