import cmath
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
import scalekit.stability as stability
from scalekit.cli import main
from scalekit.io import write_time_signal
from scalekit.spectral import torus_values
from scalekit.stability import (
    _cell_upper, _difference_lattice, _direct, _direct_error, _fft_error,
)
from helpers import random_scale_signal, random_time_signal


def delta(idx, arity, value=1.0):
    return ScaleSignal.delta(idx, arity, value)


def geometric_system(a=0.5, arity=1, floor=1e-16):
    n_terms = 1 + int(math.floor(math.log(floor) / math.log(abs(a))))
    slices = [delta((0,) * arity, arity, a ** n) for n in range(n_terms)]
    return ScaleTimeSignal(slices, arity=arity)


def maximizer_value(h, report, project=False):
    """sum_n ||adjoint(h_n) * v|| at the reported maximizer v, re-derived
    through the public convolution (projected onto the cone if asked)."""
    v = report.witnesses["maximizer"]
    images = (group_convolve(s.adjoint_reflect(), v) for s in h.slices)
    return sum((img.project_cone() if project else img).l2_norm() for img in images)


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

    def test_budget_exhaustion_leaves_sound_bracket(self, monkeypatch):
        # a dense 6 x 6 box peaked at theta0 (sup = sum |c|): 4096 units are
        # the 32^2 coarse grid, too few 36-unit cells to refine it and one
        # 64 x 32 grid
        h = peaked_box(np.random.default_rng(2), (6, 6))
        monkeypatch.setattr(stability, "WORK_BUDGET", 4096)
        b = mult_operator_norm(h, tol=1e-12)
        assert not b.certified
        assert b.evaluations <= 4096
        assert b.lower <= np.abs(h.array).sum() <= b.upper

    def test_budget_env_override(self, monkeypatch):
        # tol 1e-9 takes the 6 x 6 box far beyond 4096 units of work
        h = peaked_box(np.random.default_rng(3), (6, 6))
        monkeypatch.setattr(stability, "WORK_BUDGET", 4096)
        b = mult_operator_norm(h, tol=1e-9)
        assert not b.certified
        monkeypatch.undo()
        b = mult_operator_norm(h, tol=1e-9)
        assert b.certified
        assert b.evaluations > 4096

    def test_budget_stop_spends_the_rest_on_one_grid(self, monkeypatch):
        # one refined cell of a dense 6 x 6 x 6 box costs 216 units, so after
        # the 32^3 coarse grid no level fits 2^18 units; the rest buys a
        # 64 x 64 x 32 grid, whose Ehlich-Zeller bound (9% here) is much
        # tighter than the coarse cells' (19%)
        h = peaked_box(np.random.default_rng(4), (6, 6, 6))
        monkeypatch.setattr(stability, "WORK_BUDGET", 1 << 18)
        b = mult_operator_norm(h, tol=1e-9)
        sup = np.abs(h.array).sum()
        assert not b.certified
        assert b.evaluations == 32 ** 3 + 64 * 64 * 32
        assert b.lower <= sup <= b.upper <= 1.12 * sup
        assert symbol_at(h, b.witness_angles) == pytest.approx(b.lower, rel=1e-12)

    def test_tol_below_roundoff_floor_is_not_certified(self, monkeypatch):
        # the roundoff of the direct evaluations is a few ulps of sum |c|,
        # so no refinement brackets 1 + z to 1e-16; 2^16 units keep it short
        h = ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1)
        monkeypatch.setattr(stability, "WORK_BUDGET", 1 << 16)
        b = mult_operator_norm(h, tol=1e-16)
        assert not b.certified
        assert b.upper - b.lower > 1e-16 * b.lower
        assert b.lower <= 2.0 <= b.upper
        assert b.upper - b.lower <= 1e-13

    def test_witness_angles_replay_lower_bound(self):
        # the symbol is sum_k h(k) e^{+i k theta}, the convention of
        # generalized_transfer on the torus; complex taps tell it from -theta
        h = ScaleSignal({(0,): 1.0, (1,): 1j, (2,): 0.5}, arity=1)
        b = mult_operator_norm(h, tol=1e-6)
        (theta,) = b.witness_angles
        value = abs(1.0 + 1j * np.exp(1j * theta) + 0.5 * np.exp(2j * theta))
        assert value == pytest.approx(b.lower, rel=1e-12)
        hs = ScaleTimeSignal([h, delta((1,), 1, 0.5j)], arity=1)
        report = dissipativity_check(hs)
        phi, theta = report.witnesses["argmax_angles"]
        value = abs(generalized_transfer(hs, np.exp(1j * phi), [np.exp(1j * theta)]))
        assert value == pytest.approx(report.sup_bracket.lower, rel=1e-12)

    def test_bracket_contains_independent_sup(self):
        # the certified upper bound must dominate values sampled on a randomly
        # offset dense grid the bracket never saw (2^16 points for p=1, 256^2
        # for p=2); tol 1.0 stops on the coarsest cells, where the cell bound
        # is least tight, tol 1e-3 a few halvings later
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

    def test_slices_peaked_apart_reach_the_measure_bound(self):
        # h_0 is the degree-3 Fejer kernel, peaked at theta = 0, and h_1 its
        # modulation, peaked at pi.  The gain sqrt 2 comes from the measure
        # (delta_0 + delta_pi) / 2; no point mass gives more than 1
        h0 = {(j + 3,): (1 - abs(j) / 4) / 4 for j in range(-3, 4)}
        h1 = {k: (-1) ** (k[0] - 3) * c for k, c in h0.items()}
        h = ScaleTimeSignal([ScaleSignal(h0, arity=1), ScaleSignal(h1, arity=1)])
        report = bibo_analysis(h)
        assert report.necessary_lower >= math.sqrt(2) * (1 - 1e-4)
        v = report.witnesses["maximizer"]
        assert abs(v.l2_norm() - 1.0) <= 1e-12
        assert v.array.size <= 1 << 16
        n = h.time_len - 1
        y = double_convolve(h, adversarial_input(h, n, v))
        assert y.slice(n).inner(v).real >= report.necessary_lower - 1e-8

    def test_wide_support_gets_a_wide_window(self):
        # the degree-2000 Fejer kernel has gain 1 and ||h||_2 = 0.018, so a
        # unit v on W cells gives ||h * v|| <= ||h||_2 sqrt(W): about 0.58 on
        # a fixed 1024-cell window.  The window follows the support instead
        n = 2000
        h0 = np.array([(1 - abs(j) / (n + 1)) / (n + 1) for j in range(-n, n + 1)], complex)
        h = ScaleTimeSignal._from_box(h0[None], (0,))
        report = bibo_analysis(h)
        assert report.necessary_lower >= 0.99
        v = report.witnesses["maximizer"]
        assert abs(v.l2_norm() - 1.0) <= 1e-12
        assert v.array.size <= 1 << 16

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
        cases += [cases[0].scale_causal_projection(), cases[5].scale_causal_projection()]
        for h in cases:
            report = bibo_analysis(h, tol=1e-6 if h.arity == 1 else 1e-3)
            # a scale-causal system's witness is placed in the cone, so the
            # cone compressions re-derive the same value
            derived = maximizer_value(h, report, project=h.is_cone_supported())
            lows, highs = h.support_box()
            assert tuple(s for s, _ in report.details["window_spans"]) == (
                highs if h.is_cone_supported() else lows)
            assert derived <= report.sufficient_upper * (1 + 1e-12)
            assert report.necessary_lower == pytest.approx(
                min(derived, report.sufficient_upper), rel=1e-9)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_scale_causal_witness_lies_in_the_cone(self, arity):
        # the witness window starts at the support box's upper corner, so
        # every adjoint image lies in the cone: the cone compressions then
        # re-derive necessary_lower, and the adversarial input built from it
        # is scale-causal
        rng = np.random.default_rng(29)
        h = random_time_signal(rng, arity, time_len=3, width=2, terms=3).scale_causal_projection()
        report = bibo_analysis(h, tol=1e-6 if arity == 1 else 1e-3)
        v = report.witnesses["maximizer"]
        lo, hi = v.support_box()
        assert tuple(s for s, _ in report.details["window_spans"]) == h.support_box()[1]
        assert all(a >= b for a, b in zip(lo, h.support_box()[1]))
        assert all(s <= a and b <= t
                   for (s, t), a, b in zip(report.details["window_spans"], lo, hi))
        derived = maximizer_value(h, report, project=True)
        assert report.necessary_lower == pytest.approx(
            min(derived, report.sufficient_upper), rel=1e-12)
        u = adversarial_input(h, h.time_len - 1, v)
        assert u.is_cone_supported() and not u.is_zero

    # a 13^5 box: at p = 5 the 2^16-cell window is no wider than the
    # support, W_a <= d_a = 12 (6 < 12 on two axes), and the witness grid
    # has W_a + d_a points per axis (32 per axis would exceed MAX_BOX_CELLS)
    WIDE_P5 = ScaleTimeSignal([ScaleSignal({(0,) * 5: 1.0, (12,) * 5: 0.5}, arity=5)])

    def test_window_narrower_than_support(self):
        h = self.WIDE_P5
        report = bibo_analysis(h)
        assert [t - s + 1 for s, t in report.details["window_spans"]] == [6, 6, 12, 12, 12]
        assert report.verdict == "pass"
        assert report.sufficient_upper == pytest.approx(1.5, rel=1e-6)
        derived = maximizer_value(h, report)
        assert report.necessary_lower == pytest.approx(derived, rel=1e-12, abs=0.0)
        assert 1.1 <= report.necessary_lower <= report.sufficient_upper

    def test_window_narrower_than_support_cli(self, tmp_path):
        path = tmp_path / "h.csv"
        write_time_signal(self.WIDE_P5, str(path))
        assert main(["analyze", "--property", "bibo", "--system", str(path)]) == 0

    def test_window_shrinks_for_the_slice_count(self, monkeypatch):
        # with a cap of 2^18, three p = 2 slices on 255 x 257 windows would
        # need 3 * 510 * 514 grid points: the widest axes are halved until
        # the three grid powers fit, and the value still matches the
        # maximizer's adjoint images
        rng = np.random.default_rng(7)
        values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        h = ScaleTimeSignal([ScaleSignal(dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], row)),
                                         arity=2) for row in values])
        full = bibo_analysis(h, tol=1e-3)
        monkeypatch.setattr(stability, "MAX_BOX_CELLS", 1 << 18)
        report = bibo_analysis(h, tol=1e-3)
        widths = [t - s + 1 for s, t in report.details["window_spans"]]
        assert widths == [127, 128]
        assert [t - s + 1 for s, t in full.details["window_spans"]] == [255, 257]
        assert 3 * math.prod(2 * w for w in widths) <= 1 << 18
        derived = maximizer_value(h, report)
        assert report.necessary_lower == pytest.approx(
            min(derived, report.sufficient_upper), rel=1e-12, abs=0.0)

    def test_witness_grid_refused_before_the_slice_brackets(self, monkeypatch):
        # under a cap of 7 points, even one-cell windows need a (2, 2) grid
        # for each of two slices
        h = ScaleTimeSignal([ScaleSignal({(0, 0): 1.0, (1, 1): 0.5}, arity=2)] * 2)
        monkeypatch.setattr(stability, "MAX_BOX_CELLS", 7)

        def spent(*args):
            raise AssertionError("slice brackets ran")

        monkeypatch.setattr(stability, "_slice_bound", spent)
        with pytest.raises(ValueError, match=r"witness grid \(2, 2\) for 2 slices"):
            bibo_analysis(h)

    def test_one_grid_after_the_slice_brackets(self, monkeypatch):
        # T grids of slice powers and one of the witness, all of one size
        events = []
        _slice_bound = stability._slice_bound

        def recording(array, origin, sizes):
            events.append(tuple(sizes))
            return torus_values(array, origin, sizes)

        def slice_bound(slices, tol):
            out = _slice_bound(slices, tol)
            events.append("brackets")
            return out

        monkeypatch.setattr(stability, "torus_values", recording)
        monkeypatch.setattr(stability, "_slice_bound", slice_bound)
        rng = np.random.default_rng(13)
        h = random_time_signal(rng, 1, time_len=3, width=2, terms=3)
        bibo_analysis(h)
        after = events[events.index("brackets") + 1:]
        lows, highs = h.support_box()
        assert after == [(2 * (256 * (highs[0] - lows[0]) + 1),)] * (h.time_len + 1)

    def test_flat_axis_gets_one_grid_point(self, monkeypatch):
        # h does not vary on axis 0 (d_0 = 0, W_0 = 1): one grid point there
        # holds every atom and adjoint image, so the power row and the
        # witness run on a (1, 1538) grid, not (2, 1538)
        sizes = []

        def recording(array, origin, grid):
            sizes.append(tuple(grid))
            return torus_values(array, origin, grid)

        monkeypatch.setattr(stability, "torus_values", recording)
        h = ScaleTimeSignal([ScaleSignal({(0, 0): 1.0, (0, 3): 0.5}, arity=2)])
        report = bibo_analysis(h, tol=1e-9)
        assert sizes[-2:] == [(1, 1538)] * 2
        assert report.details["window_spans"] == [(0, 0), (3, 771)]
        # the two-point grid gave 1.4999750882704517
        assert report.necessary_lower == pytest.approx(1.4999750882704517, rel=1e-15, abs=0.0)


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
            report = dissipativity_check(h)
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

    def test_resonant_input_replays_complex_taps(self):
        # symbol 0.6 + 0.6i z w: sup 1.2 where phi + theta = 3 pi / 2, zero at
        # the negated angles, so only the reported sign drives the gain up
        h = ScaleTimeSignal([delta((0,), 1, 0.6), delta((1,), 1, 0.6j)])
        report = dissipativity_check(h)
        assert report.verdict == "fail"
        phi, theta = report.witnesses["argmax_angles"]
        transfer = generalized_transfer(h, cmath.exp(1j * phi), [cmath.exp(1j * theta)])
        assert abs(transfer) == pytest.approx(report.witnesses["argmax_value"], rel=1e-12)
        u = resonant_input(1, 32, phi, (theta,), box=((0, 31),))
        assert u.norm("energy") == pytest.approx(1.0, abs=1e-12)
        assert double_convolve(h, u).norm("energy") > 1.0 + report.details["tol"]

    def test_one_term_fail_witness_replays(self):
        h = ScaleTimeSignal([delta((3,), 1, 2.0)])
        report = dissipativity_check(h)
        assert report.verdict == "fail"
        phi, theta = report.witnesses["argmax_angles"]
        u = resonant_input(1, 4, phi, (theta,), box=((0, 3),))
        assert double_convolve(h, u).norm("energy") > 1.0 + report.details["tol"]

    def test_resonant_input_checks_angle_count(self):
        with pytest.raises(ValueError, match="2 angles, got 1"):
            resonant_input(2, 4, 0.5, (0.25,))
        zero_angles = resonant_input(2, 4, 0.5)
        assert zero_angles.distance(resonant_input(2, 4, 0.5, (0.0, 0.0))) == 0.0

    @pytest.mark.parametrize("box", [[(2, 0)], [(0, 2), (1, 1)], []])
    def test_resonant_input_checks_box(self, box):
        # one (lo, hi) range per scale axis, lo <= hi
        with pytest.raises(ValueError, match=r"box must hold 1 \(lo, hi\) ranges"):
            resonant_input(1, 3, 0.0, box=box)

    @pytest.mark.parametrize("time_len", [0, -1])
    def test_resonant_input_refuses_empty_window(self, time_len):
        with pytest.raises(ValueError, match="time_len must be >= 1"):
            resonant_input(1, time_len, 0.0)

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
        # width 9 on both axes, sup 4, terms at (0, 0), (0, 8), (8, 0) and
        # (8, 8): on the lattice 8 Z^2 the symbol has width 2 per axis, and
        # the coarse grid has M_a = 8 > 2 (2 - 1) points on each axis
        taps = ScaleSignal({(0,): 1.0, (8,): 1.0}, arity=1)
        h = ScaleTimeSignal([taps] + [ScaleSignal.zero(1)] * 7 + [taps], arity=1)
        report = dissipativity_check(h)
        assert report.verdict == "fail"
        bracket = report.sup_bracket
        assert bracket.grid_sizes == (8, 8)
        assert bracket.lower == pytest.approx(4.0, rel=1e-12)

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
        report = dissipativity_check(h)
        assert report.verdict == "pass"
        assert report.details["gram_min_eigenvalue"] >= -1e-9
        # the zero system is scale-causal too: its kernel is the Szego product
        report = dissipativity_check(ScaleTimeSignal([ScaleSignal.zero(1)], arity=1))
        assert report.verdict == "pass"
        assert report.details["gram_min_eigenvalue"] > 0.0

    def test_gram_matches_elementwise_kernel(self):
        # the stacked Gram matrices against the entry-by-entry definition
        # (1 - g_i conj(g_j)) prod_a 1 / (1 - z_ia conj(z_ja)), g = h / (1 + tol),
        # on the fixed sample: 20 sets of 12 points, radius 0.9 sqrt(U) and
        # angle 2 pi U per set from one seed-0 stream
        tol = 1e-9
        h = ScaleTimeSignal([delta((0,), 1, 0.3), delta((1,), 1, 0.4)], arity=1)
        report = dissipativity_check(h, tol=tol)
        rng = np.random.default_rng(0)
        worst = math.inf
        for _ in range(20):
            r = 0.9 * np.sqrt(rng.random((12, 2)))
            pts = r * np.exp(1j * 2.0 * math.pi * rng.random((12, 2)))
            g = [generalized_transfer(h, pt[0], pt[1:]) / (1.0 + tol) for pt in pts]
            gram = np.empty((12, 12), complex)
            for i in range(12):
                for j in range(12):
                    kern = 1.0
                    for a in range(2):
                        kern /= 1.0 - pts[i, a] * np.conj(pts[j, a])
                    gram[i, j] = (1.0 - g[i] * np.conj(g[j])) * kern
            gram = 0.5 * (gram + gram.conj().T)
            worst = min(worst, float(np.linalg.eigvalsh(gram)[0]))
        assert report.details["gram_min_eigenvalue"] == pytest.approx(worst, abs=1e-12)

    @pytest.mark.parametrize("excess", [0.5, 0.9])
    def test_gram_sound_within_the_slack(self, excess):
        # sup |h| = 1 + excess tol passes, and the kernel of h / (1 + tol) is
        # positive; the kernel of h itself has eigenvalues near -1.4e-9 and
        # -2.9e-9 on this sample, which once raised a false gram_bug
        tol = 1e-9
        h = ScaleTimeSignal([ScaleSignal.zero(1), delta((0,), 1, 1.0 + excess * tol)],
                            arity=1)
        report = dissipativity_check(h, tol=tol)
        assert report.verdict == "pass"
        assert "gram_bug" not in report.details
        assert report.details["gram_min_eigenvalue"] >= -tol

    def test_gram_sample_is_fixed(self):
        # the report is a function of the system and tol alone
        assert list(inspect.signature(dissipativity_check).parameters) == ["h", "tol"]
        h = ScaleTimeSignal([delta((0,), 1, 0.3), delta((1,), 1, 0.4)], arity=1)
        assert dissipativity_check(h).details == dissipativity_check(h).details


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
        monkeypatch.setattr(stability, "WORK_BUDGET", 1 << 15)
        rng = np.random.default_rng(21)
        for p in (1, 2):
            for on_grid in (True, False, False):
                theta0 = np.zeros(p + 1) if on_grid else rng.uniform(0, 2 * math.pi, p + 1)
                h = peaked_system(rng, p, 3, 3, 1.0 + 2.0 * tol, theta0)
                report = dissipativity_check(h, tol=tol)
                assert report.verdict != "pass"
                if on_grid:
                    assert report.verdict == "fail"

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_sup_within_slack_never_fails(self, tol, monkeypatch):
        monkeypatch.setattr(stability, "WORK_BUDGET", 1 << 15)
        rng = np.random.default_rng(22)
        for p in (1, 2):
            for on_grid in (True, False, False):
                theta0 = np.zeros(p + 1) if on_grid else rng.uniform(0, 2 * math.pi, p + 1)
                h = peaked_system(rng, p, 3, 3, 1.0 + 0.5 * tol, theta0)
                report = dissipativity_check(h, tol=tol)
                assert report.verdict != "fail"

    @pytest.mark.parametrize("seed", [1, 11, 12])
    def test_sup_095_passes_on_a_coarse_grid(self, seed, tmp_path):
        # p = 2, two terms per slice across a width-3 box, T = 2, scaled so
        # the max on a 64^3 grid is 0.95: the cells put the upper bound below
        # 1 from a coarse grid of at most 2^15 points, far short of the budget
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
            mp.setattr(stability, "WORK_BUDGET", 1 << 16)
            report = dissipativity_check(h, tol=tol)
        bracket = report.sup_bracket
        if report.verdict == "pass":
            assert offset_grid_max(h, size, rng.uniform(0, 1)) <= bracket.upper <= 1.0 + tol
        elif report.verdict == "fail":
            phi, *thetas = report.witnesses["argmax_angles"]
            value = abs(generalized_transfer(h, np.exp(1j * phi), np.exp(1j * np.array(thetas))))
            assert value > 1.0 + tol


def corner_signal(rng, widths, step=1):
    """Random complex taps spanning exactly the box [0, w_a) on each axis,
    exponents multiplied by step."""
    p = len(widths)
    keys = {(0,) * p, tuple(w - 1 for w in widths)}
    keys |= {tuple(int(rng.integers(0, w)) for w in widths) for _ in range(3)}
    return ScaleSignal({tuple(step * k for k in key): complex(rng.standard_normal(),
                                                             rng.standard_normal())
                        for key in keys}, arity=p)


def line_signal(rng, p, terms, step):
    """Random complex taps on the line e_0 + j step d, one direction d."""
    d = [int(x) for x in rng.integers(-2, 3, p)]
    d[0] = d[0] or 1
    e0 = [int(x) for x in rng.integers(-3, 4, p)]
    return ScaleSignal({tuple(e + j * step * x for e, x in zip(e0, d)):
                        complex(rng.standard_normal(), rng.standard_normal())
                        for j in range(terms)}, arity=p)


def peaked_box(rng, shape):
    """A dense box whose symbol sum_e c_e e^{i e.theta} peaks off the grid,
    at a random theta0: its torus sup is exactly sum |c_e|."""
    theta0 = rng.uniform(0, 2 * math.pi, len(shape))
    phase = sum(np.arange(n).reshape((-1,) + (1,) * (len(shape) - 1 - a)) * t
                for a, (n, t) in enumerate(zip(shape, theta0)))
    return ScaleSignal._from_box(rng.uniform(0.2, 1.0, shape) * np.exp(-1j * phase),
                                 (0,) * len(shape))


def int_det(rows) -> int:
    """The determinant of a square integer matrix, by Leibniz's formula in
    Python integers."""
    n = len(rows)
    return sum((-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
               * math.prod(rows[i][perm[i]] for i in range(n))
               for perm in itertools.permutations(range(n)))


def symbol_at(h, angles) -> float:
    """|sum_e c_e e^{i e.theta}| at one point, by a direct sum."""
    return abs(sum(v * cmath.exp(1j * sum(e * t for e, t in zip(k, angles)))
                   for k, v in h.items()))


class TestToleranceGrid:
    """A precision bracket: sound, replayable, and certified within tol."""

    def test_verify_bibo_bound_is_the_analyzer_bound(self):
        # verify --property bibo runs the slice brackets alone and reports
        # the bound bibo_analysis reports
        rng = np.random.default_rng(31)
        h = ScaleTimeSignal([corner_signal(rng, (4,)) for _ in range(3)], arity=1)
        report = empirical_verify(h, "bibo", trials=2, seed=5)
        assert report.bound == bibo_analysis(h, tol=1e-6).sufficient_upper

    def test_lattice_reduction(self):
        # a line with step 2, a 1-D step with gcd 2, a checkerboard and Z^2
        lattice, m = _difference_lattice(np.array([[0, 0], [2, 2], [4, 4], [6, 6]]))
        assert lattice.tolist() == [[2, 2]] and m[:, 0].tolist() == [0, 1, 2, 3]
        lattice, m = _difference_lattice(np.array([[3], [7], [9]]))
        assert lattice.tolist() == [[2]] and m[:, 0].tolist() == [0, 2, 3]
        exps = np.array([[0, 0], [1, 1], [1, -1], [3, 1]])
        lattice, m = _difference_lattice(exps)
        assert abs(round(np.linalg.det(lattice))) == 2
        assert (m @ lattice == exps - exps[0]).all()
        lattice, m = _difference_lattice(np.array([[0, 0], [1, 5], [2, 0], [0, 1]]))
        assert lattice.tolist() == [[1, 0], [0, 1]]

    @settings(max_examples=120)
    @given(p=st.integers(1, 4), data=st.data())
    def test_lattice_is_the_hermite_normal_form(self, p, data):
        rows = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * p),
                                  min_size=2, max_size=7, unique=True))
        lattice, m = _difference_lattice(np.array(rows))
        basis, coords = lattice.tolist(), m.tolist()
        diffs = [[a - b for a, b in zip(row, rows[0])] for row in rows]
        # e_j - e_0 = m_j L exactly, in Python integers
        assert [[sum(c * row[a] for c, row in zip(cj, basis)) for a in range(p)]
                for cj in coords] == diffs
        # echelon, positive pivots, entries above a pivot in [0, pivot)
        pivots = [next(a for a, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        assert len(basis) == np.linalg.matrix_rank(np.array(diffs))
        for i, (row, c) in enumerate(zip(basis, pivots)):
            assert row[c] > 0 and all(0 <= above[c] < row[c] for above in basis[:i])
        if p == 1:
            assert basis == [[math.gcd(*(d[0] for d in diffs))]]
        if len(basis) == p <= 3:
            minors = [int_det(sub) for sub in itertools.combinations(diffs, p)]
            assert abs(int_det(basis)) == math.gcd(*minors)

    def test_ridge_reduces_to_one_variable(self):
        # terms at (0, 0) and (2, 2): |h| peaks on a ridge in theta, but
        # h(theta) = g(2 theta_1 + 2 theta_2) with g = c_0 + c_1 e^{i phi}
        h = ScaleSignal({(0, 0): 1.0, (2, 2): 0.5 - 0.5j}, arity=2)
        b = mult_operator_norm(h, tol=1e-9)
        assert b.certified and len(b.grid_sizes) == 1
        assert b.evaluations < 1000
        assert b.lower <= 1.0 + abs(0.5 - 0.5j) <= b.upper

    def test_dense_boxes_certify(self):
        for shape in ((6, 6), (512,)):
            h = peaked_box(np.random.default_rng(len(shape)), shape)
            b = mult_operator_norm(h, tol=1e-9)
            assert b.certified
            assert b.lower <= np.abs(h.array).sum() <= b.upper

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 3), kind=st.sampled_from(["box", "step", "line"]),
           tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_supports_bracket_their_sup(self, p, kind, tol, seed):
        # boxes, boxes on a lattice with step > 1, and lines (rank 1)
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(1, {1: 9, 2: 5, 3: 3}[p] + 1, p)]
        widths[0] = max(widths[0], 2)
        h = (corner_signal(rng, widths) if kind == "box"
             else corner_signal(rng, widths, step=int(rng.integers(2, 4))) if kind == "step"
             else line_signal(rng, p, int(rng.integers(2, 5)), int(rng.integers(1, 4))))
        b = mult_operator_norm(h, tol=tol)
        size = {1: 256, 2: 32, 3: 12}[p]
        assert offset_grid_max(ScaleTimeSignal([h]), size, rng.uniform(0, 1)) <= b.upper
        assert symbol_at(h, b.witness_angles) == pytest.approx(b.lower, rel=1e-12)
        assert b.lower <= b.upper
        if b.certified:
            assert b.upper - b.lower <= tol * b.lower

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           tol=st.floats(1e-12, 1e-2), budget_log=st.integers(12, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_brackets_are_sound(self, widths, tol, budget_log, seed):
        # budgets of 2^12 to 2^16 units, some of which stop the refinement
        widths = (max(widths[0], 2), *widths[1:])  # at least two terms
        rng = np.random.default_rng(seed)
        h = corner_signal(rng, widths)
        budget = 1 << budget_log
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "WORK_BUDGET", budget)
            b = mult_operator_norm(h, tol=tol)
        assert b.evaluations <= budget
        if b.certified:
            assert b.upper - b.lower <= tol * b.lower
        size = {1: 256, 2: 32, 3: 12}[len(widths)]
        assert offset_grid_max(ScaleTimeSignal([h]), size, rng.uniform(0, 1)) <= b.upper


class TestCellBound:
    def test_sharp_at_the_minimum_of_one_plus_z(self):
        # |(1 + e^{i phi}) / 2| = |cos(phi / 2)| has sup 1 and a zero at pi,
        # where value and gradient vanish: the bound is the second-order
        # term delta / 2 alone, and the cell reaches sin(delta / 2)
        m, coefs = np.array([[0], [1]]), np.array([0.5, 0.5 + 0j])
        centre = np.array([[math.pi]])
        for delta in (1.0, 0.1, 1e-3):
            ub = _cell_upper(_direct(centre, m, coefs), _direct_error(m, coefs),
                             np.array([delta]), 1.0, np.array([2]))[0]
            assert math.sin(delta / 2) <= ub <= math.sin(delta / 2) * (1 + delta ** 2 / 20) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 3), scale=st.sampled_from([1.0, 0.1, 0.01]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bound_covers_the_cell(self, p, scale, seed):
        # random taps, centres and half-widths; spread sum |c| >= sup |g|
        rng = np.random.default_rng(seed)
        m = rng.integers(-2, 3, (6, p))
        coefs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        widths = m.max(axis=0) - m.min(axis=0) + 1
        centres = rng.uniform(0, 2 * math.pi, (8, p))
        delta = scale * rng.uniform(0.1, 1.0, p)
        ub = _cell_upper(_direct(centres, m, coefs), _direct_error(m, coefs), delta,
                         float(np.abs(coefs).sum()), widths)
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
        for c, bound in zip(centres, ub):
            points = c + np.vstack([corners, rng.uniform(-1, 1, (200, p))]) * delta
            assert np.abs(_direct(points, m, coefs)[:, 0]).max() <= bound


class TestDirectError:
    @pytest.mark.parametrize("p, width, terms", [
        (1, 4, 2), (1, 40, 30), (1, 2000, 50), (2, 6, 20), (3, 4, 40), (2, 300, 8),
    ])
    def test_bound_covers_direct_sums_against_longdouble(self, p, width, terms):
        # random taps and points with coordinates in (-8, 8), as in _certify_sup
        rng = np.random.default_rng(p * width + terms)
        for _ in range(4):
            exps = rng.integers(-width // 2, width // 2 + 1, (terms, p))
            coefs = (rng.standard_normal(terms) + 1j * rng.standard_normal(terms)) \
                * 10.0 ** rng.uniform(-3, 3)
            points = rng.uniform(-8, 8, (64, p))
            got = _direct(points, exps, coefs)
            phase = points.astype(np.longdouble) @ exps.T.astype(np.longdouble)
            chars = np.exp(np.clongdouble(1j) * phase)
            exact = coefs.astype(np.clongdouble)
            weights = np.column_stack([exact, 1j * exps.astype(np.longdouble) * exact[:, None]])
            gap = np.abs(got - chars @ weights).max(axis=0)
            bound = _direct_error(exps, coefs)
            assert (gap <= bound).all()
            assert (bound <= 1e-10 * np.abs(weights).sum(axis=0)).all()


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


def probe(k):
    """2^k (1 + z^3 / 2 - i z^5 / 4), sup about 1.7363 2^k."""
    s = math.ldexp(1.0, k)
    return ScaleSignal({(0,): s, (3,): s / 2, (5,): -0.25j * s}, arity=1)


def times_pow2(array, k):
    """array 2^k, part by part: exact wherever the parts stay normal."""
    return np.ldexp(array.real, k) + 1j * np.ldexp(array.imag, k)


def normal(*values) -> bool:
    return all(np.finfo(float).tiny <= abs(v) < math.inf for v in values)


class TestPowerOfTwoScale:
    """Every torus bracket is exactly 2^k-equivariant wherever its results
    are normal doubles: the analyzers scale the largest part into [1/2, 1)."""

    @settings(max_examples=60)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=2),
           k=st.integers(-1000, 1000), threshold=st.sampled_from([None, 0.5, 2.0, 8.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bracket_scales_bit_for_bit(self, widths, k, threshold, seed):
        array = corner_signal(np.random.default_rng(seed), widths).array
        scaled = times_pow2(array, k)
        assume((times_pow2(scaled, -k) == array).all())
        ref = stability._certify_sup(array, 1e-9, threshold)
        assume(normal(math.ldexp(ref.lower, k), math.ldexp(ref.upper, k)))
        b = stability._certify_sup(scaled, 1e-9,
                                   None if threshold is None else math.ldexp(threshold, k))
        assert (b.lower, b.upper) == (math.ldexp(ref.lower, k), math.ldexp(ref.upper, k))
        assert (b.witness_angles, b.evaluations, b.certified, b.grid_sizes) == (
            ref.witness_angles, ref.evaluations, ref.certified, ref.grid_sizes)

    @settings(max_examples=40)
    @given(k=st.integers(-1000, 1000), seed=st.integers(0, 2 ** 32 - 1))
    def test_l1l2_gain_scales_bit_for_bit(self, k, seed):
        h = random_time_signal(np.random.default_rng(seed), 1, time_len=3, width=2, terms=3)
        ref = l1l2_gain(h)
        array = times_pow2(h.stack.array, k)
        assume((times_pow2(array, -k) == h.stack.array).all())
        scaled = ScaleTimeSignal._from_box(array, h.stack.origin[1:])
        energy = ref.details["coefficient_energy"]
        if math.frexp(energy)[1] + 2 * k > 1024:   # beyond the largest double
            with pytest.raises(ValueError, match="coefficient_energy .* is not a finite double"):
                l1l2_gain(scaled)
            return
        report = l1l2_gain(scaled)
        if normal(math.ldexp(ref.gain, k)):
            assert report.gain == math.ldexp(ref.gain, k)
        if normal(math.ldexp(energy, 2 * k)):
            assert report.details["coefficient_energy"] == math.ldexp(energy, 2 * k)

    def test_deep_scale_bracket_covers_the_grid_max(self):
        # 2^-600: squares of the unscaled parts would be subnormal, and the
        # upper bound fell 3.3e-5 below this grid max
        h = probe(-600)
        b = mult_operator_norm(h, tol=1e-9)
        theta = 2.0 * math.pi * np.arange(400001) / 400001
        grid_max = np.abs(sum(c * np.exp(1j * e[0] * theta) for e, c in h.items())).max()
        assert b.certified and grid_max <= b.upper and b.lower <= b.upper
        ref = mult_operator_norm(probe(0), tol=1e-9)
        assert (b.lower, b.upper) == (math.ldexp(ref.lower, -600), math.ldexp(ref.upper, -600))

    def test_large_scale_bracket_is_certified_and_finite(self):
        # 2^900: the upper bound was inf, uncertified
        b = mult_operator_norm(probe(900), tol=1e-9)
        ref = mult_operator_norm(probe(0), tol=1e-9)
        assert b.certified and math.isfinite(b.upper)
        assert (b.lower, b.upper) == (math.ldexp(ref.lower, 900), math.ldexp(ref.upper, 900))

    def test_deep_scale_bibo_and_l1l2_keep_their_values(self):
        # necessary_lower read 0 at 2^-600 and the gain 0 at 2^-538
        ref = bibo_analysis(ScaleTimeSignal([probe(0)]), tol=1e-9)
        report = bibo_analysis(ScaleTimeSignal([probe(-600)]), tol=1e-9)
        assert report.necessary_lower == math.ldexp(ref.necessary_lower, -600) > 0.0
        assert report.sufficient_upper == math.ldexp(ref.sufficient_upper, -600)
        two = lambda k: ScaleTimeSignal([ScaleSignal({(0,): math.ldexp(1.0, k),
                                                      (3,): math.ldexp(0.5, k)}, arity=1)])
        assert l1l2_gain(two(-538)).gain == math.ldexp(l1l2_gain(two(0)).gain, -538)
        with pytest.raises(ValueError, match=r"coefficient_energy 0\.3125 \* 2\^1026 is not"):
            l1l2_gain(two(512))

    def test_parts_spanning_beyond_the_normal_range_are_refused(self):
        h = ScaleSignal({(0,): 1.0, (1,): 2.0 ** -1030}, arity=1)
        with pytest.raises(ValueError, match="span more than 2\\^1021"):
            mult_operator_norm(h)

    def test_subnormal_symbol(self):
        # sup 1.5 2^-1060, below the normal range: the scale stops at 2^1021,
        # the bracket scaled back is rounded outward, and a threshold that
        # leaves the double range once scaled is above every sup
        h = ScaleTimeSignal([ScaleSignal({(0,): 2.0 ** -1060, (1,): 2.0 ** -1061}, arity=1)])
        report = dissipativity_check(h)
        assert report.verdict == "pass"
        assert report.sup_bracket.lower <= 1.5 * 2.0 ** -1060 <= report.sup_bracket.upper
        b = stability._certify_sup(h.stack.array, 1e-9, threshold=1e300)
        assert b.certified and b.upper == report.sup_bracket.upper


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

    @pytest.mark.parametrize("arity, entries", [
        (1, {(0, 0): 0.5, (1, 1): 0.3j, (2, 0): -0.1}),          # pass
        (1, {(0, 0): 0.9, (1, 2): 0.4 - 0.2j}),                   # fail
        (2, {(0, 0, 0): 0.4, (1, 1, 0): 0.3, (0, 2, 1): 0.2j}),  # pass
        (2, {(0, 0, 0): 0.8, (1, 0, 1): 0.5j, (2, 1, 1): 0.3}),  # fail
    ])
    def test_dissipative_bound_is_the_analyzer_bracket(self, arity, entries, monkeypatch):
        # the verdict of dissipativity_check(h, 1e-6), bit for bit, without
        # its Gram sample; a fail keeps that bracket's bound, and a pass is
        # checked against the tighter precision bracket's
        steps = 1 + max(e[0] for e in entries)
        h = ScaleTimeSignal([ScaleSignal({e[1:]: v for e, v in entries.items() if e[0] == n},
                                         arity=arity) for n in range(steps)], arity=arity)
        reference = dissipativity_check(h, 1e-6)
        assert "gram_min_eigenvalue" in reference.details
        bracket = reference.sup_bracket
        if reference.verdict == "pass":
            bracket = stability._certify_sup(h.stack.array, 1e-6)
            assert bracket.certified and bracket.upper < reference.sup_bracket.upper
        monkeypatch.setattr("scalekit.stability._evaluate", None)
        report = empirical_verify(h, "dissipative", trials=3, seed=0)
        assert report.bound == bracket.upper ** 2
        assert report.analyzer_verdict == reference.verdict
        assert report.max_ratio <= 1.0 + 1e-9


H1 = ScaleTimeSignal([delta((0,), 1, 0.5), delta((1,), 1, 0.25)], arity=1)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: mult_operator_norm(H1.slice(0), tol=-1.0), ValueError,
                 "tol must be finite and >= 0, got -1.0", id="sup-tol"),
    pytest.param(lambda: adversarial_input(H1, -1, delta((0,), 1)), ValueError,
                 "time index must be nonnegative", id="adversarial-time"),
    pytest.param(lambda: empirical_verify(H1, "bibo", 0, seed=0), ValueError,
                 "trials must be >= 1", id="verify-trials"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("prop", ["bibo", "dissipative", "l1l2"])
def test_verify_zero_system_has_zero_bound_and_ratio(prop):
    # a zero bound only comes from a zero system, whose output is zero too
    zero = ScaleTimeSignal([ScaleSignal.zero(1)], arity=1)
    report = empirical_verify(zero, prop, 2, seed=0)
    assert (report.bound, report.max_ratio, report.ok) == (0.0, 0.0, True)
