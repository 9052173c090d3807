"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import scalekit as sk
from scalekit import io as skio
from scalekit.cli import main as cli_main
from helpers import disc_point, random_hyperbolic, random_unit_coeffs, torus_points

TWO_PI = 2 * math.pi


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def geometric_system(a, arity=1, floor=1e-16):
    n_terms = 1 + int(math.floor(math.log(floor) / math.log(abs(a))))
    slices = [sk.ScaleSignal.delta((0,) * arity, arity, a ** n) for n in range(n_terms)]
    return sk.ScaleTimeSignal(slices, arity=arity)


def random_window_signal(rng, arity, time_len, half_width, terms):
    slices = []
    for _ in range(time_len):
        entries = {}
        for _ in range(terms):
            idx = tuple(int(k) for k in rng.integers(-half_width, half_width + 1, arity))
            entries[idx] = complex(rng.standard_normal(), rng.standard_normal())
        slices.append(sk.ScaleSignal(entries, arity=arity))
    return sk.ScaleTimeSignal(slices, arity=arity)


def padded(x, n):
    out = np.zeros(n, complex)
    out[: len(x)] = x.coeffs
    return out


def test_01_unitarity():
    with criterion(1, "coefficient isometry"):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            f = random_unit_coeffs(rng, max_deg=32)
            m = random_hyperbolic(rng, mult_lo=0.1, mult_hi=0.9)
            out = sk.transform_coeffs(m, f, 1e-10)
            defect = abs(out.l2_norm() ** 2 + out.tail_bound ** 2 - 1.0)
            assert defect <= 1e-8


def test_02_composition_and_inversion():
    with criterion(2, "operator composition order and inversion"):
        rng = np.random.default_rng(1002)
        for _ in range(100):
            f = random_unit_coeffs(rng, max_deg=16)
            m1 = random_hyperbolic(rng, mult_lo=0.3)
            m2 = random_hyperbolic(rng, mult_lo=0.3)
            nested = sk.transform_coeffs(m2, sk.transform_coeffs(m1, f, 1e-11), 1e-11)
            prod = m1.compose(m2)
            raw_a = m1.a * m2.a + m1.b * m2.b.conjugate()
            sign = 1.0 if abs(prod.a - raw_a) <= abs(prod.a + raw_a) else -1.0
            combined = sk.transform_coeffs(prod, f, 1e-11)
            n = max(len(nested), len(combined))
            assert np.abs(padded(nested, n) - sign * padded(combined, n)).max() <= 1e-8
            back = sk.transform_coeffs(m1.inverse(), sk.transform_coeffs(m1, f, 1e-11), 1e-11)
            n = max(len(back), len(f))
            assert np.abs(padded(back, n) - padded(f, n)).max() <= 1e-8


def test_03_kernel_identity():
    with criterion(3, "disc kernel identity"):
        rng = np.random.default_rng(1003)
        for _ in range(5):
            m = random_hyperbolic(rng)
            c, d = m.c, m.d
            for _ in range(1000):
                z, w = disc_point(rng), disc_point(rng)
                lhs = (1 - m.apply(z) * m.apply(w).conjugate()) / (1 - z * w.conjugate())
                rhs = 1.0 / ((c * z + d) * (c * w + d).conjugate())
                assert abs(lhs - rhs) <= 1e-12


def test_04_multiplier_law():
    with criterion(4, "multiplier law and order key"):
        for p, alphas in ((1, [0.5]), (2, [0.5, 1 / 3])):
            g = sk.make_group([sk.make_scale_shift(a, 0.25) for a in alphas])
            idxs = [()]
            for _ in range(p):
                idxs = [pre + (k,) for pre in idxs for k in range(-8, 9)]
            for idx in idxs:
                if all(k == 0 for k in idx):
                    continue
                expected = math.exp(-abs(g.order_key(idx)))
                assert abs(g.element(idx).multiplier() - expected) <= 1e-10
        for k in range(9):
            alpha = 2.0 ** k / 16.0
            for theta in (0.0, 0.3, -0.3, 1.2, -1.2):
                if alpha == 1.0:
                    continue
                got = sk.make_scale_shift(alpha, theta).multiplier()
                assert abs(got - min(alpha, 1 / alpha)) <= 1e-12


def test_05_engine_vs_oracle():
    with criterion(5, "convolution engine vs brute-force oracle"):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            p = int(rng.integers(1, 3))
            h = random_window_signal(rng, p, int(rng.integers(1, 7)), 4, 4)
            u = random_window_signal(rng, p, int(rng.integers(1, 7)), 4, 4)
            direct = sk.double_convolve(h, u)
            oracle = sk.brute_force_double_convolve(h, u)
            fast = sk.double_convolve(h, u, method="fft")
            assert direct.distance(oracle) <= 1e-12
            assert fast.distance(direct) <= 1e-10


def test_06_spectral_identity():
    with criterion(6, "transfer-function product identity"):
        rng = np.random.default_rng(1006)
        for _ in range(50):
            p = int(rng.integers(1, 3))
            h = random_window_signal(rng, p, int(rng.integers(1, 4)), 4, 3)
            u = random_window_signal(rng, p, int(rng.integers(1, 4)), 4, 3)
            y = sk.double_convolve(h, u)
            sizes = [32] * p
            z = 0.6 * np.exp(1j * rng.uniform(0, TWO_PI))
            hy = sk.transfer_grid(y, z, sizes).values
            prod = (sk.transfer_grid(h, z, sizes).values
                    * sk.transfer_grid(u, z, sizes).values)
            assert np.abs(hy - prod).max() <= 1e-10


def test_07_plancherel():
    with criterion(7, "grid-mean energy identity"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            p = int(rng.integers(1, 3))
            x = random_window_signal(rng, p, 1, 4, 5).slice(0)
            grid = sk.scale_fourier(x, [16] * p)
            assert abs(grid.mean_square() - x.l2_norm() ** 2) <= 1e-12


def test_08_hermite_multiplicativity():
    with criterion(8, "polynomial transform multiplicativity"):
        rng = np.random.default_rng(1008)
        for _ in range(100):
            p = int(rng.integers(1, 3))
            f = random_window_signal(rng, p, 1, 3, 4).slice(0)
            g = random_window_signal(rng, p, 1, 3, 4).slice(0)
            fg = sk.group_convolve(f, g)
            # as many torus points per axis as the product is wide: the
            # grid's DFT is invertible, so values pin down coefficients
            pts = torus_points(fg.array.shape)
            lhs = sk.hermite_transform(fg, pts)
            rhs = sk.hermite_transform(f, pts) * sk.hermite_transform(g, pts)
            assert np.abs(lhs - rhs).max() <= 1e-13


def test_09_moment_machinery():
    with criterion(9, "moment positivity and inversion"):
        rep = sk.toeplitz_psd_check(sk.MomentSequence((1.0, 0.5)))
        assert rep.is_psd and abs(rep.min_eigenvalue - 0.5) <= 1e-12

        rep = sk.toeplitz_psd_check(sk.MomentSequence((1.0, 0.8, 0.0)))
        assert not rep.is_psd
        assert abs(rep.min_eigenvalue - (1 - 1.6 * math.cos(math.pi / 4))) <= 1e-4

        point_mass = sk.MomentSequence(tuple([1.0] * 20000))
        mass = sk.stieltjes_invert(point_mass, -0.1, 0.1, 0.999)
        assert abs(mass - 1.0) <= 1e-2

        lebesgue = sk.MomentSequence((1.0, 0.0, 0.0))
        mass = sk.stieltjes_invert(lebesgue, 1.0, 2.0, 0.9)
        assert abs(mass - 1.0 / TWO_PI) <= 1e-12

        sixty = sk.MomentSequence(tuple([1.0] * 61))
        full = sk.stieltjes_invert(sixty, 0.0, TWO_PI, 0.9)
        assert abs(full - 1.0) <= 1e-10


def test_10_bibo():
    with criterion(10, "bounded-input bounded-output bracket"):
        h = geometric_system(0.5)
        report = sk.bibo_analysis(h)
        assert abs(report.sufficient_upper - 2.0) <= 1e-10

        v = report.witnesses["maximizer"]
        n = h.time_len - 1
        u = sk.adversarial_input(h, n, v)
        y = sk.double_convolve(h, u)
        assert y.slice(n).inner(v).real >= report.necessary_lower - 1e-8

        emp = sk.empirical_verify(h, "bibo", trials=50, seed=1010)
        assert emp.max_ratio * emp.bound <= report.sufficient_upper + 1e-9


def test_11_dissipativity():
    with criterion(11, "dissipativity certificates"):
        h_pass = sk.ScaleTimeSignal([sk.ScaleSignal.delta((0,), 1, 0.9)], arity=1)
        rep = sk.dissipativity_check(h_pass)
        assert rep.verdict == "pass"
        assert abs(rep.sup_bracket.lower - 0.9) <= 1e-10
        assert abs(rep.sup_bracket.upper - 0.9) <= 1e-10
        assert rep.details["gram_min_eigenvalue"] >= -1e-9
        emp = sk.empirical_verify(h_pass, "dissipative", trials=50, seed=1111)
        assert emp.max_ratio * emp.bound <= 0.81 + 1e-9

        h_fail = sk.ScaleTimeSignal(
            [sk.ScaleSignal.delta((0,), 1), sk.ScaleSignal.delta((0,), 1)], arity=1
        )
        rep = sk.dissipativity_check(h_fail)
        assert rep.verdict == "fail"
        assert rep.witnesses["argmax_value"] > 1.0
        phi = rep.witnesses["argmax_angles"][0]
        u = sk.resonant_input(1, 64, phi, rep.witnesses["argmax_angles"][1:])
        y = sk.double_convolve(h_fail, u)
        assert y.norm("energy") > u.norm("energy")

        h_edge = sk.ScaleTimeSignal(
            [sk.ScaleSignal.zero(1), sk.ScaleSignal.delta((1,), 1)], arity=1
        )
        rep = sk.dissipativity_check(h_edge)
        assert rep.verdict == "pass"
        assert abs(rep.sup_bracket.lower - 1.0) <= 1e-10
        assert abs(rep.sup_bracket.upper - 1.0) <= 1e-10
        assert rep.details["gram_min_eigenvalue"] >= -1e-9


def test_12_l1_l2():
    with criterion(12, "l1-to-l2 gain"):
        h = geometric_system(0.6)
        report = sk.l1l2_gain(h)
        assert abs(report.gain - 1.25) <= 1e-10

        impulse = sk.ScaleTimeSignal([sk.ScaleSignal.delta((0,), 1)], arity=1)
        y = sk.double_convolve(h, impulse)
        assert abs(y.norm("energy") - report.gain ** 2) <= 1e-10

        rng = np.random.default_rng(1012)
        for _ in range(50):
            u = random_window_signal(rng, 1, 4, 2, 3)
            y = sk.double_convolve(h, u)
            margin = report.gain * u.norm("l1_l2") - math.sqrt(y.norm("energy"))
            assert margin >= -1e-9


def test_13_cli_determinism(tmp_path):
    with criterion(13, "deterministic command line reports"):
        system = tmp_path / "system.json"
        rng = np.random.default_rng(1013)
        sig = random_window_signal(rng, 1, 3, 2, 3)
        skio.write_time_signal(sig, str(system))

        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = cli_main(["analyze", "--property", "bibo", "--system",
                             str(system), "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

        for name in ("v1.json", "v2.json"):
            out = tmp_path / name
            code = cli_main(["verify", "--property", "l1l2", "--system",
                             str(system), "--trials", "20", "--seed", "7",
                             "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[2] == blobs[3]

        h = random_window_signal(rng, 1, 3, 2, 3)
        u = random_window_signal(rng, 1, 4, 2, 3)
        hp, up = tmp_path / "h.csv", tmp_path / "u.csv"
        skio.write_time_signal(h, str(hp))
        skio.write_time_signal(u, str(up))
        yf, yo = tmp_path / "yf.csv", tmp_path / "yo.csv"
        assert cli_main(["filter", "--h", str(hp), "--u", str(up),
                         "--out", str(yf)]) == 0
        assert cli_main(["oracle", "--h", str(hp), "--u", str(up),
                         "--out", str(yo)]) == 0
        got = skio.read_time_signal(str(yf))
        ref = skio.read_time_signal(str(yo))
        assert got.distance(ref) <= 1e-12
