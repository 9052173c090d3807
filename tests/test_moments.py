import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    MomentSequence,
    herglotz_eval,
    stieltjes_invert,
    toeplitz_psd_check,
)
from scalekit.cli import main

TWO_PI = 2 * math.pi


def density_moments(density_vals, n_moments):
    """Moments of a nonnegative grid density: t_n = mean(|f|^2 e^{-in theta})."""
    m = len(density_vals)
    theta = TWO_PI * np.arange(m) / m
    return MomentSequence(
        tuple(np.mean(density_vals * np.exp(-1j * n * theta)) for n in range(n_moments))
    )


class TestMomentSequence:
    def test_rejects_complex_t0(self):
        with pytest.raises(ValueError, match="real"):
            MomentSequence((1j,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MomentSequence(())

    def test_negative_t0_allowed_then_rejected_by_check(self):
        # the matrix [[-1, 0.5], [0.5, -1]] has eigenvalues -1.5 and -0.5
        ms = MomentSequence((-1.0, 0.5))
        report = toeplitz_psd_check(ms)
        assert not report.is_psd
        assert report.order == 2
        assert report.min_eigenvalue == pytest.approx(-1.5, rel=1e-15)

    def test_negative_t0_is_refused_at_every_scale(self, tmp_path):
        # tol is relative to the largest part's power of two, so -1e-12 is
        # no longer within an absolute 1e-9 of zero
        report = toeplitz_psd_check(MomentSequence((-1e-12, 0.0)), tol=1e-9)
        assert not report.is_psd
        assert report.min_eigenvalue == pytest.approx(-1e-12, rel=1e-15)
        assert main(["moments-check", "--moments", '{"t": [[-1e-12, 0]]}', "--tol", "1e-9",
                     "--out", str(tmp_path / "r.json")]) == 1


class TestToeplitzPsd:
    def test_trivial(self):
        report = toeplitz_psd_check(MomentSequence((1.0,)))
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(1.0)
        assert report.order == 1

    def test_two_moments(self):
        report = toeplitz_psd_check(MomentSequence((1.0, 0.5)))
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_rejected_sequence(self):
        # tridiagonal Toeplitz [1, 0.8, 0]: eigenvalues 1 + 1.6 cos(k pi / 4)
        report = toeplitz_psd_check(MomentSequence((1.0, 0.8, 0.0)))
        assert not report.is_psd
        expected = 1.0 - 1.6 * math.cos(math.pi / 4)
        assert report.min_eigenvalue == pytest.approx(expected, abs=1e-12)
        assert report.order == 3

    def test_hermitian_complex_moments(self):
        report = toeplitz_psd_check(MomentSequence((1.0, 0.3 + 0.2j)))
        expected = 1.0 - abs(0.3 + 0.2j)
        assert report.min_eigenvalue == pytest.approx(expected, abs=1e-12)

    def test_density_moments_are_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = TWO_PI * np.arange(64) / 64
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f = np.polynomial.polynomial.polyval(np.exp(1j * theta), coeffs)
            report = toeplitz_psd_check(density_moments(np.abs(f) ** 2, 8), tol=1e-10)
            assert report.is_psd

    @settings(max_examples=100)
    @given(data=st.data(), order=st.integers(1, 64))
    def test_strided_matrix_matches_index_built(self, data, order):
        # the real symmetric A - BJ handed to eigvalsh, bit for bit, against
        # the matrix (t_{i-j}) gathered by index, t_{-m} = conj(t_m), of t
        # 2^-E, 2^E the power of two at or below its largest part
        part = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)
        zero = st.sampled_from([0.0, -0.0])
        t = [complex(data.draw(part), data.draw(zero))]
        t += [complex(data.draw(part), data.draw(part)) for _ in range(order)]
        top = max(max(abs(z.real), abs(z.imag)) for z in t)
        scale = math.frexp(top)[1] - 1 if top else 0
        col = np.array([complex(math.ldexp(z.real, -scale), math.ldexp(z.imag, -scale))
                        for z in t])
        diff = np.subtract.outer(np.arange(col.size), np.arange(col.size))
        matrix = np.where(diff >= 0, col[np.abs(diff)], np.conj(col)[np.abs(diff)])
        expected = matrix.real - matrix.imag[:, ::-1]
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or np.zeros(len(a)))
            toeplitz_psd_check(MomentSequence(tuple(t)))
        assert seen[0].shape == expected.shape
        assert seen[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [-600, -30, -1, 1, 30, 500])
    def test_signed_moments_refused_at_every_scale(self, tmp_path, k):
        # a unit point mass at 0.3 less half of one at 2 is not positive at
        # any scale; the question is asked of the same t 2^-E each time, so
        # the eigenvalue scales by exactly 2^k
        n = np.arange(7)
        t = np.exp(-0.3j * n) - 0.5 * np.exp(-2j * n)
        reports = []
        for scale in (0, k):
            moments = json.dumps({"t": [[math.ldexp(z.real, scale), math.ldexp(z.imag, scale)]
                                        for z in [t[0].real, *t[1:].tolist()]]})
            out = tmp_path / f"r{scale}.json"
            assert main(["moments-check", "--moments", moments, "--out", str(out)]) == 1
            reports.append(json.loads(out.read_text()))
        assert reports[0]["min_eigenvalue"] < -1.0
        assert reports[1]["is_psd"] is False
        assert reports[1]["min_eigenvalue"] == math.ldexp(reports[0]["min_eigenvalue"], k)


class TestHerglotz:
    def test_lebesgue_constant(self):
        ms = MomentSequence((1.0, 0.0, 0.0))
        assert herglotz_eval(ms, 0.3 + 0.2j).value == pytest.approx(1.0)

    def test_point_mass_cayley(self):
        # all moments one: value (1+z)/(1-z) with a geometric tail
        ms = MomentSequence(tuple([1.0] * 61))
        got = herglotz_eval(ms, 0.5)
        assert got.order == 60
        tail = 2 * 0.5 ** 61 / (1 - 0.5)
        assert abs(got.value - 3.0) <= tail + 1e-15
        assert got.value == pytest.approx(3.0, rel=1e-15)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            herglotz_eval(MomentSequence((1.0,)), 1.0)

    def test_positive_real_part_for_psd_sequences(self):
        rng = np.random.default_rng(9)
        theta = TWO_PI * np.arange(2048) / 2048
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = np.polynomial.polynomial.polyval(np.exp(1j * theta), coeffs)
        ms = density_moments(np.abs(f) ** 2, 600)
        assert toeplitz_psd_check(ms, tol=1e-8).is_psd
        for _ in range(500):
            r = 0.95 * math.sqrt(rng.random())
            phi = rng.uniform(0, TWO_PI)
            z = r * complex(math.cos(phi), math.sin(phi))
            assert herglotz_eval(ms, z).value.real >= -1e-10


class TestStieltjes:
    def test_lebesgue_interval(self):
        ms = MomentSequence((1.0, 0.0, 0.0))
        mass = stieltjes_invert(ms, 1.0, 2.0, 0.9)
        assert mass == pytest.approx((2.0 - 1.0) / TWO_PI, abs=1e-12)

    def test_point_mass_interval(self):
        # mass of delta at angle 0 through the Poisson kernel; closed form
        # (1/pi) [arctan((1+r)/(1-r) tan(theta/2))] at the endpoints
        r = 0.999
        n_moments = 20000
        ms = MomentSequence(tuple([1.0] * n_moments))
        got = stieltjes_invert(ms, -0.1, 0.1, r)
        ratio = (1 + r) / (1 - r)
        closed = (2 / math.pi) * math.atan(ratio * math.tan(0.05))
        assert abs(got - closed) < 1e-3
        assert got == pytest.approx(1.0, abs=1e-2)

    def test_point_mass_far_interval(self):
        r = 0.999
        ms = MomentSequence(tuple([1.0] * 20000))
        got = stieltjes_invert(ms, 1.0, 2.0, r)
        assert abs(got) < 1e-3

    def test_full_circle_recovers_total_mass(self):
        rng = np.random.default_rng(5)
        theta = TWO_PI * np.arange(256) / 256
        f = np.abs(np.polynomial.polynomial.polyval(
            np.exp(1j * theta), rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )) ** 2
        ms = density_moments(f, 60)
        for r in (0.5, 0.9):
            got = stieltjes_invert(ms, 0.0, TWO_PI, r)
            assert got == pytest.approx(ms.t[0].real, abs=1e-10)

    def test_interval_monotonicity(self):
        rng = np.random.default_rng(7)
        theta = TWO_PI * np.arange(256) / 256
        f = np.abs(np.polynomial.polynomial.polyval(
            np.exp(1j * theta), rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )) ** 2
        ms = density_moments(f, 400)
        inner = stieltjes_invert(ms, 1.0, 2.0, 0.9)
        outer = stieltjes_invert(ms, 0.8, 2.2, 0.9)
        assert inner <= outer + 1e-9

    def test_wrapped_interval_allowed(self):
        ms = MomentSequence((1.0, 0.0))
        mass = stieltjes_invert(ms, -0.5, 0.5, 0.5)
        assert mass == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_parameter_validation(self):
        ms = MomentSequence((1.0,))
        with pytest.raises(ValueError):
            stieltjes_invert(ms, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            stieltjes_invert(ms, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            stieltjes_invert(ms, 0.0, 7.0, 0.5)


def longdouble_mass(t, a, b, r):
    """The closed form of stieltjes_invert evaluated in np.longdouble."""
    ld = np.longdouble
    n = np.arange(1, len(t)).astype(ld)
    a, b, r = ld(a), ld(b), ld(r)
    re, im = t.real.astype(ld), t.imag.astype(ld)
    # Im(t_n (e^{inb} - e^{ina})) / n = Re(t_n (e^{inb} - e^{ina}) / (in))
    chord = re[1:] * (np.sin(n * b) - np.sin(n * a)) + im[1:] * (np.cos(n * b) - np.cos(n * a))
    return (re[0] * (b - a) + 2 * np.sum(chord * r ** n / n)) / (8 * np.arctan(ld(1)))


def roundoff_bound(t, a, b, r):
    """The roundoff bound stated in the stieltjes_invert docstring."""
    n = np.arange(1, len(t))
    weights = np.abs(t[1:]) * r ** n
    big_a = abs(t[0]) * (b - a) + 4 * np.sum(weights / n)
    big_p = np.sum(weights)
    return 2.0 ** -52 / TWO_PI * ((len(t) - 1 + 16) * big_a + 2 * (abs(a) + abs(b)) * big_p)


arcs = st.tuples(st.floats(-7.0, 7.0),
                 st.one_of(st.just(TWO_PI), st.floats(1e-9, TWO_PI)))


class TestStieltjesRoundoff:
    """stieltjes_invert against a long double evaluation of its closed form."""

    @settings(max_examples=150)
    @given(order=st.integers(0, 400), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3), arc=arcs, r=st.floats(1e-3, 1.0, exclude_max=True))
    def test_within_stated_bound(self, order, seed, scale, arc, r):
        rng = np.random.default_rng(seed)
        t = scale * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        t[0] = t[0].real
        a, length = arc
        b = a + length
        got = stieltjes_invert(MomentSequence(tuple(t)), a, b, r)
        assert abs(np.longdouble(got) - longdouble_mass(t, a, b, r)) <= roundoff_bound(t, a, b, r)

    @settings(max_examples=100)
    @given(order=st.integers(0, 400), arc=arcs, r=st.floats(1e-3, 1.0, exclude_max=True))
    def test_lebesgue_arc_length(self, order, arc, r):
        t = np.zeros(order + 1, complex)
        t[0] = 1.0
        a, length = arc
        b = a + length
        got = stieltjes_invert(MomentSequence(tuple(t)), a, b, r)
        exact = (np.longdouble(b) - np.longdouble(a)) / (8 * np.arctan(np.longdouble(1)))
        assert abs(np.longdouble(got) - exact) <= roundoff_bound(t, a, b, r)


class TestArrayCap:
    """The moments arrays obey MAX_BOX_CELLS like every signal box."""

    @staticmethod
    def refuses_before_allocating(call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_toeplitz_order(self):
        ms = MomentSequence((1.0,) + (0.0,) * 4096)  # 4097^2 > 2^24 cells
        self.refuses_before_allocating(lambda: toeplitz_psd_check(ms))


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: MomentSequence((1.0, complex(0.5, math.inf))), ValueError,
                 "moments must be finite, got (0.5+infj)", id="non-finite"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
