import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalekit.hardy as hardy
from scalekit.spectral import _horner
from scalekit import (
    CoeffSeq,
    MomentSequence,
    SuMatrix,
    TruncationError,
    herglotz_eval,
    make_group,
    make_scale_shift,
    scale_transform,
    transform_coeffs,
)
from helpers import (
    _column_head_grid,
    per_column_scale_transform,
    random_elliptic,
    random_hyperbolic,
    random_unit_coeffs,
)


def padded_distance(x: CoeffSeq, y: CoeffSeq) -> float:
    n = max(len(x), len(y))
    a = np.zeros(n, complex)
    b = np.zeros(n, complex)
    a[: len(x)] = x.coeffs
    b[: len(y)] = y.coeffs
    return float(np.abs(a - b).max())


def composition_sign(m1, m2, combined) -> float:
    """Sign relating the raw matrix product to its normalized representative.

    The coefficient operator is a genuine representation of the matrix group,
    so the prefactor flips sign exactly when normalization flips the product.
    """
    raw_a = m1.a * m2.a + m1.b * m2.b.conjugate()
    return 1.0 if abs(combined.a - raw_a) <= abs(combined.a + raw_a) else -1.0


class TestTransformCoeffs:
    def test_identity_map_returns_input(self):
        f = CoeffSeq(np.array([1.0, 2.0, 3.0j]))
        out = transform_coeffs(SuMatrix.identity(), f, 1e-12)
        assert padded_distance(out, f) == 0.0
        assert out.tail_bound == 0.0

    def test_geometric_closed_form(self):
        # f = [1], quarter scale: pole at -d/c, output 0.8 * (-0.6)^n
        m = make_scale_shift(0.25, 0.0)
        out = transform_coeffs(m, [1.0], 1e-10)
        n = np.arange(len(out))
        expected = 0.8 * (-0.6) ** n
        assert np.abs(out.coeffs - expected).max() < 1e-14
        assert abs(out.l2_norm() ** 2 - 0.64 / (1 - 0.36)) < 1e-12

    def test_elliptic_closed_form(self):
        rng = np.random.default_rng(2)
        m = random_elliptic(rng)
        f = random_unit_coeffs(rng, max_deg=16)
        out = transform_coeffs(m, f, 1e-12)
        psi = np.angle(m.a)
        n = np.arange(len(f))
        expected = np.exp(1j * (2 * n + 1) * psi) * f.coeffs
        assert len(out) == len(f)
        assert np.abs(out.coeffs - expected).max() < 1e-13
        assert out.tail_bound == f.tail_bound

    def test_tail_bound_covers_true_tail(self):
        m = make_scale_shift(0.25, 0.3)
        f = CoeffSeq(np.array([0.5, -0.25j, 1.0]))
        out = transform_coeffs(m, f, 1e-8)
        true_tail_sq = f.l2_norm() ** 2 - out.l2_norm() ** 2
        assert true_tail_sq < out.tail_bound ** 2 + 1e-15
        assert out.tail_bound <= 1e-8

    def test_unitary_on_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            f = random_unit_coeffs(rng)
            m = random_hyperbolic(rng)
            out = transform_coeffs(m, f, 1e-10)
            defect = abs(out.l2_norm() ** 2 + out.tail_bound ** 2 - 1.0)
            assert defect < 1e-8

    def test_operator_composition_order(self):
        # applying m1 then m2 equals one transform by the product m1 m2,
        # up to the sign the +-I normalization may take out of the product
        rng = np.random.default_rng(13)
        for _ in range(100):
            f = random_unit_coeffs(rng, max_deg=12)
            m1 = random_hyperbolic(rng, mult_lo=0.3)
            m2 = random_hyperbolic(rng, mult_lo=0.3)
            once = transform_coeffs(m2, transform_coeffs(m1, f, 1e-11), 1e-11)
            prod = m1.compose(m2)
            sign = composition_sign(m1, m2, prod)
            combined = transform_coeffs(prod, f, 1e-11)
            scaled = CoeffSeq(sign * combined.coeffs, combined.tail_bound)
            assert padded_distance(once, scaled) < 1e-8

    def test_reversed_operator_order_detectable(self):
        # with non-commuting maps the other nesting disagrees: the order in
        # the composition law is observable, not conventional
        rng = np.random.default_rng(99)
        found = 0.0
        for _ in range(10):
            f = random_unit_coeffs(rng, max_deg=8)
            m1 = random_hyperbolic(rng, mult_lo=0.3)
            m2 = random_hyperbolic(rng, mult_lo=0.3)
            swapped = transform_coeffs(m1, transform_coeffs(m2, f, 1e-11), 1e-11)
            prod = m1.compose(m2)
            sign = composition_sign(m1, m2, prod)
            combined = transform_coeffs(prod, f, 1e-11)
            scaled = CoeffSeq(sign * combined.coeffs, combined.tail_bound)
            found = max(found, padded_distance(swapped, scaled))
        assert found > 1e-3

    def test_inverse_restores_coefficients(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            f = random_unit_coeffs(rng, max_deg=12)
            m = random_hyperbolic(rng, mult_lo=0.3)
            back = transform_coeffs(m.inverse(), transform_coeffs(m, f, 1e-11), 1e-11)
            n = max(len(back), len(f))
            a = np.zeros(n, complex)
            a[: len(back)] = back.coeffs
            a[: len(f)] -= f.coeffs
            assert np.abs(a).max() < 1e-8

    def test_sup_norm_contraction(self):
        # sup of |T f| on a near-boundary circle is at most max|f| / (|d|-|c|)
        rng = np.random.default_rng(31)
        angles = np.exp(2j * np.pi * np.arange(512) / 512)
        for _ in range(20):
            f = random_unit_coeffs(rng, max_deg=16)
            m = random_hyperbolic(rng, mult_lo=0.4)
            out = transform_coeffs(m, f, 1e-12)
            zs = (1 - 1e-3) * angles
            fvals = np.polynomial.polynomial.polyval(zs, f.coeffs)
            tvals = np.polynomial.polynomial.polyval(zs, out.coeffs)
            bound = np.abs(fvals).max() / (abs(m.d) - abs(m.c))
            assert np.abs(tvals).max() <= bound * (1 + 1e-6) + out.tail_bound * 40

    def test_zero_input(self):
        m = make_scale_shift(0.5, 0.1)
        out = transform_coeffs(m, np.zeros(4), 1e-12)
        assert out.l2_norm() == 0.0
        assert out.tail_bound == 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            transform_coeffs(SuMatrix.identity(), [1.0], 0.0)

    def test_truncation_budget_error_reports_bound(self, monkeypatch):
        m = make_scale_shift(0.1, 1.2)
        monkeypatch.setattr(hardy, "MAX_LEN", 64)
        with pytest.raises(TruncationError) as err:
            transform_coeffs(m, np.ones(33), 1e-10)
        assert err.value.achieved_bound > 1e-10

    def test_input_tail_carried_to_output(self):
        m = make_scale_shift(0.5, 0.0)
        f = CoeffSeq(np.array([1.0 + 0j]), tail_bound=0.25)
        out = transform_coeffs(m, f, 1e-9)
        assert out.tail_bound >= 0.25


class TestSampledTransform:
    @pytest.mark.parametrize("mult, degree, scale, cap", [
        (0.6, 15, 3, None),
        (0.8, 255, 8, None),
        (0.6, 63, 10, None),       # about 47.6k of the 65,536 budget
        (0.6, 15, 12, "exact"),    # budget set to the certified length
    ])
    def test_head_matches_direct_evaluation(self, mult, degree, scale, cap, monkeypatch):
        # |sum_k e_k z^k| <= ||e||_2 / sqrt(1 - r^2) on |z| = r for the
        # error e of the returned head, tail and aliasing included, plus
        # roundoff of the samples (|g| <= sum|f_k| (|a| + |b|) on the circle)
        rng = np.random.default_rng(degree + scale)
        f = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f /= np.linalg.norm(f)
        m = make_group([make_scale_shift(mult, 0.2)]).element((scale,))
        tol = 1e-10
        out = transform_coeffs(m, f, tol)
        if cap == "exact":
            monkeypatch.setattr(hardy, "MAX_LEN", len(out))
            out = transform_coeffs(m, f, tol)
        assert out.tail_bound <= tol
        r = 0.5
        zs = r * np.exp(2j * np.pi * np.arange(16) / 16)
        den = m.c * zs + m.d
        direct = np.polynomial.polynomial.polyval((m.a * zs + m.b) / den, f) / den
        head = np.polynomial.polynomial.polyval(zs, out.coeffs)
        m1 = np.abs(f).sum() * (abs(m.a) + abs(m.b))
        allowed = out.tail_bound / math.sqrt(1 - r * r) + 64 * 2.2e-16 * len(f) * m1
        assert np.abs(head - direct).max() <= allowed

    def test_bound_beyond_double_range_is_truncation_error(self):
        rng = np.random.default_rng(255)
        f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        f /= np.linalg.norm(f)
        g = make_group([make_scale_shift(0.3, 0.2)])
        assert transform_coeffs(g.element((3,)), f, 1e-10).tail_bound <= 1e-10
        # at scale 32 the pole radius is one ulp above 1, so no ladder radius
        # bounds the tail within double range
        with pytest.raises(TruncationError) as err:
            transform_coeffs(g.element((32,)), f, 1e-10)
        assert err.value.achieved_bound == math.inf
        # the same one-ulp pair built directly, whatever rounding element
        # takes at that depth
        with pytest.raises(TruncationError) as err:
            transform_coeffs(SuMatrix(116152865.6270941 + 23545351.515702315j,
                                      118515280.75055875), f, 1e-10)
        assert err.value.achieved_bound == math.inf
        # multiplier 0.6 at scale 12 misses the budget by a finite bound
        with pytest.raises(TruncationError) as err:
            transform_coeffs(make_group([make_scale_shift(0.6, 0.2)]).element((12,)), f, 1e-10)
        assert 1e-10 < err.value.achieved_bound < math.inf

    def test_grid_beyond_cap_falls_back_to_plain_sum(self):
        # degree 4095 samples 9 circles at M = 8192 angles: 3e8 Horner cell
        # steps exceed MAX_BOX_CELLS, so no (9, M) grid may be allocated
        rng = np.random.default_rng(4095)
        f = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        f /= np.linalg.norm(f)
        m = make_group([make_scale_shift(0.6, 0.2)]).element((12,))
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError) as err:
                transform_coeffs(m, f, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1e-10 < err.value.achieved_bound < math.inf
        assert peak < 9 * 8192 * 16   # one complex (9, M) array

    def test_plain_sum_memory_is_linear_in_degree(self):
        # the plain sum over the nine radii at degree 2^18: a (9, deg + 1)
        # array of log terms would take 38 MB, one radius at a time ~32 B
        # per coefficient
        rng = np.random.default_rng(18)
        f = rng.standard_normal((1 << 18) + 1) + 1j * rng.standard_normal((1 << 18) + 1)
        f /= np.linalg.norm(f)
        m = make_group([make_scale_shift(0.6, 0.2)]).element((12,))
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                transform_coeffs(m, f, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * f.size

    @settings(max_examples=30)
    @given(mult=st.floats(0.5, 0.95), theta=st.floats(-0.99, 0.99),
           scale=st.integers(-6, 8), degree=st.integers(0, 63),
           trailing=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_truncation_bound_sound_and_tight(self, mult, theta, scale, degree,
                                              trailing, seed):
        # reference: the same samples at 8x the output's power of two, one FFT
        rng = np.random.default_rng(seed)
        f = np.zeros(degree + 1 + trailing, complex)
        f[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f /= np.linalg.norm(f)
        m = make_group([make_scale_shift(mult, theta)]).element((scale,))
        tol = 1e-10
        try:
            out = transform_coeffs(m, f, tol)
        except TruncationError as err:
            assert err.achieved_bound > tol
            return
        n = len(out)
        size = 8 << (2 * n - 1).bit_length()
        z = np.exp(2j * np.pi * np.arange(size) / size)
        den = m.c * z + m.d
        ref = np.fft.fft(np.polynomial.polynomial.polyval((m.a * z + m.b) / den, f) / den,
                         norm="forward")
        err = math.sqrt(np.sum(np.abs(out.coeffs - ref[:n]) ** 2)
                        + np.sum(np.abs(ref[n:]) ** 2))
        m1 = np.abs(f).sum() * (abs(m.a) + abs(m.b))
        assert err <= out.tail_bound + 64 * 2.2e-16 * len(f) * m1
        tail = np.sqrt(np.cumsum(np.abs(ref[::-1]) ** 2))[::-1]
        true_len = int(np.argmax(tail <= tol))
        if true_len >= 16:
            assert n <= 1.6 * true_len

    def test_horner_is_polyval(self):
        # bit for bit, signed zeros included, on a (9, M) grid and 1-D input
        rng = np.random.default_rng(5)
        c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c[::7] = c[::7].real
        grid = rng.standard_normal((9, 128)) + 1j * rng.standard_normal((9, 128))
        grid[0, :4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
        line = 0.9 * np.exp(2j * np.pi * np.arange(1000) / 1000)
        for x, coeffs in ((grid, c), (line, c), (line, c[:1]), (grid, c[::-1])):
            ref = np.polynomial.polynomial.polyval(x, coeffs)
            out = _horner(x, coeffs)
            np.testing.assert_array_equal(out, ref)
            assert out.tobytes() == ref.tobytes()
        # herglotz_eval: a Python complex point and the moments' coefficients
        ms = MomentSequence((1.0,) + tuple(0.3 * c[1:40]))
        for z in (0.5 - 0.25j, complex(-0.0, 0.9), 0j):
            ref = np.polynomial.polynomial.polyval(z, ms.herglotz_coeffs())
            out = herglotz_eval(ms, z).value
            assert np.complex128(out).tobytes() == np.complex128(ref).tobytes()


class TestScaleTransform:
    def test_identity_window_column_equals_input(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        result = scale_transform(g, [1.0, 0.5j], [(0,)], time_len=4, tol=1e-10)
        assert result.slice(0).get((0,)) == 1.0
        assert result.slice(1).get((0,)) == 0.5j
        assert result.slice(2).get((0,)) == 0.0

    def test_geometric_columns(self):
        g = make_group([make_scale_shift(0.25, 0.0)])
        result = scale_transform(g, [1.0], [(0,), (1,), (2,)], time_len=8, tol=1e-10)
        for k in range(3):
            m = g.element((k,))
            c, d = m.c, m.d
            for n in range(8):
                expected = (1 / d) * (-c / d) ** n
                assert abs(result.slice(n).get((k,)) - expected) < 1e-12

    def test_column_energy_preserved(self):
        g = make_group([make_scale_shift(0.5, 0.2)])
        rng = np.random.default_rng(7)
        f = random_unit_coeffs(rng, max_deg=8)
        tol = 1e-9
        window = [(k,) for k in range(-2, 3)]
        result = scale_transform(g, f, window, time_len=4096, tol=tol)
        for k in window:
            energy = sum(
                abs(result.slice(n).get(k)) ** 2 for n in range(result.time_len)
            )
            assert abs(energy - 1.0) < 2 * tol + 1e-10

    def test_window_energy_bound(self):
        # unit-norm input over W scales has total energy at most W
        g = make_group([make_scale_shift(0.5, 0.1)])
        rng = np.random.default_rng(11)
        f = random_unit_coeffs(rng, max_deg=6)
        window = [(k,) for k in range(4)]
        tol = 1e-9
        result = scale_transform(g, f, window, time_len=2048, tol=tol)
        assert result.norm("energy") <= len(window) + 2 * tol

    def test_rejects_empty_window(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        with pytest.raises(ValueError):
            scale_transform(g, [1.0], [], time_len=4, tol=1e-9)

    def test_error_names_offending_index(self, monkeypatch):
        g = make_group([make_scale_shift(0.1, 1.2)])
        monkeypatch.setattr(hardy, "MAX_LEN", 64)
        with pytest.raises(TruncationError, match=r"scale index \(3,\)"):
            scale_transform(g, np.ones(33), [(0,), (3,)], time_len=8, tol=1e-10)

    def test_deep_column_samples_few_points(self, monkeypatch):
        # multiplier 0.6, degree 15, scale 12: about 18k coefficients are
        # certified, which the unit circle would sample at 65,536 points
        sizes = []
        sample = hardy._sample_heads

        def counted(mats, f, n, column_sizes, rhos):
            sizes.extend(column_sizes.tolist())
            return sample(mats, f, n, column_sizes, rhos)

        monkeypatch.setattr(hardy, "_sample_heads", counted)
        rng = np.random.default_rng(27)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        f /= np.linalg.norm(f)
        g = make_group([make_scale_shift(0.6, 0.2)])
        scale_transform(g, f, [(12,)], time_len=256, tol=1e-9)
        assert len(sizes) == 1 and sizes[0] <= 4096

    def test_plain_sum_decides_before_sampling(self, monkeypatch):
        # the transform benchmark's deepest one-generator window: the plain
        # sum P certifies every column, so no ladder circle is sampled
        calls = []
        sampled = hardy._sampled_ladder

        def counted(f, center, rad, log_p):
            calls.append(len(f))
            return sampled(f, center, rad, log_p)

        monkeypatch.setattr(hardy, "_sampled_ladder", counted)
        g = make_group([make_scale_shift(0.6, 0.2)])
        rng = np.random.default_rng(63)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f /= np.linalg.norm(f)
        scale_transform(g, f, [(k,) for k in range(12)], time_len=256, tol=1e-9)
        assert calls == []
        # within the budget only from the samples (P needs 174 at degree 64)
        h = make_group([make_scale_shift(0.8, 0.2)])
        rng = np.random.default_rng(64)
        f64 = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        f64 /= np.linalg.norm(f64)
        monkeypatch.setattr(hardy, "MAX_LEN", 171)
        transform_coeffs(h.element((3,)), f64, 1e-9)
        scale_transform(h, f64, [(3,)], time_len=256, tol=1e-9)
        assert calls == [65, 65]
        # over the budget: the samples decide, and the error is transform_coeffs's
        monkeypatch.setattr(hardy, "MAX_LEN", 64)
        with pytest.raises(TruncationError) as col:
            scale_transform(g, f, [(11,)], time_len=256, tol=1e-9)
        with pytest.raises(TruncationError) as err:
            transform_coeffs(g.element((11,)), f, 1e-9)
        assert calls == [65, 65, 64, 64]
        assert str(col.value) == f"scale index (11,): {err.value}"
        assert col.value.achieved_bound == err.value.achieved_bound

    @settings(max_examples=30)
    @given(mult=st.floats(0.5, 0.95), theta=st.floats(-0.99, 0.99),
           scale=st.integers(-6, 8), degree=st.integers(0, 63),
           trailing=st.integers(0, 4), rows=st.sampled_from(["one", "below", "above"]),
           frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_columns_within_tol_plus_roundoff(self, mult, theta, scale, degree, trailing,
                                              rows, frac, seed):
        # time_len 1, below or above the certified length; reference: the
        # unit-circle samples at 8x the power of two >= 2 max(n_out, time_len)
        rng = np.random.default_rng(seed)
        f = np.zeros(degree + 1 + trailing, complex)
        f[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f /= np.linalg.norm(f)
        g = make_group([make_scale_shift(mult, theta)])
        m = g.element((scale,))
        tol = 1e-10
        try:
            n_out = len(transform_coeffs(m, f, tol))
        except TruncationError as err:
            with pytest.raises(TruncationError) as again:
                scale_transform(g, f, [(scale,)], time_len=4, tol=tol)
            assert again.value.achieved_bound == err.achieved_bound
            return
        time_len = {"one": 1, "below": max(1, int(frac * (n_out - 1))),
                    "above": n_out + 1 + int(frac * n_out)}[rows]
        # the roundoff excess of the (rho, N) that scale_transform picks, from
        # the ladder it certified the column with
        grids = []
        head_grid = hardy._head_grid

        def recorded(*args):
            grids.append(head_grid(*args))
            return grids[-1]

        with mock.patch.object(hardy, "_head_grid", recorded):
            col = scale_transform(g, f, [(scale,)], time_len, tol).to_dense()[0][:, 0]
        assert len(grids) == (abs(m.b) > 0.0)
        excess = grids[0][2][0] if grids else 0.0
        size = 8 << (2 * max(n_out, time_len) - 1).bit_length()
        z = np.exp(2j * np.pi * np.arange(size) / size)
        den = m.c * z + m.d
        ref = np.fft.fft(np.polynomial.polynomial.polyval((m.a * z + m.b) / den, f) / den,
                         norm="forward")[:time_len]
        m1 = np.abs(f).sum() * (abs(m.a) + abs(m.b))
        assert np.linalg.norm(col - ref) <= tol + excess + 64 * 2.2e-16 * len(f) * m1


def transform_outcome(transform, *args):
    """The bytes of a scale_transform result (float view, origin, time_len),
    or the type, message and achieved bound of the error it raises."""
    try:
        out = transform(*args)
    except (TruncationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "achieved_bound", None)
    return out.stack.array.view(float).tobytes(), out.stack.origin, out.time_len


class TestWindowPass:
    """scale_transform against its column-by-column reference, bit for bit."""

    @settings(max_examples=40)
    @given(two=st.booleans(), mult=st.floats(0.5, 0.9), theta=st.floats(-0.99, 0.99),
           window=st.lists(st.tuples(st.integers(-4, 7), st.integers(-3, 4)),
                           min_size=1, max_size=6, unique_by=lambda idx: idx[0]),
           identity=st.booleans(), degree=st.integers(0, 300), trailing=st.integers(0, 4),
           time_len=st.integers(1, 300), log_tol=st.floats(-12.0, -3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_window_matches_column_by_column(self, two, mult, theta, window, identity,
                                             degree, trailing, time_len, log_tol, seed):
        # one- and two-generator groups, the identity element (an exact image,
        # b = 0) beside sampled columns, trailing zeros in the input
        gens = [make_scale_shift(mult, theta)]
        if two:
            gens.append(make_scale_shift(mult * 0.9, theta))
        g = make_group(gens)
        window = [idx[:len(gens)] for idx in window]
        if identity and (0,) * len(gens) not in window:
            window.insert(len(window) // 2, (0,) * len(gens))
        rng = np.random.default_rng(seed)
        f = np.zeros(degree + 1 + trailing, complex)
        f[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f /= np.linalg.norm(f)
        args = (g, f, window, time_len, 10.0 ** log_tol)
        assert (transform_outcome(scale_transform, *args)
                == transform_outcome(per_column_scale_transform, *args))

    @pytest.mark.parametrize("window, named", [
        ([(3,), (32,), (5,)], (32,)),    # the bound at scale 32 is beyond double range
        ([(3,), (32,), (65,)], (32,)),   # ... and comes before the exponent guard's column
        ([(3,), (65,), (32,)], (65,)),   # the exponent guard's column comes first
        ([(0,), (3,), (33,), (32,)], (33,)),
    ])
    def test_first_failing_column_raises(self, window, named):
        # multiplier 0.3 as in test_bound_beyond_double_range_is_truncation_error
        rng = np.random.default_rng(255)
        f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        f /= np.linalg.norm(f)
        args = (make_group([make_scale_shift(0.3, 0.2)]), f, window, 64, 1e-10)
        got = transform_outcome(scale_transform, *args)
        assert got == transform_outcome(per_column_scale_transform, *args)
        assert got[1].startswith(f"scale index {named}: ")

    def test_head_grid_keeps_each_columns_sizes_and_radii(self):
        # the first column's C = e^300 leaves no N up to its own 2 n_out
        # within tol, so it falls back to rho = 1 at its last N, as alone,
        # though the second column's N reach 2^17; the third column's radii
        # that certify nothing (C not finite, R rounded onto 1) stay out of
        # its choice
        g = make_group([make_scale_shift(0.6, 0.2)])
        mats = [g.element((1,)), g.element((9,)), g.element((3,))]
        f = np.array([1.0, 0.5j, 0.25])
        n_out = np.array([8, 40000, 300])
        ladder = [np.array([np.full(9, 300.0), np.zeros(9), np.zeros(9)]), np.full((3, 9), 0.05)]
        ladder[0][2, 2], ladder[0][2, 5], ladder[1][2, 5] = np.nan, -50.0, 0.0
        got = hardy._head_grid(mats, f, 16, n_out, ladder, 1e-9)
        for c, m in enumerate(mats):
            want = _column_head_grid(m, f, 16, int(n_out[c]), [v[c] for v in ladder], 1e-9)
            assert (got[0][c], got[1][c], got[2][c]) == want
        assert got[0][0] == 1.0 and got[1][0] == 16 and got[1][1] > 16

    def test_caps_keep_bytes(self, monkeypatch):
        # blocks of the ladder's plain sums, of _head_grid's maps and of the
        # Horner passes far smaller than the window: the same bytes
        g = make_group([make_scale_shift(0.6, 0.2), make_scale_shift(0.8, 0.2)])
        rng = np.random.default_rng(63)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f /= np.linalg.norm(f)
        window = [(0, 0), (1, 1), (2, 3), (4, 4), (5, 6), (7, 7), (0, 1), (3, 0)]
        args = (g, f, window, 200, 1e-9)
        want = transform_outcome(per_column_scale_transform, *args)
        assert transform_outcome(scale_transform, *args) == want
        points = []

        def counted(x, coeffs):
            points.append(x.size)
            return _horner(x, coeffs)

        monkeypatch.setattr(hardy, "_horner", counted)
        monkeypatch.setattr(hardy, "_POINTS", 300)
        assert transform_outcome(scale_transform, *args) == want
        assert len(points) > 2 and sum(points) > 300   # several passes, where one was
        for name, cap in (("_SUM_TERMS", 300), ("_GRID_MAPS", 3)):
            monkeypatch.setattr(hardy, name, cap)
            assert transform_outcome(scale_transform, *args) == want
        # one sample point per column (time_len 1 at tol 1e-3), trailing
        # zeros: each such column has a pass of its own
        f_trailing = np.concatenate([f, np.zeros(3)])
        args = (g, f_trailing, window, 1, 1e-3)
        assert (transform_outcome(scale_transform, *args)
                == transform_outcome(per_column_scale_transform, *args))


G1 = make_group([make_scale_shift(0.5)])
F1 = CoeffSeq(np.array([1.0, 0.5]))


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: CoeffSeq(np.array([1.0, np.inf])), ValueError,
                 "coefficients must be finite", id="coeffs-nonfinite"),
    pytest.param(lambda: CoeffSeq(np.array([1.0]), -1.0), ValueError,
                 "tail bound must be a nonnegative real, got -1.0", id="tail-negative"),
    pytest.param(lambda: CoeffSeq(np.array([1.0]), math.nan), ValueError,
                 "tail bound must be a nonnegative real, got nan", id="tail-nan"),
    pytest.param(lambda: scale_transform(G1, F1, [(1,), (0,), (1,)], 4, 1e-9), ValueError,
                 "scale window contains duplicate indices", id="window-duplicate"),
    pytest.param(lambda: scale_transform(G1, F1, [(0,)], 0, 1e-9), ValueError,
                 "time_len must be >= 1, got 0", id="time_len"),
    pytest.param(lambda: scale_transform(G1, F1, [(0,)], 4, 0.0), ValueError,
                 "scale index (0,): tol must be a positive real, got 0.0", id="tol-reraised"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
