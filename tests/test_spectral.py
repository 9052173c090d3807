import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    SpectrumGrid,
    double_convolve,
    generalized_transfer,
    group_convolve,
    haar_moment,
    hermite_transform,
    make_group,
    make_scale_shift,
    scale_fourier,
    scale_fourier_inverse,
    toeplitz_psd_check,
    transfer_grid,
    MomentSequence,
    bibo_analysis,
)
from scalekit.cli import main
from scalekit.signals import MAX_BOX_CELLS
from scalekit.spectral import _evaluate, _gamma, _horner, torus_values
from helpers import random_scale_signal, random_time_signal, torus_points


def direct_sum(items, sizes, sign):
    """sum_e c_e e^{sign i e.theta} term by term on the grid 2 pi j / sizes."""
    thetas = np.meshgrid(*(2 * math.pi * np.arange(n) / n for n in sizes),
                         indexing="ij")
    out = np.zeros(tuple(sizes), complex)
    for e, v in items:
        out += v * np.exp(sign * 1j * sum(k * t for k, t in zip(e, thetas)))
    return out


def box_of(items, arity):
    """Dense (array, origin) box holding the summed coefficients of items."""
    if not items:
        return np.zeros((0,) * arity, complex), (0,) * arity
    exps = np.array([e for e, _ in items])
    lo = exps.min(axis=0)
    arr = np.zeros(tuple(exps.max(axis=0) - lo + 1), complex)
    np.add.at(arr, tuple((exps - lo).T), [v for _, v in items])
    return arr, tuple(int(k) for k in lo)


@st.composite
def torus_cases(draw):
    """Items with exponents in [-20, 20] (often wider than the grid)."""
    arity = draw(st.integers(1, 2))
    sizes = tuple(draw(st.lists(st.integers(1, 9), min_size=arity, max_size=arity)))
    coeff = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    exps = st.tuples(*[st.integers(-20, 20)] * arity)
    items = draw(st.lists(st.tuples(exps, coeff), max_size=12))
    return items, sizes


class TestTorusValues:
    @settings(max_examples=200, deadline=None)
    @given(torus_cases())
    def test_matches_direct_sum(self, case):
        items, sizes = case
        scale = 1e-13 * (1.0 + sum(abs(v) for _, v in items))
        got = torus_values(*box_of(items, len(sizes)), sizes)
        assert got.shape == sizes
        assert np.abs(got - direct_sum(items, sizes, -1)).max() < scale
        negated = [(tuple(-k for k in e), v) for e, v in items]
        plus = torus_values(*box_of(negated, len(sizes)), sizes)
        assert np.abs(plus - direct_sum(items, sizes, +1)).max() < scale

    @settings(max_examples=100, deadline=None)
    @given(torus_cases(), st.data())
    def test_inverse_roundtrip(self, case, data):
        # any support that fits the grid comes back, wherever it sits
        items, sizes = case
        shift = data.draw(st.tuples(*[st.integers(-30, 30)] * len(sizes)))
        entries = {tuple(s + k % n for s, k, n in zip(shift, e, sizes)): v
                   for e, v in items}
        x = ScaleSignal(entries, arity=len(sizes))
        window = [(s, s + n - 1) for s, n in zip(shift, sizes)]
        back = scale_fourier_inverse(scale_fourier(x, sizes), window)
        assert back.distance(x) < 1e-13 * (1.0 + sum(abs(v) for _, v in items))


class TestScaleFourier:
    def test_delta_gives_constant_one(self):
        grid = scale_fourier(ScaleSignal.delta((0,), 1), [8])
        assert np.abs(grid.values - 1.0).max() == 0.0

    def test_unit_shift_gives_character(self):
        grid = scale_fourier(ScaleSignal.delta((1,), 1), [8])
        theta = grid.angles(0)
        assert np.abs(grid.values - np.exp(-1j * theta)).max() < 1e-14

    def test_plancherel(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            arity = int(rng.integers(1, 3))
            x = random_scale_signal(rng, arity, width=3, terms=5)
            sizes = [16] * arity
            grid = scale_fourier(x, sizes)
            assert abs(grid.mean_square() - x.l2_norm() ** 2) < 1e-12

    def test_aliasing_guard_names_axis(self):
        x = ScaleSignal({(0, 0): 1.0, (0, 5): 1.0}, arity=2)
        with pytest.raises(ValueError, match="axis 1"):
            scale_fourier(x, [8, 4])

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_scale_signal(rng, 1, width=4, terms=5)
            grid = scale_fourier(x, [16])
            mins, maxs = x.support_box()
            back = scale_fourier_inverse(grid, [(mins[0], maxs[0])])
            assert back.distance(x) < 1e-13


class TestTransferGrid:
    def test_geometric_time_decay(self):
        a = 0.5
        n_terms = 54  # |a|^n below 1e-16 afterwards
        slices = [ScaleSignal.delta((0,), 1, a ** n) for n in range(n_terms)]
        h = ScaleTimeSignal(slices, arity=1)
        z = 0.3 + 0.4j
        grid = transfer_grid(h, z, [4])
        expected = 1.0 / (1.0 - a * z)
        assert np.abs(grid.values - expected).max() < 1e-12

    def test_single_scale_shift_character(self):
        h = ScaleTimeSignal([ScaleSignal.delta((1,), 1)], arity=1)
        grid = transfer_grid(h, 0.7, [8])
        theta = grid.angles(0)
        assert np.abs(grid.values - np.exp(-1j * theta)).max() < 1e-14

    def test_product_identity_for_filtering(self):
        # transform of the filter output equals the product of transforms
        rng = np.random.default_rng(13)
        for _ in range(50):
            arity = int(rng.integers(1, 3))
            h = random_time_signal(rng, arity, time_len=int(rng.integers(1, 4)))
            u = random_time_signal(rng, arity, time_len=int(rng.integers(1, 4)))
            y = double_convolve(h, u)
            sizes = [32] * arity
            z = 0.5 * np.exp(1j * rng.uniform(0, 2 * math.pi))
            hy = transfer_grid(y, z, sizes)
            hh = transfer_grid(h, z, sizes)
            hu = transfer_grid(u, z, sizes)
            assert np.abs(hy.values - hh.values * hu.values).max() < 1e-10


class TestHermite:
    def test_delta_is_constant_one(self):
        pts = np.array([[0.0], [0.5 - 0.25j], [2.0], [np.exp(1.0j)]])
        vals = hermite_transform(ScaleSignal.delta((0,), 1), pts)
        assert vals.tolist() == [1.0] * 4

    def test_monomial(self):
        x = ScaleSignal.delta((3,), 1)
        assert hermite_transform(x, [[0.5]])[0] == pytest.approx(0.125)
        pts = np.array([[0.0], [-1.5], [0.3 + 0.4j], [np.exp(2.0j)]])
        assert np.abs(hermite_transform(x, pts) - pts[:, 0] ** 3).max() < 1e-15

    def test_multiplicative_under_convolution(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            arity = int(rng.integers(1, 3))
            f = random_scale_signal(rng, arity, width=3, terms=4)
            g = random_scale_signal(rng, arity, width=3, terms=4)
            fg = group_convolve(f, g)
            # the product's width of torus points per axis: an invertible DFT
            pts = torus_points(fg.array.shape)
            lhs = hermite_transform(fg, pts)
            rhs = hermite_transform(f, pts) * hermite_transform(g, pts)
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_matches_fourier_at_reflected_angle(self):
        # evaluating the Hermite transform on the torus reproduces the
        # forward transform with the angle negated
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = random_scale_signal(rng, 1, width=3, terms=4)
            grid = scale_fourier(x, [16])
            vals = hermite_transform(x, np.exp(1j * grid.angles(0))[:, None])
            reflected = grid.values[(-np.arange(16)) % 16]
            assert np.abs(vals - reflected).max() < 1e-12

    def test_conjugate_convention_on_real_signals(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            entries = {
                (int(k),): float(rng.standard_normal())
                for k in rng.integers(-3, 4, 4)
            }
            x = ScaleSignal(entries, arity=1)
            grid = scale_fourier(x, [16])
            vals = hermite_transform(x, np.exp(1j * grid.angles(0))[:, None])
            assert np.abs(vals - np.conj(grid.values)).max() < 1e-12

    def test_negative_power_needs_nonzero_point(self):
        x = ScaleSignal.delta((-1,), 1)
        with pytest.raises(ZeroDivisionError):
            hermite_transform(x, [[0.0]])
        with pytest.raises(ZeroDivisionError):
            hermite_transform(ScaleSignal({(0, -1): 1.0}, arity=2), [[1.0, 2.0], [0.5, 0.0]])
        assert hermite_transform(x, [[2.0]])[0] == 0.5


class TestGeneralizedTransfer:
    def test_constant_system(self):
        h = ScaleTimeSignal([ScaleSignal.delta((0,), 1)], arity=1)
        assert generalized_transfer(h, 0.3, [0.9]) == pytest.approx(1.0)

    def test_geometric_series(self):
        a = 0.5
        slices = [ScaleSignal.delta((0,), 1, a ** n) for n in range(54)]
        h = ScaleTimeSignal(slices, arity=1)
        z = 0.25 + 0.1j
        assert generalized_transfer(h, z, [0.5]) == pytest.approx(1.0 / (1.0 - a * z))

    def test_two_term_expansion(self):
        h = ScaleTimeSignal(
            [ScaleSignal.delta((1,), 1), ScaleSignal.delta((0,), 1)], arity=1
        )
        z, z1 = 0.2 + 0.1j, 0.3 - 0.4j
        assert generalized_transfer(h, z, [z1]) == pytest.approx(z1 + z)

    def test_laurent_requires_torus(self):
        h = ScaleTimeSignal([ScaleSignal.delta((-1,), 1)], arity=1)
        with pytest.raises(ValueError, match="torus"):
            generalized_transfer(h, 0.1, [0.5])
        val = generalized_transfer(h, 0.1, [np.exp(0.3j)])
        assert val == pytest.approx(np.exp(-0.3j))

    def test_matches_transfer_grid_at_reflected_angles(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            h = random_time_signal(rng, 1, time_len=3)
            sizes = [16]
            z = 0.4 * np.exp(1j * rng.uniform(0, 2 * math.pi))
            grid = transfer_grid(h, z, sizes)
            theta = 2 * math.pi * np.arange(16) / 16
            vals = np.array(
                [
                    generalized_transfer(h, z, [complex(np.cos(t), np.sin(t))])
                    for t in theta
                ]
            )
            reflected = grid.values[(-np.arange(16)) % 16]
            assert np.abs(vals - reflected).max() < 1e-12


class TestNonFinitePoints:
    def test_hermite_names_the_coordinate(self):
        x = ScaleSignal({(0, 0): 1.0, (1, 2): 0.5}, arity=2)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="coordinate 1 of a point is not finite"):
                hermite_transform(x, [[0.5, 0.5], [0.5, bad]])

    def test_generalized_transfer_names_the_coordinate(self):
        h = ScaleTimeSignal([ScaleSignal({(0, 0): 1.0, (1, 1): 0.5}, arity=2)], arity=2)
        with pytest.raises(ValueError, match=r"^z is not finite: \(nan\+0j\)$"):
            generalized_transfer(h, complex(np.nan, 0.0), [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^zs\[1\] is not finite"):
            generalized_transfer(h, 0.5, [0.5, complex(0.0, np.inf)])
        # the finiteness check comes before the torus check of a Laurent box
        laurent = ScaleTimeSignal([ScaleSignal.delta((-1,), 1)], arity=1)
        with pytest.raises(ValueError, match=r"^zs\[0\] is not finite"):
            generalized_transfer(laurent, 0.5, [np.nan])

    def test_generalized_transfer_overflow(self):
        # finite points whose value leaves double range: in the power
        # z_a^origin_a, and inside the Horner sum
        power = ScaleTimeSignal([ScaleSignal.delta((200,), 1)], arity=1)
        inner = ScaleTimeSignal([ScaleSignal({(0,): 1.0, (2,): 1.0}, arity=1)], arity=1)
        for h in (power, inner):
            with pytest.raises(ValueError, match="the transfer value overflows"):
                generalized_transfer(h, 0.5, [1e200])
        assert generalized_transfer(inner, 0.5, [1e100]) == pytest.approx(1e200)


class TestEmptyBoxes:
    """Zero signals, empty signals and empty point sets evaluate to zeros
    of the right shape in every off-grid evaluator."""

    def test_transfer_grid(self):
        for h, sizes in ((ScaleTimeSignal([], arity=1), [8]),
                         (ScaleTimeSignal([ScaleSignal.zero(2)] * 3, arity=2), [4, 8])):
            grid = transfer_grid(h, 0.5 + 0.25j, sizes)
            assert grid.values.shape == tuple(sizes)
            assert not grid.values.any()

    def test_generalized_transfer(self):
        for h in (ScaleTimeSignal([], arity=1), ScaleTimeSignal([ScaleSignal.zero(1)] * 2, arity=1)):
            assert generalized_transfer(h, 0.5, [2.0]) == 0.0
        h = ScaleTimeSignal([ScaleSignal.zero(3)], arity=3)
        assert generalized_transfer(h, 1.5, [0.5, 1j, -2.0]) == 0.0

    def test_hermite_transform(self):
        rng = np.random.default_rng(41)
        for arity in (1, 2, 3):
            pts = rng.standard_normal((5, arity)) + 1j * rng.standard_normal((5, arity))
            vals = hermite_transform(ScaleSignal.zero(arity), pts)
            assert vals.shape == (5,) and not vals.any()
            x = random_scale_signal(rng, arity)
            for sig in (ScaleSignal.zero(arity), x):
                assert hermite_transform(sig, np.empty((0, arity))).shape == (0,)

    def test_horner_without_coefficients(self):
        x = np.array([0.5, 1j, -2.0])
        assert _horner(x, np.zeros(0, complex)).tolist() == [0.0] * 3
        assert _horner(x[:, None], np.zeros((0, 4), complex)).shape == (3, 4)
        assert _evaluate(np.zeros((0, 0)), (0, 0), np.empty((0, 2))).shape == (0,)


def _reference(array, origin, points):
    """sum_e c_e z^e term by term in np.clongdouble at each row z of points,
    and sum_e |c_e z^e| in double.  Each axis's powers z_a^origin_a z_a^k
    are running products, sixteen points at a time."""
    vals, scale = [], []
    pts = np.asarray(points, complex).astype(np.clongdouble)
    for z in np.array_split(pts, -(-len(pts) // 16)):
        terms = array.astype(np.clongdouble)[None]
        for a, lo in enumerate(origin):
            steps = np.repeat(z[:, a:a + 1], array.shape[a], axis=1)
            steps[:, 0] = z[:, a] ** lo
            shape = [len(z)] + [1] * array.ndim
            shape[1 + a] = -1
            terms = terms * np.cumprod(steps, axis=1).reshape(shape)
        vals.append(terms.reshape(len(z), -1).sum(axis=1))
        scale.append(np.abs(terms).reshape(len(z), -1).sum(axis=1).astype(float))
    return np.concatenate(vals), np.concatenate(scale)


def _horner_bound(array, origin, scale):
    """_evaluate's stated bound: _gamma(4 sum_a (w_a + 2 |origin_a|)) times
    sum_e |c_e z^e|."""
    return _gamma(4 * sum(w + 2 * abs(lo) for w, lo in zip(array.shape, origin))) * scale


class TestNestedHornerAccuracy:
    def test_within_stated_bound(self):
        # boxes of p + 1 = 2..4 axes, origins of both signs (one beyond
        # numpy's repeated-squaring range), one-coefficient boxes and axes,
        # and points inside, on and outside the unit polydisc
        rng = np.random.default_rng(43)
        for p in (1, 2, 3):
            for shape, origin in (((1,) * (p + 1), (-3,) * (p + 1)),
                                  ((4,) + (1,) * p, (0,) + (5,) * p),
                                  (tuple(rng.integers(1, 6, p + 1)), tuple(rng.integers(-4, 5, p + 1))),
                                  (tuple(rng.integers(1, 6, p + 1)), (-150,) + (0,) * p)):
                array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for radius in (0.5, 1.0, 1.5):
                    pts = radius * np.exp(2j * math.pi * rng.random((16, p + 1)))
                    got = _evaluate(array, origin, pts)
                    ref, scale = _reference(array, origin, pts)
                    assert np.all(np.abs(got - ref) <= _horner_bound(array, origin, scale))

    def test_long_scale_causal_slice_at_gram_points(self):
        # one p = 1 slice of 12,000 terms at the 240 points of
        # dissipativity_check's Gram sample
        rng = np.random.default_rng(1)
        array = rng.standard_normal((1, 12000)) + 1j * rng.standard_normal((1, 12000))
        draws = np.random.default_rng(0).random((20, 2, 12, 2))
        pts = 0.9 * np.sqrt(draws[:, 0]) * np.exp(1j * (2.0 * math.pi * draws[:, 1]))
        pts = pts.reshape(240, -1)
        got = _evaluate(array, (0, 0), pts)
        ref, scale = _reference(array, (0, 0), pts)
        assert np.all(np.abs(got - ref) <= _horner_bound(array, (0, 0), scale))


class TestHaarMoment:
    def test_identity_index(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        assert haar_moment(g, (0,)) == 1.0

    def test_nonzero_index(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        assert haar_moment(g, (3,)) == 0.0

    def test_matches_quadrature(self):
        theta = 2 * math.pi * np.arange(64) / 64
        val = np.mean(np.exp(3j * theta))
        assert abs(val - 0.0) < 1e-15

    def test_moment_sequence_is_identity_toeplitz(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        ms = MomentSequence(tuple(haar_moment(g, (n,)) for n in range(6)))
        report = toeplitz_psd_check(ms)
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


class TestGridCap:
    """No torus grid may exceed MAX_BOX_CELLS points."""

    def test_scale_fourier_refuses_before_allocating(self):
        x = ScaleSignal({(0, 0): 1.0, (1, 1): 0.5}, arity=2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
                scale_fourier(x, [8192, 4096])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_spectrum_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("n,k1,k2,re,im\n0,0,0,1,0\n")
        assert main(["spectrum", "--signal", str(path), "--grid", "8192,4096"]) == 2
        assert "MAX_BOX_CELLS" in capsys.readouterr().err

    def test_bibo_candidate_grid_capped(self, monkeypatch):
        # at p = 5 the 2^16-cell window is 8 x 8 x 8 x 8 x 16 cells, and the
        # witness grid has twice its points per axis
        import scalekit.stability as stability
        grids = []

        def recording(array, origin, sizes):
            grids.append(tuple(sizes))
            return torus_values(array, origin, sizes)

        monkeypatch.setattr(stability, "torus_values", recording)
        h = ScaleTimeSignal([ScaleSignal({(0,) * 5: 0.5, (1,) * 5: 0.25}, arity=5)])
        monkeypatch.setattr(stability, "WORK_BUDGET", 1 << 15)
        report = bibo_analysis(h)
        assert (16, 16, 16, 16, 32) in grids
        assert all(math.prod(g) <= MAX_BOX_CELLS for g in grids)
        assert len(report.witnesses["character_angles"]) == 5
        assert report.witnesses["maximizer"].array.size <= MAX_BOX_CELLS
        assert report.necessary_lower <= 0.75 <= report.sufficient_upper

    def test_bibo_candidate_powers_fit_the_cap_together(self, monkeypatch):
        # the candidate grid holds one row of powers per slice: with eight
        # p = 4 slices the eight rows fit MAX_BOX_CELLS together (64^4
        # points each would need 2^27), and the witness is valued on it
        import scalekit.stability as stability
        grids = []

        def recording(array, origin, sizes):
            grids.append(tuple(sizes))
            return torus_values(array, origin, sizes)

        monkeypatch.setattr(stability, "torus_values", recording)
        rng = np.random.default_rng(3)
        h = random_time_signal(rng, 4, time_len=8, width=2, terms=3)
        report = bibo_analysis(h, tol=0.5)   # coarse slice grids: 8^4 points
        candidate = grids[-1]
        assert grids[-h.time_len:] == [candidate] * h.time_len
        assert h.time_len * math.prod(candidate) <= MAX_BOX_CELLS
        assert report.witnesses["maximizer"].array.size <= 1 << 16
        assert 0.0 < report.necessary_lower <= report.sufficient_upper


X1 = ScaleSignal({(0,): 1.0, (2,): 0.5}, arity=1)
GRID = scale_fourier(X1, [4])


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: SpectrumGrid((0,), []), ValueError,
                 "grid sizes must be positive, got (0,)", id="grid-zero-size"),
    pytest.param(lambda: scale_fourier(X1, [4, 4]), ValueError,
                 "grid rank 2 does not match signal arity 1", id="alias-rank"),
    pytest.param(lambda: scale_fourier(X1, [-4]), ValueError,
                 "grid sizes must be positive, got (-4,)", id="alias-sign"),
    pytest.param(lambda: scale_fourier_inverse(GRID, [(0, 3), (0, 3)]), ValueError,
                 "window rank does not match grid rank", id="inverse-window-rank"),
    pytest.param(lambda: scale_fourier_inverse(GRID, [(2, 1)]), ValueError,
                 "empty window on axis 0", id="inverse-empty-window"),
    pytest.param(lambda: hermite_transform(X1, [0.5, 0.25]), ValueError,
                 "points must have shape (count, 1)", id="hermite-point-shape"),
    pytest.param(lambda: generalized_transfer(ScaleTimeSignal([X1]), 0.5, [0.5, 0.5]),
                 ValueError, "expected 1 scale coordinates", id="transfer-coordinates"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
