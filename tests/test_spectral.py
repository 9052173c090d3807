import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
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
from scalekit.spectral import torus_values
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
        # at p = 5 a 64^5-point candidate grid would exceed the cap: the
        # candidate grid shrinks to fit it, and the analysis runs
        import scalekit.stability as stability
        grids = []

        def recording(array, origin, sizes):
            grids.append(tuple(sizes))
            return torus_values(array, origin, sizes)

        monkeypatch.setattr(stability, "torus_values", recording)
        h = ScaleTimeSignal([ScaleSignal({(0,) * 5: 0.5, (1,) * 5: 0.25}, arity=5)])
        monkeypatch.setenv("SCALEKIT_MAX_GRID", str(1 << 15))
        report = bibo_analysis(h)
        assert (16,) * 5 in grids
        assert all(math.prod(g) <= MAX_BOX_CELLS for g in grids)
        assert len(report.witnesses["character_angles"]) == 5
        assert report.witnesses["maximizer"].array.size <= MAX_BOX_CELLS
        assert report.necessary_lower <= 0.75 <= report.sufficient_upper
