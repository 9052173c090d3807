import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalekit.convolve as convolve
from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    brute_force_double_convolve,
    double_convolve,
    group_convolve,
)
from helpers import random_scale_signal, random_time_signal, slab_convolve, two_branch_convolve


def delta(idx, arity, value=1.0):
    return ScaleSignal.delta(idx, arity, value)


class TestGroupConvolve:
    def test_delta_is_neutral(self):
        rng = np.random.default_rng(1)
        u = random_scale_signal(rng, arity=2)
        assert group_convolve(delta((0, 0), 2), u).distance(u) == 0.0

    def test_deltas_translate(self):
        out = group_convolve(delta((2,), 1), delta((-5,), 1))
        assert out.support() == ((-3,),)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            group_convolve(delta((0,), 1), delta((0, 0), 2))

    @pytest.mark.parametrize("arity", [1, 2])
    def test_matches_brute_force_loop(self, arity):
        rng = np.random.default_rng(17)
        for _ in range(25):
            h = random_scale_signal(rng, arity, width=3, terms=5)
            u = random_scale_signal(rng, arity, width=3, terms=5)
            got = group_convolve(h, u)
            expected: dict = {}
            for k, hv in h.items():
                for j, uv in u.items():
                    key = tuple(a + b for a, b in zip(k, j))
                    expected[key] = expected.get(key, 0.0) + hv * uv
            ref = ScaleSignal(expected, arity=arity)
            assert got.distance(ref) < 1e-13

    def test_bilinear(self):
        rng = np.random.default_rng(23)
        h = random_scale_signal(rng, 1)
        u1 = random_scale_signal(rng, 1)
        u2 = random_scale_signal(rng, 1)
        both = ScaleSignal(
            {k: u1.get(k) + u2.get(k) for k in set(u1.support()) | set(u2.support())},
            arity=1,
        )
        lhs = group_convolve(h, both)
        a = group_convolve(h, u1)
        b = group_convolve(h, u2)
        merged = ScaleSignal(
            {k: a.get(k) + b.get(k) for k in set(a.support()) | set(b.support())},
            arity=1,
        )
        assert lhs.distance(merged) < 1e-13


class TestDoubleConvolve:
    def test_delta_response_is_identity(self):
        rng = np.random.default_rng(2)
        u = random_time_signal(rng, arity=1, time_len=4)
        h = ScaleTimeSignal([delta((0,), 1)], arity=1)
        assert double_convolve(h, u).distance(u) == 0.0

    def test_unit_time_delay(self):
        rng = np.random.default_rng(3)
        u = random_time_signal(rng, arity=1, time_len=3)
        h = ScaleTimeSignal([ScaleSignal.zero(1), delta((0,), 1)], arity=1)
        y = double_convolve(h, u)
        assert y.time_len == 4
        assert y.slice(0).is_zero
        for n in range(3):
            assert y.slice(n + 1).distance(u.slice(n)) == 0.0

    @pytest.mark.parametrize("arity", [1, 2])
    def test_engine_matches_oracle(self, arity):
        rng = np.random.default_rng(29)
        for _ in range(20):
            h = random_time_signal(rng, arity, time_len=int(rng.integers(1, 4)))
            u = random_time_signal(rng, arity, time_len=int(rng.integers(1, 5)))
            direct = double_convolve(h, u)
            oracle = brute_force_double_convolve(h, u)
            fast = double_convolve(h, u, method="fft")
            assert direct.distance(oracle) < 1e-12
            assert direct.distance(fast) < 1e-10

    def test_time_causality(self):
        # y_0..y_n must not react to a change of u at time n+1
        rng = np.random.default_rng(31)
        h = random_time_signal(rng, 1, time_len=3)
        u = random_time_signal(rng, 1, time_len=4)
        bumped_slices = list(u.slices)
        bumped_slices[3] = ScaleSignal({(0,): 99.0}, arity=1)
        bumped = ScaleTimeSignal(bumped_slices, arity=1)
        y1 = double_convolve(h, u)
        y2 = double_convolve(h, bumped)
        for n in range(3):
            assert y1.slice(n).distance(y2.slice(n)) == 0.0

    def test_cone_closure(self):
        rng = np.random.default_rng(37)
        h = random_time_signal(rng, 2, time_len=2).scale_causal_projection()
        u = random_time_signal(rng, 2, time_len=3).scale_causal_projection()
        y = double_convolve(h, u)
        assert y.is_cone_supported()

    def test_output_length(self):
        rng = np.random.default_rng(41)
        h = random_time_signal(rng, 1, time_len=3)
        u = random_time_signal(rng, 1, time_len=5)
        assert double_convolve(h, u).time_len == 7


# cell parts: signed zeros, exactly cancelling values and values far apart
# in magnitude, so that a change in summation order shows in the last bits
PARTS = np.array([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, -0.3, 7.25, 3e-5, -2.5e8])


@st.composite
def boxes(draw, arity):
    """A complex box of 1..5 cells per axis whose nonzeros fill it to a
    drawn fraction in [0.01, 1]; zero cells are +0 or -0, and half the
    boxes are non-contiguous views into a larger array."""
    shape = draw(st.tuples(*[st.integers(1, 5)] * arity))
    fill = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = np.where(rng.random((2,) + shape) < 0.5, rng.choice(PARTS, (2,) + shape),
                     rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-8, 9, (2,) + shape))
    zeros = rng.choice([0.0, -0.0], (2,) + shape)
    parts = np.where(rng.random(shape) < fill, parts, zeros)
    box = np.empty(shape, complex)
    box.real, box.imag = parts  # as drawn, signed zeros included
    if draw(st.booleans()):
        big = np.zeros(tuple(n + 2 for n in shape), complex)
        big[(slice(1, -1),) * arity] = box
        box = big[(slice(1, -1),) * arity]
    return box


def time_descending(h):
    pos = np.argwhere(h)
    return pos[np.argsort(-pos[:, 0], kind="stable")]


def gaussian_box(rng, shape, fill):
    """A complex Gaussian box whose nonzeros fill it to about fill."""
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    box[rng.random(shape) >= fill] = 0
    return box


class TestBoxConvolve:
    """box_convolve's ordered add against the slab loop and the two-branch
    loop it replaced, bit for bit: each output cell must sum the same
    products in the same order."""

    @pytest.mark.parametrize("shape", [(3000,), (60, 50), (14, 12, 12)])
    @pytest.mark.parametrize("u_fill", [0.05, 1.0])
    @pytest.mark.parametrize("order", ["time descending", "lexicographic"])
    def test_matches_two_branch_loop_bit_for_bit(self, shape, u_fill, order):
        # Gaussian products round in their last bits, and more than 2^14
        # products make several add.at blocks
        rng = np.random.default_rng(len(shape) + int(100 * u_fill))
        for h_fill in (0.05, 1.0):
            h, u = gaussian_box(rng, shape, h_fill), gaussian_box(rng, shape, u_fill)
            positions = time_descending(h) if order == "time descending" else None
            got = convolve.box_convolve(h, u, positions)
            ref = two_branch_convolve(h, u, positions)
            assert got.shape == ref.shape
            assert got.view(float).tobytes() == ref.view(float).tobytes()

    def test_empty_operand_matches_two_branch_loop(self):
        rng = np.random.default_rng(8)
        full = gaussian_box(rng, (4, 5), 1.0)
        for h, u in ((np.zeros((0, 5), complex), full), (full, np.zeros((0, 0), complex))):
            got, ref = convolve.box_convolve(h, u), two_branch_convolve(h, u)
            assert got.shape == ref.shape == (0, 0)
        # the slab loop could not broadcast h(k) * u into this window
        assert convolve.box_convolve(full, np.zeros((3, 0), complex)).shape == (0, 0)

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_slab_loop_bit_for_bit(self, data):
        arity = data.draw(st.integers(1, 3))
        h, u = data.draw(boxes(arity)), data.draw(boxes(arity))
        positions = time_descending(h) if data.draw(st.booleans()) else None
        got, ref = convolve.box_convolve(h, u, positions), slab_convolve(h, u, positions)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pad", [0, 3])  # u 3/4 full, 3/25 full
    def test_exact_cancellation_leaves_plus_zero(self, pad):
        # h = [d0, d1], u = [d0 + d1, -d1] on (n, k): y_1(1) = 1 - 1
        h = np.array([[1, 0], [0, 1]], complex)
        u = np.zeros((2 + pad, 2 + pad), complex)
        u[0, 0] = u[0, 1] = 1
        u[1, 1] = -1
        got = convolve.box_convolve(h, u, time_descending(h))
        assert got.tobytes() == slab_convolve(h, u, time_descending(h)).tobytes()
        assert got[1, 1] == 0 and not np.signbit(got[1, 1].real) and not np.signbit(got[1, 1].imag)

    @pytest.mark.parametrize("h_shape", [(0, 3), (2, 2)])
    def test_h_without_nonzeros_gives_zeros(self, h_shape):
        h, u = np.zeros(h_shape, complex), np.zeros((4, 4), complex)
        u[1, 2] = 1
        got = convolve.box_convolve(h, u)
        assert got.shape == slab_convolve(h, u).shape and not got.any()


class TestBruteForce:
    def test_zero_input(self):
        h = ScaleTimeSignal([delta((0,), 1)], arity=1)
        u = ScaleTimeSignal([ScaleSignal.zero(1)], arity=1)
        assert brute_force_double_convolve(h, u).is_zero

    def test_single_impulses_translate(self):
        h = ScaleTimeSignal([delta((2,), 1, 2.0)], arity=1)
        u = ScaleTimeSignal([ScaleSignal.zero(1), delta((3,), 1, 0.5)], arity=1)
        y = brute_force_double_convolve(h, u)
        assert y.time_len == 2
        assert y.slice(1).get((5,)) == 1.0

    def test_work_guard(self, monkeypatch):
        rng = np.random.default_rng(43)
        h = random_time_signal(rng, 1, time_len=4, terms=6)
        u = random_time_signal(rng, 1, time_len=4, terms=6)
        monkeypatch.setattr(convolve, "WORK_GUARD", 10)
        with pytest.raises(ValueError, match="work guard"):
            brute_force_double_convolve(h, u)


P1 = ScaleTimeSignal([delta((0,), 1)], arity=1)
P2 = ScaleTimeSignal([delta((0, 0), 2)], arity=2)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: double_convolve(P1, P2), ValueError, "arity mismatch: 1 vs 2",
                 id="double_convolve-arity"),
    pytest.param(lambda: brute_force_double_convolve(P2, P1), ValueError,
                 "arity mismatch: 2 vs 1", id="brute_force-arity"),
    pytest.param(lambda: double_convolve(P1, P1, method="fftw"), ValueError,
                 "unknown method 'fftw'", id="double_convolve-method"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("engine", [double_convolve, brute_force_double_convolve])
@pytest.mark.parametrize("empty", ["h", "u", "both"])
def test_empty_operand_gives_empty_signal(engine, empty):
    operands = {"h": P1, "u": P1}
    for name in ("h", "u") if empty == "both" else (empty,):
        operands[name] = ScaleTimeSignal([], arity=1)
    y = engine(operands["h"], operands["u"])
    assert (y.time_len, y.arity, y.is_zero) == (0, 1, True)
