"""The dense-box signal core against literal dict references.

Coefficients are drawn from small dyadic values, so every sum is exact in
floating point: entries that cancel cancel exactly, and the direct paths
must match the references bit for bit, support included.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    brute_force_double_convolve,
    double_convolve,
    group_convolve,
)
from scalekit import io as skio
from scalekit.cli import main
from scalekit.signals import MAX_BOX_CELLS
from helpers import random_time_signal

EXACT = st.sampled_from([1.0, -1.0, 2.0, 0.5j, -0.5j, 1.0 - 1.0j])


@st.composite
def entry_lists(draw, arity=None, lo=-3, hi=3, max_size=6, values=EXACT):
    """(arity, entries) with repeated indices allowed."""
    arity = arity or draw(st.integers(1, 2))
    index = st.tuples(*[st.integers(lo, hi)] * arity)
    return arity, draw(st.lists(st.tuples(index, values), max_size=max_size))


@st.composite
def signal_pairs(draw):
    arity, a = draw(entry_lists())
    _, b = draw(entry_lists(arity=arity))
    return ScaleSignal(a, arity=arity), ScaleSignal(b, arity=arity)


@st.composite
def time_signal_pairs(draw, values=EXACT):
    arity = draw(st.integers(1, 2))

    def stack():
        slices = [ScaleSignal(draw(entry_lists(arity=arity, values=values))[1], arity=arity)
                  for _ in range(draw(st.integers(1, 3)))]
        return ScaleTimeSignal(slices, arity=arity)

    return stack(), stack()


@st.composite
def step_lists(draw, arity=None):
    """(arity, one entry list per time step) for T = 0..4 steps; empty lists
    are all-zero steps, leading and trailing ones included."""
    arity = arity or draw(st.integers(1, 2))
    step = st.one_of(st.just([]), entry_lists(arity=arity).map(lambda case: case[1]))
    return arity, draw(st.lists(step, max_size=4))


def time_signal(arity, steps) -> ScaleTimeSignal:
    return ScaleTimeSignal([ScaleSignal(e, arity=arity) for e in steps], arity=arity)


def dict_of(entries) -> dict:
    """Reference store: duplicates summed, exact zeros dropped."""
    out: dict = {}
    for k, v in entries:
        out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0}


def assert_trimmed(sig: ScaleSignal):
    """The box is the bounding box of the nonzeros, and items are sorted."""
    keys = [k for k, _ in sig.items()]
    assert keys == sorted(keys)
    if not keys:
        assert sig.is_zero and sig.support_box() is None
        return
    mins = tuple(map(min, zip(*keys)))
    maxs = tuple(map(max, zip(*keys)))
    assert sig.support_box() == (mins, maxs)
    assert sig.array.shape == tuple(b - a + 1 for a, b in zip(mins, maxs))
    assert not sig.array.flags.writeable


def assert_same(got: ScaleTimeSignal, ref: ScaleTimeSignal):
    assert got.time_len == ref.time_len
    for g, r in zip(got.slices, ref.slices):
        assert_trimmed(g)
        assert list(g.items()) == list(r.items())


class TestConstruction:
    @settings(max_examples=200)
    @given(entry_lists())
    def test_matches_dict_store(self, case):
        arity, entries = case
        sig = ScaleSignal(entries, arity=arity)
        ref = dict_of(entries)
        assert_trimmed(sig)
        assert dict(sig.items()) == ref
        assert len(sig) == len(ref)
        for k in list(ref) + [(9,) * arity]:
            assert sig.get(k) == ref.get(k, 0.0)

    def test_cancellation_at_box_edge_trims(self):
        sig = ScaleSignal([((0, 1), 1.0), ((3, 1), 2.0), ((3, 1), -2.0)], arity=2)
        assert sig.support_box() == ((0, 1), (0, 1))
        assert sig.array.shape == (1, 1)


class TestConvolutionsAgainstOracle:
    @settings(max_examples=200)
    @given(signal_pairs())
    def test_group_convolve(self, pair):
        h, u = pair
        got = group_convolve(h, u)
        ref = brute_force_double_convolve(ScaleTimeSignal([h]), ScaleTimeSignal([u]))
        assert_same(ScaleTimeSignal([got]), ref)

    @settings(max_examples=200)
    @given(time_signal_pairs())
    def test_double_convolve_direct(self, pair):
        h, u = pair
        assert_same(double_convolve(h, u), brute_force_double_convolve(h, u))

    @settings(max_examples=100)
    @given(time_signal_pairs(values=st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))))
    def test_double_convolve_fft_values(self, pair):
        h, u = pair
        fast = double_convolve(h, u, method="fft")
        assert fast.distance(brute_force_double_convolve(h, u)) <= 1e-12
        # every stored entry lies on the exact product support
        products = {(m + n,) + tuple(a + b for a, b in zip(j, k))
                    for m, j, _ in h.items() for n, k, _ in u.items()}
        assert {(n,) + k for n, k, _ in fast.items()} <= products

    def test_cancellation_at_slice_edge_trims(self):
        # y_1 = h_0 * u_1 + h_1 * u_0 = -d1 + (d1 + d2) = d2
        d = lambda k, v=1.0: ScaleSignal.delta((k,), 1, v)
        h = ScaleTimeSignal([d(0), d(1)], arity=1)
        u = ScaleTimeSignal([ScaleSignal({(0,): 1.0, (1,): 1.0}, arity=1), d(1, -1.0)],
                            arity=1)
        y = double_convolve(h, u)
        assert y.slices[1].support_box() == ((2,), (2,))
        assert y.slices[1].array.shape == (1,)
        assert_same(y, brute_force_double_convolve(h, u))

    def test_fft_support_matches_direct_on_sparse_inputs(self):
        rng = np.random.default_rng(57)
        for arity, shape in ((1, (8, 20)), (2, (5, 7, 7))):
            for _ in range(5):
                pair = []
                for _ in range(2):
                    dense = np.zeros(shape, complex)
                    flat = rng.choice(dense.size, max(1, dense.size // 20), replace=False)
                    dense.flat[flat] = rng.standard_normal(flat.size) + 1j * rng.standard_normal(flat.size)
                    pair.append(ScaleTimeSignal.from_dense(dense, (0,) * arity))
                direct = double_convolve(*pair)
                fast = double_convolve(*pair, method="fft")
                assert [s.support() for s in fast.slices] == [s.support() for s in direct.slices]
                assert fast.distance(direct) <= 1e-12


class TestMethodsAgainstDicts:
    @settings(max_examples=200)
    @given(entry_lists())
    def test_adjoint_reflect(self, case):
        arity, entries = case
        got = ScaleSignal(entries, arity=arity).adjoint_reflect()
        assert_trimmed(got)
        ref = {tuple(-k for k in idx): v.conjugate() for idx, v in dict_of(entries).items()}
        assert dict(got.items()) == ref

    @settings(max_examples=200)
    @given(entry_lists())
    def test_project_cone(self, case):
        arity, entries = case
        got = ScaleSignal(entries, arity=arity).project_cone()
        assert_trimmed(got)
        ref = {k: v for k, v in dict_of(entries).items() if min(k) >= 0}
        assert dict(got.items()) == ref
        assert got.is_cone_supported()

    @settings(max_examples=200)
    @given(signal_pairs())
    def test_inner_and_distance(self, pair):
        a, b = pair
        ra, rb = dict(a.items()), dict(b.items())
        inner = sum((v * rb.get(k, 0.0).conjugate() for k, v in ra.items()), 0j)
        assert a.inner(b) == inner
        keys = set(ra) | set(rb)
        dist = max((abs(ra.get(k, 0.0) - rb.get(k, 0.0)) for k in keys), default=0.0)
        # numpy's complex modulus may differ from Python's hypot by an ulp
        assert a.distance(b) == pytest.approx(dist, rel=1e-15, abs=0.0)
        assert a.distance(a) == 0.0


class TestStackedTimeSignal:
    """The (n, k) stack against one reference dict per time step."""

    @settings(max_examples=300)
    @given(step_lists())
    def test_matches_per_step_dicts(self, case):
        arity, steps = case
        sig = time_signal(arity, steps)
        ref = [dict_of(e) for e in steps]
        rows = [(n, k, v) for n, d in enumerate(ref) for k, v in sorted(d.items())]
        keys = [k for _, k, _ in rows]
        assert sig.time_len == len(ref)
        assert list(sig.items()) == rows
        assert sig.is_zero == (not rows)
        assert sig.support_box() == (
            (tuple(map(min, zip(*keys))), tuple(map(max, zip(*keys)))) if keys else None)
        assert_trimmed(sig.stack)
        assert len(sig.slices) == len(ref)
        for s, d in zip(sig.slices, ref):
            assert_trimmed(s)
            assert dict(s.items()) == d
        for n in range(-2, len(ref) + 2):
            got = sig.slice(n)
            assert got.arity == arity
            assert dict(got.items()) == (ref[n] if 0 <= n < len(ref) else {})
        # slice by slice, in time order; dyadic values keep every sum exact
        energies = [sum(v.real ** 2 + v.imag ** 2 for v in d.values()) for d in ref]
        l2 = [math.sqrt(e) for e in energies]
        assert sig.norm("sup_l2") == max(l2, default=0.0)
        assert sig.norm("energy") == sum(energies)
        assert sig.norm("l1_l2") == sum(l2)
        cone = sig.scale_causal_projection()
        assert cone.time_len == len(ref)
        assert list(cone.items()) == [r for r in rows if min(r[1]) >= 0]
        assert cone.is_cone_supported()
        assert sig.is_cone_supported() == all(min(k) >= 0 for k in keys)

    @settings(max_examples=200)
    @given(step_lists().flatmap(lambda case: st.tuples(st.just(case), step_lists(case[0]))))
    def test_distance(self, cases):
        (arity, a), (_, b) = cases
        ra, rb = [dict_of(e) for e in a], [dict_of(e) for e in b]
        ra += [{}] * (len(rb) - len(ra))
        rb += [{}] * (len(ra) - len(rb))
        dist = max((abs(x.get(k, 0.0) - y.get(k, 0.0))
                    for x, y in zip(ra, rb) for k in set(x) | set(y)), default=0.0)
        got = time_signal(arity, a).distance(time_signal(arity, b))
        # numpy's complex modulus may differ from Python's hypot by an ulp
        assert got == pytest.approx(dist, rel=1e-15, abs=0.0)

    @settings(max_examples=200)
    @given(step_lists())
    def test_dense_round_trip(self, case):
        arity, steps = case
        sig = time_signal(arity, steps)
        dense, origin = sig.to_dense()
        box = sig.support_box()
        if box is None:
            assert dense.shape == (len(steps),) + (1,) * arity
            assert origin == (0,) * arity and not dense.any()
        else:
            assert origin == box[0]
            assert dense.shape == (len(steps),) + tuple(b - a + 1 for a, b in zip(*box))
        back = ScaleTimeSignal.from_dense(dense, origin)
        assert back.time_len == sig.time_len
        assert list(back.items()) == list(sig.items())
        assert_trimmed(back.stack)


FINITE = st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))


class TestFormatsRoundTrip:
    @settings(max_examples=100)
    @given(time_signal_pairs(values=FINITE))
    def test_csv_write_read_write(self, pair):
        for sig in pair:
            first = io.StringIO()
            skio.write_signal_csv(sig, first)
            second = io.StringIO()
            skio.write_signal_csv(skio.read_signal_csv(io.StringIO(first.getvalue())), second)
            assert second.getvalue() == first.getvalue()

    @settings(max_examples=100)
    @given(time_signal_pairs(values=FINITE))
    def test_json_write_read_write(self, pair):
        from scalekit._jsonfmt import dumps

        for sig in pair:
            first = dumps(skio.signal_to_dict(sig))
            back = skio.signal_from_dict(json.loads(first))
            assert dumps(skio.signal_to_dict(back)) == first

    def test_csv_rows_lexicographic_from_shifted_slices(self):
        rng = np.random.default_rng(61)
        sig = random_time_signal(rng, 2, time_len=3, width=5)
        buf = io.StringIO()
        skio.write_signal_csv(sig, buf)
        rows = [tuple(int(x) for x in r.split(",")[:3])
                for r in buf.getvalue().splitlines()[1:]]
        assert rows == sorted(rows) == [(n,) + k for n, k, _ in sig.items()]


class TestBoxCap:
    def test_library_refuses_wide_box(self):
        with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
            ScaleSignal({(0,): 1.0, (MAX_BOX_CELLS,): 1.0}, arity=1)

    def test_csv_reader_refuses_wide_box(self):
        text = "n,k1,re,im\n0,0,1,0\n0,1000000000,1,0\n"
        with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
            skio.read_signal_csv(io.StringIO(text))

    def test_cli_exits_2(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("n,k1,re,im\n0,0,1,0\n0,1000000000,1,0\n")
        small = tmp_path / "small.csv"
        small.write_text("n,k1,re,im\n0,0,1,0\n")
        assert main(["filter", "--h", str(wide), "--u", str(small)]) == 2
        assert "MAX_BOX_CELLS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1,0", "0,0"])
    def test_csv_reader_refuses_long_time_axis(self, value):
        text = f"n,k1,re,im\n1000000000,0,{value}\n"
        with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
            skio.read_signal_csv(io.StringIO(text))

    def test_cli_exits_2_on_long_time_axis(self, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("n,k1,re,im\n1000000000,0,1,0\n")
        assert main(["analyze", "--property", "l1l2", "--system", str(long)]) == 2
        assert "MAX_BOX_CELLS" in capsys.readouterr().err

    def test_drifting_time_signal_refused_at_construction(self):
        # slice n sits at k = n: the stack's union box is T x T cells
        time_len = 5000
        assert time_len * time_len > MAX_BOX_CELLS
        slices = [ScaleSignal.delta((n,), arity=1) for n in range(time_len)]
        with pytest.raises(ValueError, match="MAX_BOX_CELLS"):
            ScaleTimeSignal(slices)
