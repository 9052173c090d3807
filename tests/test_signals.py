import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import ScaleSignal, ScaleTimeSignal, support_bound
from scalekit.signals import trim_box
from helpers import random_time_signal


def make_ts(entries_by_time, arity):
    slices = [ScaleSignal(e, arity=arity) for e in entries_by_time]
    return ScaleTimeSignal(slices, arity=arity)


class TestScaleSignal:
    def test_drops_zeros(self):
        s = ScaleSignal({(0,): 0.0, (1,): 2.0}, arity=1)
        assert s.support() == ((1,),)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScaleSignal({(0,): complex("inf")}, arity=1)

    def test_rejects_fractional_index(self):
        with pytest.raises(TypeError):
            ScaleSignal({(0.5,): 1.0}, arity=1)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            ScaleSignal({(0, 1): 1.0}, arity=1)

    def test_immutable(self):
        s = ScaleSignal({(0,): 1.0}, arity=1)
        with pytest.raises(AttributeError):
            s.arity = 2

    def test_adjoint_reflect(self):
        s = ScaleSignal({(1,): 1 + 2j, (-2,): 3.0}, arity=1)
        t = s.adjoint_reflect()
        assert t.get((-1,)) == 1 - 2j
        assert t.get((2,)) == 3.0


class TestNorms:
    def test_zero_signal(self):
        z = make_ts([{}], arity=1)
        for kind in ("sup_l2", "energy", "l1_l2"):
            assert z.norm(kind) == 0.0

    def test_single_entry(self):
        s = make_ts([{(0,): 1.0}], arity=1)
        assert s.norm("sup_l2") == 1.0
        assert s.norm("energy") == 1.0
        assert s.norm("l1_l2") == 1.0

    def test_two_unit_entries(self):
        s = make_ts([{(0,): 1.0}, {(0,): 1.0}], arity=1)
        assert s.norm("sup_l2") == 1.0
        assert s.norm("energy") == 2.0
        assert s.norm("l1_l2") == 2.0

    def test_unknown_kind(self):
        s = make_ts([{(0,): 1.0}], arity=1)
        with pytest.raises(ValueError):
            s.norm("l3")


class TestProjection:
    def test_cone_supported_unchanged(self):
        s = make_ts([{(0,): 1.0, (2,): 1j}], arity=1)
        assert s.scale_causal_projection().distance(s) == 0.0

    def test_drops_negative_exponents(self):
        s = make_ts([{(-1,): 1.0, (0,): 2.0, (2,): 3.0}], arity=1)
        proj = s.scale_causal_projection()
        assert proj.slice(0).support() == ((0,), (2,))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        s = random_time_signal(rng, arity=2, time_len=3)
        once = s.scale_causal_projection()
        assert once.scale_causal_projection().distance(once) == 0.0

    def test_never_increases_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_time_signal(rng, arity=2, time_len=4)
            proj = s.scale_causal_projection()
            for kind in ("sup_l2", "energy", "l1_l2"):
                assert proj.norm(kind) <= s.norm(kind) + 1e-15

    def test_orthant_rule_for_p2(self):
        s = make_ts([{(1, -1): 1.0, (1, 1): 2.0}], arity=2)
        proj = s.scale_causal_projection()
        assert proj.slice(0).support() == ((1, 1),)


class TestSupportBound:
    def test_delta_at_identity(self):
        assert support_bound(ScaleSignal({(0,): 1.0}, arity=1)) == 0

    def test_range_bound(self):
        s = ScaleSignal({(k,): 1.0 for k in range(6)}, arity=1)
        assert support_bound(s) == 5

    def test_zero_signal_is_none(self):
        assert support_bound(ScaleSignal.zero(1)) is None

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError, match="ordered cyclic cone"):
            support_bound(ScaleSignal({(-1,): 1.0}, arity=1))

    def test_p2_rejected(self):
        with pytest.raises(ValueError, match="ordered cyclic cone"):
            support_bound(ScaleSignal({(0, 0): 1.0}, arity=2))


def bits(z) -> bytes:
    return np.array(z, complex).tobytes()


# parts whose sums depend on their order: (1 + 1e16) - 1e16 is 0, and
# 1 + (1e16 - 1e16) is 1; signed zeros too
ORDERED_PARTS = st.sampled_from([1.0, -1.0, 1e16, -1e16, 0.1, 0.2, -0.3, 3e-5, 0.0, -0.0])


class TestFromEntries:
    @settings(max_examples=200)
    @given(st.integers(1, 3).flatmap(lambda arity: st.tuples(st.just(arity), st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * arity), ORDERED_PARTS, ORDERED_PARTS),
        max_size=12))), st.booleans())
    def test_duplicates_sum_in_listed_order_bit_for_bit(self, case, strided):
        arity, rows = case
        keys = np.array([k for k, _, _ in rows], np.int64).reshape(-1, arity)
        values = np.array([complex(re, im) for _, re, im in rows], complex)
        if strided:  # a column view, as the CSV reader hands over
            wide = np.zeros((len(keys), 2 * arity), np.int64)
            wide[:, ::2] = keys
            keys = wide[:, ::2]
        # reference: zero values dropped, the rest added in row order onto -0.0
        sums: dict = {}
        for k, re, im in rows:
            if complex(re, im) != 0:
                sums[k] = sums.get(k, complex(-0.0, -0.0)) + complex(re, im)
        sig = ScaleSignal._from_entries(keys, values)
        assert dict(sig.items()) == {k: v for k, v in sums.items() if v != 0}
        for k, v in sums.items():
            assert bits(sig.get(k)) == bits(v if v != 0 else 0j)

    def test_cancelling_entries_on_every_box_edge_are_trimmed(self):
        keys = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0], [3, 2, 4], [1, 2, 1], [3, 2, 4]])
        values = np.array([1e16, 2.0, -1e16, 0.5j, 1.0, -0.5j])
        sig = ScaleSignal._from_entries(keys, values)
        assert sig.support_box() == ((1, 1, 1), (1, 2, 1))
        assert sig.array.shape == (1, 2, 1)

    def test_all_cancelling_entries_give_the_empty_box_at_the_zero_origin(self):
        sig = ScaleSignal._from_entries(np.array([[5, -3], [5, -3]]), np.array([1.5, -1.5]))
        assert sig.is_zero and sig.array.shape == (0, 0) and sig.origin == (0, 0)

    def test_negative_zero_part_survives(self):
        keys = np.array([[0], [0], [2]])
        values = np.array([complex(2, -0.0), complex(0.5, -0.0), complex(-0.0, 3)])
        sig = ScaleSignal._from_entries(keys, values)
        assert bits(sig.get(0)) == bits(complex(2.5, -0.0))
        assert bits(sig.get(2)) == bits(complex(-0.0, 3))
        assert bits(sig.get(1)) == bits(0j)  # a cell without an entry reads +0


class TestTrimBox:
    @settings(max_examples=200)
    @given(st.integers(1, 3).flatmap(lambda arity: st.tuples(*[st.integers(1, 6)] * arity)),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_nonzero_reference(self, shape, fill, seed):
        rng = np.random.default_rng(seed)
        array = np.where(rng.random(shape) < fill, rng.standard_normal(shape) + 0j,
                         rng.choice([0.0, -0.0], shape) + 0j)
        origin = tuple(rng.integers(-5, 6, len(shape)).tolist())
        got, at = trim_box(array, origin)
        hits = np.nonzero(array)
        if not hits[0].size:
            assert got.shape == (0,) * len(shape) and at == (0,) * len(shape)
            return
        cut = tuple(slice(h.min(), h.max() + 1) for h in hits)
        assert got.tobytes() == array[cut].tobytes()
        assert at == tuple(o + c.start for o, c in zip(origin, cut))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_box_is_the_empty_box_at_the_zero_origin(self, zero):
        got, at = trim_box(np.full((3, 4, 2), complex(zero, zero)), (5, -2, 7))
        assert got.shape == (0, 0, 0) and at == (0, 0, 0)


class TestDense:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        s = random_time_signal(rng, arity=2, time_len=3)
        dense, origin = s.to_dense()
        back = ScaleTimeSignal.from_dense(dense, origin)
        assert back.distance(s) == 0.0

    def test_slice_out_of_range_is_zero(self):
        s = make_ts([{(0,): 1.0}], arity=1)
        assert s.slice(5).is_zero


S1 = ScaleSignal.delta((0,), 1)
S2 = ScaleSignal.delta((0, 0), 2)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: ScaleSignal({}), ValueError, "arity is required", id="arity-none"),
    pytest.param(lambda: ScaleSignal({}, arity=0), ValueError, "arity must be >= 1, got 0",
                 id="arity-zero"),
    pytest.param(lambda: S1.distance(S2), ValueError, "arity mismatch", id="distance-arity"),
    pytest.param(lambda: S2.inner(S1), ValueError, "arity mismatch", id="inner-arity"),
    pytest.param(lambda: ScaleTimeSignal([]), ValueError,
                 "arity is required for an empty signal", id="empty-without-arity"),
    pytest.param(lambda: ScaleTimeSignal([{(0,): 1.0}], arity=1), TypeError,
                 "slices must be ScaleSignal, got <class 'dict'>", id="slice-type"),
    pytest.param(lambda: ScaleTimeSignal([S1, S2]), ValueError,
                 "all slices must share the group arity", id="mixed-arities"),
    pytest.param(lambda: setattr(ScaleTimeSignal([S1]), "time_len", 2), AttributeError,
                 "ScaleTimeSignal is immutable", id="time-signal-immutable"),
    pytest.param(lambda: ScaleTimeSignal.from_dense(np.ones((2, 3)), (0, 0)), ValueError,
                 "dense signals have shape (T, w_1..w_p), p = len(origin) >= 1",
                 id="from_dense-origin"),
    pytest.param(lambda: ScaleTimeSignal.from_dense(np.ones(3), ()), ValueError,
                 "dense signals have shape (T, w_1..w_p), p = len(origin) >= 1",
                 id="from_dense-no-scale-axis"),
    pytest.param(lambda: ScaleTimeSignal.from_dense(np.array([[1.0, np.nan]]), (0,)),
                 ValueError, "signal entries must be finite", id="from_dense-nonfinite"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
