import numpy as np
import pytest

from scalekit import ScaleSignal, ScaleTimeSignal, support_bound
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
