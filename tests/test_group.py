import itertools
import math

import numpy as np
import pytest

from scalekit import SuMatrix, make_group, make_scale_shift
from scalekit.group import MAX_EXPONENT

EPS = np.finfo(float).eps


class TestMakeGroup:
    def test_cyclic(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        assert g.p == 1
        assert g.reoriented == (False,)
        assert g.gen_log_multipliers[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_generators_same_axis(self):
        g = make_group([make_scale_shift(0.5, 0.3), make_scale_shift(1 / 3, 0.3)])
        assert g.p == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_group([])

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError, match="not hyperbolic"):
            make_group([SuMatrix.identity()])

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="do not commute"):
            make_group([make_scale_shift(0.5, 0.1), make_scale_shift(0.5, 0.9)])

    def test_rejects_generator_off_the_shared_axis(self):
        # conjugating by a rotation of 3e-11 leaves a commutator of only
        # 1.7e-11, but the element would put this generator on generator 0's
        # axis, 2.3e-11 away from it
        g1 = make_scale_shift(0.25, 0.2)
        rotated = SuMatrix(g1.a, g1.b * complex(math.cos(3e-11), math.sin(3e-11)))
        with pytest.raises(ValueError, match="generators 0 and 1 do not commute"):
            make_group([make_scale_shift(0.5, 0.2), rotated])

    def test_accepts_shared_axis_at_any_entry_scale(self):
        # the commutator of these rounds to 2.3e-10, yet their axes agree to
        # the rounding of their entries
        g = make_group([make_scale_shift(1e-6, 1.4), make_scale_shift(1e-3, 1.4)])
        assert g.p == 2

    def test_rejects_duplicate_multiplier(self):
        with pytest.raises(ValueError, match="duplicated multiplier"):
            make_group([make_scale_shift(0.5, 0.3), make_scale_shift(2.0, 0.3)])

    def test_reorients_expanding_generator(self):
        g = make_group([make_scale_shift(4.0, 0.0)])
        assert g.reoriented == (True,)
        assert g.generators[0].entry_distance(make_scale_shift(0.25, 0.0)) < 1e-15

    def test_reorientation_consistent_across_generators(self):
        g = make_group([make_scale_shift(4.0, 0.4), make_scale_shift(0.5, 0.4)])
        assert g.reoriented == (True, False)
        fp0 = g.generators[0].fixed_points()
        fp1 = g.generators[1].fixed_points()
        assert abs(fp0.xi1 - fp1.xi1) < 1e-10


class TestElement:
    def test_zero_index_is_identity(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        assert g.element((0,)).entry_distance(SuMatrix.identity()) == 0.0

    def test_square_is_compose(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        gen = g.generators[0]
        assert g.element((2,)).entry_distance(gen.compose(gen)) < 1e-14

    def test_mixed_signs_match_naive_product(self):
        g = make_group([make_scale_shift(0.5, 0.3), make_scale_shift(1 / 3, 0.3)])
        naive = g.generators[0].compose(g.generators[1].inverse())
        assert g.element((1, -1)).entry_distance(naive) < 1e-12

    def test_homomorphism_up_to_sign(self):
        g = make_group([make_scale_shift(0.5, 0.2), make_scale_shift(0.25, 0.2)])
        rng = np.random.default_rng(5)
        for _ in range(50):
            i1 = tuple(int(k) for k in rng.integers(-6, 7, 2))
            i2 = tuple(int(k) for k in rng.integers(-6, 7, 2))
            both = tuple(a + b for a, b in zip(i1, i2))
            m1, m2 = g.element(i1), g.element(i2)
            lhs = g.element(both)
            rhs = m1.compose(m2)
            # tolerance relative to the intermediate entry scale: products of
            # entries ~1e3 cannot cancel below ~1e3 * eps in doubles
            scale = max(1.0, abs(m1.a) * abs(m2.a))
            assert lhs.entry_distance(rhs) < 1e-12 * scale

    def test_exponent_guard(self):
        g = make_group([make_scale_shift(0.9, 0.0)])
        g.element((MAX_EXPONENT,))
        with pytest.raises(ValueError, match="guard"):
            g.element((MAX_EXPONENT + 1,))
        # multiplier 0.5 at the guard rounds to |a| = |b|: a pole on the circle
        with pytest.raises(ValueError, match="not an SU"):
            make_group([make_scale_shift(0.5, 0.0)]).element((MAX_EXPONENT,))

    def test_refuses_pole_inside_the_circle(self):
        # at scale 40 (|order_key| 48) |a| and |b| round equal, so the pole
        # is on the circle to rounding
        with pytest.raises(ValueError, match="not an SU"):
            make_group([make_scale_shift(0.3, 0.2)]).element((40,))

    @pytest.mark.parametrize("alphas, idx", [((0.99, 0.3), (0, 10)), ((0.999,), (MAX_EXPONENT,))])
    def test_near_identity_axis_keeps_the_determinant(self, alphas, idx):
        # an axis normalized by Re a0 alone missed X^2 = I by e0 / sinh^2(v0),
        # which sinh^2(v) turned into a refused determinant at (0, 10)
        m = make_group([make_scale_shift(alpha, 0.2) for alpha in alphas]).element(idx)
        assert abs(abs(m.a) ** 2 - abs(m.b) ** 2 - 1.0) <= 4 * EPS * abs(m.a) ** 2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("alphas", [(0.3,), (0.5,), (0.8,), (0.99,), (0.5, 0.25), (0.6, 0.8)])
    def test_matches_long_double_product(self, alphas):
        # against the product of generator powers in extended precision, for
        # |k| <= 24: relative to m e^w, within (w + 4) eps + sum_j |k_j e_j| /
        # (1 - mu_j), with m = |b0| / s0 the size of the axis, w = sum_j
        # |k_j v_j| the growth of the factors and e_j = |a_j|^2 - |b_j|^2 - 1
        # generator j's rounding
        g = make_group([make_scale_shift(alpha, 0.2) for alpha in alphas])
        g0 = g.generators[0]
        m_axis = abs(g0.b) / math.sqrt(abs(g0.b) ** 2 - g0.a.imag ** 2)
        powers = []   # per generator, exponent -> power
        drift = []    # per generator, |e_j| / (1 - mu_j)
        for gen, lm in zip(g.generators, g.gen_log_multipliers):
            m = np.array([[gen.a, gen.b], [gen.b.conjugate(), gen.a.conjugate()]],
                         dtype=np.clongdouble)
            drift.append(float(abs(abs(m[0, 0]) ** 2 - abs(m[0, 1]) ** 2 - 1)) / -math.expm1(lm))
            inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
            table = {0: np.eye(2, dtype=np.clongdouble)}
            for k in range(1, 25):
                table[k] = table[k - 1] @ m
                table[-k] = table[1 - k] @ inv
            powers.append(table)
        checked = 0
        for idx in itertools.product(range(-24, 25), repeat=g.p):
            try:
                got = g.element(idx)
            except ValueError:
                continue
            ref = np.eye(2, dtype=np.clongdouble)
            for table, k in zip(powers, idx):
                ref = ref @ table[k]
            ref = ref if ref[0, 0].real > 0 else -ref
            w = sum(abs(k * lm) for k, lm in zip(idx, g.gen_log_multipliers)) / 2
            rel = (w + 4) * EPS + sum(abs(k) * d for k, d in zip(idx, drift))
            err = max(abs(complex(ref[0, 0]) - got.a), abs(complex(ref[0, 1]) - got.b))
            assert err <= rel * m_axis * math.exp(w), idx
            checked += 1
        assert checked > 0.7 * 49 ** g.p

    def test_refuses_only_where_a_and_b_round_equal(self):
        # two generators: powers of one nearly cancel those of the other,
        # which repeated squaring could not survive at order_key 0; now only
        # |order_key| > 36, where 1 / |b|^2 < 2 eps, is left to rounding
        g = make_group([make_scale_shift(0.5, 0.2), make_scale_shift(0.25, 0.2)])
        refused = []
        for idx in itertools.product(range(-24, 25), repeat=2):
            try:
                g.element(idx)
            except ValueError:
                refused.append(abs(g.order_key(idx)))
        assert min(refused) > 36.0
        # order_key (16, -8) is 8.9e-15, the rounding of the two log
        # multipliers; the element is the identity up to that
        assert abs(g.order_key((16, -8))) < 1e-14
        assert g.element((16, -8)).entry_distance(SuMatrix.identity()) < 1e-14

    def test_accepts_plain_int_for_cyclic(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        assert g.element(3).entry_distance(g.element((3,))) == 0.0


class TestOrderKey:
    def test_identity_index_is_zero(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        assert g.order_key((0,)) == 0.0

    def test_additivity(self):
        g = make_group([make_scale_shift(0.5, 0.1), make_scale_shift(0.7, 0.1)])
        rng = np.random.default_rng(9)
        for _ in range(100):
            i1 = tuple(int(k) for k in rng.integers(-8, 9, 2))
            i2 = tuple(int(k) for k in rng.integers(-8, 9, 2))
            both = tuple(a + b for a, b in zip(i1, i2))
            assert g.order_key(both) == pytest.approx(
                g.order_key(i1) + g.order_key(i2), abs=1e-12
            )

    def test_matches_composed_multiplier_on_cyclic(self):
        g = make_group([make_scale_shift(0.5, 0.0)])
        assert g.order_key((3,)) == pytest.approx(3 * math.log(0.5), abs=1e-12)
        assert math.exp(g.order_key((3,))) == pytest.approx(
            g.element((3,)).multiplier(), abs=1e-10
        )

    @pytest.mark.parametrize("p", [1, 2])
    def test_exp_order_key_vs_multiplier_grid(self, p):
        alphas = [0.5, 1 / 3][:p]
        g = make_group([make_scale_shift(a, 0.25) for a in alphas])
        spans = [range(-8, 9)] * p
        idxs = [()]
        for span in spans:
            idxs = [pre + (k,) for pre in idxs for k in span]
        for idx in idxs:
            if all(k == 0 for k in idx):
                continue
            # unsigned contraction rate of the composed matrix
            expected = math.exp(-abs(g.order_key(idx)))
            assert abs(g.element(idx).multiplier() - expected) < 1e-10

    def test_cone_membership(self):
        g1 = make_group([make_scale_shift(0.5, 0.0)])
        assert g1.in_causal_cone((0,)) and g1.in_causal_cone((4,))
        assert not g1.in_causal_cone((-1,))
        g2 = make_group([make_scale_shift(0.5, 0.0), make_scale_shift(0.25, 0.0)])
        assert g2.in_causal_cone((1, 0))
        assert not g2.in_causal_cone((1, -1))

    def test_order_is_total_on_cyclic(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        keys = [g.order_key((k,)) for k in range(-8, 9)]
        assert all(b < a for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: make_group([make_scale_shift(0.5), (1.25, 0.75)]), TypeError,
                 "generator 1 is not an SuMatrix", id="generator-type"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("inverse", [False, True])
def test_fixed_points_with_equal_real_parts_order_by_imaginary_part(inverse):
    # b purely imaginary: the fixed points are +-i, whose real parts tie, so
    # the designated attracting point is +i, the larger imaginary part
    m = SuMatrix(math.cosh(0.5), 1j * math.sinh(0.5))
    g = make_group([m.inverse() if inverse else m])
    assert g.reoriented == (inverse,)
    z = 0.3
    for _ in range(100):
        z = g.generators[0].apply(z)
    assert abs(z - 1j) < 1e-12
