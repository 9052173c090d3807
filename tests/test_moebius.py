import itertools
import math

import numpy as np
import pytest

from scalekit import MapClass, SuMatrix, make_group, make_scale_shift
from helpers import disc_point, random_hyperbolic


class TestMakeScaleShift:
    def test_identity_at_alpha_one(self):
        m = make_scale_shift(1.0, 0.0)
        assert m.a == pytest.approx(1.0)
        assert m.b == pytest.approx(0.0)
        assert m.classify() is MapClass.IDENTITY

    def test_quarter_scale_entries(self):
        # entries (1 + alpha, 1 - alpha) / (2 sqrt(alpha)) at theta = 0
        m = make_scale_shift(0.25, 0.0)
        assert m.a == pytest.approx(1.25, abs=1e-15)
        assert m.b == pytest.approx(0.75, abs=1e-15)

    def test_determinant_identity_with_rotation(self):
        m = make_scale_shift(0.25, 0.4)
        assert abs(m.a) ** 2 - abs(m.b) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError):
            make_scale_shift(alpha, 0.0)

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 2.0])
    def test_rejects_large_theta(self, theta):
        with pytest.raises(ValueError):
            make_scale_shift(0.5, theta)


class TestConstructor:
    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError):
            SuMatrix(1.5, 0.5)

    def test_rejects_determinant_off_by_1e_11(self):
        # the pair's own scale 1 + |a|^2 is about 2, so 1e-11 is 5 DET_TOL
        b = 0.001
        with pytest.raises(ValueError, match="not an SU"):
            SuMatrix(math.sqrt(1.0 + b * b + 1e-11), b)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SuMatrix(complex("nan"), 0.0)

    def test_sign_normalization(self):
        m = SuMatrix(-1.25, -0.75)
        assert m.a == pytest.approx(1.25)
        assert m.b == pytest.approx(0.75)

    def test_sign_normalization_imaginary_axis(self):
        m = SuMatrix(-1j, 0.0)
        assert m.a == pytest.approx(1j)

    def test_accessors_conjugate(self):
        m = make_scale_shift(0.3, 0.5)
        assert m.c == m.b.conjugate()
        assert m.d == m.a.conjugate()


class TestCompose:
    def test_identity_is_neutral(self):
        m = make_scale_shift(0.4, 0.7)
        e = SuMatrix.identity()
        assert m.compose(e).entry_distance(m) == 0.0
        assert e.compose(m).entry_distance(m) == 0.0

    def test_inverse_roundtrip(self):
        m = make_scale_shift(0.4, -0.3)
        assert m.compose(m.inverse()).entry_distance(SuMatrix.identity()) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.1])
    def test_scale_shifts_multiply(self, theta):
        lhs = make_scale_shift(0.5, theta).compose(make_scale_shift(0.5, theta))
        rhs = make_scale_shift(0.25, theta)
        assert lhs.entry_distance(rhs) < 1e-12

    def test_accepts_identity_products(self):
        # the product's determinant carries the rounding of factors with
        # |a| up to about 2,000, far above the product's own |a| of 1: all
        # 2,057 pairs in [-8, 8]^2 whose exponents sum to the identity
        g = make_group([make_scale_shift(0.5, 0.2), make_scale_shift(0.25, 0.2)])
        box = list(itertools.product(range(-8, 9), repeat=2))
        count = 0
        for i1, i2 in itertools.product(box, repeat=2):
            if i1[0] + i2[0] == -2 * (i1[1] + i2[1]):
                m1, m2 = g.element(i1), g.element(i2)
                dist = m1.compose(m2).entry_distance(SuMatrix.identity())
                assert dist < 1e-12 * max(1.0, abs(m1.a) * abs(m2.a))
                count += 1
        assert count == 2057

    def test_acts_as_map_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m1 = random_hyperbolic(rng)
            m2 = random_hyperbolic(rng)
            z = disc_point(rng)
            lhs = m1.compose(m2).apply(z)
            rhs = m1.apply(m2.apply(z))
            assert abs(lhs - rhs) < 1e-12


class TestInverse:
    def test_identity(self):
        e = SuMatrix.identity()
        assert e.inverse().entry_distance(e) == 0.0

    def test_cofactor_form(self):
        m = SuMatrix(1.25, 0.75)
        inv = m.inverse()
        assert inv.a == pytest.approx(1.25)
        assert inv.b == pytest.approx(-0.75)

    def test_undoes_the_map(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_hyperbolic(rng)
            z = disc_point(rng)
            assert abs(m.inverse().apply(m.apply(z)) - z) < 1e-12


class TestClassify:
    def test_hyperbolic(self):
        assert SuMatrix(1.25, 0.75).classify() is MapClass.HYPERBOLIC

    def test_elliptic(self):
        a = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        assert SuMatrix(a, 0.0).classify() is MapClass.ELLIPTIC

    def test_identity(self):
        assert SuMatrix(1.0, 0.0).classify() is MapClass.IDENTITY

    def test_parabolic(self):
        # |Re a| = 1 with b matching the unit determinant
        m = SuMatrix(1.0 + 1.0j, 1.0)
        assert m.classify() is MapClass.PARABOLIC


class TestMultiplier:
    def test_quarter_scale(self):
        assert make_scale_shift(0.25, 0.0).multiplier() == pytest.approx(
            0.25, abs=1e-15
        )

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, 1.2, -1.2])
    def test_min_alpha_inv_alpha(self, k, theta):
        alpha = 2.0 ** k / 16.0
        if alpha == 1.0:
            with pytest.raises(ValueError):
                make_scale_shift(alpha, theta).multiplier()
            return
        expected = min(alpha, 1.0 / alpha)
        got = make_scale_shift(alpha, theta).multiplier()
        assert abs(got - expected) < 1e-12

    def test_multiplicative_under_composition(self):
        g = make_scale_shift(0.5, 0.2)
        h = make_scale_shift(0.5, 0.2)
        assert g.compose(h).multiplier() == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError, match="non-hyperbolic"):
            SuMatrix.identity().multiplier()

    def test_invariant_under_sign_flip(self):
        m = SuMatrix(1.25, 0.75)
        flipped = SuMatrix(-1.25, -0.75)
        assert m.multiplier() == flipped.multiplier()
        assert m.fixed_points() == flipped.fixed_points()


class TestFixedPoints:
    def test_quarter_scale(self):
        fp = make_scale_shift(0.25, 0.0).fixed_points()
        assert fp.xi1 == pytest.approx(1.0)
        assert fp.xi2 == pytest.approx(-1.0)
        assert fp.lam == pytest.approx(0.75)

    def test_on_unit_circle_and_fixed(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = random_hyperbolic(rng)
            fp = m.fixed_points()
            assert abs(abs(fp.xi1) - 1.0) < 1e-12
            assert abs(abs(fp.xi2) - 1.0) < 1e-12
            assert abs(m.apply(fp.xi1) - fp.xi1) < 1e-10
            assert abs(m.apply(fp.xi2) - fp.xi2) < 1e-10
            assert 0.0 < fp.multiplier < 1.0

    def test_xi1_is_attracting(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_hyperbolic(rng)
            fp = m.fixed_points()
            z = 0.0j
            for _ in range(200):
                z = m.apply(z)
            assert abs(z - fp.xi1) < 1e-6

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            SuMatrix.identity().fixed_points()


class TestApply:
    def test_identity(self):
        e = SuMatrix.identity()
        assert e.apply(0.3 + 0.2j) == 0.3 + 0.2j

    def test_quarter_scale_at_origin(self):
        assert make_scale_shift(0.25, 0.0).apply(0.0) == pytest.approx(0.6)

    def test_preserves_disc(self):
        rng = np.random.default_rng(3)
        m = random_hyperbolic(rng)
        for _ in range(1000):
            z = disc_point(rng)
            assert abs(m.apply(z)) < 1.0

    def test_pole_rejected(self):
        m = SuMatrix(1.25, 0.75)
        pole = -m.d / m.c
        with pytest.raises(ValueError, match="pole"):
            m.apply(pole)


class TestKernelIdentity:
    def test_moebius_kernel_identity(self):
        # (1 - phi(z) phi(w)*) / (1 - z w*) == 1 / ((c z + d)(c w + d)*)
        rng = np.random.default_rng(17)
        for m in [random_hyperbolic(rng) for _ in range(5)]:
            c, d = m.c, m.d
            for _ in range(1000):
                z, w = disc_point(rng), disc_point(rng)
                lhs = (1 - m.apply(z) * m.apply(w).conjugate()) / (1 - z * w.conjugate())
                rhs = 1.0 / ((c * z + d) * (c * w + d).conjugate())
                assert abs(lhs - rhs) < 1e-12


class TestInvariants:
    def test_determinant_preserved_by_operations(self):
        rng = np.random.default_rng(29)
        m = random_hyperbolic(rng)
        for other in (m.inverse(), m.compose(m), random_hyperbolic(rng).compose(m)):
            det = abs(other.a) ** 2 - abs(other.b) ** 2
            assert abs(det - 1.0) < 1e-12 * (1 + abs(other.a) ** 2)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: SuMatrix.identity().log_multiplier(), ValueError,
                 "multiplier undefined for non-hyperbolic map", id="log_multiplier"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
