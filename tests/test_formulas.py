from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evensets import formulas
from evensets.formulas import chi, serre_dual_twist


class TestChi:
    @pytest.mark.parametrize("s,v,w,expected", [
        (4, 1, 6, 1),
        (8, 3, 28, 14),
        (10, 6, 80, 20),
        (3, 2, 4, 3),
        (4, 2, 8, 2),
        (6, 1, 15, 5),
    ])
    def test_pinned_values(self, s, v, w, expected):
        assert chi(s, v, w) == expected

    @pytest.mark.parametrize("s,v,a", [
        # chi = (a - w)/4 at these (degree, twist) pairs
        (4, 1, 10), (5, 2, 20), (6, 1, 35), (6, 3, 35), (6, 2, 32),
        (7, 2, 56), (7, 4, 56), (8, 3, 84), (8, 5, 84), (8, 4, 80),
        (10, 6, 160),
    ])
    def test_closed_forms(self, s, v, a):
        for w in (0, 4, 8, 15, 23, 40, 56, 80, 112):
            assert chi(s, v, w) == Fraction(a - w, 4)

    def test_small_degree_binomial_vanishes(self):
        # binom(s-1, 3) term is 0 for s <= 3
        assert chi(2, 0, 0) == 1
        assert chi(3, 0, 0) == 1

    def test_exact_fraction(self):
        value = chi(4, 1, 0)
        assert value == Fraction(5, 2)
        assert 8 % value.denominator == 0

    def test_negative_twists_allowed(self):
        assert chi(4, -2, 8).denominator in (1, 2, 4, 8)

    @given(st.integers(1, 40), st.integers(-60, 60), st.integers(0, 2000))
    def test_equals_the_rational_formula(self, s, v, w):
        binom = (s - 1) * (s - 2) * (s - 3) // 6
        expected = Fraction(s * v, 8) * (v - 2 * s + 8) + binom + 1 - Fraction(w, 4)
        assert chi(s, v, w) == expected

    @pytest.mark.parametrize("s", [0, -3])
    def test_nonpositive_degree_rejected(self, s):
        with pytest.raises(ValueError, match="degree"):
            chi(s, 1, 0)


class TestSerreDual:
    @pytest.mark.parametrize("s,v,expected", [
        (8, 5, 3), (6, 1, 3), (10, 6, 6), (4, 2, -2), (4, 0, 0),
    ])
    def test_values(self, s, v, expected):
        assert serre_dual_twist(s, v) == expected

    def test_chi_symmetry_exhaustive(self):
        for s in range(2, 13):
            for v in range(-5, 2 * s + 1):
                dual = serre_dual_twist(s, v)
                for w in range(0, 4 * s * s + 1, 4):
                    assert chi(s, v, w) == chi(s, dual, w)

    def test_involution(self):
        for s in range(2, 12):
            for v in range(-5, 20):
                assert serre_dual_twist(s, serre_dual_twist(s, v)) == v


class TestGallarati:
    def test_both_sides_zero(self):
        assert formulas.gallarati_check(3, 3, 7, 5, 5)

    def test_nontrivial_true(self):
        assert formulas.gallarati_check(4, 2, 2, 10, 2)

    def test_false(self):
        assert not formulas.gallarati_check(3, 2, 1, 0, 0)


class TestContactCounts:
    @given(st.integers(2, 500).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(1, s - 1))))
    def test_contact_product_is_twice_the_bound(self, sv):
        s, v = sv
        product = s * v * (s - v)
        assert product % 2 == 0
        assert product == 2 * formulas.reduced_contact_lower_bound(s, v)

    def test_reduced_lower_bound(self):
        assert formulas.reduced_contact_lower_bound(8, 5) == 60
        assert formulas.reduced_contact_lower_bound(7, 4) == 42
        assert formulas.reduced_contact_lower_bound(10, 6) == 120

    def test_plane_weights(self):
        assert formulas.plane_contact_weight(4) == 6
        assert formulas.plane_contact_weight(6) == 15
        assert formulas.plane_contact_weight(8) == 28

    def test_quadric_weights(self):
        assert formulas.quadric_contact_weight(6) == 24
        assert formulas.quadric_contact_weight(5) == 16
        assert formulas.quadric_contact_weight(7) == 36


class TestUnstableBound:
    def test_half_degree_exact(self):
        assert formulas.unstable_lower_bound(6, 3) == 27
        for s in (4, 6, 8, 10):
            assert formulas.unstable_lower_bound(s, s // 2) == s**3 // 8
            assert formulas.unstable_lower_bound(s, s // 2) == \
                formulas.reduced_contact_lower_bound(s, s // 2)

    def test_offset_twists(self):
        assert formulas.unstable_lower_bound(7, 4) == 42
        assert formulas.unstable_lower_bound(8, 5) == 60
        assert formulas.unstable_lower_bound(10, 6) == 120

    def test_offset_twists_are_the_reduced_contact_bound(self):
        for s in range(3, 60):
            v = s // 2 + 1  # the one v with 2v in {s+1, s+2}
            product = s * v * (s - v)
            assert product % 2 == 0
            assert formulas.unstable_lower_bound(s, v) == product // 2 == \
                formulas.reduced_contact_lower_bound(s, v)

    def test_inadmissible_twist(self):
        with pytest.raises(ValueError):
            formulas.unstable_lower_bound(8, 3)


class TestMinimalWeights:
    def test_e_min(self):
        assert formulas.e_min(6) == 24
        assert formulas.e_min(7) == 36
        assert formulas.e_min(10) == 80

    def test_e_min_matches_quadric(self):
        for s in formulas.PROVEN_STRICT_DEGREES:
            assert formulas.e_min(s) == formulas.quadric_contact_weight(s)

    def test_e_bar_min(self):
        assert formulas.e_bar_min(2) == 1
        assert formulas.e_bar_min(4) == 6
        assert formulas.e_bar_min(8) == 28
        for s in formulas.PROVEN_WEAK_DEGREES:
            assert formulas.e_bar_min(s) == formulas.plane_contact_weight(s)

    def test_unproven_degrees_rejected(self):
        with pytest.raises(formulas.UnprovenDegreeError):
            formulas.e_min(9)
        with pytest.raises(formulas.UnprovenDegreeError):
            formulas.e_bar_min(6 + 4)  # 10 is unproven for the weak case

    @pytest.mark.parametrize("s", [3, 5, 9])
    def test_e_bar_min_odd_degree_is_impossible(self, s):
        with pytest.raises(formulas.WeakParityError) as exc:
            formulas.e_bar_min(s)
        assert str(exc.value) == \
            f"degree {s} is odd; weakly even sets need even degree"

    @pytest.mark.parametrize("fn", [formulas.e_min, formulas.e_bar_min])
    @pytest.mark.parametrize("s", [0, -1])
    def test_nonpositive_degree_rejected(self, fn, s):
        with pytest.raises(ValueError, match=f"at least 1, got {s}$"):
            fn(s)

    def test_gap_endpoints(self):
        assert formulas.smooth_cubic_weight(8) == 60
        assert formulas.smooth_quartic_weight(10) == 120
        # degree 6 strict gap is empty: endpoint equals the minimum
        assert formulas.smooth_quartic_weight(6) == formulas.e_min(6)
