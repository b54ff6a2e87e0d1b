import json
import math

import pytest

from evensets import cli, formulas, gf2, surfaces
from evensets.formulas import STRICT, WEAK
from evensets.surfaces import NodalSurface


class TestMaxNodes:
    def test_table(self):
        assert surfaces.max_nodes(1) == 0
        assert surfaces.max_nodes(4) == 16
        assert surfaces.max_nodes(6) == 65

    def test_unknown_degree(self):
        for d in (0, 7, 10):
            with pytest.raises(ValueError):
                surfaces.max_nodes(d)

    def test_surface_respects_node_limit(self):
        NodalSurface(4, 16)
        with pytest.raises(ValueError):
            NodalSurface(4, 17)
        NodalSurface(7, 100)  # within Miyaoka's bound beyond degree 6

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError) as exc:
            NodalSurface(4, -1)
        assert str(exc.value) == "node count must be nonnegative, got -1"

    def test_miyaoka_bound_beyond_degree_six(self):
        NodalSurface(7, 112)
        with pytest.raises(ValueError, match="at most 112 nodes"):
            NodalSurface(7, 113)
        NodalSurface(10, 360)
        with pytest.raises(ValueError, match="at most 360 nodes"):
            NodalSurface(10, 361)


class TestBetti:
    def test_pinned_values(self):
        assert {s: surfaces.b2_resolution(s) for s in (3, 4, 5, 6)} == \
            {3: 7, 4: 22, 5: 53, 6: 106}

    def test_degree_one_is_the_plane(self):
        assert surfaces.b2_resolution(1) == 1

    @pytest.mark.parametrize("s", [0, -1])
    def test_degree_below_one_rejected(self, s):
        with pytest.raises(ValueError) as exc:
            surfaces.b2_resolution(s)
        assert str(exc.value) == f"surface degree must be at least 1, got {s}"


class TestDimBounds:
    @pytest.mark.parametrize("s,mu,expected", [
        (3, 4, 1), (4, 16, 5), (5, 31, 5), (6, 65, 12),
    ])
    def test_strict_bounds(self, s, mu, expected):
        assert surfaces.dim_lower_bound(NodalSurface(s, mu), STRICT) == expected

    def test_weak_is_strict_plus_one(self):
        for s, mu in ((4, 16), (6, 65), (8, 100), (10, 360)):
            surface = NodalSurface(s, mu)
            strict = surfaces.dim_lower_bound(surface, STRICT)
            weak = surfaces.dim_lower_bound(surface, WEAK)
            if strict > 0:
                assert weak == strict + 1

    def test_weak_needs_even_degree(self):
        with pytest.raises(formulas.WeakParityError):
            surfaces.dim_lower_bound(NodalSurface(5, 31), WEAK)

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError) as exc:
            surfaces.dim_lower_bound(NodalSurface(4, 16), "bogus")
        assert str(exc.value) == \
            "parity must be one of ('strict', 'weak'), got 'bogus'"

    def test_clamped_at_zero(self):
        assert surfaces.dim_lower_bound(NodalSurface(6, 0), STRICT) == 0


class TestWeightRules:
    def test_strict_modulus(self):
        assert surfaces.strict_weight_modulus(6) == 8
        assert surfaces.strict_weight_modulus(5) == 4
        assert surfaces.strict_weight_modulus(7) == 4

    def test_weak_residue_from_chi_integrality(self):
        assert surfaces.weak_weight_residue(4) == 2
        assert surfaces.weak_weight_residue(6) == 3
        assert surfaces.weak_weight_residue(8) == 0

    def test_weak_residue_matches_chi(self):
        for s in (4, 6, 8, 10):
            r = surfaces.weak_weight_residue(s)
            for w in range(0, 32):
                integral = formulas.chi(s, 1, w).denominator == 1
                assert integral == (w % 4 == r)

    def test_weak_residue_equals_the_fractional_part_of_chi(self):
        for s in range(2, 401, 2):
            c = formulas.chi(s, 1, 0)
            assert surfaces.weak_weight_residue(s) == int(4 * (c - math.floor(c))) % 4, s

    def test_weak_residue_odd_degree(self):
        with pytest.raises(formulas.WeakParityError) as exc:
            surfaces.weak_weight_residue(5)
        assert str(exc.value) == "degree 5 is odd; weakly even sets need even degree"

    @pytest.mark.parametrize("s, error, message", [
        (-2, ValueError, "surface degree must be at least 1, got -2"),
        (-1, ValueError, "surface degree must be at least 1, got -1"),
        (0, ValueError, "surface degree must be at least 1, got 0"),
        (1, formulas.WeakParityError, "degree 1 is odd; weakly even sets need even degree"),
    ])
    def test_weak_residue_checks_the_degree_before_the_parity(self, s, error, message):
        with pytest.raises(ValueError) as exc:
            surfaces.weak_weight_residue(s)
        assert (type(exc.value), str(exc.value)) == (error, message)


class TestProfile:
    @staticmethod
    def bounds_payload(capsys, degree, nodes):
        assert cli.main(["--json", "surface", "bounds", "--degree", str(degree),
                         "--nodes", str(nodes)]) == 0
        return json.loads(capsys.readouterr().out)["payload"]

    def test_even_degree_profile(self, capsys):
        payload = self.bounds_payload(capsys, 6, 65)
        assert payload["dim_lower_bound_strict"] == 12
        assert payload["dim_lower_bound_even"] == 13
        assert payload["strict_weight_modulus"] == 8
        assert payload["weak_weight_residue"] == 3

    def test_odd_degree_profile(self, capsys):
        payload = self.bounds_payload(capsys, 5, 31)
        assert payload["dim_lower_bound_even"] is None
        assert payload["strict_weight_modulus"] == 4
        assert payload["weak_weight_residue"] is None


class TestExampleCodes:
    def test_kummer(self):
        code = surfaces.kummer_code()
        assert (code.length, code.dimension) == (16, 5)
        assert gf2.minimum_distance(code) == 8

    def test_togliatti_rows_all_weight_16(self):
        for row in surfaces.TOGLIATTI_ROWS:
            assert row.count("1") == 16

    def test_togliatti_cross_construction(self):
        transcribed = surfaces.togliatti_code()
        constructed = surfaces.togliatti_simplex_construction()
        assert gf2.weight_distribution(transcribed) == \
            gf2.weight_distribution(constructed)

    def test_cayley(self):
        code = surfaces.cayley_code()
        assert code.dimension == 1
        assert gf2.minimum_distance(code) == 4
        assert gf2.weight_distribution(code) == {0: 1, 4: 1}

    def test_divisibility_of_example_codes(self):
        assert all(w % surfaces.strict_weight_modulus(4) == 0
                   for w in gf2.weight_distribution(surfaces.kummer_code()))
        assert all(w % surfaces.strict_weight_modulus(5) == 0
                   for w in gf2.weight_distribution(surfaces.togliatti_code()))
