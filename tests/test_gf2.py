from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evensets import gf2
from evensets.gf2 import BitWord, LinearCode
from evensets.surfaces import KUMMER_ROWS, kummer_code, togliatti_code


def word(bits: str) -> BitWord:
    return BitWord.from_string(bits)


class TestBitWord:
    def test_weight(self):
        assert word("0000").weight == 0
        assert word("1" * 16).weight == 16
        assert word("1100110011001100").weight == 8

    def test_add(self):
        assert word("1100") + word("0110") == word("1010")
        w = word("10110")
        assert w + w == BitWord(5, 0)

    def test_add_length_mismatch(self):
        with pytest.raises(gf2.LengthMismatchError):
            word("110") + word("1100")

    def test_kummer_row_xor_has_weight_8(self):
        r1, r2 = word(KUMMER_ROWS[0]), word(KUMMER_ROWS[1])
        assert (r1 + r2).weight == 8
        # direct count against the combined marks
        marks = [a != b for a, b in zip(KUMMER_ROWS[0], KUMMER_ROWS[1])]
        assert sum(marks) == 8

    def test_intersection_identity(self):
        v, w = word("1011010"), word("0111001")
        assert (v + w).weight + 2 * (v.mask & w.mask).bit_count() == v.weight + w.weight

    def test_support(self):
        assert word("0000").support() == []
        assert word("1010").support() == [0, 2]
        assert word(KUMMER_ROWS[2]).support() == [0, 1, 4, 5, 8, 9, 12, 13]

    def test_string_round_trip(self):
        for bits in ("0", "1", "100101", "0000"):
            assert str(word(bits)) == bits

    @pytest.mark.parametrize("length, mask, message", [
        (-1, 0, "negative length -1"),
        (3, 0b1000, "mask 0x8 does not fit in 3 bits"),
        (3, -1, "negative mask -1"),
    ])
    def test_invalid_word_rejected(self, length, mask, message):
        with pytest.raises(ValueError) as exc:
            BitWord(length, mask)
        assert str(exc.value) == message

    @settings(max_examples=200)
    @given(st.text("01", max_size=80))
    @example("")
    def test_from_string_matches_per_character_loop(self, bits):
        mask = 0
        for i, c in enumerate(bits):
            if c == "1":
                mask |= 1 << i
        assert BitWord.from_string(bits) == BitWord(len(bits), mask)

    @settings(max_examples=200)
    @given(st.text("01", max_size=8), st.text(min_size=1).filter(lambda t: t.strip("01")),
           st.text("01", max_size=8))
    def test_from_string_rejects_any_other_character(self, head, junk, tail):
        bits = head + junk + tail
        with pytest.raises(ValueError) as exc:
            BitWord.from_string(bits)
        assert str(exc.value) == f"invalid bit string {bits!r}"

    @pytest.mark.parametrize("bits", [" ", "_", "+", "2", "\u0661", "1 0", "1_0", "+1",
                                      " 01", "0b1", "01\n"])
    def test_from_string_rejects_what_int_would_accept(self, bits):
        with pytest.raises(ValueError) as exc:
            BitWord.from_string(bits)
        assert str(exc.value) == f"invalid bit string {bits!r}"



class TestLinearCode:
    def test_duplicate_rows_drop(self):
        code = LinearCode.from_rows([word("1100"), word("1100"), word("0011")])
        assert code.dimension == 2

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearCode.from_rows([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(gf2.LengthMismatchError):
            LinearCode.from_rows([word("110"), word("1100")])

    def test_canonical_equality(self):
        a = LinearCode.from_rows([word("110"), word("011")])
        b = LinearCode.from_rows([word("101"), word("011")])
        assert a == b

    def test_constructor_canonicalises(self):
        assert LinearCode(3, (0b011, 0b110)) == LinearCode(3, (0b101, 0b011, 0))
        assert LinearCode(3, (0b011, 0b110)).rows == (0b101, 0b110)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError) as exc:
            LinearCode(-1, ())
        assert str(exc.value) == "negative length -1"

    @pytest.mark.parametrize("mask", [0b1000, -1])
    def test_mask_outside_length_rejected(self, mask):
        with pytest.raises(ValueError) as exc:
            LinearCode(3, (mask,))
        assert str(exc.value) == {0b1000: "row mask 0x8 does not fit in 3 bits",
                                  -1: "negative row mask -1"}[mask]

    def test_contains(self):
        code = kummer_code()
        for row in KUMMER_ROWS:
            assert code.contains(word(row))
        assert not code.contains(word("1" + "0" * 15))

    def test_paper_codes_have_dimension_5(self):
        assert kummer_code().dimension == 5
        assert togliatti_code().dimension == 5


class TestEnumeration:
    def test_zero_dimensional_code(self):
        code = LinearCode(4, ())
        assert list(gf2.enumerate_codewords(code)) == [BitWord(4, 0)]
        assert gf2.weight_distribution(code) == {0: 1}

    def test_starts_with_zero_word(self):
        words = list(gf2.enumerate_codewords(kummer_code()))
        assert words[0] == BitWord(16, 0)
        assert len(words) == 32
        assert len(set(words)) == 32

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 4)
        code = LinearCode(8, tuple(1 << i for i in range(8)))
        with pytest.raises(gf2.EnumerationCapError) as err:
            list(gf2.enumerate_codewords(code))
        assert "2^4" in str(err.value)

    def test_togliatti_enumeration(self):
        assert sum(1 for _ in gf2.enumerate_codewords(togliatti_code())) == 32


class TestWeightAnalytics:
    def test_kummer_distribution(self):
        assert gf2.weight_distribution(kummer_code()) == {0: 1, 8: 30, 16: 1}

    def test_togliatti_distribution(self):
        assert gf2.weight_distribution(togliatti_code()) == {0: 1, 16: 31}

    def test_minimum_distance(self):
        assert gf2.minimum_distance(kummer_code()) == 8
        assert gf2.minimum_distance(togliatti_code()) == 16
        assert gf2.minimum_distance(LinearCode.from_rows([word("1111")])) == 4

    def test_minimum_distance_zero_code(self):
        with pytest.raises(ValueError):
            gf2.minimum_distance(LinearCode(3, ()))

    def test_minimum_distance_matches_distribution(self):
        for code in (kummer_code(), togliatti_code()):
            dist = gf2.weight_distribution(code)
            assert gf2.minimum_distance(code) == min(w for w in dist if w)


class TestDual:
    def test_full_space_dual_is_zero(self):
        assert gf2.dual_code(LinearCode(5, tuple(1 << i for i in range(5)))) == LinearCode(5, ())

    @pytest.mark.parametrize("code,expected_dual_dim",
                             [(kummer_code(), 11), (togliatti_code(), 26)])
    def test_dual_dimension_and_orthogonality(self, code, expected_dual_dim):
        dual = gf2.dual_code(code)
        assert dual.dimension == expected_dual_dim
        for dual_word in dual.basis():
            for generator in code.basis():
                assert (dual_word.mask & generator.mask).bit_count() % 2 == 0

    def test_double_dual(self):
        code = kummer_code()
        assert gf2.dual_code(gf2.dual_code(code)) == code


class TestParity:
    def test_kummer_doubly_even(self):
        assert gf2.classify_parity(kummer_code()) == "doubly-even"

    def test_even_and_not_even(self):
        assert gf2.classify_parity(LinearCode.from_rows([word("110")])) == "even"
        assert gf2.classify_parity(LinearCode.from_rows([word("100")])) == "not-even"

    def test_self_orthogonality(self):
        assert gf2.is_self_orthogonal(kummer_code())
        assert gf2.is_self_orthogonal(togliatti_code())
        assert not gf2.is_self_orthogonal(LinearCode(2, tuple(1 << i for i in range(2))))


class TestProjection:
    def test_identity_projection(self):
        code = kummer_code()
        all_ones = word("1" * 16)
        image, kernel_dim = gf2.project_onto_support(code, all_ones)
        assert kernel_dim == 0
        assert image.dimension == code.dimension
        assert gf2.weight_distribution(image) == gf2.weight_distribution(code)

    def test_zero_word_projection(self):
        code = kummer_code()
        image, kernel_dim = gf2.project_onto_support(code, BitWord(16, 0))
        assert image.length == 0
        assert kernel_dim == code.dimension

    def test_non_codeword_rejected(self):
        with pytest.raises(gf2.NotACodewordError):
            gf2.project_onto_support(kummer_code(), word("1" + "0" * 15))

    def test_length_mismatch_names_both_lengths(self):
        with pytest.raises(gf2.LengthMismatchError) as exc:
            gf2.project_onto_support(kummer_code(), word("111"))
        assert str(exc.value) == "cannot project a word of length 3 onto a code of length 16"

    def test_kummer_weight8_projections_doubly_even(self):
        code = kummer_code()
        weight8 = [w for w in gf2.enumerate_codewords(code) if w.weight == 8]
        assert len(weight8) == 30
        for w in weight8:
            image, kernel_dim = gf2.project_onto_support(code, w)
            assert image.length == 8
            assert kernel_dim == code.dimension - image.dimension
            # original weights divisible by 8, so image weights divisible by 4
            assert all(v % 4 == 0 for v in gf2.weight_distribution(image))


def plain_griesmer_length(k, d):
    return sum(-(-d // (1 << i)) for i in range(k))


def plain_griesmer_dim(n, d):
    k = 0
    while plain_griesmer_length(k + 1, d) <= n:
        k += 1
    return k


class TestGriesmer:
    def test_min_length_values(self):
        assert gf2.griesmer_min_length(5, 16) == 31
        assert gf2.griesmer_min_length(5, 8) == 16
        assert gf2.griesmer_min_length(1, 7) == 7
        assert gf2.griesmer_min_length(12, 32) == 69

    def test_max_dim_values(self):
        assert gf2.griesmer_max_dim(16, 8) == 5
        assert gf2.griesmer_max_dim(31, 16) == 5

    def test_max_dim_by_scanning(self):
        for n, d in ((16, 8), (31, 16), (65, 32), (24, 12)):
            assert gf2.griesmer_max_dim(n, d) == plain_griesmer_dim(n, d)
        # a dimension-12 code of distance 32 needs length 69 > 65, and the
        # largest dimension actually admitted at length 65 is 8
        assert gf2.griesmer_max_dim(65, 32) == 8

    @given(st.integers(1, 40), st.integers(1, 300))
    def test_min_length_matches_plain_sum(self, k, d):
        assert gf2.griesmer_min_length(k, d) == plain_griesmer_length(k, d)

    @given(st.integers(1, 300), st.integers(0, 80))
    def test_max_dim_matches_plain_loop(self, d, slack):
        n = d + slack
        assert gf2.griesmer_max_dim(n, d) == plain_griesmer_dim(n, d)

    def test_huge_arguments(self):
        assert gf2.griesmer_min_length(10**8, 1) == 10**8
        assert gf2.griesmer_min_length(10**8, 32) == 10**8 - 5 + 62
        assert gf2.griesmer_max_dim(10**9, 1) == 10**9
        assert gf2.griesmer_max_dim(10**9, 32) == 10**9 + 5 - 62

    @pytest.mark.parametrize("k, d, message", [
        (5, 0, "minimum distance must be at least 1, got 0"),
        (0, 5, "dimension must be at least 1, got 0"),
        (-1, 3, "dimension must be at least 1, got -1"),
    ])
    def test_min_length_names_the_bad_argument(self, k, d, message):
        with pytest.raises(ValueError) as exc:
            gf2.griesmer_min_length(k, d)
        assert str(exc.value) == message

    def test_max_dim_domain(self):
        with pytest.raises(ValueError, match="exceeds length"):
            gf2.griesmer_max_dim(16, 17)
        with pytest.raises(ValueError, match="minimum distance must be at least 1, got 0"):
            gf2.griesmer_max_dim(5, 0)
        for n in (0, -5):
            with pytest.raises(ValueError) as exc:
                gf2.griesmer_max_dim(n, 1)
            assert str(exc.value) == f"length must be at least 1, got {n}"

    @given(st.integers(1, 12), st.integers(1, 64))
    def test_monotonicity(self, k, d):
        assert gf2.griesmer_min_length(k + 1, d) > gf2.griesmer_min_length(k, d)
        assert gf2.griesmer_min_length(k, d + 1) >= gf2.griesmer_min_length(k, d)
        assert gf2.griesmer_max_dim(gf2.griesmer_min_length(k, d), d) >= k


class TestParsing:
    def test_round_trip_with_comments_and_spaces(self):
        for text in ("# header\n\n1 1 0 0\n0011\n", "# header\n\n1  1 0 0\n0011\n"):
            rows = gf2.parse_generator_matrix(text)
            assert [str(r) for r in rows] == ["1100", "0011"]

    def test_ragged_rows_report_line(self):
        with pytest.raises(gf2.GeneratorMatrixParseError) as err:
            gf2.parse_generator_matrix("1100\n101\n")
        assert err.value.line_number == 2

    def test_bad_characters_report_line(self):
        with pytest.raises(gf2.GeneratorMatrixParseError) as err:
            gf2.parse_generator_matrix("1100\n12x0\n")
        assert err.value.line_number == 2

    def test_empty_input_rejected(self):
        with pytest.raises(gf2.GeneratorMatrixParseError) as err:
            gf2.parse_generator_matrix("# only comments\n")
        # No line holds the fault, so none is cited.
        assert err.value.line_number is None
        assert str(err.value) == "no data rows found"


@st.composite
def word_pairs(draw):
    n = draw(st.integers(1, 64))
    bits = st.integers(0, (1 << n) - 1)
    return BitWord(n, draw(bits)), BitWord(n, draw(bits))


@st.composite
def random_codes(draw):
    n = draw(st.integers(1, 24))
    n_rows = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1),
                          min_size=n_rows, max_size=n_rows))
    return LinearCode.from_rows([BitWord(n, m) for m in masks]) if any(masks) \
        else LinearCode(n, ())


@st.composite
def masks_of_length(draw):
    n = draw(st.integers(0, 24))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))


class TestProperties:
    @settings(max_examples=200)
    @given(masks_of_length())
    def test_constructor_matches_from_rows_and_is_rref(self, case):
        n, masks = case
        code = LinearCode(n, tuple(masks))
        assert code == (LinearCode.from_rows([BitWord(n, m) for m in masks])
                        if masks else LinearCode(n, ()))
        assert all(code.contains(BitWord(n, m)) for m in masks)
        # RREF: nonzero rows, pivots (lowest set bits) strictly increasing,
        # and each pivot bit set only in its own row.
        lows = [row & -row for row in code.rows]
        assert all(lows) and lows == sorted(set(lows))
        assert all(row & low == 0 for low in lows for row in code.rows
                   if row & -row != low)

    @given(word_pairs())
    def test_weight_identity(self, pair):
        v, w = pair
        assert (v + w).weight + 2 * (v.mask & w.mask).bit_count() == v.weight + w.weight

    @settings(max_examples=200)
    @given(random_codes())
    def test_dual_dimension_law(self, code):
        dual = gf2.dual_code(code)
        assert code.dimension + dual.dimension == code.length
        assert gf2.dual_code(dual) == code

    @settings(max_examples=200)
    @given(random_codes())
    def test_doubly_even_implies_self_orthogonal(self, code):
        if gf2.classify_parity(code) == "doubly-even":
            assert gf2.is_self_orthogonal(code)
            assert 2 * code.dimension <= code.length

    @settings(max_examples=100)
    @given(st.integers(0, 31))
    def test_projection_divisibility_on_subcodes(self, message):
        # random subcode of the weight-8 projections: weights divisible by 8
        # project onto any codeword and the quotient divisibility halves
        code = togliatti_code()
        words = list(gf2.enumerate_codewords(code))
        w = words[message]
        if w.weight == 0:
            return
        image, _ = gf2.project_onto_support(code, w)
        assert all(v % 8 == 0 for v in gf2.weight_distribution(image))


def message_order_weights(code: LinearCode) -> list[int]:
    """Weights of all 2^k codewords, each rebuilt from its message bits."""
    weights = []
    for message in range(1 << code.dimension):
        mask = 0
        for r, row in enumerate(code.rows):
            if message >> r & 1:
                mask ^= row
        weights.append(mask.bit_count())
    return weights


@st.composite
def small_codes(draw):
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return draw(st.sampled_from([
        LinearCode.from_rows([BitWord(n, m) for m in masks]) if any(masks)
        else LinearCode(n, ()),
        LinearCode(n, ()),
        LinearCode(n, tuple(1 << i for i in range(n))),
    ]))


class TestEnumeratorAgainstMessageOrder:
    """Gray-code walk and the MacWilliams dual path against a naive walk.

    Each example checks a code and its dual, so unless n = 2k one of the two
    has n - k < k and takes the dual path.
    """

    @settings(max_examples=150, deadline=None)
    @given(small_codes())
    def test_analytics_match(self, code):
        for c in (code, gf2.dual_code(code)):
            weights = message_order_weights(c)
            assert gf2.weight_distribution(c) == dict(sorted(Counter(weights).items()))
            if c.dimension:
                assert gf2.minimum_distance(c) == min(w for w in weights if w)
            else:
                with pytest.raises(ValueError):
                    gf2.minimum_distance(c)
            expected = ("not-even" if any(w % 2 for w in weights)
                        else "even" if any(w % 4 for w in weights)
                        else "doubly-even")
            assert gf2.classify_parity(c) == expected

    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_walk_visits_every_codeword_once(self, code):
        words = list(gf2.enumerate_codewords(code))
        assert words[0] == BitWord(code.length, 0)
        assert len(words) == len(set(words)) == 1 << code.dimension
        assert all(code.contains(w) for w in words)

    def test_cap_bounds_the_dimension_walked(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 4)
        # full space [8, 8]: its dual is the zero code, so nothing near 2^4 is walked
        assert gf2.weight_distribution(LinearCode(8, tuple(1 << i for i in range(8)))) == {
            w: comb(8, w) for w in range(9)}
        half_rate = LinearCode.from_rows(
            [BitWord(16, 1 << i | 1 << (i + 8)) for i in range(8)])
        assert half_rate.dimension == 8
        with pytest.raises(gf2.EnumerationCapError):
            gf2.weight_distribution(half_rate)
