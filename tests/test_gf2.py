from collections import Counter
from functools import reduce
from math import comb
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evensets import gf2
from evensets.gf2 import LinearCode, bit_string, parse_bits
from evensets.surfaces import KUMMER_ROWS, kummer_code, togliatti_code


class TestBitWord:
    """Words: int masks and their '0'/'1' strings, coordinate 0 leftmost."""

    def test_kummer_row_xor_has_weight_8(self):
        r1, r2 = parse_bits(KUMMER_ROWS[0]), parse_bits(KUMMER_ROWS[1])
        assert (r1 ^ r2).bit_count() == 8
        # direct count against the combined marks
        marks = [a != b for a, b in zip(KUMMER_ROWS[0], KUMMER_ROWS[1])]
        assert sum(marks) == 8

    def test_intersection_identity(self):
        v, w = parse_bits("1011010"), parse_bits("0111001")
        assert (v ^ w).bit_count() + 2 * (v & w).bit_count() == v.bit_count() + w.bit_count()

    def test_string_round_trip(self):
        for bits in ("0", "1", "100101", "0000", ""):
            assert bit_string(len(bits), parse_bits(bits)) == bits

    @settings(max_examples=200)
    @given(st.text("01", max_size=80))
    @example("")
    def test_from_string_matches_per_character_loop(self, bits):
        mask = 0
        for i, c in enumerate(bits):
            if c == "1":
                mask |= 1 << i
        assert parse_bits(bits) == mask
        assert bit_string(len(bits), mask) == bits

    @settings(max_examples=200)
    @given(st.text("01", max_size=8), st.text(min_size=1).filter(lambda t: t.strip("01")),
           st.text("01", max_size=8))
    def test_from_string_rejects_any_other_character(self, head, junk, tail):
        bits = head + junk + tail
        with pytest.raises(ValueError) as exc:
            parse_bits(bits)
        assert str(exc.value) == f"invalid bit string {bits!r}"

    @pytest.mark.parametrize("bits", [" ", "_", "+", "2", "\u0661", "1 0", "1_0", "+1",
                                      " 01", "0b1", "01\n"])
    def test_from_string_rejects_what_int_would_accept(self, bits):
        with pytest.raises(ValueError) as exc:
            parse_bits(bits)
        assert str(exc.value) == f"invalid bit string {bits!r}"


class TestLinearCode:
    def test_duplicate_rows_drop(self):
        code = LinearCode.from_strings(["1100", "1100", "0011"])
        assert code.dimension == 2

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearCode.from_strings([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(gf2.LengthMismatchError):
            LinearCode.from_strings(["110", "1100"])

    def test_canonical_equality(self):
        a = LinearCode.from_strings(["110", "011"])
        b = LinearCode.from_strings(["101", "011"])
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
            assert code.contains(parse_bits(row))
        assert not code.contains(parse_bits("1" + "0" * 15))
        # a mask reaching past the code's length is no codeword
        assert not code.contains(parse_bits(KUMMER_ROWS[0] + "1"))

    def test_paper_codes_have_dimension_5(self):
        assert kummer_code().dimension == 5
        assert togliatti_code().dimension == 5


class TestEnumeration:
    def test_zero_dimensional_code(self):
        code = LinearCode(4, ())
        assert list(gf2.enumerate_codewords(code)) == [0]
        assert gf2.weight_distribution(code) == {0: 1}

    def test_starts_with_zero_word(self):
        words = list(gf2.enumerate_codewords(kummer_code()))
        assert words[0] == 0
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
        assert gf2.minimum_distance(LinearCode.from_strings(["1111"])) == 4

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
        for dual_word in dual.rows:
            for generator in code.rows:
                assert (dual_word & generator).bit_count() % 2 == 0

    def test_double_dual(self):
        code = kummer_code()
        assert gf2.dual_code(gf2.dual_code(code)) == code


class TestParity:
    def test_kummer_doubly_even(self):
        assert gf2.classify_parity(kummer_code()) == "doubly-even"

    def test_even_and_not_even(self):
        assert gf2.classify_parity(LinearCode.from_strings(["110"])) == "even"
        assert gf2.classify_parity(LinearCode.from_strings(["100"])) == "not-even"

    def test_self_orthogonality(self):
        assert gf2.is_self_orthogonal(kummer_code())
        assert gf2.is_self_orthogonal(togliatti_code())
        assert not gf2.is_self_orthogonal(LinearCode(2, tuple(1 << i for i in range(2))))


class TestProjection:
    def test_identity_projection(self):
        code = kummer_code()
        image, kernel_dim = gf2.project_onto_support(code, "1" * 16)
        assert kernel_dim == 0
        assert image.dimension == code.dimension
        assert gf2.weight_distribution(image) == gf2.weight_distribution(code)

    def test_zero_word_projection(self):
        code = kummer_code()
        image, kernel_dim = gf2.project_onto_support(code, "0" * 16)
        assert image.length == 0
        assert kernel_dim == code.dimension

    def test_non_codeword_rejected(self):
        with pytest.raises(gf2.NotACodewordError):
            gf2.project_onto_support(kummer_code(), "1" + "0" * 15)

    def test_length_mismatch_names_both_lengths(self):
        with pytest.raises(gf2.LengthMismatchError) as exc:
            gf2.project_onto_support(kummer_code(), "111")
        assert str(exc.value) == "cannot project a word of length 3 onto a code of length 16"

    @pytest.mark.parametrize("word, message", [
        ("12", "invalid bit string '12'"),
        ("1" * 15 + "x", "invalid bit string '111111111111111x'"),
        ("", "cannot project a word of length 0 onto a code of length 16"),
        ("1" * 17, "cannot project a word of length 17 onto a code of length 16"),
        ("1" + "0" * 15, "word 1000000000000000 is not in the code"),
    ])
    def test_word_checks_in_order(self, word, message):
        # the characters first, then the length, then membership
        with pytest.raises(ValueError) as exc:
            gf2.project_onto_support(kummer_code(), word)
        assert str(exc.value) == message

    def test_kummer_weight8_projections_doubly_even(self):
        code = kummer_code()
        weight8 = [m for m in gf2.enumerate_codewords(code) if m.bit_count() == 8]
        assert len(weight8) == 30
        for m in weight8:
            image, kernel_dim = gf2.project_onto_support(code, bit_string(16, m))
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
            code = gf2.parse_generator_matrix(text)
            assert code == LinearCode.from_strings(["1100", "0011"])
            assert [bit_string(code.length, m) for m in code.rows] == ["1100", "0011"]

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
    return draw(bits), draw(bits)


@st.composite
def random_codes(draw):
    n = draw(st.integers(1, 24))
    n_rows = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1),
                          min_size=n_rows, max_size=n_rows))
    return LinearCode(n, tuple(masks))


@st.composite
def masks_of_length(draw):
    n = draw(st.integers(0, 24))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))


class TestProperties:
    @settings(max_examples=200)
    @given(masks_of_length())
    def test_constructor_matches_from_strings_and_is_rref(self, case):
        n, masks = case
        code = LinearCode(n, tuple(masks))
        assert code == (LinearCode.from_strings([bit_string(n, m) for m in masks])
                        if masks else LinearCode(n, ()))
        assert all(code.contains(m) for m in masks)
        # RREF: nonzero rows, pivots (lowest set bits) strictly increasing,
        # and each pivot bit set only in its own row.
        lows = [row & -row for row in code.rows]
        assert all(lows) and lows == sorted(set(lows))
        assert all(row & low == 0 for low in lows for row in code.rows
                   if row & -row != low)

    @given(word_pairs())
    def test_weight_identity(self, pair):
        v, w = pair
        assert (v ^ w).bit_count() + 2 * (v & w).bit_count() == v.bit_count() + w.bit_count()

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
        if w == 0:
            return
        image, _ = gf2.project_onto_support(code, bit_string(code.length, w))
        assert all(v % 8 == 0 for v in gf2.weight_distribution(image))


def column_scan_rref(length: int, masks: list[int]) -> tuple[int, ...]:
    """The column-by-column elimination _rref replaced, kept as its oracle."""
    rows = [m for m in masks if m]
    r = 0
    for col in range(length):
        bit = 1 << col
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        r += 1
    return tuple(rows[:r])


@st.composite
def rref_cases(draw):
    """Up to 40 masks of length n <= 130: zero, fresh, repeated and dependent."""
    n = draw(st.integers(0, 130))
    word = st.integers(0, (1 << n) - 1)
    base = draw(st.lists(word, min_size=1, max_size=12))
    repeated = st.sampled_from(base)
    dependent = st.lists(repeated, max_size=6).map(lambda rows: reduce(xor, rows, 0))
    masks = draw(st.lists(st.just(0) | word | repeated | dependent, max_size=40))
    return n, masks


class TestRowReduction:
    @settings(max_examples=300, deadline=None)
    @given(rref_cases())
    def test_matches_the_column_scan(self, case):
        n, masks = case
        assert gf2._rref(masks) == column_scan_rref(n, masks)


def message_word(code: LinearCode, message: int) -> int:
    """The codeword whose bit r of message selects row r."""
    mask = 0
    for r, row in enumerate(code.rows):
        if message >> r & 1:
            mask ^= row
    return mask


def message_order_weights(code: LinearCode) -> list[int]:
    """Weights of all 2^k codewords, each rebuilt from its message bits."""
    return [message_word(code, message).bit_count() for message in range(1 << code.dimension)]


@st.composite
def small_codes(draw):
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return draw(st.sampled_from([
        LinearCode(n, tuple(masks)),
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
        assert words[0] == 0
        assert len(words) == len(set(words)) == 1 << code.dimension
        assert all(code.contains(w) for w in words)

    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_walk_is_the_gray_code_order(self, code):
        words = list(gf2.enumerate_codewords(code))
        assert all(type(w) is int for w in words)
        assert words == [message_word(code, i ^ (i >> 1)) for i in range(1 << code.dimension)]

    def test_cap_bounds_the_dimension_walked(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 4)
        # full space [8, 8]: its dual is the zero code, so nothing near 2^4 is walked
        assert gf2.weight_distribution(LinearCode(8, tuple(1 << i for i in range(8)))) == {
            w: comb(8, w) for w in range(9)}
        half_rate = LinearCode(16, tuple(1 << i | 1 << (i + 8) for i in range(8)))
        assert half_rate.dimension == 8
        with pytest.raises(gf2.EnumerationCapError):
            gf2.weight_distribution(half_rate)


def walked_counts(code: LinearCode) -> list[int]:
    """Weight counts of every codeword, from the Gray walk of the code itself."""
    counts = [0] * (code.length + 1)
    for m in gf2.enumerate_codewords(code):
        counts[m.bit_count()] += 1
    return counts


@st.composite
def sliced_cases(draw):
    n = draw(st.integers(1, 70))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=14))
    return LinearCode(n, tuple(masks)), draw(st.integers(1, 15))


@st.composite
def deep_cases(draw):
    """Codes of length 128 to 200, so their weights take 8 bit planes."""
    n = draw(st.integers(128, 200))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return LinearCode(n, tuple(masks)), draw(st.integers(1, 12))


@st.composite
def wide_walk_codes(draw):
    """[n, k] codes in systematic form whose walked dimension is 11 to 13.

    k <= n - k walks the code itself and k > n - k walks its dual.  Half
    the draws append a parity column, so every word has even weight.
    """
    walked = draw(st.integers(11, 13))
    even = draw(st.booleans())
    n = 2 * walked + draw(st.integers(0, 2)) + even
    k = draw(st.sampled_from([walked, n - walked]))
    free = n - k - even
    rows = [1 << i | draw(st.integers(0, (1 << free) - 1)) << k for i in range(k)]
    if even:
        rows = [row | (row.bit_count() % 2) << (n - 1) for row in rows]
    return LinearCode(n, tuple(rows))


class TestSlicedCounts:
    """The bit-sliced count against the Gray walk, which stays the reference."""

    @settings(max_examples=150, deadline=None)
    @given(sliced_cases())
    def test_matches_the_walk(self, case):
        code, lane_exponent = case
        assert gf2._sliced_counts(code.length, code.rows, lane_exponent) == walked_counts(code)

    @settings(max_examples=30, deadline=None)
    @given(wide_walk_codes())
    def test_analytics_match_the_walk(self, code):
        n, k = code.length, code.dimension
        assert min(k, n - k) >= gf2._SLICED_FROM
        counts = walked_counts(code)
        weights = [w for w, c in enumerate(counts) if c]
        assert gf2.weight_distribution(code) == {w: counts[w] for w in weights}
        assert gf2.minimum_distance(code) == weights[1]
        assert gf2.classify_parity(code) == (
            "not-even" if any(w % 2 for w in weights)
            else "even" if any(w % 4 for w in weights) else "doubly-even")

    @settings(max_examples=40, deadline=None)
    @given(deep_cases())
    def test_eight_planes_match_the_walk(self, case):
        code, lane_exponent = case
        assert gf2._sliced_counts(code.length, code.rows, lane_exponent) == walked_counts(code)

    @pytest.mark.parametrize("n", [(1 << d) - e for d in range(5, 9) for e in (1, 0)])
    def test_repetition_code_carries_into_the_top_plane(self, n):
        # Every column is equal, so every word weighs 0 or n, and the
        # weight-n lane carries through every level of the adder.
        code = LinearCode(n, ((1 << n) - 1,))
        expected = [1] + [0] * (n - 1) + [1]
        assert walked_counts(code) == expected
        for lane_exponent in (1, 15):
            assert gf2._sliced_counts(n, code.rows, lane_exponent) == expected

    def test_cap_bounds_the_sliced_dimension(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 11)
        eleven = LinearCode(22, tuple(1 << i | 1 << (i + 11) for i in range(11)))
        assert gf2.weight_distribution(eleven) == {2 * w: comb(11, w) for w in range(12)}
        twelve = LinearCode(24, tuple(1 << i | 1 << (i + 12) for i in range(12)))
        with pytest.raises(gf2.EnumerationCapError) as exc:
            gf2.weight_distribution(twelve)
        assert str(exc.value) == "refusing to enumerate 2^12 codewords (cap is 2^11)"

    def test_walked_dimension_picks_the_path(self, monkeypatch):
        walks = []
        walk = gf2.enumerate_codewords
        monkeypatch.setattr(gf2, "enumerate_codewords",
                            lambda code: walks.append(code.dimension) or walk(code))
        # [20, 10] walks the code, [22, 11] slices it, and [24, 13] slices
        # its 11-dimensional dual.
        for n, k in ((20, 10), (22, 11), (24, 13)):
            code = LinearCode(n, tuple(1 << i | 1 << (k + i % (n - k)) for i in range(k)))
            assert code.dimension == k
            gf2.weight_distribution(code)
        assert walks == [10]


def polynomial_product(p: list[int], q: list[int]) -> list[int]:
    product = [0] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            product[a + b] += x * y
    return product


@st.composite
def dual_walks(draw):
    """A walked dual: length up to 70, dimension at most 10."""
    n = draw(st.integers(1, 70))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    return LinearCode(n, tuple(masks))


class TestMacWilliams:
    def test_krawtchouk_rows_are_the_polynomial_coefficients(self):
        minus, plus = [[1]], [[1]]
        for _ in range(70):
            minus.append(polynomial_product(minus[-1], [1, -1]))
            plus.append(polynomial_product(plus[-1], [1, 1]))
        for n in range(71):
            for i in range(n + 1):
                assert gf2._krawtchouk_row(n, i) == polynomial_product(minus[i], plus[n - i])

    @settings(max_examples=100, deadline=None)
    @given(dual_walks())
    def test_transform_is_an_involution(self, dual):
        n, k = dual.length, dual.dimension
        counts = walked_counts(dual)
        code_counts = gf2._macwilliams(n, k, counts)
        assert sum(code_counts) == 1 << (n - k)
        assert gf2._macwilliams(n, n - k, code_counts) == counts
