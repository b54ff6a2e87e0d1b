from collections import Counter
from functools import cache, reduce
from math import comb
from operator import xor
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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

    def test_rows_from_a_generator_equal_the_list_form(self):
        # A one-shot iterable is read once, for both the mask checks and the RREF.
        assert LinearCode(4, (m for m in [3, 12])) == LinearCode(4, [3, 12])
        assert LinearCode(4, (m for m in [3, 12])).rows == (3, 12)
        with pytest.raises(ValueError) as exc:
            LinearCode(3, (m for m in [1, 0b1000]))
        assert str(exc.value) == "row mask 0x8 does not fit in 3 bits"

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

    def test_cap_is_checked_at_the_call(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 3)
        code = LinearCode(4, tuple(1 << i for i in range(4)))
        with pytest.raises(gf2.EnumerationCapError):
            gf2.enumerate_codewords(code)  # no next(): the call itself refuses

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


@st.composite
def huge_sizes(draw):
    """(n, d) with d up to 10^20 and n from d up to 10^30, on both sides of full.

    full is the length at top = max(1, (d - 1).bit_length()), past which each
    dimension adds exactly 1.  Half the draws pick a dimension j < top and
    an n at which j fits and j + 1 does not (the search); the other half
    draw n up to 10^30, almost always at or above full (the closed form).
    """
    d = draw(st.integers(1, 10**20))
    if draw(st.booleans()):
        j = draw(st.integers(1, max(1, (d - 1).bit_length() - 1)))
        return draw(st.integers(plain_griesmer_length(j, d),
                                plain_griesmer_length(j + 1, d) - 1)), d
    return draw(st.integers(d, 10**30)), d


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

    @settings(max_examples=300)
    @given(huge_sizes())
    @example((10**30, 10**20))  # the closed form: k = 67 + 10^30 - full
    @example((10**20 + 10**19, 10**20))  # the search: k = 1
    def test_max_dim_is_the_largest_dimension_that_fits(self, sizes):
        n, d = sizes
        k = gf2.griesmer_max_dim(n, d)
        assert gf2.griesmer_min_length(k, d) <= n < gf2.griesmer_min_length(k + 1, d)

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


@st.composite
def matrix_texts(draw):
    """(text, rows): equal-length '0'/'1' rows written as a generator-matrix file.

    Rows get spaces inside and around them, comment and blank lines come
    between them, and lines end in LF, CRLF or a lone CR.
    """
    n = draw(st.integers(1, 20))
    rows = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=8))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " #01 x", "#"]), max_size=2))
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
        pieces = [row[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        pad = st.integers(0, 2).map(" ".__mul__)
        lines.append(draw(pad) + " ".join(pieces) + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), rows


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

    @pytest.mark.parametrize("bad", ["\u0661", "\uff11", "1_0", "+1", "0b1"])
    def test_characters_int_accepts_are_rejected(self, bad):
        # int(bad, 2) accepts each of these; only the parser's line check rejects them.
        with pytest.raises(gf2.GeneratorMatrixParseError) as err:
            gf2.parse_generator_matrix(f"# header\n1100\n{bad}\n")
        assert err.value.line_number == 3
        assert str(err.value) == f"line 3: expected only '0', '1' and spaces, got {bad!r}"

    @pytest.mark.parametrize("text, message", [
        ("1100\x0c\n12\n", "line 2: expected only '0', '1' and spaces, got '12'"),
        ("1100\x85\n110\n", "line 2: row has 3 columns, expected 4"),
        ("11\x0c11\n", "line 1: expected only '0', '1' and spaces, got '11\\x0c11'"),
    ])
    def test_only_text_mode_line_ends_end_a_line(self, text, message):
        # str.splitlines also breaks at a form feed and at \x85; a file read
        # in text mode, and an editor, do not.
        with pytest.raises(gf2.GeneratorMatrixParseError) as err:
            gf2.parse_generator_matrix(text)
        assert str(err.value) == message

    def test_a_lone_carriage_return_ends_a_line(self):
        code = gf2.parse_generator_matrix("1100\r0011\n")
        assert code == LinearCode.from_strings(["1100", "0011"])

    @settings(max_examples=200)
    @given(matrix_texts())
    def test_matches_from_strings(self, case):
        text, rows = case
        assert gf2.parse_generator_matrix(text) == LinearCode.from_strings(rows)


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


@st.composite
def gray_rows(draw):
    """0 to 10 rows of up to 70 bits; zero, repeated and dependent rows are common."""
    n = draw(st.integers(0, 70))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    row = st.one_of(st.just(0), st.sampled_from(pool), st.lists(
        st.sampled_from(pool), min_size=2, max_size=3).map(lambda picked: reduce(xor, picked)))
    return draw(st.lists(row, max_size=10))


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

    @settings(max_examples=100, deadline=None)
    @given(gray_rows())
    def test_gray_sums_the_rows_of_each_gray_index(self, rows):
        sums = list(gf2._gray(rows))
        assert len(sums) == 1 << len(rows) and sums[0] == 0
        assert sums == [reduce(xor, (row for r, row in enumerate(rows) if (i ^ i >> 1) >> r & 1),
                               0) for i in range(1 << len(rows))]

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


def parity_of(counts: list[int]) -> str:
    """classify_parity's answer for these weight counts."""
    weights = [w for w, c in enumerate(counts) if c]
    return ("not-even" if any(w % 2 for w in weights)
            else "even" if any(w % 4 for w in weights) else "doubly-even")


def lanes(exponent: int):
    """Count bit-sliced with lanes of 2^exponent words while the block runs."""
    return mock.patch.object(gf2, "_LANE_EXPONENT", exponent)


def check_readers(code: LinearCode, rows: tuple[int, ...], lane_exponent: int) -> None:
    """The count, minimum and parity readers of a sliced pass against the walk."""
    counts = walked_counts(code)
    with lanes(lane_exponent):
        assert gf2._sliced_counts(code.length, rows) == counts
        assert gf2._sliced_parity(code.length, rows) == parity_of(counts)
        if code.dimension:
            least = next(w for w in range(1, len(counts)) if counts[w])
            assert gf2._sliced_minimum(code.length, rows) == least


@st.composite
def sliced_cases(draw):
    """(code, basis in counting order, lane exponent) for every tier of the count.

    Columns come from a small pool that holds the zero column, so zero and
    repeated columns are common.  Half the lane exponents are at most
    k - 4, so mid rows and outer rows are both present.  Some draws put the
    all-ones row alone above the lanes: one mid row that leaves every
    column in one group.
    """
    n = draw(st.integers(1, 70))
    k = draw(st.integers(0, 14))
    pool = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=6)) + [0]
    columns = draw(st.lists(st.sampled_from(pool) | st.integers(0, (1 << k) - 1),
                            min_size=n, max_size=n))
    code = LinearCode(n, tuple(sum(1 << j for j, c in enumerate(columns) if c >> r & 1)
                               for r in range(k)))
    ones = (1 << n) - 1
    if draw(st.booleans()) and not code.contains(ones):
        rows = code.rows + (ones,)
        return LinearCode(n, rows), rows, code.dimension
    lane_exponent = draw(st.integers(0, max(0, code.dimension - 4)) | st.integers(0, 15))
    return code, code.rows, lane_exponent


@st.composite
def deep_cases(draw):
    """Codes of length 128 to 200, so their weights take 8 bit planes.

    Half the lane exponents stay below k, so mid rows are present and some
    groups enter complemented; the other half are drawn from 1..12, so
    many draws put every row in the lanes (no mid rows, one group), the
    path a walked dimension of 11 to 15 takes.  Some rows are complements
    of drawn masks, so heavy words set the top planes too.
    """
    n = draw(st.integers(128, 200))
    ones = (1 << n) - 1
    masks = draw(st.lists(st.tuples(st.booleans(), st.integers(0, ones))
                          .map(lambda t: t[1] ^ ones if t[0] else t[1]), max_size=12))
    code = LinearCode(n, tuple(masks))
    return code, draw(st.integers(0, max(0, code.dimension - 1)) | st.integers(1, 12))


@st.composite
def full_mid_cases(draw):
    """(code, rows in counting order, lane exponent k - m) for m = 1, 2 or 3.

    The top m rows are mid rows and no outer row is left.  A column's key,
    its bits on the mid rows, comes from a drawn pool that spans GF(2)^m,
    so mid-row key classes with no columns are common: pool [1] makes the
    one mid row all ones.  Each low row r has a column of its own, and each
    pool key a column with no low bits, so the rows are independent.  Half
    the draws repeat every column four times, which makes the code
    doubly-even: a mid word that complements a group then reads offsets of
    1 mod 4, so its two lowest weight planes are all ones.
    """
    m = draw(st.integers(1, 3))
    b = draw(st.integers(0, 8))
    pool = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=1 << m, unique=True))
    assume(LinearCode(m, tuple(pool)).dimension == m)
    keys = st.sampled_from(pool)
    columns = ([1 << r | draw(keys) << b for r in range(b)] + [key << b for key in pool]
               + draw(st.lists(st.tuples(keys, st.integers(0, (1 << b) - 1))
                               .map(lambda t: t[0] << b | t[1]), max_size=12)))
    if draw(st.booleans()):
        columns = [c for c in columns for _ in range(4)]
    rows = tuple(sum(1 << j for j, c in enumerate(columns) if c >> r & 1) for r in range(b + m))
    code = LinearCode(len(columns), rows)
    assert code.dimension == b + m
    return code, rows, b


@st.composite
def wide_walk_codes(draw):
    """[n, k] codes in systematic form whose walked dimension is 9 to 13.

    k <= n - k walks the code itself and k > n - k walks its dual.  Half
    the draws append a parity column, so every word has even weight.
    """
    walked = draw(st.integers(9, 13))
    even = draw(st.booleans())
    n = 2 * walked + draw(st.integers(0, 2)) + even
    k = draw(st.sampled_from([walked, n - walked]))
    free = n - k - even
    rows = [1 << i | draw(st.integers(0, (1 << free) - 1)) << k for i in range(k)]
    if even:
        rows = [row | (row.bit_count() % 2) << (n - 1) for row in rows]
    return LinearCode(n, tuple(rows))


@st.composite
def outer_row_codes(draw):
    """(code, rows): k = 8 to 12 rows spelt out column by column, one identity column each.

    Lanes of 2^4 words and 3 mid rows leave 1 to 5 outer rows.  A third of
    the draws add the XOR of the columns, which makes every row even, and a
    third repeat every column four times, which makes the code doubly-even.
    """
    k = draw(st.integers(8, 12))
    columns = [1 << r for r in range(k)]
    columns += draw(st.lists(st.integers(0, (1 << k) - 1), max_size=12))
    shape = draw(st.sampled_from(["plain", "even", "doubly-even"]))
    if shape == "even":
        columns.append(reduce(xor, columns))
    elif shape == "doubly-even":
        columns = [c for c in columns for _ in range(4)]
    rows = tuple(sum(1 << j for j, c in enumerate(columns) if c >> r & 1) for r in range(k))
    return LinearCode(len(columns), rows), rows


def hamming_blocks(k: int) -> LinearCode:
    """A doubly-even [65, k] code, k = 16 to 18, on coordinates shuffled by Random(30).

    Four extended Hamming [8, 4, 4] codes and k - 16 words of weight 8, all
    on disjoint coordinates.  Counted bit-sliced it has k - 15 mid rows and
    no outer row.
    """
    hamming = (0b11111111, 0b11110000, 0b11001100, 0b10101010)
    coords = list(range(65))
    Random(30).shuffle(coords)
    blocks = [(c, row) for c in range(4) for row in hamming]
    blocks += [(c, 0xFF) for c in range(4, k - 12)]
    return LinearCode(65, tuple(sum(1 << coords[8 * c + i] for i in range(8) if row >> i & 1)
                                for c, row in blocks))


@cache
def lane_pattern(b: int, r: int) -> int:
    """Low row r's truth table over 2^b lanes: lane x, bit x of the int, is bit r of x."""
    return int("".join(str(x >> r & 1) for x in reversed(range(1 << b))), 2)


@st.composite
def column_table_cases(draw):
    """(n, rows, lane exponent): k rows of length n, spelt out column by column.

    Columns come from a small pool that holds the zero column, so zero and
    repeated columns are common, and row 0 covers columns 0 and n - 1.  The
    k rows need not be independent; if k is below the lane exponent, every
    row is a low row.
    """
    n = draw(st.integers(1, 70))
    k = draw(st.integers(0, 21))
    column = st.integers(0, (1 << k) - 1)
    pool = draw(st.lists(column, min_size=1, max_size=6)) + [0]
    columns = draw(st.lists(st.sampled_from(pool) | column, min_size=n, max_size=n))
    if k:
        columns[0] |= 1
        columns[-1] |= 1
    rows = tuple(sum(1 << j for j, c in enumerate(columns) if c >> r & 1) for r in range(k))
    return n, rows, draw(st.sampled_from([0, 1, 3, 4, 5, 8, 15]))


@st.composite
def column_bit_cases(draw):
    """(n, rows): up to 8 rows of length n from a pool that holds the zero and all-ones rows.

    The pool is small, so repeated rows are common.
    """
    n = draw(st.integers(1, 70))
    row = st.integers(0, (1 << n) - 1)
    pool = [0, (1 << n) - 1, *draw(st.lists(row, min_size=1, max_size=4))]
    return n, draw(st.lists(st.sampled_from(pool), max_size=8))


@st.composite
def lane_ints(draw, lists, min_size, max_size):
    """(lanes, *lists): the given number of lists of ints over 2^e lanes, e in 0..6."""
    lanes = 1 << draw(st.integers(0, 6))
    ints = st.lists(st.integers(0, (1 << lanes) - 1), min_size=min_size, max_size=max_size)
    return (lanes, *(draw(ints) for _ in range(lists)))


def spelt(planes: list[int], lane: int) -> int:
    """The number that bit planes spell in one lane."""
    return sum((plane >> lane & 1) << p for p, plane in enumerate(planes))


class TestAdders:
    """The two plane adders of the bit-sliced count, lane by lane."""

    @settings(max_examples=200)
    @given(lane_ints(1, 1, 70))
    def test_carry_save_spells_each_lane_popcount(self, case):
        lanes, bits = case
        planes = gf2._carry_save(list(bits))
        assert len(planes) == len(bits).bit_length()
        for x in range(lanes):
            assert spelt(planes, x) == sum(b >> x & 1 for b in bits)

    @settings(max_examples=200)
    @given(lane_ints(2, 0, 8))
    @example((4, [0b1111, 0b1010, 0b0110], [0b0111]))  # lane 1: 7 + 1 carries out
    def test_ripple_spells_each_lane_sum(self, case):
        lanes, a, b = case
        planes = gf2._ripple(a, b)
        for x in range(lanes):
            assert spelt(planes, x) == spelt(a, x) + spelt(b, x)


class TestSlicedCounts:
    """The bit-sliced count against the Gray walk, which stays the reference."""

    @settings(max_examples=150, deadline=None)
    @given(sliced_cases())
    def test_matches_the_walk(self, case):
        check_readers(*case)

    @settings(max_examples=30, deadline=None)
    @given(wide_walk_codes())
    def test_analytics_match_the_walk(self, code):
        n, k = code.length, code.dimension
        assert min(k, n - k) >= gf2._SLICED_FROM
        counts = walked_counts(code)
        weights = [w for w, c in enumerate(counts) if c]
        assert gf2.weight_distribution(code) == {w: counts[w] for w in weights}
        assert gf2.minimum_distance(code) == weights[1]
        assert gf2.classify_parity(code) == parity_of(counts)

    @settings(max_examples=40, deadline=None)
    @given(deep_cases())
    def test_eight_planes_match_the_walk(self, case):
        code, lane_exponent = case
        check_readers(code, code.rows, lane_exponent)

    @settings(max_examples=150, deadline=None)
    @given(full_mid_cases())
    def test_full_mid_tier_matches_the_walk(self, case):
        check_readers(*case)

    def test_readers_at_lane_exponent_0_and_on_a_one_column_group(self):
        # Lane exponent 0: every row is a mid or outer row, and each entry
        # holds one lane.
        for n, rows in ((5, (0b11, 0b1100, 0b10000)), (32, ((1 << 32) - 1,))):
            check_readers(LinearCode(n, rows), rows, 0)
        # Column 2 alone has key 1, so its group enters complemented with
        # w = 1 plane: 2^1 - 1 - c spells the complement unpadded.
        rows = (0b011, 0b100)
        check_readers(LinearCode(3, rows), rows, 1)
        with lanes(1):
            assert [(planes, offset) for planes, offset, _ in gf2._sliced_sums(3, rows)] == [
                ((0, 0b10), 0), ((0b11, 0b10), 0)]

    def test_parity_carries_an_odd_offset_into_bit_1(self):
        # Three columns, each repeated four times: two low rows of weight 4
        # and a mid row of weight 12, so every word weighs 0 mod 4.  The mid
        # word complements the one group of 12 columns, so its entry's
        # offset is 12 - 16 + 1 = -3, and its lanes spell 15, 11, 11 and 7:
        # planes 0 and 1 all ones, which is doubly-even only because
        # bit 0 of the offset carries into bit 1.
        columns = [c for c in (0b101, 0b110, 0b100) for _ in range(4)]
        rows = tuple(sum(1 << j for j, c in enumerate(columns) if c >> r & 1) for r in range(3))
        full = 0b1111
        with lanes(2):
            assert [(planes, offset) for planes, offset, _ in gf2._sliced_sums(12, rows)] == [
                ((0, 0, 0b0110, 0b1000), 0), ((full, full, 0b1001, 0b0111), -3)]
            assert gf2._sliced_parity(12, rows) == "doubly-even"
            assert gf2._sliced_minimum(12, rows) == 4
        check_readers(LinearCode(12, rows), rows, 2)
        # Four more columns and a row of their own, the one outer row when
        # the mid tier is one row: its outer word sums its own groups.  The
        # group of 12 again complements to 15 - c, and the group of the four
        # complemented columns adds 4, so the offset is -3 again: odd.
        rows = tuple(row | (r == 3) * 0b1111 << 12 for r, row in enumerate(rows + (0,)))
        with lanes(2), mock.patch.object(gf2, "_MID_ROWS", 1):
            assert [(list(p), offset) for p, offset, _ in gf2._sliced_sums(16, rows)] == [
                ([0, 0, 0b0110, 0b1000], 0), ([full, full, 0b1001, 0b0111], -3),
                ([0, 0, 0b1001, 0b1110], 0), ([full, full, 0b0110, 0b1110, 0b0001], -3)]
            assert gf2._sliced_parity(16, rows) == "doubly-even"
            assert gf2._sliced_minimum(16, rows) == 4
            check_readers(LinearCode(16, rows), rows, 2)

    def test_parity_reads_every_entry(self):
        # Lanes over rows 0 and 1, both of weight 2; row 2 is odd, so the
        # first entry is all even and every odd word lies in the second.
        rows = (0b11, 0b1100, 0b10000)
        for lane_exponent in (0, 1, 2):
            with lanes(lane_exponent):
                assert gf2._sliced_parity(5, rows) == "not-even"
        with lanes(2):
            assert gf2._sliced_parity(4, rows[:2]) == "even"

    def test_minimum_reads_lane_0_of_later_entries(self):
        # The lightest nonzero word is row 2 alone (weight 1): lane 0 of the
        # second entry, and the only lane 0 the minimum must skip is the
        # first entry's, the zero word.
        rows = (0b111, 0b111000, 0b1000000)
        for lane_exponent in (0, 1, 2):
            with lanes(lane_exponent):
                assert gf2._sliced_minimum(7, rows) == 1
        with lanes(2):
            assert gf2._sliced_minimum(6, rows[:2]) == 3

    @pytest.mark.parametrize("n", [(1 << d) - e for d in range(5, 9) for e in (1, 0)])
    def test_repetition_code_carries_into_the_top_plane(self, n):
        # Every column is equal, so every word weighs 0 or n, and the
        # weight-n lane carries through every level of the adder.
        code = LinearCode(n, ((1 << n) - 1,))
        expected = [1] + [0] * (n - 1) + [1]
        assert walked_counts(code) == expected
        # Lane exponent 0 leaves the one row as a mid row, every column in
        # its one group, which enters complemented for the word of weight n.
        for lane_exponent in (0, 1, 15):
            with lanes(lane_exponent):
                assert gf2._sliced_counts(n, code.rows) == expected
                # At lane exponent 0 the first entry has no lane but the zero word.
                assert gf2._sliced_minimum(n, code.rows) == n
                assert gf2._sliced_parity(n, code.rows) == parity_of(expected)

    @pytest.mark.parametrize("b", [*range(9), 15])
    def test_chunk_tables_hold_the_parities_of_the_lane_bits(self, b):
        chunks = gf2._chunk_tables(b)
        assert isinstance(chunks, tuple) and len(chunks) == -(-b // 4)
        if b % 4:
            assert len(chunks[-1]) == 1 << b % 4
        lanes = range(1 << b)
        for c, entries in enumerate(chunks):
            assert isinstance(entries, tuple) and len(entries) == 1 << min(4, b - 4 * c)
            for v, entry in enumerate(entries):
                # Lane x, bit x of the int, holds the parity of x >> 4c & v.
                parities = "".join(str((x >> 4 * c & v).bit_count() & 1) for x in lanes)
                assert entry == int(parities[::-1], 2)
        # Built once per lane exponent: repeat calls return the same tuple.
        assert gf2._chunk_tables(b) is chunks

    @settings(max_examples=200)
    @given(column_bit_cases())
    def test_column_bits_hold_each_columns_bits(self, case):
        n, rows = case
        bits = gf2._column_bits(n, rows)
        assert isinstance(bits, bytes) and len(bits) == n
        for j, byte in enumerate(bits):
            # Bit s of byte j is set iff rows[s] covers column j.
            assert byte == sum((row >> j & 1) << s for s, row in enumerate(rows))

    def test_a_mid_key_fits_in_a_byte(self):
        # _sliced_sums groups the columns by their bits on the mid rows, read
        # by _column_bits one byte per column.
        assert 0 <= gf2._MID_ROWS <= 8

    @settings(max_examples=100, deadline=None)
    @given(column_table_cases())
    def test_column_tables_xor_the_lane_patterns_of_each_column(self, case):
        n, rows, b = case
        low = tuple(rows[:b])  # the low rows alone, over 2^len(low) lanes
        expected = tuple(reduce(xor, (lane_pattern(len(low), r) for r, row in enumerate(low)
                                      if row >> j & 1), 0) for j in range(n))
        assert gf2._column_tables(n, low) == expected

    @pytest.mark.parametrize("b", [0, 1, 4, 8, 11, 15])
    def test_lane_width_is_read_at_each_call(self, b):
        # A [40, 11] code: b = 0 leaves 3 mid rows and 8 outer rows, and
        # b >= 11 holds every row in the lanes, one entry.
        rng = Random(26)
        code = LinearCode(40, tuple(rng.getrandbits(40) for _ in range(11)))
        k = code.dimension
        assert k == 11
        with mock.patch.object(gf2, "_LANE_EXPONENT", b):
            entries = list(gf2._sliced_sums(code.length, code.rows))
        assert len(entries) == 1 << (k - min(k, b))
        assert {full for _, _, full in entries} == {(1 << (1 << min(k, b))) - 1}
        check_readers(code, code.rows, b)

    def test_cap_bounds_the_sliced_dimension(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 11)
        eleven = LinearCode(22, tuple(1 << i | 1 << (i + 11) for i in range(11)))
        assert gf2.weight_distribution(eleven) == {2 * w: comb(11, w) for w in range(12)}
        twelve = LinearCode(24, tuple(1 << i | 1 << (i + 12) for i in range(12)))
        with pytest.raises(gf2.EnumerationCapError) as exc:
            gf2.weight_distribution(twelve)
        assert str(exc.value) == "refusing to enumerate 2^12 codewords (cap is 2^11)"

    def test_walked_dimension_picks_the_path(self, monkeypatch):
        walks, passes = [], []
        walk, sliced = gf2.enumerate_codewords, gf2._sliced_sums
        monkeypatch.setattr(gf2, "enumerate_codewords",
                            lambda code: walks.append(code.dimension) or walk(code))
        # Each pass is recorded as (dimension, any further arguments): every
        # pass, the parity reader's too, is a full pass.
        monkeypatch.setattr(gf2, "_sliced_sums", lambda n, rows, *args: passes.append(
            (len(rows), *args)) or sliced(n, rows, *args))
        # [16, 8] walks the code, [18, 9] slices it, and [20, 11] slices
        # its 9-dimensional dual.  Each statistic makes its own pass.
        for (n, k), walked, sliced_passes in (
                ((16, 8), [8] * 3, []), ((18, 9), [], [(9,)] * 3), ((20, 11), [], [(9,)] * 3)):
            walks.clear()
            passes.clear()
            code = LinearCode(n, tuple(1 << i | 1 << (k + i % (n - k)) for i in range(k)))
            assert code.dimension == k
            gf2.weight_distribution(code)
            gf2.minimum_distance(code)
            gf2.classify_parity(code)
            assert (walks, passes) == (walked, sliced_passes)

    def test_an_analyze_builds_the_column_tables_once(self, monkeypatch):
        # Four extended Hamming [8, 4, 4] codes on shuffled coordinates: a
        # doubly-even [65, 16] code, counted bit-sliced with one mid row.
        code = hamming_blocks(16)
        assert code.dimension == 16
        # Each build of the column tables reads the chunk tables once, and
        # each group's sum is one _carry_save.
        builds, sums = [], []
        chunk_tables, carry_save = gf2._chunk_tables, gf2._carry_save
        monkeypatch.setattr(gf2, "_chunk_tables", lambda b: builds.append(b) or chunk_tables(b))
        monkeypatch.setattr(gf2, "_carry_save",
                            lambda bits, *args: sums.append(args) or carry_save(bits, *args))
        gf2._pass_setup.cache_clear()
        # The three passes of code analyze share one set-up: the column tables
        # and the sums of the 2 groups, butterflied once into the zero outer
        # word's entries, which every pass yields as they are.
        assert gf2.weight_distribution(code) == {0: 1, 4: 56, 8: 1180, 12: 11144, 16: 40774,
                                                 20: 11144, 24: 1180, 28: 56, 32: 1}
        assert gf2.minimum_distance(code) == 4
        assert gf2.classify_parity(code) == "doubly-even"
        assert (builds, sums) == ([15], [(), ()])

    @pytest.mark.parametrize("k, ripples", [(16, 2), (18, 24)])
    def test_an_analyze_butterflies_the_zero_outer_word_once(self, monkeypatch, k, ripples):
        # m = k - 15 mid rows and no outer row: one butterfly is m 2^m
        # _ripple adds, made by the set-up alone, whose entries the three
        # passes share (a butterfly per statistic made 6 and 72).
        code = hamming_blocks(k)
        assert code.dimension == k
        adds, ripple = [], gf2._ripple
        monkeypatch.setattr(gf2, "_ripple",
                            lambda a, b, *args: adds.append(args) or ripple(a, b, *args))
        gf2._pass_setup.cache_clear()
        statistics = (gf2.weight_distribution(code), gf2.minimum_distance(code),
                      gf2.classify_parity(code))
        assert adds == [()] * ripples
        counts = walked_counts(code)
        assert statistics == ({w: c for w, c in enumerate(counts) if c}, 4, "doubly-even")

    @settings(max_examples=60, deadline=None)
    @given(outer_row_codes(), st.permutations(["counts", "minimum", "parity"]))
    def test_readers_in_any_order_match_the_walk_above_the_mid_tier(self, case, order):
        # Lanes of 2^4 words leave 3 mid rows and 1 to 5 outer rows: the zero
        # outer word's entries come from the set-up, shared by every reader,
        # and every other outer word butterflies its own.
        code, rows = case
        counts = walked_counts(code)
        readers = {"counts": (gf2._sliced_counts, counts),
                   "minimum": (gf2._sliced_minimum, next(w for w in range(1, len(counts))
                                                         if counts[w])),
                   "parity": (gf2._sliced_parity, parity_of(counts))}
        gf2._pass_setup.cache_clear()
        with lanes(4):
            for name in order:
                reader, expected = readers[name]
                assert reader(code.length, rows) == expected
        assert gf2._pass_setup.cache_info()[:2] == (2, 1)

    def test_an_analyze_through_the_dual_builds_one_set_up(self, monkeypatch):
        # A [30, 21] code: each statistic counts its 9-dimensional dual
        # bit-sliced, one group of all 30 columns, and maps the counts back.
        rng = Random(35)
        code = LinearCode(30, tuple(rng.getrandbits(30) for _ in range(21)))
        assert code.dimension == 21
        statistics = (gf2.weight_distribution, gf2.minimum_distance, gf2.classify_parity)
        with mock.patch.object(gf2, "_SLICED_FROM", 10):  # the dual walked instead
            expected = tuple(statistic(code) for statistic in statistics)
        sums, carry_save = [], gf2._carry_save
        monkeypatch.setattr(gf2, "_carry_save",
                            lambda bits, *args: sums.append(args) or carry_save(bits, *args))
        gf2._pass_setup.cache_clear()
        assert tuple(statistic(code) for statistic in statistics) == expected
        assert gf2._pass_setup.cache_info()[:2] == (2, 1)
        assert sums == [()]

    def test_cached_tables_survive_the_walk(self):
        # Lanes of 2^4 words leave 3 mid rows and 5 outer rows on [30, 12]
        # codes, so each pass complements the tables of its outer word's
        # columns; the cached tables must stay as built for the next pass.
        rng = Random(31)
        a, b = (LinearCode(30, tuple(rng.getrandbits(30) for _ in range(12))) for _ in range(2))
        assert a.dimension == b.dimension == 12
        expected = {}
        for code in (a, b):
            counts = walked_counts(code)
            expected[code] = ({w: c for w, c in enumerate(counts) if c},
                              next(w for w in range(1, len(counts)) if counts[w]), parity_of(counts))
        gf2._pass_setup.cache_clear()
        with lanes(4):
            statistics = (gf2.weight_distribution, gf2.minimum_distance, gf2.classify_parity)
            assert tuple(statistic(a) for statistic in statistics) == expected[a]
            assert gf2.weight_distribution(a) == expected[a][0]
            for code in (a, b, a):
                assert tuple(statistic(code) for statistic in statistics) == expected[code]
        # Three builds (a, then b, then a again); the other ten passes hit.
        assert gf2._pass_setup.cache_info()[:2] == (10, 3)

    def test_outer_rows_sharing_a_column_cancel_there(self):
        # Lanes of 2^4 words leave 3 mid rows and 2 outer rows on a [30, 9]
        # code.  Both outer rows cover column 29, so the outer word that
        # takes both leaves column 29's table uncomplemented.
        rng = Random(34)
        rows = tuple(1 << r | rng.getrandbits(21) << 9 | (r >= 7) << 29 for r in range(9))
        code = LinearCode(30, rows)
        assert code.rows == rows  # already reduced: the pivots are bits 0 to 8
        assert rows[7] >> 29 & rows[8] >> 29 & 1 and not (rows[7] ^ rows[8]) >> 29 & 1
        counts = walked_counts(code)
        expected = ({w: c for w, c in enumerate(counts) if c},
                    next(w for w in range(1, len(counts)) if counts[w]), parity_of(counts))
        with lanes(4):
            assert (gf2.weight_distribution(code), gf2.minimum_distance(code),
                    gf2.classify_parity(code)) == expected
        low, mid = rows[:4], rows[4:7]
        assert gf2._pass_setup(30, low, mid) == gf2._pass_setup.__wrapped__(30, low, mid)

    def test_the_cache_holds_one_codes_tables(self):
        rng = Random(32)
        for _ in range(20):
            code = LinearCode(40, tuple(rng.getrandbits(40) for _ in range(10)))
            gf2.weight_distribution(code)
        info = gf2._pass_setup.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        # What it holds is the last code's set-up (10 low rows, no mid rows):
        # asking again is a hit.
        gf2._pass_setup(40, code.rows, ())
        assert gf2._pass_setup.cache_info().hits == info.hits + 1

    def test_codes_sharing_low_rows_build_their_own_set_ups(self):
        # Lanes of 2^4 words make the first 4 of 6 rows the low rows and the
        # other 2 the mid rows.  The group sums depend on both, so the key of
        # the cache holds both: codes sharing only their low rows build one set-up each.
        rng = Random(33)
        low = tuple(rng.getrandbits(30) for _ in range(4))
        first, second = (low + (rng.getrandbits(30), rng.getrandbits(30)) for _ in range(2))
        other = (low[0] ^ 1 << 29, *first[1:])  # one low row changed
        gf2._pass_setup.cache_clear()
        with lanes(4):
            for rows, hits_and_misses in ((first, (0, 1)), (first, (1, 1)), (second, (1, 2)),
                                          (first, (1, 3)), (other, (1, 4))):
                code = LinearCode(30, rows)
                assert code.dimension == 6
                assert gf2._sliced_counts(30, rows) == walked_counts(code)
                assert gf2._pass_setup.cache_info()[:2] == hits_and_misses


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
                assert list(gf2._krawtchouk_row(n, i)) == polynomial_product(minus[i], plus[n - i])

    def test_krawtchouk_rows_are_cached_tuples(self):
        row = gf2._krawtchouk_row(24, 6)
        assert isinstance(row, tuple)
        assert gf2._krawtchouk_row(24, 6) is row

    @settings(max_examples=100, deadline=None)
    @given(dual_walks())
    def test_transform_is_an_involution(self, dual):
        n, k = dual.length, dual.dimension
        counts = walked_counts(dual)
        code_counts = gf2._macwilliams(n, k, counts)
        assert sum(code_counts) == 1 << (n - k)
        assert gf2._macwilliams(n, n - k, code_counts) == counts
