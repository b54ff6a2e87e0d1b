"""GF(2) linear-algebra and coding-theory kernel.

A word of a code of length n is an int mask below 2^n (bit j of the mask is
coordinate j, so coordinate 0 is the least significant bit).  Its only
outside form is a '0'/'1' string with coordinate 0 leftmost, read by
parse_bits and written by bit_string.  Codes are subspaces of GF(2)^n.  The
LinearCode constructor accepts any spanning row masks and stores their
reduced row-echelon basis, which makes subspace equality plain value
equality.

All values are immutable; nothing here mutates shared state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

# Largest dimension an exhaustive count may cover, read by enumerate_codewords
# and _sliced_counts at each call.  Weight statistics count the smaller of a
# code and its dual, so for them it bounds min(k, n - k).
ENUMERATION_CAP = 30

# Smallest dimension counted bit-sliced: the two counts meet near dimension
# 10, and a walk of at most 2^10 words takes about 0.2 ms.
_SLICED_FROM = 11
# Lanes of 2^15 words: 2^16 counted [65, 16] and [65, 18] codes no faster
# and added 0.5 MB to the benchmark's peak RSS.
_LANE_EXPONENT = 15


class LengthMismatchError(ValueError):
    """Words from different ambient spaces cannot be combined."""


class EnumerationCapError(RuntimeError):
    """Code dimension exceeds the exhaustive-enumeration cap."""

    def __init__(self, dimension: int):
        super().__init__(
            f"refusing to enumerate 2^{dimension} codewords (cap is 2^{ENUMERATION_CAP})"
        )
        self.dimension = dimension


class NotACodewordError(ValueError):
    """The given word does not belong to the code."""


class GeneratorMatrixParseError(ValueError):
    """Malformed generator-matrix file."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def parse_bits(bits: str) -> int:
    """Mask of a '0'/'1' string; leftmost character is coordinate 0."""
    if bits.strip("01"):
        raise ValueError(f"invalid bit string {bits!r}")
    return int(bits[::-1] or "0", 2)


def bit_string(length: int, mask: int) -> str:
    """The '0'/'1' string of a mask of the given length; inverse of parse_bits."""
    return f"{mask:0{length}b}"[::-1] if length else ""


def _rref(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon rows over GF(2), zero rows dropped.

    Each row's pivot is its lowest set bit, pivots increase down the rows,
    and each pivot bit is set in its own row only.
    """
    rows: dict[int, int] = {}  # by pivot bit, fully reduced after each mask
    for m in masks:
        for pivot, row in rows.items():
            if m & pivot:
                m ^= row
        if m:
            low = m & -m
            for pivot, row in rows.items():
                if row & low:
                    rows[pivot] = row ^ m
            rows[low] = m
    return tuple(rows[pivot] for pivot in sorted(rows))


@dataclass(frozen=True)
class LinearCode:
    """The span in GF(2)^length of the given row masks.

    Any spanning masks are accepted; rows holds their canonical reduced
    row-echelon basis, so two LinearCode values are the same subspace iff
    they are equal.
    """

    length: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        for m in self.rows:
            if m < 0:
                raise ValueError(f"negative row mask {m}")
            if m >> self.length:
                raise ValueError(f"row mask {m:#x} does not fit in {self.length} bits")
        object.__setattr__(self, "rows", _rref(self.rows))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> LinearCode:
        """Span of the given '0'/'1' rows; dependent rows are dropped."""
        if not rows:
            raise ValueError("cannot infer ambient length from an empty row list")
        length = len(rows[0])
        for r in rows:
            if len(r) != length:
                raise LengthMismatchError(f"row lengths differ: {len(r)} vs {length}")
        return cls(length, tuple(parse_bits(r) for r in rows))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def contains(self, mask: int) -> bool:
        """True iff the word with this mask is in the code."""
        residue = mask
        for row in self.rows:
            low = row & -row
            if residue & low:
                residue ^= row
        return residue == 0


def enumerate_codewords(code: LinearCode) -> Iterator[int]:
    """Yield the masks of all 2^k codewords, zero word first.

    Order is fixed: the binary-reflected Gray code.  Step i (for i >= 1) adds
    basis row (i & -i).bit_length() - 1 to the previous word, so the i-th word
    is the message i ^ (i >> 1), where bit r of the message selects basis
    row r.  Byte-stable across runs.
    """
    k = code.dimension
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(k)
    rows = code.rows
    mask = 0
    yield mask
    for i in range(1, 1 << k):
        mask ^= rows[(i & -i).bit_length() - 1]
        yield mask


def _krawtchouk_row(n: int, i: int) -> list[int]:
    """[K_0(i), ..., K_n(i)], the coefficients of (1 - z)^i (1 + z)^(n - i).

    (j + 1) K_{j+1} = (n - 2i) K_j - (n - j + 1) K_{j-1}, exact in integers.
    """
    row = [1, n - 2 * i][:n + 1]
    for j in range(1, n):
        row.append(((n - 2 * i) * row[j] - (n - j + 1) * row[j - 1]) // (j + 1))
    return row


def _macwilliams(n: int, dual_dimension: int, counts: Sequence[int]) -> list[int]:
    """A code's weight counts A_j from the counts B_i of its dual.

    A_j = 2^-dual_dimension * sum_i B_i K_j(i) (MacWilliams & Sloane, ch. 5).
    """
    terms = [[b * kj for kj in _krawtchouk_row(n, i)] for i, b in enumerate(counts) if b]
    return [sum(column) >> dual_dimension for column in zip(*terms)]


def _sliced_counts(n: int, rows: Sequence[int], lane_exponent: int = _LANE_EXPONENT) -> list[int]:
    """counts[w] = number of words of weight w in the span of independent rows.

    Bit-sliced (Biham, FSE 1997): the low b = min(k, lane_exponent) rows
    span 2^b words held side by side, lane x holding the word whose bit r of
    x selects low row r, and column j is one 2^b-bit int, its truth table
    over the lanes.  A Gray walk over the k - b high rows complements the
    tables of the columns the added high row covers.  Each step adds the n
    tables by a carry-save reduction (Harley-Seal, as in Muła, Kurz &
    Lemire, Comput. J. 61, 2018): a full adder turns three bits of a level
    into a sum bit there and a carry bit at the next level, a leftover pair
    takes a zero third bit, and each level ends as one plane.  Lane x of
    plane p is bit p of its word's weight, and the lanes of each weight are
    found by descending the planes.
    """
    k = len(rows)
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(k)
    b = min(k, lane_exponent)
    size = 1 << b
    full = (1 << size) - 1
    covered = [[] for _ in rows]
    for columns, row in zip(covered, rows):
        while row:
            j = row.bit_length() - 1
            columns.append(j)
            row ^= 1 << j
    tables = [0] * n
    pattern = full
    for r in reversed(range(b)):
        # Lane x is 1 where bit r of x is: 2^r zeros, 2^r ones, repeated,
        # made by halving the blocks above, from one block of all 2^b lanes.
        pattern ^= pattern >> (1 << r)
        for j in covered[r]:
            tables[j] ^= pattern
    counts = [0] * (n + 1)
    for i in range(1 << (k - b)):
        if i:
            for j in covered[b + (i & -i).bit_length() - 1]:
                tables[j] ^= full
        planes, bits = [], list(tables)
        while bits:
            carries = []
            while len(bits) > 1:
                x, y = bits.pop(), bits.pop()
                z = bits.pop() if bits else 0
                u = x ^ y
                bits.append(u ^ z)
                carries.append(x & y | u & z)
            planes.append(bits[0])
            bits = carries
        # (lanes, weight so far) for each nonempty set of lanes that agree
        # on the planes above p.
        level = [(full, 0)]
        for p in reversed(range(len(planes))):
            plane = planes[p]
            if not plane:
                continue
            split = []
            for lanes, w in level:
                one = lanes & plane
                zero = lanes ^ one
                if one:
                    split.append((one, w | 1 << p))
                if zero:
                    split.append((zero, w))
            level = split
        for lanes, w in level:
            counts[w] += lanes.bit_count()
    return counts


def _weight_counts(code: LinearCode) -> list[int]:
    """counts[w] = number of codewords of weight w, for w in 0..n.

    When n - k < k the dual code is smaller, so it is counted instead and
    its counts are mapped back by _macwilliams.  A dimension below
    _SLICED_FROM is walked word by word through enumerate_codewords; a
    larger one is bit-sliced.  The cap applies to the dimension counted.
    """
    n, k = code.length, code.dimension
    walked = dual_code(code) if n - k < k else code
    if walked.dimension >= _SLICED_FROM:
        counts = _sliced_counts(n, walked.rows)
    else:
        counts = [0] * (n + 1)
        for m in enumerate_codewords(walked):
            counts[m.bit_count()] += 1
    return counts if walked is code else _macwilliams(n, n - k, counts)


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Exact weight counts, ascending by weight; zero counts are left out."""
    return {w: c for w, c in enumerate(_weight_counts(code)) if c}


def minimum_distance(code: LinearCode) -> int:
    """Minimum weight over nonzero codewords."""
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero words")
    counts = _weight_counts(code)
    return next(w for w in range(1, len(counts)) if counts[w])


def dual_code(code: LinearCode) -> LinearCode:
    """All words orthogonal to every codeword; dimension n - k."""
    n = code.length
    # Each row's pivot is its lowest set bit, as in LinearCode.contains.  A
    # free column j gives the dual word e_j plus the pivots of the rows
    # holding a 1 in column j.
    lows = [row & -row for row in code.rows]
    pivots = sum(lows)
    return LinearCode(n, tuple(
        1 << j | sum(low for low, row in zip(lows, code.rows) if row >> j & 1)
        for j in range(n) if not pivots >> j & 1))


def classify_parity(code: LinearCode) -> str:
    """Strongest of 'doubly-even', 'even', 'not-even' holding for all codewords.

    Read off the exact weight counts rather than the generator criterion, so
    it stays an independent witness for the self-orthogonality theorems the
    test suite validates.
    """
    weights = [w for w, c in enumerate(_weight_counts(code)) if c]
    if any(w % 2 for w in weights):
        return "not-even"
    return "doubly-even" if all(w % 4 == 0 for w in weights) else "even"


def is_self_orthogonal(code: LinearCode) -> bool:
    """True iff the code is contained in its dual."""
    rows = code.rows
    return all((a & b).bit_count() % 2 == 0 for i, a in enumerate(rows) for b in rows[i:])


def project_onto_support(code: LinearCode, word: str) -> tuple[LinearCode, int]:
    """Project each codeword v to v AND w, restricted to support(w).

    word is w as a '0'/'1' string.  Returns the image code (length = weight
    of w) and the dimension of the projection kernel.  If 2d divides every
    weight of the code, d divides every weight of the image.
    """
    mask = parse_bits(word)
    if len(word) != code.length:
        raise LengthMismatchError(f"cannot project a word of length {len(word)} "
                                  f"onto a code of length {code.length}")
    if not code.contains(mask):
        raise NotACodewordError(f"word {word} is not in the code")
    positions = [i for i in range(code.length) if mask >> i & 1]
    image = LinearCode(len(positions), tuple(
        sum(1 << j for j, pos in enumerate(positions) if row >> pos & 1)
        for row in code.rows))
    return image, code.dimension - image.dimension


def griesmer_min_length(k: int, d: int) -> int:
    """Minimal length of any [n, k, d] code: sum of ceil(d / 2^i), i < k."""
    if k < 1:
        raise ValueError(f"dimension must be at least 1, got {k}")
    if d < 1:
        raise ValueError(f"minimum distance must be at least 1, got {d}")
    # ceil(d / 2^i) == 1 for every i >= top, so those terms add up to k - top.
    top = (d - 1).bit_length()
    return sum(-(-d // (1 << i)) for i in range(min(k, top))) + max(0, k - top)


def griesmer_max_dim(n: int, d: int) -> int:
    """Largest k admitted by the Griesmer bound for given n and d."""
    if d < 1:
        raise ValueError(f"minimum distance must be at least 1, got {d}")
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if d > n:
        raise ValueError(f"minimum distance {d} exceeds length {n}")
    top = (d - 1).bit_length()
    k = length = 0
    while k < top:
        term = -(-d // (1 << k))
        if length + term > n:
            return k
        length += term
        k += 1
    # From k = top on, each further dimension adds exactly 1 to the length.
    return top + n - length


def parse_generator_matrix(text: str) -> LinearCode:
    """Parse the generator-matrix file format into the code its rows span.

    Lines of '0'/'1' characters; every space in a data line is dropped, so
    any spacing between characters is accepted; '#' starts a comment line;
    blank lines are ignored; all data lines must have equal length.
    Coordinates are 0-based, leftmost column first.
    """
    rows: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        compact = line.replace(" ", "")
        if compact.strip("01"):
            raise GeneratorMatrixParseError(
                f"expected only '0', '1' and spaces, got {line!r}", lineno
            )
        if rows and len(compact) != len(rows[0]):
            raise GeneratorMatrixParseError(
                f"row has {len(compact)} columns, expected {len(rows[0])}", lineno
            )
        rows.append(compact)
    if not rows:
        raise GeneratorMatrixParseError("no data rows found")
    return LinearCode.from_strings(rows)
