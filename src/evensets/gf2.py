"""GF(2) linear-algebra and coding-theory kernel.

Words are fixed-length bit vectors stored as Python integers (bit j of the
mask is coordinate j, so coordinate 0 is the least significant bit).  Codes
are subspaces of GF(2)^n.  The LinearCode constructor accepts any spanning
row masks and stores their reduced row-echelon basis, which makes subspace
equality plain value equality.

All values are immutable; nothing here mutates shared state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import comb

# Largest dimension an exhaustive walk may cover, read by enumerate_codewords
# at each call.  Weight statistics walk the smaller of a code and its dual, so
# for them it bounds min(k, n - k).
ENUMERATION_CAP = 30


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


@dataclass(frozen=True, order=True)
class BitWord:
    """A vector in GF(2)^length; coordinates are 0-based."""

    length: int
    mask: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.mask < 0:
            raise ValueError(f"negative mask {self.mask}")
        if self.mask >> self.length:
            raise ValueError(f"mask 0x{self.mask:x} does not fit in {self.length} bits")

    @classmethod
    def from_string(cls, bits: str) -> BitWord:
        """Parse a '0'/'1' string; leftmost character is coordinate 0."""
        if bits.strip("01"):
            raise ValueError(f"invalid bit string {bits!r}")
        return cls(len(bits), int(bits[::-1] or "0", 2))

    def __str__(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.length))

    def __add__(self, other: BitWord) -> BitWord:
        if self.length != other.length:
            raise LengthMismatchError(
                f"cannot add words of lengths {self.length} and {other.length}"
            )
        return BitWord(self.length, self.mask ^ other.mask)

    @property
    def weight(self) -> int:
        """Number of 1-coordinates."""
        return self.mask.bit_count()

    def support(self) -> list[int]:
        """Ascending 0-based indices of the 1-coordinates."""
        return [i for i in range(self.length) if self.mask >> i & 1]


def _rref(length: int, masks: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon rows over GF(2), zero rows dropped.

    Each row's pivot is its lowest set bit, pivots increase down the rows,
    and each pivot bit is set in its own row only.
    """
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
        object.__setattr__(self, "rows", _rref(self.length, self.rows))

    @classmethod
    def from_rows(cls, words: Sequence[BitWord]) -> LinearCode:
        """Span of the given words; dependent rows are dropped."""
        if not words:
            raise ValueError("cannot infer ambient length from an empty row list")
        length = words[0].length
        for w in words:
            if w.length != length:
                raise LengthMismatchError(
                    f"row lengths differ: {w.length} vs {length}"
                )
        return cls(length, tuple(w.mask for w in words))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> LinearCode:
        return cls.from_rows([BitWord.from_string(r) for r in rows])

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def basis(self) -> list[BitWord]:
        return [BitWord(self.length, m) for m in self.rows]

    def contains(self, w: BitWord) -> bool:
        if w.length != self.length:
            return False
        residue = w.mask
        for row in self.rows:
            low = row & -row
            if residue & low:
                residue ^= row
        return residue == 0


def enumerate_codewords(code: LinearCode) -> Iterator[BitWord]:
    """Yield all 2^k codewords, zero word first.

    Order is fixed: the binary-reflected Gray code.  Step i (for i >= 1) adds
    basis row (i & -i).bit_length() - 1 to the previous word, so the i-th word
    is the message i ^ (i >> 1), where bit r of the message selects basis
    row r.  Byte-stable across runs.
    """
    k = code.dimension
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(k)
    n, rows = code.length, code.rows
    mask = 0
    yield BitWord(n, mask)
    for i in range(1, 1 << k):
        mask ^= rows[(i & -i).bit_length() - 1]
        yield BitWord(n, mask)


def _krawtchouk(n: int, j: int, i: int) -> int:
    """Coefficient of z^j in (1 - z)^i (1 + z)^(n - i)."""
    return sum((-1) ** h * comb(i, h) * comb(n - i, j - h) for h in range(min(i, j) + 1))


def _weight_counts(code: LinearCode) -> list[int]:
    """counts[w] = number of codewords of weight w, for w in 0..n.

    The only consumer of enumerate_codewords.  When n - k < k the dual code
    is smaller, so it is enumerated instead and its counts B_i are mapped
    back by the MacWilliams identity A_j = 2^-(n-k) * sum_i B_i K_j(i),
    which is exact in integers.  The cap applies to the dimension walked.
    """
    n, k = code.length, code.dimension
    walked = dual_code(code) if n - k < k else code
    counts = [0] * (n + 1)
    for w in enumerate_codewords(walked):
        counts[w.mask.bit_count()] += 1
    if walked is code:
        return counts
    weights = [(i, b) for i, b in enumerate(counts) if b]
    return [sum(b * _krawtchouk(n, j, i) for i, b in weights) >> (n - k)
            for j in range(n + 1)]


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


def project_onto_support(code: LinearCode, w: BitWord) -> tuple[LinearCode, int]:
    """Project each codeword v to v AND w, restricted to support(w).

    Returns the image code (length = weight of w) and the dimension of the
    projection kernel.  If 2d divides every weight of the code, d divides
    every weight of the image.
    """
    if w.length != code.length:
        raise LengthMismatchError(f"cannot project a word of length {w.length} "
                                  f"onto a code of length {code.length}")
    if not code.contains(w):
        raise NotACodewordError(f"word {w} is not in the code")
    positions = w.support()
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


def parse_generator_matrix(text: str) -> list[BitWord]:
    """Parse the generator-matrix file format.

    Lines of '0'/'1' characters; every space in a data line is dropped, so
    any spacing between characters is accepted; '#' starts a comment line;
    blank lines are ignored; all data lines must have equal length.
    Coordinates are 0-based, leftmost column first.
    """
    rows: list[BitWord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        compact = line.replace(" ", "")
        if compact.strip("01"):
            raise GeneratorMatrixParseError(
                f"expected only '0', '1' and spaces, got {line!r}", lineno
            )
        word = BitWord.from_string(compact)
        if rows and word.length != rows[0].length:
            raise GeneratorMatrixParseError(
                f"row has {word.length} columns, expected {rows[0].length}", lineno
            )
        rows.append(word)
    if not rows:
        raise GeneratorMatrixParseError("no data rows found")
    return rows
