"""GF(2) linear-algebra and coding-theory kernel.

A word of a code of length n is an int mask below 2^n (bit j of the mask is
coordinate j, so coordinate 0 is the least significant bit).  Its only
outside form is a '0'/'1' string with coordinate 0 leftmost, read by
parse_bits and parse_generator_matrix (files by read_generator_matrix) and
written by bit_string.  Codes are subspaces of GF(2)^n.  The LinearCode
constructor accepts any spanning row masks and stores their reduced
row-echelon basis, which makes subspace equality plain value equality.

All values are immutable; the only shared state is three caches of constant tuples, which no
pass writes: the chunk tables of the bit-sliced count, the set-up of the last code it counted
(its column tables and group sums, keyed by its low and mid rows and shared by its passes) and
the Krawtchouk rows of MacWilliams.
"""

from __future__ import annotations

import bisect
import functools
import operator
from collections.abc import Iterable, Iterator, Sequence

# Largest dimension an exhaustive count may cover, read by enumerate_codewords
# and _sliced_sums at each call.  Weight statistics count the smaller of a
# code and its dual, so for them it bounds min(k, n - k).
ENUMERATION_CAP = 30

# Smallest dimension counted bit-sliced.  On random codes at n = 24 to 65, dimension 9 beats a
# walk 1.15-1.65x on the weights and 2.88-3.94x on an analyze; at 8 an analyze still wins
# 1.70-2.47x (n = 16 to 65) but the weights lose from n = 32.
_SLICED_FROM = 9
# Lanes of 2^15 words, read by _sliced_sums at each call: 2^16 counted
# [65, 16] and [65, 18] codes no faster and added 0.5 MB to the benchmark's peak RSS.
_LANE_EXPONENT = 15
# Rows above the lanes whose 2^3 words share one pass over the column
# tables (see _sliced_counts): on doubly-even [65, 20] and [65, 22] codes
# 2 rows counted 8-13% slower and 4 rows 0-6% slower.  At most 8: a mid key is one byte.
_MID_ROWS = 3


class LengthMismatchError(ValueError):
    """Words from different ambient spaces cannot be combined."""


class EnumerationCapError(RuntimeError):
    """Code dimension exceeds the exhaustive-enumeration cap."""

    def __init__(self, dimension: int):
        super().__init__(
            f"refusing to enumerate 2^{dimension} codewords (cap is 2^{ENUMERATION_CAP})"
        )


class NotACodewordError(ValueError):
    """The given word does not belong to the code."""


class GeneratorMatrixParseError(ValueError):
    """Malformed generator-matrix file."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class _Value:
    """Immutable record: __init__ fills vars(self) in the order its fields are annotated."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


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


class LinearCode(_Value):
    """The span in GF(2)^length of the given row masks.

    Any spanning masks are accepted; rows holds their canonical reduced
    row-echelon basis, so two LinearCode values are the same subspace iff
    they are equal.
    """

    length: int
    rows: tuple[int, ...]

    def __init__(self, length, rows):
        if length < 0:
            raise ValueError(f"negative length {length}")
        rows = tuple(rows)
        for m in rows:
            if m < 0:
                raise ValueError(f"negative row mask {m}")
            if m >> length:
                raise ValueError(f"row mask {m:#x} does not fit in {length} bits")
        vars(self).update(length=length, rows=_rref(rows))

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


def _gray(rows: Sequence[int]) -> Iterator[int]:
    """The 2^len(rows) subset sums of the rows, zero first, in binary-reflected Gray order.

    Step i (for i >= 1) adds row (i & -i).bit_length() - 1 to the previous sum,
    so the i-th sum is the XOR of the rows r whose bit r of i ^ (i >> 1) is set.
    """
    mask = 0
    yield mask
    for i in range(1, 1 << len(rows)):
        mask ^= rows[(i & -i).bit_length() - 1]
        yield mask


def enumerate_codewords(code: LinearCode) -> Iterator[int]:
    """The 2^k codeword masks, _gray over the basis rows; the cap is checked at the call."""
    if code.dimension > ENUMERATION_CAP:
        raise EnumerationCapError(code.dimension)
    return _gray(code.rows)


@functools.cache
def _krawtchouk_row(n: int, i: int) -> tuple[int, ...]:
    """(K_0(i), ..., K_n(i)), the coefficients of (1 - z)^i (1 + z)^(n - i).

    (j + 1) K_{j+1} = (n - 2i) K_j - (n - j + 1) K_{j-1}, exact in integers.
    """
    row = [1, n - 2 * i][:n + 1]
    for j in range(1, n):
        row.append(((n - 2 * i) * row[j] - (n - j + 1) * row[j - 1]) // (j + 1))
    return tuple(row)


def _macwilliams(n: int, dual_dimension: int, counts: Sequence[int]) -> list[int]:
    """A code's weight counts A_j from the counts B_i of its dual.

    A_j = 2^-dual_dimension * sum_i B_i K_j(i) (MacWilliams & Sloane, ch. 5).
    """
    terms = [[b * kj for kj in _krawtchouk_row(n, i)] for i, b in enumerate(counts) if b]
    return [sum(column) >> dual_dimension for column in zip(*terms)]


def _carry_save(bits: list[int], top: int | None = None) -> list[int]:
    """Bit planes 0..top-1 (all if top is None) of the lane-wise sum of the ints; consumes them.

    A carry-save reduction (Harley-Seal, as in Muła, Kurz & Lemire, Comput.
    J. 61, 2018): a full adder turns three bits of a plane into a sum bit
    there and a carry bit for the next plane, a leftover pair takes a zero
    third bit, and the carries are reduced likewise into the next plane.
    s ints give s.bit_length() planes.  Plane top - 1 is the XOR of the ints
    left, making no carries: the planes spell each lane's sum mod 2^top.
    """
    planes: list[int] = []
    while bits:
        if len(planes) + 1 == top:
            planes.append(functools.reduce(operator.xor, bits))
            break
        carries = []
        while len(bits) > 1:
            x, y = bits.pop(), bits.pop()
            z = bits.pop() if bits else 0
            u = x ^ y
            bits.append(u ^ z)
            carries.append(x & y | u & z)
        planes.append(bits[0])
        bits = carries
    return planes


def _ripple(a: list[int], b: list[int], top: int | None = None) -> list[int]:
    """Planes 0..top-1 (all if top is None) of the lane sums of the numbers a and b spell."""
    if len(a) < len(b):
        a, b = b, a
    planes, carry = [], 0
    for x, y in zip(a, b):
        u = x ^ y
        planes.append(u ^ carry)
        if len(planes) == top:  # as in _carry_save, plane top - 1 makes no carry
            return planes
        carry = x & y | u & carry
    for x in a[len(b):]:
        planes.append(x ^ carry)
        if len(planes) == top:
            return planes
        carry &= x
    return planes + [carry] if carry else planes


_BITS = bytes.maketrans(b"01", b"\0\1")  # a '0'/'1' string to one byte per bit


@functools.cache
def _chunk_tables(b: int) -> tuple[tuple[int, ...], ...]:
    """Per run c of 4 low rows, the XORs of their lane patterns over 2^b lanes.

    Lane x of row r's pattern is bit r of x, so entry v of chunk c is, in lane
    x, the parity of x >> 4c & v.  The last chunk has 2^(b mod 4) entries if 4 does not divide b.
    """
    patterns, pattern = [], (1 << (1 << b)) - 1
    for r in reversed(range(b)):
        # 2^r zeros, 2^r ones, repeated: the blocks of pattern r + 1 halved.
        pattern ^= pattern >> (1 << r)
        patterns.insert(0, pattern)
    chunks = []
    for c in range(0, b, 4):
        entries = [0]
        for pattern in patterns[c:c + 4]:
            entries += [entry ^ pattern for entry in entries]
        chunks.append(tuple(entries))
    return tuple(chunks)


def _column_bits(n: int, rows: Sequence[int]) -> bytes:
    """Byte j holds column j's bits on up to 8 rows: bit s is set iff rows[s] covers j.

    A byte transposition: each row is spread one bit per byte (bit j to byte
    j) and the rows are ORed at shifts 0 to 7.
    """
    index = 0
    for s, row in enumerate(rows):
        index |= int.from_bytes(f"{row:0{n}b}".encode().translate(_BITS), "big") << s
    return index.to_bytes(n, "little")


def _column_tables(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """Column j's truth table over 2^len(rows) lanes: the XOR of the row patterns covering j.

    Column j's bits on a chunk's rows index its entry of the chunk.  Uncached: _pass_setup
    builds them once per code.
    """
    tables = None
    for c, entries in enumerate(_chunk_tables(len(rows))):
        picked = [entries[i] for i in _column_bits(n, rows[4 * c:4 * c + 4])]
        tables = picked if tables is None else list(map(operator.xor, tables, picked))
    return tuple(tables or [0] * n)


@functools.lru_cache(maxsize=1)  # one code's set-up: an analyze's passes share it
def _pass_setup(n: int, low: tuple[int, ...], mid: tuple[int, ...]) -> tuple:
    """(tables, groups, sums) of a bit-sliced pass over the given low and mid rows.

    tables are the _column_tables of the low rows, groups[g] the columns
    whose bits on the mid rows spell g, and sums[g] the full _carry_save
    planes of group g's tables, the group sums of the zero outer word.
    """
    tables = _column_tables(n, low)
    groups = [[] for _ in range(1 << len(mid))]
    for j, key in enumerate(_column_bits(n, mid)):
        groups[key].append(j)
    return (tables, tuple(map(tuple, groups)),
            tuple(tuple(_carry_save([tables[j] for j in columns])) for columns in groups))


def _sliced_sums(n: int, rows: Sequence[int], top: int | None = None) -> Iterator:
    """One bit-sliced pass over the span of independent rows: its weights, as lane sums.

    Bit-sliced (Biham, FSE 1997): the low b = min(k, _LANE_EXPONENT) rows
    span 2^b words held side by side, lane x holding the word whose bit r of
    x selects low row r, and column j is one 2^b-bit int, its truth table
    over the lanes.  The next m = min(_MID_ROWS, k - b) rows form the mid
    tier, and _gray walks the remaining outer rows: the tables of the columns
    its outer word covers enter complemented, through a view of the cached ones.

    The columns go into 2^m groups by their bits on the mid rows, their key.
    An entry (planes, offset, size) stands for size columns of which, in
    lane x, offset plus the number the planes spell are 1.  Each nonzero
    outer word sums each group's tables once, by _carry_save, into the
    entry of its key; the zero word takes the full group sums cut at top,
    the same planes.  Passes over the same low and mid rows share the
    tables, the groups and those sums (see _pass_setup).  A butterfly over
    the mid rows then turns the 2^m entries by key into 2^m entries by mid
    word.  At mid row t, entries a and b whose
    indices differ only in bit t become a + b, and a + b complemented for
    the words with bit t set.  The complement size_b - offset_b - c, where
    b's w planes spell c, enters as those planes XORed with all ones,
    which spell 2^w - 1 - c, and the offset takes size_b - offset_b - 2^w
    + 1.  Each sum is one _ripple add, m 2^m of them in all.  Yields
    (planes, offset, full) per mid word per outer step: lane x weighs offset
    (maybe negative) plus the number the planes spell there, full has every
    lane set, and lane 0 of the first entry is the zero word.  With top set,
    both adders keep planes 0..top-1 alone: a lane's planes spell its sum
    mod 2^top (a complement spells 2^w - 1 - c, w <= top, exact mod 2^top),
    and the offsets stay exact.
    """
    k = len(rows)
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(k)
    b = min(k, _LANE_EXPONENT)
    m = min(_MID_ROWS, k - b)
    full = (1 << (1 << b)) - 1
    tables, groups, sums = _pass_setup(n, tuple(rows[:b]), tuple(rows[b:b + m]))
    for outer in _gray(rows[b + m:]):
        if outer:
            view = [t ^ full if outer >> j & 1 else t for j, t in enumerate(tables)]
            entries = [(_carry_save([view[j] for j in columns], top), 0, len(columns))
                       for columns in groups]
        else:
            entries = [(list(planes[:top]), 0, len(columns))
                       for planes, columns in zip(sums, groups)]
        for t in range(m):
            for x in range(1 << m):
                if not x >> t & 1:
                    (pa, oa, sa), (pb, ob, sb) = entries[x], entries[x | 1 << t]
                    entries[x] = (_ripple(pa, pb, top), oa + ob, sa + sb)
                    entries[x | 1 << t] = (_ripple(pa, [p ^ full for p in pb], top),
                                           oa + sb - ob - (1 << len(pb)) + 1, sa + sb)
        for planes, offset, _ in entries:
            yield planes, offset, full


def _sliced_counts(n: int, rows: Sequence[int]) -> list[int]:
    """counts[w] = number of words of weight w in the span of independent rows."""
    counts = [0] * (n + 1)
    for planes, offset, full in _sliced_sums(n, rows):
        # (lanes, weight so far) for each nonempty set of lanes that agree on
        # the planes above p.  Each plane splits each set, and each set is
        # popcounted once at the bottom; a plane of all ones goes into the offset.
        level = [(full, 0)]
        for p in reversed(range(len(planes))):
            plane = planes[p]
            if plane == full:
                offset += 1 << p
            elif plane:
                split = []
                for lanes, w in level:
                    if one := lanes & plane:
                        split.append((one, w + (1 << p)))
                    if zero := lanes ^ one:
                        split.append((zero, w))
                level = split
        for lanes, w in level:
            counts[w + offset] += lanes.bit_count()
    return counts


def _sliced_minimum(n: int, rows: Sequence[int]) -> int:
    """Least nonzero weight in the span of k >= 1 independent rows, one branch per entry.

    The lanes clear at a plane are lanes ^ lanes & plane: no negative 2^b-bit ~plane.
    """
    least = n
    for i, (planes, offset, full) in enumerate(_sliced_sums(n, rows)):
        if lanes := full if i else full ^ 1:  # lane 0 of entry 0 is the zero word
            for p in reversed(range(len(planes))):  # the lanes clear at p, else all + 2^p
                clear = lanes ^ lanes & planes[p]
                lanes, offset = clear or lanes, offset + ((not clear) << p)
            least = min(least, offset)
    return least


def _sliced_parity(n: int, rows: Sequence[int]) -> str:
    """classify_parity of the span of independent rows, from a pass summed mod 4 (top 2).

    A lane is odd where plane 0 is not the offset's bit 0.  With all even, bit
    0 carries: 0 mod 4 where plane 1 is the offset's bit 1 XOR bit 0.
    """
    doubly = True
    for planes, offset, full in _sliced_sums(n, rows, 2):
        low, second, *_ = planes + [0, 0]
        if low ^ (full if offset & 1 else 0):
            return "not-even"
        doubly = doubly and second == (full if (offset ^ offset >> 1) & 1 else 0)
    return "doubly-even" if doubly else "even"


def _weight_counts(code: LinearCode) -> list[int]:
    """counts[w] = number of codewords of weight w, for w in 0..n.

    When n - k < k the dual code is smaller, so it is counted instead and
    its counts are mapped back by _macwilliams.  A dimension below
    _SLICED_FROM is walked word by word through enumerate_codewords; a
    larger one is bit-sliced.  The cap applies to the dimension counted.
    When the code itself is bit-sliced, minimum_distance and classify_parity make
    their own pass and read one branch of its planes, or planes 0 and 1, alone;
    the passes share their set-up, the column tables and the zero outer word's
    group sums (see _pass_setup), so an analyze builds it once.
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
    """Minimum weight over nonzero codewords (see _weight_counts for how it is found)."""
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero words")
    if _SLICED_FROM <= code.dimension <= code.length - code.dimension:
        return _sliced_minimum(code.length, code.rows)
    return next(w for w, c in enumerate(_weight_counts(code)) if w and c)


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

    Read off the exact weights (counts, or lane sums: see _weight_counts)
    rather than the generator criterion, so it stays an independent witness
    for the self-orthogonality theorems the test suite validates.
    """
    if _SLICED_FROM <= code.dimension <= code.length - code.dimension:
        return _sliced_parity(code.length, code.rows)
    residues = {w % 4 for w, c in enumerate(_weight_counts(code)) if c}
    return "not-even" if residues & {1, 3} else "even" if 2 in residues else "doubly-even"


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
    """Largest k with griesmer_min_length(k, d) <= n: the dimension the Griesmer bound admits."""
    if d < 1:
        raise ValueError(f"minimum distance must be at least 1, got {d}")
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    if d > n:
        raise ValueError(f"minimum distance {d} exceeds length {n}")
    top = max(1, (d - 1).bit_length())  # at least 1, the least dimension
    full = griesmer_min_length(top, d)
    if n >= full:
        return top + n - full  # past top each dimension adds exactly 1
    return bisect.bisect_right(range(1, top), n, key=lambda k: griesmer_min_length(k, d))


def parse_generator_matrix(text: str) -> LinearCode:
    """Parse the generator-matrix file format into the code its rows span.

    Lines of '0'/'1' characters; every space in a data line is dropped, so
    any spacing between characters is accepted; '#' starts a comment line;
    blank lines are ignored; all data lines must have equal length.  Lines
    end at LF, CRLF or a lone CR, as in text mode, and at no other character.
    Coordinates are 0-based, leftmost column first.
    """
    rows: list[str] = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
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
    return LinearCode(len(rows[0]), tuple(int(row[::-1], 2) for row in rows))


def read_generator_matrix(path: str) -> LinearCode:
    """Parse the UTF-8 file at path, less a leading BOM; the parser, not text mode, ends lines."""
    with open(path, "rb") as f:
        return parse_generator_matrix(f.read().decode("utf-8-sig"))
