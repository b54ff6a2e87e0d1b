"""Reference GF(2) code arithmetic for the benchmark, independent of evensets.

Words are Python integers; bit j is coordinate j, so a row written as a
'0'/'1' string has its leftmost character at bit 0 (the evensets file
format).  Everything here is exact and uses only the standard library: the
benchmark computes each input's expected answer with these functions, outside
the timed region, and compares the program's output against it.
"""

from __future__ import annotations


def rref(n: int, rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon basis of the span of rows, with pivot columns."""
    rows = [r for r in rows if r]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        bit = 1 << col
        for i in range(r, len(rows)):
            if rows[i] & bit:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def rank(n: int, rows: list[int]) -> int:
    return len(rref(n, rows)[0])


def nullspace(n: int, rows: list[int]) -> list[int]:
    """A basis of all words orthogonal to every row (the dual code)."""
    basis, pivots = rref(n, rows)
    pivot_set = set(pivots)
    out = []
    for free in range(n):
        if free in pivot_set:
            continue
        word = 1 << free
        for row, pivot in zip(basis, pivots):
            if row >> free & 1:
                word |= 1 << pivot
        out.append(word)
    return out


def weight_distribution(n: int, rows: list[int]) -> dict[int, int]:
    """Weight counts over the span of rows, by a Gray-code walk.

    Step i flips basis row number (index of the lowest set bit of i), so each
    of the 2^k codewords is visited once with one XOR per word.
    """
    basis, _ = rref(n, rows)
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return {w: c for w, c in enumerate(counts) if c}


def parity_class(distribution: dict[int, int]) -> str:
    """Strongest of 'doubly-even', 'even', 'not-even' holding for every weight."""
    if all(w % 4 == 0 for w in distribution):
        return "doubly-even"
    if all(w % 2 == 0 for w in distribution):
        return "even"
    return "not-even"


def is_self_orthogonal(rows: list[int]) -> bool:
    return all((a & b).bit_count() % 2 == 0
               for i, a in enumerate(rows) for b in rows[i:])


def analyze(n: int, rows: list[int]) -> dict:
    """Expected payload fields of `evensets code analyze` for this matrix."""
    k = rank(n, rows)
    distribution = weight_distribution(n, rows)
    nonzero = [w for w in distribution if w]
    return {
        "n": n,
        "k": k,
        "minimum_distance": min(nonzero) if nonzero else None,
        "weight_distribution": {str(w): c for w, c in distribution.items()},
        "parity_class": parity_class(distribution),
        "self_orthogonal": is_self_orthogonal(rows),
        "dual_dimension": n - k,
    }


def project(n: int, rows: list[int], word: int) -> dict:
    """Expected payload fields of `evensets code project` onto codeword word.

    Each row is cut down to the coordinates in the support of word, which are
    renumbered 0, 1, ... in ascending order.
    """
    positions = [j for j in range(n) if word >> j & 1]
    image = []
    for row in rows:
        image.append(sum(1 << i for i, pos in enumerate(positions) if row >> pos & 1))
    image_k = rank(len(positions), image)
    return {
        "image_n": len(positions),
        "image_k": image_k,
        "kernel_dimension": rank(n, rows) - image_k,
        "image_weight_distribution": {
            str(w): c for w, c in weight_distribution(len(positions), image).items()},
    }


def combine(rows: list[int], message: int) -> int:
    """Sum of the rows selected by the bits of message."""
    word = 0
    for i, row in enumerate(rows):
        if message >> i & 1:
            word ^= row
    return word


def to_bits(word: int, n: int) -> str:
    return "".join("1" if word >> j & 1 else "0" for j in range(n))


def from_bits(bits: str) -> int:
    return sum(1 << j for j, c in enumerate(bits) if c == "1")
