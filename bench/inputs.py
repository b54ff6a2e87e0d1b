"""Seeded inputs for the benchmark workloads.

build(workload, seed, out_dir) writes the generator-matrix files of one
workload into out_dir and returns one cycle of operations: the argv passed to
`evensets.cli.main` and the expected output, computed with reference.py.
The same (workload, seed) always gives the same files and operations.

Code shapes follow real even-set codes rather than random matrices:

- doubly-even codes are spans of pairwise-orthogonal rows whose weights are
  0 mod 4, so every codeword weight is 0 mod 4 (a random matrix is odd, which
  lets a parity check stop at the first odd word);
- even high-rate codes are duals of doubly-even codes that contain the
  all-ones word, so every dual word has even weight;
- small mixed codes come in fixed shares of the three parity classes.

Every generated code is checked for full rank and for its claimed parity
class by exhaustive reference enumeration.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference

# The 16-node quartic and 31-node quintic codes, as in the evensets data files.
KUMMER_ROWS = (
    "1111111100000000",
    "1111000011110000",
    "1100110011001100",
    "1010101010101010",
    "1111111111111111",
)
TOGLIATTI_ROWS = (
    "1111111111111111000000000000000",
    "1111111100000000111111110000000",
    "1111000011110000111100001111000",
    "1100110011001100110011001100110",
    "1010101010101010101010101010101",
)

# (degree, parity) pairs with a proven gap certificate, in sweep order.
PROVEN_PAIRS = (
    (3, "strict"), (4, "strict"), (5, "strict"), (6, "strict"), (7, "strict"),
    (8, "strict"), (10, "strict"), (2, "weak"), (4, "weak"), (6, "weak"),
    (8, "weak"),
)

# enum-large: (n, k, parity class).  Sextic length 65 at low rate, and an
# even [24,18] code with n - k < k, the shape of the quintic's dual [31,26].
ENUM_LARGE_SHAPES = ((65, 16, "doubly-even"), (65, 18, "doubly-even"), (24, 18, "even"))

# codes-small: 60 codes in shares 40% doubly-even, 30% even, 30% not-even.
# The (n, k) shapes are the same for every seed, because per-code costs grow
# with both; the seed chooses the codes, their order and the projected words.
SMALL_CLASSES = {"doubly-even": 24, "even": 18, "not-even": 18}
SMALL_MIN_N, SMALL_MAX_N, SMALL_MAX_K = 8, 65, 10

_ATTEMPTS = 10_000


class GenerationError(RuntimeError):
    """The generator could not meet its own specification."""


def doubly_even_rows(rng: random.Random, n: int, k: int, start=()) -> list[int]:
    """k independent pairwise-orthogonal rows of weight 0 mod 4, extending start."""
    rows = list(start)
    for _ in range(_ATTEMPTS):
        if len(rows) == k:
            return rows
        dual = reference.nullspace(n, rows)
        word = reference.combine(dual, rng.getrandbits(len(dual)))
        if word and word.bit_count() % 4 == 0 and reference.rank(n, rows + [word]) > len(rows):
            rows.append(word)
    raise GenerationError(f"no doubly-even [{n},{k}] code after {_ATTEMPTS} attempts")


def even_dual_rows(rng: random.Random, n: int, k: int) -> list[int]:
    """Basis of the dual of a doubly-even [n, n-k] code containing all-ones."""
    if n % 4:
        raise GenerationError(f"all-ones has weight {n}, not 0 mod 4")
    primal = doubly_even_rows(rng, n, n - k, start=[(1 << n) - 1])
    return reference.nullspace(n, primal)


def _random_rows(rng: random.Random, n: int, k: int, even: bool) -> list[int]:
    rows: list[int] = []
    for _ in range(_ATTEMPTS):
        if len(rows) == k:
            return rows
        word = rng.getrandbits(n)
        if even and word.bit_count() % 2:
            word ^= 1 << rng.randrange(n)
        if reference.rank(n, rows + [word]) > len(rows):
            rows.append(word)
    raise GenerationError(f"no [{n},{k}] code after {_ATTEMPTS} attempts")


def code_rows(rng: random.Random, n: int, k: int, parity: str) -> list[int]:
    """A full-rank [n, k] code whose parity class is exactly parity."""
    for _ in range(_ATTEMPTS):
        if parity == "doubly-even":
            rows = doubly_even_rows(rng, n, k)
        elif parity == "even":
            rows = _random_rows(rng, n, k, even=True)
        else:
            rows = _random_rows(rng, n, k, even=False)
        if reference.parity_class(reference.weight_distribution(n, rows)) == parity:
            return rows
    raise GenerationError(f"no {parity} [{n},{k}] code after {_ATTEMPTS} attempts")


def scramble(rng: random.Random, rows: list[int]) -> list[int]:
    """Same span, different basis: add random later rows to each row, shuffle."""
    rows = list(rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rng.getrandbits(1):
                rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


def checked(n: int, k: int, parity: str, rows: list[int]) -> dict:
    """Reference analysis of rows, after checking rank and parity class."""
    expected = reference.analyze(n, rows)
    if expected["k"] != k or len(rows) != k:
        raise GenerationError(f"[{n},{k}] code has rank {expected['k']} over {len(rows)} rows")
    if expected["parity_class"] != parity:
        raise GenerationError(
            f"[{n},{k}] code claimed {parity}, enumerates as {expected['parity_class']}")
    return expected


def write_matrix(path: Path, n: int, rows: list[int], label: str) -> None:
    lines = [f"# {label}"] + [reference.to_bits(r, n) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _analyze_op(path: Path, expected: dict) -> dict:
    return {"kind": "analyze", "argv": ["code", "analyze", str(path), "--json"],
            "expect": {"file": str(path), **expected}}


def enum_large(rng: random.Random, out_dir: Path) -> list[dict]:
    ops = []
    for i, (n, k, parity) in enumerate(ENUM_LARGE_SHAPES):
        if parity == "doubly-even":
            rows = doubly_even_rows(rng, n, k)
        else:
            rows = even_dual_rows(rng, n, k)
        rows = scramble(rng, rows)
        expected = checked(n, k, parity, rows)
        path = out_dir / f"large{i}-{n}-{k}.txt"
        write_matrix(path, n, rows, f"{parity} [{n},{k}] code")
        ops.append(_analyze_op(path, expected))
    return ops


def codes_small(rng: random.Random, out_dir: Path) -> list[dict]:
    shapes = []
    for parity, count in SMALL_CLASSES.items():
        for j in range(count):
            k = 1 + j % SMALL_MAX_K
            # A doubly-even code is self-orthogonal, so 2k <= n; keep room to spare.
            min_n = max(SMALL_MIN_N, 2 * k + 2 if parity == "doubly-even" else k + 1)
            # Lengths spread over [min_n, SMALL_MAX_N] by a fixed stride.
            shapes.append((parity, k, min_n + 23 * j % (SMALL_MAX_N - min_n + 1)))
    rng.shuffle(shapes)
    ops = []
    for i, (parity, k, n) in enumerate(shapes):
        rows = scramble(rng, code_rows(rng, n, k, parity))
        expected = checked(n, k, parity, rows)
        path = out_dir / f"small{i:02d}-{n}-{k}.txt"
        write_matrix(path, n, rows, f"{parity} [{n},{k}] code")
        ops.append(_analyze_op(path, expected))

        word = reference.combine(rows, rng.randrange(1, 1 << k))
        bits = reference.to_bits(word, n)
        ops.append({"kind": "project",
                    "argv": ["code", "project", str(path), "--word", bits, "--json"],
                    "expect": {"file": str(path), "word": bits,
                               **reference.project(n, rows, word)}})
    return ops


def paper_sweep(rng: random.Random, out_dir: Path) -> list[dict]:
    # The sweep reads the two bundled codes from --data-dir; the files hold
    # seeded bases of the same codes, so the report must not change.
    for name, strings in (("kummer", KUMMER_ROWS), ("togliatti", TOGLIATTI_ROWS)):
        n = len(strings[0])
        original = [reference.from_bits(s) for s in strings]
        rows = scramble(rng, original)
        if reference.rref(n, rows)[0] != reference.rref(n, original)[0]:
            raise GenerationError(f"scrambled {name} basis spans a different code")
        write_matrix(out_dir / f"{name}.txt", n, rows, f"{name} code, seeded basis")
    ops = [{"kind": "sweep",
            "argv": ["verify", "paper", "--data-dir", str(out_dir), "--json"],
            "expect": {}}]
    for degree, parity in PROVEN_PAIRS:
        ops.append({"kind": "gaps",
                    "argv": ["gaps", "--degree", str(degree), "--parity", parity, "--json"],
                    "expect": {"degree": degree, "parity": parity}})
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "enum-large": enum_large,
    "codes-small": codes_small,
    "paper-sweep": paper_sweep,
}


def build(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's input files into out_dir; return one op cycle."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, out_dir)
