import itertools
import random

import inputs
import reference


def _rows(strings):
    return [reference.from_bits(s) for s in strings]


def _naive_distribution(n, rows):
    counts = {}
    for picks in itertools.product((0, 1), repeat=len(rows)):
        word = 0
        for pick, row in zip(picks, rows):
            if pick:
                word ^= row
        counts[word.bit_count()] = counts.get(word.bit_count(), 0) + 1
    # Dependent rows visit each codeword 2^(rows - rank) times.
    repeat = 2 ** (len(rows) - reference.rank(n, rows))
    return {w: c // repeat for w, c in sorted(counts.items())}


def test_kummer_distribution_pinned():
    assert reference.weight_distribution(16, _rows(inputs.KUMMER_ROWS)) == {0: 1, 8: 30, 16: 1}


def test_togliatti_distribution_pinned():
    assert reference.weight_distribution(31, _rows(inputs.TOGLIATTI_ROWS)) == {0: 1, 16: 31}


def test_kummer_analysis():
    expected = reference.analyze(16, _rows(inputs.KUMMER_ROWS))
    assert expected == {
        "n": 16, "k": 5, "minimum_distance": 8,
        "weight_distribution": {"0": 1, "8": 30, "16": 1},
        "parity_class": "doubly-even", "self_orthogonal": True, "dual_dimension": 11,
    }


def test_gray_walk_matches_naive_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        assert reference.weight_distribution(n, rows) == _naive_distribution(n, rows)


def test_nullspace_is_orthogonal_complement():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 20)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        dual = reference.nullspace(n, rows)
        assert len(dual) == n - reference.rank(n, rows)
        assert reference.rank(n, dual) == len(dual)
        assert all((a & b).bit_count() % 2 == 0 for a in rows for b in dual)


def test_project_onto_all_ones_keeps_the_code():
    rows = _rows(inputs.KUMMER_ROWS)
    assert reference.project(16, rows, (1 << 16) - 1) == {
        "image_n": 16, "image_k": 5, "kernel_dimension": 0,
        "image_weight_distribution": {"0": 1, "8": 30, "16": 1},
    }


def test_project_onto_octad():
    rows = _rows(inputs.KUMMER_ROWS)
    octad = reference.from_bits("1111111100000000")
    projected = reference.project(16, rows, octad)
    assert projected["image_n"] == 8
    assert projected["image_k"] + projected["kernel_dimension"] == 5
    assert sum(projected["image_weight_distribution"].values()) == 2 ** projected["image_k"]
