import random
from pathlib import Path

import pytest

import inputs
import reference


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return len(lines[0]), [reference.from_bits(l) for l in lines]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    ops_a = inputs.build(workload, 5, a)
    ops_b = inputs.build(workload, 5, b)
    inputs.build(workload, 6, c)
    strip = lambda ops, d: [str(op).replace(str(d), "DIR") for op in ops]
    assert strip(ops_a, a) == strip(ops_b, b)
    files = lambda d: {p.name: p.read_text() for p in d.iterdir()}
    assert files(a) == files(b)
    assert sorted(files(a).values()) != sorted(files(c).values())


def test_doubly_even_rows_are_orthogonal_and_full_rank():
    rng = random.Random(11)
    rows = inputs.doubly_even_rows(rng, 65, 18)
    assert reference.rank(65, rows) == 18
    assert all(r.bit_count() % 4 == 0 for r in rows)
    assert reference.is_self_orthogonal(rows)


def test_even_dual_rows_are_even_not_doubly_even():
    rows = inputs.even_dual_rows(random.Random(2), 24, 18)
    assert reference.rank(24, rows) == 18
    assert reference.parity_class(reference.weight_distribution(24, rows)) == "even"


def test_enum_large_shapes(tmp_path):
    ops = inputs.build("enum-large", 1, tmp_path)
    shapes = [(op["expect"]["n"], op["expect"]["k"], op["expect"]["parity_class"]) for op in ops]
    assert shapes == list(inputs.ENUM_LARGE_SHAPES)
    for op in ops:
        n, rows = _read_rows(Path(op["argv"][2]))
        assert reference.analyze(n, rows) == {k: v for k, v in op["expect"].items() if k != "file"}


def test_codes_small_shares_and_ranges(tmp_path):
    ops = inputs.build("codes-small", 3, tmp_path)
    analyses = [op["expect"] for op in ops if op["kind"] == "analyze"]
    classes = [a["parity_class"] for a in analyses]
    assert (classes.count("doubly-even"), classes.count("even"), classes.count("not-even")) == (24, 18, 18)
    assert all(8 <= a["n"] <= 65 and 1 <= a["k"] <= 10 for a in analyses)
    projects = [op for op in ops if op["kind"] == "project"]
    assert len(projects) == len(analyses)
    for op in projects:
        word = op["expect"]["word"]
        assert "1" in word and op["expect"]["image_n"] == word.count("1")


def test_paper_sweep_files_span_the_bundled_codes(tmp_path):
    ops = inputs.build("paper-sweep", 9, tmp_path)
    assert sorted(op["kind"] for op in ops) == ["gaps"] * 11 + ["sweep"]
    for name, strings in (("kummer", inputs.KUMMER_ROWS), ("togliatti", inputs.TOGLIATTI_ROWS)):
        n, rows = _read_rows(tmp_path / f"{name}.txt")
        original = [reference.from_bits(s) for s in strings]
        assert reference.rref(n, rows)[0] == reference.rref(n, original)[0]


def test_claimed_parity_class_is_checked():
    rows = inputs.even_dual_rows(random.Random(4), 24, 18)
    with pytest.raises(inputs.GenerationError):
        inputs.checked(24, 18, "doubly-even", rows)
    with pytest.raises(inputs.GenerationError):
        inputs.checked(24, 19, "even", rows)
