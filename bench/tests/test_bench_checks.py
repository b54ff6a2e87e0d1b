import contextlib
import io
import json

import pytest

import checks
import inputs
import worker
from evensets import certificates, cli
from timing import SpeedLog


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def small_ops(tmp_path_factory):
    return inputs.build("codes-small", 1, tmp_path_factory.mktemp("small"))[:6]


@pytest.fixture(scope="module")
def sweep_ops(tmp_path_factory):
    return inputs.build("paper-sweep", 1, tmp_path_factory.mktemp("sweep"))


class StubCli:
    """Prints a fixed text per argv and returns a fixed exit code."""

    def __init__(self, texts, code=0):
        self.texts, self.code = texts, code

    def main(self, argv):
        if self.code == "raise":
            raise RuntimeError("boom")
        print(self.texts[tuple(argv)], end="")
        return self.code


def _tally(ops, texts, code=0):
    """(failed, attempted) over one cycle of ops answered by a stub program."""
    speed = SpeedLog()
    summary = worker.summarize(worker.run_phase(StubCli(texts, code), ops, 0, speed), speed)
    return summary["failed"], summary["attempted"]


def test_real_outputs_pass(small_ops, sweep_ops):
    for op in small_ops + sweep_ops:
        code, text = _run(op["argv"])
        assert checks.check(op, code, text) is None, op["argv"]


def test_gap_conclusions_cover_the_program_gap_table():
    for pair, excluded in certificates.GAP_TABLE.items():
        assert checks.GAP_CONCLUSIONS[pair][1] == excluded


def _corrupt_weight_count(text, delta):
    report = json.loads(text)
    key = "weight_distribution" if "weight_distribution" in report["payload"] \
        else "image_weight_distribution"
    dist = report["payload"][key]
    weight = max(dist, key=int)
    dist[weight] += delta
    return json.dumps(report)


@pytest.mark.parametrize("delta", [1, -1])
def test_weight_count_moved_counts_as_failed(small_ops, delta):
    texts = {tuple(op["argv"]): _corrupt_weight_count(_run(op["argv"])[1], delta)
             for op in small_ops}
    assert _tally(small_ops, texts) == (len(small_ops), len(small_ops))


def test_wrong_minimum_distance_counts_as_failed(small_ops):
    analyze = [op for op in small_ops if op["kind"] == "analyze"]
    texts = {}
    for op in analyze:
        report = json.loads(_run(op["argv"])[1])
        report["payload"]["minimum_distance"] += 1
        texts[tuple(op["argv"])] = json.dumps(report)
    assert _tally(analyze, texts) == (len(analyze), len(analyze))


def test_flipped_byte_in_sweep_counts_as_failed(sweep_ops):
    sweep = [op for op in sweep_ops if op["kind"] == "sweep"]
    text = _run(sweep[0]["argv"])[1]
    for position in (0, len(text) // 3, len(text) // 2, len(text) - 2):
        flipped = text[:position] + chr(ord(text[position]) ^ 1) + text[position + 1:]
        assert _tally(sweep, {tuple(sweep[0]["argv"]): flipped}) == (1, 1)
    assert _tally(sweep, {tuple(sweep[0]["argv"]): text}) == (0, 1)


def test_wrong_gap_conclusion_counts_as_failed(sweep_ops):
    gaps = [op for op in sweep_ops if op["kind"] == "gaps"]
    texts = {}
    for op in gaps:
        report = json.loads(_run(op["argv"])[1])
        report["payload"]["conclusion"]["excluded_weights"].append(1000)
        texts[tuple(op["argv"])] = json.dumps(report)
    assert _tally(gaps, texts) == (len(gaps), len(gaps))


def test_nonzero_exit_and_raising_calls_count_as_failed(small_ops):
    texts = {tuple(op["argv"]): _run(op["argv"])[1] for op in small_ops}
    assert _tally(small_ops, texts) == (0, len(small_ops))
    assert _tally(small_ops, texts, code=1) == (len(small_ops), len(small_ops))
    assert _tally(small_ops, texts, code="raise") == (len(small_ops), len(small_ops))
