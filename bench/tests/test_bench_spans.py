import contextlib
import io

import pytest

import evensets
import evensets.cli as cli
from evensets import formulas, gf2
import inputs
import worker
from spans import Tracer
from timing import SpeedLog


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install(evensets)
    yield tracer
    tracer.uninstall()


def _op(tracer, op_id, kind, argv):
    tracer.begin(op_id, kind)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer.end()


def test_uninstall_restores_the_program():
    originals = (gf2.weight_distribution, gf2._rref, formulas.chi, cli.main)
    tracer = Tracer()
    tracer.install(evensets)
    assert gf2.weight_distribution is not originals[0]
    tracer.uninstall()
    assert (gf2.weight_distribution, gf2._rref, formulas.chi, cli.main) == originals


def test_verify_paper_counts(tracer):
    assert not _op(tracer, 0, "sweep", ["verify", "paper", "--json"])
    calls = {name: v[0] for (kind, name), v in tracer.totals.items()}
    assert calls["formulas.chi"] == 960
    assert calls["certificates.derive_gaps"] == 34
    assert calls["certificates.check_step"] == 272
    assert tracer.counts[("sweep", "certificates.derive_gaps.distinct_ratio")] == 11 / 34


def test_analyze_makes_three_full_passes_on_an_even_code(tracer, tmp_path):
    ops = inputs.build("codes-small", 2, tmp_path)
    even = next(op for op in ops if op["kind"] == "analyze"
                and op["expect"]["parity_class"] == "doubly-even")
    assert not _op(tracer, 0, "analyze", even["argv"])
    assert tracer.counts[("analyze", "passes")] == 3
    assert tracer.counts[("analyze", "codewords")] == 3 * 2 ** even["expect"]["k"]


def test_self_time_excludes_children(tracer):
    _op(tracer, 0, "gaps", ["gaps", "--degree", "6", "--parity", "weak", "--json"])
    spans = tracer.kept[0][2]
    root = spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    total_self = sum(v[2] for v in tracer.totals.values())
    assert total_self == root[2] - root[1]
    for (_, name), (calls, inclusive, self_ns) in tracer.totals.items():
        assert 0 <= self_ns <= inclusive, name


def test_traced_phase_reports_every_layer_metric(tmp_path):
    import run

    ops = inputs.build("paper-sweep", 1, tmp_path)
    speed = SpeedLog()
    tracer = Tracer()
    tracer.install(evensets)
    try:
        phase = worker.run_phase(cli, ops, 0, speed, tracer)
    finally:
        tracer.uninstall()
    layers = worker.per_layer(tracer, phase, ops, speed)
    assert set(layers) | {"cli.import_ms", "trace.overhead_share"} == set(run.PER_LAYER)
    assert layers["formulas.chi_calls"] == 960
    assert layers["certificates.derive_gaps_calls"] == 34
    assert layers["verification.checks"] > 0
    assert all(phase["ok"])
