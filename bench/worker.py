"""Benchmark worker: one fresh interpreter, one thread, one closed-loop client.

    python3 bench/worker.py --manifest FILE --seconds S --trace 0|1

Imports evensets.cli from src/, reads the manifest and the input files it
names, and prints "ready".  With --seconds 0 it exits there (a set-up
launch).  Otherwise it calls evensets.cli.main(argv) in-process for each
operation of the manifest's cycle, in order, with stdout captured, repeating
whole cycles until --seconds have passed, and checks every output.  With
--trace 1 it runs half the time untraced and half traced (see spans.py).
The last stdout line is a JSON object with the measurements.

The benchmark's own modules are imported inside functions that run after
"ready", so that set-up time covers the program and not the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENUM_FUNCTIONS = ("gf2.weight_distribution", "gf2.minimum_distance", "gf2.classify_parity")
EXAMPLE_CODES = ("surfaces.kummer_code", "surfaces.togliatti_code",
                 "surfaces.cayley_code", "surfaces.togliatti_simplex_construction")
# Per-operation records, one array of integers per field, so the worker's own
# memory grows by only 48 bytes per operation and peak RSS reflects the program.
FIELDS = ("index", "start", "end", "busy", "ok", "bytes")


def run_phase(cli, ops: list[dict], seconds: float, speed, tracer=None) -> dict:
    """Run whole cycles of ops until seconds have passed; time and check each."""
    import checks

    records = {name: array("q") for name in FIELDS}
    verdicts: dict[tuple, str | None] = {}
    failures: list[str] = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    speed.start()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin(len(records["index"]), op["kind"])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                stolen = speed.stolen_ns
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a raising call is a failed operation
                    code = f"raised {type(exc).__name__}: {exc}"
                end = clock()
                busy = end - start - (speed.stolen_ns - stolen)
            raised = tracer.end() if tracer is not None else False
            text = out.getvalue()
            key = (i, code, text)
            if key not in verdicts:
                verdicts[key] = (code if isinstance(code, str)
                                 else checks.check(op, code, text))
            reason = verdicts[key] or ("a traced call raised" if raised else None)
            if reason is not None and len(failures) < 5:
                failures.append(f"{' '.join(op['argv'])}: {reason}; stderr: {err.getvalue()[-200:]}")
            values = (i, start, end, busy, reason is None, len(text.encode("utf-8")))
            for name, value in zip(FIELDS, values):
                records[name].append(value)
        if clock() >= deadline:
            break
    speed.stop()
    return {**records, "failures": failures}


def summarize(phase: dict, speed) -> dict:
    """End-to-end figures of one phase, calibrated and raw."""
    from timing import tail

    raw = phase["busy"]
    scaled = [busy * speed.factor(start, end)
              for start, end, busy in zip(phase["start"], phase["end"], raw)]
    ok = sum(phase["ok"])
    tail_ns, level, beyond = tail(scaled)
    return {
        "attempted": len(raw),
        "failed": len(raw) - ok,
        "throughput_ops_s": ok / (sum(scaled) / 1e9),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "tail_percentile": level,
        "tail_beyond": beyond,
        "raw_throughput_ops_s": ok / (sum(raw) / 1e9),
        "raw_latency_p50_ms": statistics.median(raw) / 1e6,
        "speed_factor": sum(scaled) / sum(raw),
        "failures": phase["failures"],
    }


def per_layer(tracer, phase: dict, ops: list[dict], speed) -> dict:
    """Per-layer metrics of the traced phase, with calibrated times."""
    # Spans include calibration samples taken inside them, so scale span
    # times by calibrated busy time over wall time.
    op_ns = sum(phase["end"]) - sum(phase["start"])
    factor = sum(busy * speed.factor(start, end) for start, end, busy
                 in zip(phase["start"], phase["end"], phase["busy"])) / op_ns
    n_ops = len(phase["index"])
    per_kind: dict[str, int] = {}
    for i in phase["index"]:
        per_kind[ops[i]["kind"]] = per_kind.get(ops[i]["kind"], 0) + 1

    def total(names, field, kinds=None):
        return sum(v[field] for (kind, name), v in tracer.totals.items()
                   if name in names and (kinds is None or kind in kinds))

    def count(key, kinds=None):
        return sum(v for (kind, name), v in tracer.counts.items()
                   if name == key and (kinds is None or kind in kinds))

    def per(value, kind=None):
        base = n_ops if kind is None else per_kind.get(kind, 0)
        return value / base if base else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(names, field=1, kind=None):
        kinds = None if kind is None else (kind,)
        return per(total(names, field, kinds) * factor / 1e6, kind)

    codewords = count("codewords")
    cli_names = {name for (_, name) in tracer.totals if name.startswith("cli.")}
    return {
        "gf2.ns_per_codeword": ratio(total(ENUM_FUNCTIONS, 1) * factor, codewords),
        "gf2.enum_share": ratio(total(ENUM_FUNCTIONS, 1), op_ns),
        "gf2.enum_passes": per(count("passes", ("analyze",)), "analyze"),
        "gf2.codewords": per(codewords),
        "gf2.parse_ms": ms(("gf2.parse_generator_matrix",)),
        "gf2.rref_ms": ms(("gf2._rref",)),
        "gf2.dual_ms": ms(("gf2.dual_code",)),
        "gf2.project_ms": ms(("gf2.project_onto_support",)),
        "gf2.self_orth_ms": ms(("gf2.is_self_orthogonal",)),
        "formulas.chi_calls": per(total(("formulas.chi",), 0, ("sweep",)), "sweep"),
        "formulas.ns_per_chi": ratio(total(("formulas.chi",), 1) * factor,
                                     total(("formulas.chi",), 0)),
        "certificates.derive_gaps_calls": per(
            total(("certificates.derive_gaps",), 0, ("sweep",)), "sweep"),
        "certificates.derive_gaps_distinct_ratio": per(
            count("certificates.derive_gaps.distinct_ratio", ("sweep",)), "sweep"),
        "certificates.check_step_calls": per(
            total(("certificates.check_step",), 0, ("sweep",)), "sweep"),
        "certificates.ns_per_check_step": ratio(
            total(("certificates.check_step",), 1) * factor,
            total(("certificates.check_step",), 0)),
        "verification.sweep_self_ms": ms(("verification.run_full_verification",), 2, "sweep"),
        "verification.checks": per(total(("verification._check",), 0, ("sweep",)), "sweep"),
        "surfaces.example_codes_ms": ms(EXAMPLE_CODES, 1, "sweep"),
        "cli.overhead_ms": ms(cli_names, 2),
        "cli.report_bytes": per(sum(phase["bytes"])),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter_ns()
    import evensets
    import evensets.cli as cli
    import_ms = (time.perf_counter_ns() - t0) / 1e6
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    for path in manifest["files"]:
        Path(path).read_bytes()
    print("ready", flush=True)
    if args.seconds == 0:
        return 0

    from spans import Tracer
    from timing import SpeedLog

    ops = manifest["ops"]
    speed = SpeedLog()
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(cli, ops, seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = summarize(untraced, speed)
    result["peak_rss_mb"] = peak_rss_mb
    if args.trace:
        tracer = Tracer()
        tracer.install(evensets)
        try:
            traced = run_phase(cli, ops, seconds, speed, tracer)
        finally:
            tracer.uninstall()
        traced_summary = summarize(traced, speed)
        layers = per_layer(tracer, traced, ops, speed)
        layers["cli.import_ms"] = import_ms
        layers["trace.overhead_share"] = (
            1 - traced_summary["throughput_ops_s"] / result["throughput_ops_s"])
        result["per_layer"] = layers
        result["traced"] = traced_summary
        result["attempted"] += traced_summary["attempted"]
        result["failed"] += traced_summary["failed"]
        result["failures"] += traced_summary["failures"]
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
