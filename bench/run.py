"""The evensets benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is enum-large, codes-small,
paper-sweep, or all (each in turn).  The driver writes the workload's seeded
inputs under .bench_work/, launches fresh worker interpreters (bench/worker.py)
to time set-up, then one worker that runs the closed loop for S seconds, and
prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced run.  It exits non-zero without a result when
the program cannot be run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
from timing import CAL_REF_NS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170
SETUP_LAUNCHES = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gf2.ns_per_codeword": "ns",
    "gf2.enum_share": "ratio",
    "gf2.enum_passes": "count",
    "gf2.codewords": "count",
    "gf2.parse_ms": "ms",
    "gf2.rref_ms": "ms",
    "gf2.dual_ms": "ms",
    "gf2.project_ms": "ms",
    "gf2.self_orth_ms": "ms",
    "formulas.chi_calls": "count",
    "formulas.ns_per_chi": "ns",
    "certificates.derive_gaps_calls": "count",
    "certificates.derive_gaps_distinct_ratio": "ratio",
    "certificates.check_step_calls": "count",
    "certificates.ns_per_check_step": "ns",
    "verification.sweep_self_ms": "ms",
    "verification.checks": "count",
    "surfaces.example_codes_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.report_bytes": "bytes",
    "cli.import_ms": "ms",
    "trace.overhead_share": "ratio",
}


class BenchError(RuntimeError):
    """The program or a worker could not be run; no result is printed."""


class Worker:
    """One worker interpreter, killed if it outlives the run's time limit."""

    def __init__(self, manifest: Path, seconds: float, trace: int, deadline: float,
                 spans_out: Path | None = None):
        argv = [sys.executable, str(ROOT / "bench" / "worker.py"),
                "--manifest", str(manifest), "--seconds", str(seconds),
                "--trace", str(trace)]
        if spans_out is not None:
            argv += ["--spans-out", str(spans_out)]
        self.started = time.perf_counter_ns()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(max(deadline - time.monotonic(), 1), self.proc.kill)
        self._watchdog.start()

    def ready(self) -> int:
        """Block until the worker reports ready; return ns since launch."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (exit {self.proc.wait()})")
        return time.perf_counter_ns() - self.started

    def finish(self) -> str:
        """Wait for the worker to exit; return the rest of its stdout."""
        rest = self.proc.stdout.read()
        if self.proc.wait() != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return rest

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def launch(manifest: Path, deadline: float) -> int:
    """Launch a worker that exits when ready; return ns from launch to ready."""
    worker = Worker(manifest, 0, 0, deadline)
    try:
        elapsed = worker.ready()
        worker.finish()
    finally:
        worker.close()
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK)).relative_to(ROOT)
    try:
        ops = inputs.build(workload, seed, run_dir)
        files = sorted(str(path) for path in run_dir.glob("*.txt"))
        manifest = run_dir / "manifest.json"
        manifest.write_text(json.dumps({"workload": workload, "ops": ops, "files": files}),
                            encoding="utf-8")
        # A first launch compiles bytecode; users pay that once, not per run.
        launch(manifest, deadline)
        # Set-up launches are wall time, not calibrated: their times did not
        # follow the calibration loop.  Half run before the timed run and half
        # after it, so the median does not rest on one moment of the machine.
        before = [launch(manifest, deadline) for _ in range(SETUP_LAUNCHES // 2 if trace == 0 else 0)]
        spans_out = WORK / f"spans-{workload}.jsonl" if trace else None
        worker = Worker(manifest, seconds, trace, deadline, spans_out)
        try:
            worker.ready()
            lines = worker.finish().splitlines()
        finally:
            worker.close()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        if trace == 0:
            after = [launch(manifest, deadline) for _ in range(SETUP_LAUNCHES - len(before))]
            result["setup_s"] = statistics.median(before + after) / 1e9
        return result
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)


def git_sha() -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["per_layer"][name], "unit": unit}
                for name, unit in PER_LAYER.items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def print_summary(workload: str, result: dict, trace: int) -> None:
    print(f"workload {workload}: {result['attempted']} operations, "
          f"speed factor {result['speed_factor']:.3f} (calibrated / raw wall time)")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:42s} {result['per_layer'][name]:14.6g} {unit}")
        print(f"  traced throughput {result['traced']['throughput_ops_s']:.6g} 1/s, "
              f"untraced {result['throughput_ops_s']:.6g} 1/s")
    else:
        notes = {
            "setup_s": f"median of {SETUP_LAUNCHES} launches",
            "throughput_ops_s": f"raw {result['raw_throughput_ops_s']:.6g} 1/s",
            "latency_p50_ms": f"raw {result['raw_latency_p50_ms']:.6g} ms",
            "latency_tail_ms": (f"p{result['tail_percentile']}, {result['attempted']} samples, "
                                f"{result['tail_beyond']} beyond"),
        }
        for name, unit in END_TO_END.items():
            print(f"  {name:18s} {result[name]:14.6g} {unit:4s} {notes.get(name, '')}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ops_ratio':18s} {ratio:14.6g} ratio ({result['failed']} of "
          f"{result['attempted']})")
    for failure in result["failures"]:
        print(f"  failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the evensets benchmark.")
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the stamped results here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evensets" / "cli.py").is_file():
        print(f"error: no evensets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    stamp = {"python": platform.python_version(), "git_sha": git_sha(),
             "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "calibration_ref_ns": CAL_REF_NS}
    print("evensets benchmark: " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace, deadline)
            print_summary(workload, results[workload], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out is not None:
        args.out.write_text(json.dumps({"stamp": stamp, "results": results}, indent=1) + "\n",
                            encoding="utf-8")
    if len(workloads) == 1:
        metrics = metrics_of(results[workloads[0]], args.trace)
    else:
        metrics = {f"{w}.{name}": value for w in workloads
                   for name, value in metrics_of(results[w], args.trace).items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
