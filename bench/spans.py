"""Span tracing of the evensets modules from outside the program.

Tracer.install() replaces functions on the evensets modules with timing
wrappers.  The program looks its own functions up as module attributes at
call time (`gf2.weight_distribution(...)`, `formulas.chi(...)`, and module
globals such as `_rref` inside gf2), so calls between the program's own
functions are traced as well as calls from the benchmark.  No program file
changes.

Each traced call records a span [name, start_ns, end_ns, parent, raised],
where parent is the index of the enclosing span of the same operation.  At
the end of an operation its spans are folded into totals per (operation
kind, function): calls, inclusive time and self time (duration minus the
time covered by child spans).  The spans of the first KEEP_OPS operations
are also kept, with their operation id, so they can be written out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

KEEP_OPS = 50

# Private functions traced in addition to each module's public functions.
EXTRA = {"gf2": ("_rref",), "verification": ("_check",)}
# Generators: counted per yielded item and per full pass, not timed.
GENERATORS = {"gf2": ("enumerate_codewords",)}
# Functions whose distinct argument tuples are counted per operation.
RECORD_ARGS = frozenset({"certificates.derive_gaps"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._args: list[tuple] = []
        self.op_id = -1
        self.kind = ""
        # (kind, name) -> [calls, inclusive ns, self ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (kind, counter) -> value; counters: codewords, passes, distinct args
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.kept: list[tuple] = []

    def install(self, package) -> None:
        """Wrap the functions of every evensets module."""
        for layer in ("gf2", "formulas", "surfaces", "certificates", "verification", "cli"):
            module = getattr(package, layer)
            names = [n for n, v in vars(module).items()
                     if not n.startswith("_") and callable(v) and not isinstance(v, type)
                     and getattr(v, "__module__", None) == module.__name__]
            for name in names + list(EXTRA.get(layer, ())):
                if name in GENERATORS.get(layer, ()):
                    self._patch(module, name, self._count_generator(getattr(module, name)))
                else:
                    self._patch(module, name, self._timed(f"{layer}.{name}", getattr(module, name)))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _patch(self, module, name, wrapper) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _timed(self, name: str, fn):
        spans, stack, args_log = self.spans, self._stack, self._args
        clock = time.perf_counter_ns
        record_args = name in RECORD_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            if record_args:
                args_log.append((name, args, tuple(sorted(kwargs.items()))))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _count_generator(self, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind, yielded, finished = tracer.kind, 0, False
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
                finished = True
            finally:
                counts[(kind, "codewords")] += yielded
                counts[(kind, "passes")] += finished
        return traced

    def begin(self, op_id: int, kind: str) -> None:
        self.op_id, self.kind = op_id, kind
        self.spans.clear()
        self._args.clear()
        self._stack.clear()

    def end(self) -> bool:
        """Fold the operation's spans into the totals; True if a call raised."""
        spans, kind = self.spans, self.kind
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        raised = False
        for (name, start, end, _, failed), children in zip(spans, child_ns):
            total = self.totals[(kind, name)]
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - children
            raised = raised or failed
        for name in {entry[0] for entry in self._args}:
            calls = [entry for entry in self._args if entry[0] == name]
            self.counts[(kind, f"{name}.distinct_ratio")] += len(set(calls)) / len(calls)
        if len(self.kept) < KEEP_OPS:
            self.kept.append((self.op_id, kind, [list(s) for s in spans]))
        return raised

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent, op id."""
        with path.open("w", encoding="utf-8") as out:
            for op_id, kind, spans in self.kept:
                for name, start, end, parent, raised in spans:
                    out.write(json.dumps({"op": op_id, "kind": kind, "name": name,
                                          "start_ns": start, "end_ns": end,
                                          "parent": parent, "raised": raised}) + "\n")
