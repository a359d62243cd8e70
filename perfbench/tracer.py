"""Spans and counts recorded around functions of another package.

The benchmark measures the ``ddm`` package from outside: it replaces a
function where its caller looks it up (a module global such as
``ddm.training.adam_step`` or a class attribute such as
``ddm.attention.MapSqueeze.forward``) with a wrapper that records a span,
and puts the original back afterwards.  Spans stay in memory as plain
lists and are written out once, when the run ends.

The package under test runs single-threaded (every call uses the library
default ``workers=1``), so one stack of open spans is enough to give each
span its parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# span fields, in the order kept in ``Tracer.spans``
NAME, START, END, PARENT, OP = range(5)
SETUP = "setup"


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, name: str, make_wrapper) -> bool:
        """Set ``owner.name`` to ``make_wrapper(original)``.

        Returns False, and remembers the target in ``missing``, when the
        owner has no such attribute, so a renamed function leaves its metrics
        at zero instead of stopping the benchmark.
        """
        if name not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return False
        original = vars(owner)[name]
        setattr(owner, name, make_wrapper(original))
        self._saved.append((owner, name, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """In-memory span recorder with per-name counters.

    ``enabled`` switches recording on and off without unwrapping, so one run
    can time untraced and traced operations with the same wrappers in place.
    ``op`` labels the spans opened next: the index of the running operation,
    ``SETUP`` while the workload sets up, or None between operations.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.enabled = True
        self.op: int | str | None = None
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def add(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name`` on every call.

        ``count(tracer, args, kwargs, result)`` runs after the span closes,
        so work done to compute counts is not charged to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, patches: Patches, owner, attr: str, name: str,
              count=None) -> bool:
        return patches.replace(
            owner, attr, lambda fn: self.wrap(name, fn, count))

    # -- derived quantities ---------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part covered by its child spans."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(index)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span[START]
            for child in sorted(children[index],
                                key=lambda i: self.spans[i][START]):
                lo = max(self.spans[child][START], cursor)
                hi = min(self.spans[child][END], span[END])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span[END] - span[START] - covered)
        return out

    def totals(self, keep=None) -> tuple[dict[str, float], dict[str, float],
                                         dict[str, int]]:
        """(total time, total self time, call count) per span name.

        ``keep(span)`` selects the spans to add up; all by default.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, self_time in zip(self.spans, self.self_times()):
            if keep is not None and not keep(span):
                continue
            total[span[NAME]] += span[END] - span[START]
            own[span[NAME]] += self_time
            calls[span[NAME]] += 1
        return total, own, calls

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def write(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, op, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "op": s[OP],
                    "run": self.run_id}) + "\n")
