"""Measurement helpers shared by every workload.

Everything here is independent of the library under test: the timing
statistics, the span tracer, the open-loop latency rule, the failure
accounting and the machine record.  ``perfbench/tests`` covers the rules.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so one stray sample cannot set it.
MIN_BEYOND = 10

#: :func:`reference_loop_ms` on the reference machine (a 2-core 2.1 GHz VM
#: in a fast phase); closed-loop times are gated at this speed.
REFERENCE_MS = 8.0


# -- statistics ----------------------------------------------------------------


def tail_percentile(values, beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``.  Ranks are nearest-rank: the p-th
    percentile of n sorted samples is the sample at rank ``ceil(p * n / 100)``,
    and the samples beyond it are those ranked after it.  With ``beyond`` or
    fewer samples no percentile qualifies; the maximum is returned as
    percentile 100 so the caller can still report (and flag) it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, ordered[-1]
    percentile = math.floor(100 * (n - beyond) / n)
    while percentile > 0:
        rank = math.ceil(percentile * n / 100)
        if n - rank >= beyond:
            return float(percentile), ordered[rank - 1]
        percentile -= 1
    return 0.0, ordered[0]


def due_time(t0: float, sample_index: int, sample_rate: int, speed: float) -> float:
    """When an open-loop source started at ``t0``, playing ``speed`` times
    faster than real time, has produced sample ``sample_index``."""
    return t0 + (sample_index + 1) / (sample_rate * speed)


def due_latency(
    t0: float, last_sample: int, emitted_at: float, sample_rate: int, speed: float
) -> float:
    """Seconds from the due time of an event's last sample to its emission.

    Timing from the due time rather than from when the sample actually
    arrived charges a stall to every event queued behind it.
    """
    return emitted_at - due_time(t0, last_sample, sample_rate, speed)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (a failed check is a failure)."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted


def account(records, check_failures: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations over a run's passes and checks.

    A pass that raised counts as many failed operations as a completed
    pass attempts; each failed correctness check counts one more failure,
    up to the number attempted.
    """
    done = [record.items for record in records if record.error is None]
    per_pass = max(done, default=1)
    attempted = sum(record.items if record.error is None else per_pass for record in records)
    failed = sum(record.failed if record.error is None else per_pass for record in records)
    return attempted, min(failed + check_failures, attempted)


# -- passes --------------------------------------------------------------------


@dataclass
class PassRecord:
    """One repetition of a workload's unit of work; every pass of a run
    does identical work on identical inputs."""

    wall: float
    #: Operations attempted in the pass (recordings, folds, items, chunks).
    items: int
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    audio_s: float = 0.0
    #: Named sub-phase timings and counts a workload reports on its own.
    extra: dict = field(default_factory=dict)
    #: What the pass produced, kept for the correctness checks.
    output: object = None
    #: Why the pass raised, if it did; its operations then all count as failed.
    error: str | None = None
    #: The reference loop's time around the pass: the machine's speed then.
    machine_ms: float = REFERENCE_MS


def run_passes(run_pass, seconds: float, first_index: int = 0) -> list[PassRecord]:
    """Repeat ``run_pass(index)`` for about ``seconds`` (at least once).

    The reference loop is timed between passes, so each pass carries the
    machine's speed around it.  A pass starts only if it is expected to
    end less than half a pass after the deadline, so long passes do not
    overrun it by a whole pass.
    """
    records: list[PassRecord] = []
    start = time.perf_counter()
    before = reference_loop_ms(3)
    while True:
        record = run_pass(first_index + len(records))
        after = reference_loop_ms(3)
        record.machine_ms = (before + after) / 2
        before = after
        records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(records) >= seconds:
            return records


def speed_factor(machine_ms) -> float:
    """``REFERENCE_MS`` over the mean of reference-loop times.

    A shared 2-core 2.1 GHz VM's speed drifts by up to 1.6x within a
    minute.  A closed loop's time multiplied by this factor is its time at
    reference speed, which repeats across runs more closely: over ten
    ledgered runs in a drifting stretch, IQR/median of the pass time was
    0.31 as measured and 0.17 scaled, and the median moved +21 % against
    +9 % from the set before.

    The loop runs in this process, between passes.  So a regression that
    slows the whole interpreter and outlasts a pass (a leftover thread
    holding the GIL, a heartbeat thread, a trace hook left installed)
    slows the loop too and is divided out; the as-measured notes and the
    open-loop station, which is gated as measured, still show it.  The same
    loop timed in a child process did not track pass times at all
    (correlation -0.01 against 0.63 in this process).
    """
    return REFERENCE_MS / statistics.mean(machine_ms)


# -- tracing -------------------------------------------------------------------


class Tracer:
    """Spans and counters recorded in memory around calls into the library.

    A span is ``[name, start, end, parent, run]``: ``parent`` indexes the
    enclosing span of the same thread (-1 at top level) and ``run`` names
    the pass or setup it belongs to.  Nothing is written until
    :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run = "setup-0"
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span of this thread, if any."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` counts outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Counters see whether this call is nested in the same layer
            # (e.g. push_block over push_fragments) before the span opens.
            outer = self.parent_name()
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, outer)
            return result

        return traced

    def wrap_iterator(self, name: str, iterator, after=None):
        """Yield from ``iterator``, timing each step inside a span."""
        while True:
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            if after is not None:
                after(item)
            yield item

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, run) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_of(name: str, layers) -> str:
    """The longest layer name that ``name`` equals or extends."""
    best = ""
    for layer in layers:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best or name


def self_time_by(spans, key, runs=None) -> dict[str, float]:
    """Sum span self time by ``key(name)``, over spans whose run is in ``runs``."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if runs is not None and span[4] not in runs:
            continue
        label = key(span[0])
        totals[label] = totals.get(label, 0.0) + own
    return totals


# -- machine record ------------------------------------------------------------


def reference_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a probe of machine speed
    that no change to the library can move."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def machine_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
