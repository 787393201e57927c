"""Tests for the benchmark's own measurement rules.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import math

import pytest

from perfbench.harness import (
    PassRecord,
    Tracer,
    account,
    due_latency,
    due_time,
    error_rate,
    layer_of,
    self_time_by,
    self_times,
    tail_percentile,
)


# -- tail percentile: at least ten samples beyond it ---------------------------


def _beyond(values, value):
    return sum(1 for v in values if v > value)


def test_tail_percentile_of_a_hundred_samples_is_p90():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90.0, 90)


@pytest.mark.parametrize("n", range(11, 400, 7))
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    percentile, value = tail_percentile(values)
    assert _beyond(values, value) >= 10
    higher = percentile + 1
    rank = math.ceil(higher * n / 100)
    assert higher > 100 or n - rank < 10


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))


def test_tail_percentile_with_too_few_samples_reports_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_percentile(list(range(10))) == (100.0, 9)


def test_tail_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- due-time latency -------------------------------------------------------------


def test_due_time_of_the_last_sample_of_one_second_at_eight_times_real_time():
    assert due_time(100.0, 15999, 16000, 8.0) == pytest.approx(100.125)


def test_due_latency_counts_from_the_due_time_not_the_arrival():
    # The last sample was due at t0 + 0.125 s; an event emitted at
    # t0 + 0.2 s is 75 ms late however late the sample itself arrived.
    assert due_latency(100.0, 15999, 100.2, 16000, 8.0) == pytest.approx(0.075)


def test_a_stall_is_charged_to_every_event_queued_behind_it():
    # Two events due 10 ms apart, both emitted after a stall ending at 1.0 s.
    first = due_latency(0.0, 799, 1.0, 16000, 5.0)  # due at 0.01 s
    second = due_latency(0.0, 1599, 1.0, 16000, 5.0)  # due at 0.02 s
    assert first == pytest.approx(0.99)
    assert second == pytest.approx(0.98)


# -- self time: span minus the part its children cover -------------------------


def test_self_time_subtracts_children():
    spans = [
        ["parent", 0.0, 10.0, -1, "pass-0"],
        ["child", 1.0, 3.0, 0, "pass-0"],
        ["child", 5.0, 6.0, 0, "pass-0"],
    ]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ["parent", 0.0, 10.0, -1, "pass-0"],
        ["a", 2.0, 6.0, 0, "pass-0"],
        ["b", 4.0, 8.0, 0, "pass-0"],  # overlaps a: union is 2..8
        ["c", 9.0, 12.0, 0, "pass-0"],  # runs past the parent: 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_grandchildren_are_charged_to_their_own_parent():
    spans = [
        ["meso.query", 0.0, 4.0, -1, "pass-0"],
        ["store.reader.iter", 1.0, 3.0, 0, "pass-0"],
        ["x", 1.5, 2.5, 1, "pass-0"],
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.0, 1.0])


def test_self_time_by_layer_and_run():
    layers = ("jobs.ledger", "core.trigger")
    spans = [
        ["jobs.ledger.mark_done", 0.0, 5.0, -1, "pass-0"],
        ["jobs.ledger.save", 1.0, 4.0, 0, "pass-0"],
        ["core.trigger", 6.0, 7.0, -1, "pass-0"],
        ["core.trigger", 0.0, 9.0, -1, "setup-0"],
    ]
    totals = self_time_by(spans, lambda name: layer_of(name, layers), runs={"pass-0"})
    assert totals == pytest.approx({"jobs.ledger": 5.0, "core.trigger": 1.0})


def test_tracer_records_nesting_and_restores_nothing_it_did_not_wrap():
    tracer = Tracer()
    tracer.run = "pass-3"

    def inner():
        return 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner() + 1)
    assert traced_outer() == 2
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert {span[4] for span in tracer.spans} == {"pass-3"}
    own = self_times(tracer.spans)
    duration = tracer.spans[0][2] - tracer.spans[0][1]
    assert own[0] + own[1] == pytest.approx(duration)


def test_tracer_times_each_step_of_an_iterator():
    tracer = Tracer()
    seen = []
    items = list(tracer.wrap_iterator("source", iter([1, 2, 3]), after=seen.append))
    assert items == [1, 2, 3] and seen == [1, 2, 3]
    assert [span[0] for span in tracer.spans] == ["source"] * 4  # three items and the end


# -- error_rate accounting --------------------------------------------------------


def test_error_rate_is_failed_over_attempted():
    assert error_rate(0, 40) == 0.0
    assert error_rate(3, 12) == 0.25


@pytest.mark.parametrize("failed, attempted", [(0, 0), (-1, 5), (6, 5)])
def test_error_rate_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        error_rate(failed, attempted)


def test_account_counts_a_raising_pass_as_a_whole_pass_of_failures():
    records = [
        PassRecord(wall=1.0, items=10),
        PassRecord(wall=float("inf"), items=0, error="boom"),
        PassRecord(wall=1.0, items=10, failed=2),
    ]
    assert account(records, check_failures=0) == (30, 12)


def test_account_adds_one_failure_per_failed_check_up_to_attempted():
    records = [PassRecord(wall=1.0, items=3)]
    assert account(records, check_failures=2) == (3, 2)
    assert account(records, check_failures=7) == (3, 3)
