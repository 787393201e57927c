#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

The run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), repeats the workload's pass for ``--seconds``, then checks the
outputs.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half with spans around every layer call, and
prints the per-layer breakdown plus the tracing overhead.  Human-readable
lines come first; the last line is one JSON object.  Spans and a full
record of the run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

sys.path.insert(0, str(ROOT))

from perfbench import harness, layers  # noqa: E402 - needs the checkout on the path


def _import_library() -> None:
    """Import the library from this checkout's ``src/``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    found = Path(repro.__file__).resolve().parent
    if found != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {found}, not from this checkout")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tracing(tracer):
    return layers.traced(tracer) if tracer is not None else contextlib.nullcontext()


def _set_up(workload, seed: int, workdir: Path, tracer):
    """Set the workload up ``SETUP_REPEATS`` times: the last state, each
    set-up's time, and the reference loop's time around each."""
    times, machine_ms = [], []
    before = harness.reference_loop_ms(3)
    for repeat in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.run = f"setup-{repeat}"
        with _tracing(tracer):
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            times.append(time.perf_counter() - start)
        after = harness.reference_loop_ms(3)
        machine_ms.append((before + after) / 2)
        before = after
    return state, times, machine_ms


def _guarded(run_pass, state, tracer=None):
    """A pass function that records a raising pass as failed instead of dying."""

    def run(index):
        if tracer is not None:
            tracer.run = f"pass-{index}"
        try:
            return run_pass(state, index)
        except Exception:  # noqa: BLE001 - a failed operation is reported, not fatal
            traceback.print_exc()
            return harness.PassRecord(wall=float("inf"), items=0, error=traceback.format_exc(limit=1))

    return run


def _measure(workload, state, seconds: float, tracer):
    """Untraced passes for ``seconds`` or, with a tracer, untraced passes for
    half of it and traced passes for the other half."""
    if tracer is None:
        return harness.run_passes(_guarded(workload.run_pass, state), seconds), []
    untraced = harness.run_passes(_guarded(workload.run_pass, state), seconds / 2)
    tracer.counters.clear()
    with _tracing(tracer):
        traced = harness.run_passes(
            _guarded(workload.run_pass, state, tracer), seconds / 2, len(untraced)
        )
    return untraced, traced


def _end_to_end(records, setup_times, setup_ms, peak_rss: float, open_loop: bool) -> dict:
    """End-to-end metrics of a run's passes, plus printed-only notes.

    ``setup_s`` and the times of closed-loop workloads are at reference
    speed: each pass's wall time and latencies are scaled by the speed
    factor of the reference loop timed around that pass (see
    :func:`perfbench.harness.speed_factor`).  An open loop's pace is set by
    its schedule, so its times are as measured.  The notes give every time
    as measured.
    """
    factors = [
        1.0 if open_loop else harness.speed_factor([record.machine_ms]) for record in records
    ]
    wall = statistics.mean(record.wall * f for record, f in zip(records, factors))
    latencies = [value * f for record, f in zip(records, factors) for value in record.latencies]
    raw_latencies = [value for record in records for value in record.latencies]
    if not latencies:
        raise SystemExit("perfbench: the workload produced no latency samples")
    tail_pct, tail = harness.tail_percentile(latencies)
    p50 = statistics.median(latencies)
    items = records[0].items
    setup = [t * harness.speed_factor([ms]) for t, ms in zip(setup_times, setup_ms)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes = {
        "passes": len(records),
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "speed_factor": harness.speed_factor(record.machine_ms for record in records),
        "setup_s_as_measured": statistics.median(setup_times),
        "wall_s_as_measured": statistics.mean(record.wall for record in records),
        "latency_p50_ms_as_measured": 1000 * statistics.median(raw_latencies),
        "latency_tail_ms_as_measured": 1000 * harness.tail_percentile(raw_latencies)[1],
    }
    if records[0].audio_s:
        notes["audio_x"] = records[0].audio_s / wall
    if "ledger_wall" in records[0].extra:
        # Recordings settled durably per second, and replayed per second.
        ledger = statistics.mean(r.extra["ledger_wall"] * f for r, f in zip(records, factors))
        replay = statistics.mean(r.extra["replay_wall"] * f for r, f in zip(records, factors))
        metrics["items_per_s"] = (items / ledger, "1/s")
        notes["replay_items_per_s"] = records[0].extra["replayed"] / replay
    if "late" in records[0].extra:
        late = [value for record in records for value in record.extra["late"]]
        notes["generator_late_p50_ms"] = 1000 * statistics.median(late)
        notes["generator_late_max_ms"] = 1000 * max(late)
    return {"metrics": metrics, "notes": notes}


def _per_layer(tracer, passes, traced, summary, traced_summary) -> dict:
    """Per-layer metrics of the traced passes, plus the tracing overhead."""
    setups = [f"setup-{repeat}" for repeat in range(SETUP_REPEATS)]
    metrics = layers.layer_metrics(tracer, passes, setups)
    wall = statistics.mean(record.wall for record in traced)
    wait = metrics["pipeline.sources.wait_s"][0]
    metrics["station.busy_share"] = (1 - wait / wall, "ratio")
    late = summary["notes"].get("generator_late_max_ms", 0.0)
    metrics["station.generator_late_max_ms"] = (late, "ms")
    for name in ("wall_s", "items_per_s", "latency_p50_ms", "latency_tail_ms"):
        value, unit = traced_summary["metrics"][name]
        metrics[f"trace.overhead_{name}"] = (value - summary["metrics"][name][0], unit)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    manifest = json.loads((HERE / "manifest.json").read_text())
    recorded = manifest["digests"].get(workload.NAME) if args.seed == manifest["default_seed"] else None
    workdir = OUT / f"work-{workload.NAME}-{os.getpid()}"
    tracer = harness.Tracer() if args.trace else None

    machine = harness.machine_record()
    machine["ref_loop_before_ms"] = harness.reference_loop_ms()
    try:
        state, setup_times, setup_ms = _set_up(workload, args.seed, workdir, tracer)
        untraced, traced = _measure(workload, state, args.seconds, tracer)
        peak_rss = harness.peak_rss_mb()  # before the checks, which are not the workload
        every = untraced + traced
        good = [record for record in every if record.error is None]
        if not [record for record in untraced if record.error is None] or (traced and not good):
            raise SystemExit("perfbench: every pass failed")
        try:
            failures = workload.check(state, good)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
            traceback.print_exc()
            failures = [f"check raised {type(exc).__name__}: {exc}"]
        digest = workload.digest(good)
        if recorded is not None and digest != recorded:
            failures.append(f"output digest {digest} differs from the one recorded for seed {args.seed}")
        attempted, failed = harness.account(every, len(failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["ref_loop_after_ms"] = harness.reference_loop_ms()

    summary = _end_to_end(
        [r for r in untraced if r.error is None], setup_times, setup_ms, peak_rss,
        workload.OPEN_LOOP,
    )
    report = {
        "workload": workload.NAME, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_times_s": setup_times,
        "pass_walls_s": [record.wall for record in every], "checks_failed": failures,
        "output_digest": digest, "error_rate": harness.error_rate(failed, attempted),
        **summary,
    }
    metrics = summary["metrics"]
    if tracer is not None:
        passes = [f"pass-{index}" for index in range(len(untraced), len(every))]
        traced_good = [record for record in traced if record.error is None]
        traced_summary = _end_to_end(
            traced_good, setup_times, setup_ms, peak_rss, workload.OPEN_LOOP
        )
        metrics = _per_layer(tracer, passes, traced_good, summary, traced_summary)
        report["layer_self_s_per_pass"] = {
            layer: total / len(passes)
            for layer, total in layers.layer_self_times(tracer, passes).items()
        }
        report["per_layer"] = metrics
    _write(report, tracer)

    print(f"perfbench {workload.NAME} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + " ".join(f"{key}={value}" for key, value in machine.items()))
    for key, value in summary["notes"].items():
        print(f"note {key} = {value:.6g}" if isinstance(value, float) else f"note {key} = {value}")
    print(f"note output_digest = {digest}")
    print(f"note error_rate = {report['error_rate']:.6g} ({failed} failed of {attempted} attempted)")
    if tracer is not None:
        print("self time per pass, by layer (largest first):")
        for layer, seconds in report["layer_self_s_per_pass"].items():
            print(f"  {layer:<20} {seconds:10.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks: {'all passed' if not failures else f'{len(failures)} failed'}")
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _write(report: dict, tracer) -> None:
    """Keep the full record of the run, and the spans of a traced run."""
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
