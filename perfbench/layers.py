"""Spans around each layer's public calls, installed from outside the library.

:func:`traced` swaps the listed methods for timed wrappers for the
duration of a ``with`` block and restores the originals afterwards; no
file of the library changes.  Counters are updated after a span closes,
so counting is not charged to the layer.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .harness import Tracer, layer_of, self_time_by

#: The layers the breakdown reports, named after the library's modules.
LAYERS = (
    "core.anomaly",
    "core.trigger",
    "core.cutter",
    "classify.features",
    "meso",
    "pipeline.sources",
    "jobs.ledger",
    "store.writer",
    "store.reader",
)


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call."""
    from repro.core.trigger import AdaptiveTrigger
    from repro.jobs.ledger import FAILED, QUARANTINED, Ledger
    from repro.meso.classifier import MesoClassifier
    from repro.pipeline import builder, stages, streaming
    from repro.pipeline.results import EnsembleEvent, FeaturesEvent
    from repro.pipeline.sources import SocketChunkSource
    from repro.store.reader import StoreReader
    from repro.store.schema import MANIFEST_NAME, SHARD_DIR
    from repro.store.writer import StoreWriter

    count = tracer.counters
    patches = []

    def wrap(owner, attribute, name, after=None):
        original = getattr(owner, attribute)
        patches.append((owner, attribute, tracer.wrap(name, original, after)))

    # core.anomaly: the streaming scorer, and the batch scorer exactly as
    # the extract stage looks it up (global normalisation).
    def scored(result, args, outer):
        count["core.anomaly.samples"] += len(result)

    wrap(streaming.ChunkedAnomalyScorer, "process", "core.anomaly", scored)
    wrap(stages, "sax_anomaly_scores", "core.anomaly", scored)

    # core.trigger: whole-block apply, never the per-sample update.
    def triggered(result, args, outer):
        count["core.trigger.samples"] += result.size
        count["core.trigger.high"] += int(np.count_nonzero(result))

    wrap(AdaptiveTrigger, "apply", "core.trigger", triggered)

    # core.cutter: push_block reassembles over push_fragments, so only the
    # outermost cutter call of a nest counts.
    def outermost(outer):
        return outer is None or layer_of(outer, LAYERS) != "core.cutter"

    def cut_ensembles(result, args, outer):
        if outermost(outer):
            count["core.cutter.ensembles"] += len(result)
            count["core.cutter.retained"] += sum(e.samples.size for e in result)

    def cut_fragments(result, args, outer):
        if outermost(outer):
            closes = [f for f in result if isinstance(f, streaming.FragmentClose)]
            count["core.cutter.ensembles"] += len(closes)
            count["core.cutter.retained"] += sum(f.end - f.start for f in closes)

    def pushed(after):
        def counted(result, args, outer):
            if outermost(outer):
                count["core.cutter.pushed"] += np.asarray(args[1]).size
            after(result, args, outer)

        return counted

    cutter = streaming.ChunkedCutter
    wrap(cutter, "push_block", "core.cutter", pushed(cut_ensembles))
    wrap(cutter, "push_fragments", "core.cutter", pushed(cut_fragments))
    wrap(cutter, "flush", "core.cutter", cut_ensembles)
    wrap(cutter, "flush_fragments", "core.cutter", cut_fragments)

    # classify.features: each pattern once — the partial per-pattern events
    # of the fragment path, or the buffered path's whole-ensemble event.
    def featured(result, args, outer):
        buffered = isinstance(args[1], EnsembleEvent)
        for event in result:
            if isinstance(event, FeaturesEvent) and (buffered or event.ensemble is None):
                count["classify.features.patterns"] += len(event.patterns)

    wrap(stages.FeatureStage, "process", "classify.features", featured)

    # meso: training and queries.
    def fitted(result, args, outer):
        count["meso.fit_calls"] += 1
        if args[0].spheres[result].count == 1:
            count["meso.new_spheres"] += 1

    def queried(result, args, outer):
        count["meso.queries"] += 1

    def batch_queried(result, args, outer):
        count["meso.queries"] += len(result)

    wrap(MesoClassifier, "partial_fit", "meso.fit", fitted)
    wrap(MesoClassifier, "predict", "meso.query", queried)
    wrap(MesoClassifier, "predict_batch", "meso.query", batch_queried)

    # pipeline.sources: the time each chunk waits on the uplink.
    original_iter = SocketChunkSource.__iter__

    def chunk_received(chunk):
        count["pipeline.sources.chunks"] += 1

    def source_iter(self):
        return tracer.wrap_iterator(
            "pipeline.sources", original_iter(self), after=chunk_received
        )

    patches.append((SocketChunkSource, "__iter__", source_iter))

    # jobs.ledger: every rewrite and every transition.
    def saved(result, args, outer):
        count["jobs.ledger.saves"] += 1
        count["jobs.ledger.bytes_written"] += os.path.getsize(args[0].path)

    def failed(result, args, outer):
        if result.state == FAILED:
            count["jobs.ledger.retries"] += 1
        elif result.state == QUARANTINED:
            count["jobs.ledger.quarantined"] += 1

    def quarantined(result, args, outer):
        count["jobs.ledger.quarantined"] += 1

    wrap(Ledger, "save", "jobs.ledger.save", saved)
    for transition in ("claim_batch", "mark_done", "release", "recover_busy",
                       "adopt_done", "reopen", "heartbeat"):
        wrap(Ledger, transition, f"jobs.ledger.{transition}")
    wrap(Ledger, "mark_failed", "jobs.ledger.mark_failed", failed)
    wrap(Ledger, "quarantine", "jobs.ledger.quarantine", quarantined)

    # store.writer: shard cuts and whole-result writes.
    traced_flush = tracer.wrap("store.writer.flush", StoreWriter.flush)

    def flush(self):
        shards = len(self._manifest["shards"])
        traced_flush(self)
        count["store.writer.flushes"] += 1
        written = os.path.getsize(self.path / MANIFEST_NAME)
        for shard in self._manifest["shards"][shards:]:
            written += os.path.getsize(self.path / SHARD_DIR / shard["name"])
        count["store.writer.bytes_written"] += written

    patches.append((StoreWriter, "flush", flush))
    wrap(StoreWriter, "write_result", "store.writer.write")

    # store.reader: replays and the rows they read.
    original_rows = StoreReader.iter_ensembles

    def row_read(row):
        count["store.reader.rows_read"] += 1

    def iter_ensembles(self, *args, **kwargs):
        return tracer.wrap_iterator(
            "store.reader.iter", original_rows(self, *args, **kwargs), after=row_read
        )

    patches.append((StoreReader, "iter_ensembles", iter_ensembles))
    wrap(builder.BuiltPipeline, "run_from_store", "store.reader.replay")
    return patches


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Record spans around every layer call made inside the block."""
    patches = _patches(tracer)
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in patches]
    try:
        for owner, attribute, replacement in patches:
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: list[str], setups: list[str]) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans and counters of traced passes.

    Counters must have been reset before the traced passes began; setup
    spans contribute only the ``*.setup_busy_s`` metrics.
    """
    spans = tracer.spans
    n = max(len(passes), 1)
    count = tracer.counters
    by_layer = self_time_by(spans, lambda name: layer_of(name, LAYERS), runs=set(passes))
    by_name = self_time_by(spans, lambda name: name, runs=set(passes))
    in_setup = self_time_by(spans, lambda name: layer_of(name, LAYERS), runs=set(setups))
    per_setup = max(len(setups), 1)

    def busy(layer):
        return by_layer.get(layer, 0.0) / n

    def per_pass(key):
        return count.get(key, 0) / n

    return {
        "core.anomaly.samples": (per_pass("core.anomaly.samples"), "count"),
        "core.anomaly.busy_s": (busy("core.anomaly"), "s"),
        "core.anomaly.setup_busy_s": (in_setup.get("core.anomaly", 0.0) / per_setup, "s"),
        "core.trigger.samples": (per_pass("core.trigger.samples"), "count"),
        "core.trigger.busy_s": (busy("core.trigger"), "s"),
        "core.trigger.setup_busy_s": (in_setup.get("core.trigger", 0.0) / per_setup, "s"),
        "core.trigger.high_ratio": (
            _ratio(count["core.trigger.high"], count["core.trigger.samples"]), "ratio"),
        "core.cutter.ensembles": (per_pass("core.cutter.ensembles"), "count"),
        "core.cutter.busy_s": (busy("core.cutter"), "s"),
        "core.cutter.retained_ratio": (
            _ratio(count["core.cutter.retained"], count["core.cutter.pushed"]), "ratio"),
        "classify.features.patterns": (per_pass("classify.features.patterns"), "count"),
        "classify.features.busy_s": (busy("classify.features"), "s"),
        "meso.fit_calls": (per_pass("meso.fit_calls"), "count"),
        "meso.fit_busy_s": (by_name.get("meso.fit", 0.0) / n, "s"),
        "meso.new_sphere_ratio": (
            _ratio(count["meso.new_spheres"], count["meso.fit_calls"]), "ratio"),
        "meso.queries": (per_pass("meso.queries"), "count"),
        "meso.query_busy_s": (by_name.get("meso.query", 0.0) / n, "s"),
        "pipeline.sources.chunks": (per_pass("pipeline.sources.chunks"), "count"),
        "pipeline.sources.wait_s": (busy("pipeline.sources"), "s"),
        "jobs.ledger.saves": (per_pass("jobs.ledger.saves"), "count"),
        "jobs.ledger.busy_s": (busy("jobs.ledger"), "s"),
        "jobs.ledger.save_busy_s": (by_name.get("jobs.ledger.save", 0.0) / n, "s"),
        "jobs.ledger.bytes_written": (per_pass("jobs.ledger.bytes_written"), "B"),
        "jobs.ledger.retries": (per_pass("jobs.ledger.retries"), "count"),
        "jobs.ledger.quarantined": (per_pass("jobs.ledger.quarantined"), "count"),
        "store.writer.flushes": (per_pass("store.writer.flushes"), "count"),
        "store.writer.flush_busy_s": (by_name.get("store.writer.flush", 0.0) / n, "s"),
        "store.writer.bytes_written": (per_pass("store.writer.bytes_written"), "B"),
        "store.reader.rows_read": (per_pass("store.reader.rows_read"), "count"),
        "store.reader.read_busy_s": (busy("store.reader"), "s"),
    }


def layer_self_times(tracer: Tracer, runs) -> dict[str, float]:
    """Self time per layer over the given runs, largest first."""
    totals = self_time_by(tracer.spans, lambda name: layer_of(name, LAYERS), runs=set(runs))
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
