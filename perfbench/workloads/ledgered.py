"""``ledgered``: many short recordings under a durable job ledger and store.

The corpus is ``ITEMS`` recordings of 0.4 s.  One pass runs
``run_corpus(ledger=..., store=...)`` over the corpus into a fresh
directory, then replays the store through the classify chain with
``run_corpus(from_store=...)``.  Bookkeeping grows with the item count
while extraction grows with audio length, so with short recordings the
ledger rewrites dominate.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from ..harness import PassRecord
from .common import SAMPLE_RATE, results_digest, train_meso

NAME = "ledgered"
#: A closed loop: pass times follow the interpreter's speed, so they are
#: gated at reference speed (see perfbench.harness.speed_factor).
OPEN_LOOP = False
ITEMS = 200
RECORDING_SECONDS = 0.4


@dataclass
class State:
    clips: list
    pipeline: object
    workdir: Path


def setup(seed: int, workdir) -> State:
    from repro import FAST_EXTRACTION, AcousticPipeline, MesoClassifier
    from repro.synth.clips import AcousticClip
    from repro.synth.dataset import CorpusSpec, build_corpus

    # Short recordings cut from the library's default corpus clips (10 s,
    # two songs each), as a station uploading its stream in short files
    # would make them: some hold part of a song, most only background.
    # (Built whole at this length, no song fits and every item is noise.)
    corpus = build_corpus(CorpusSpec(clips_per_species=1, sample_rate=SAMPLE_RATE, seed=seed))
    step = int(RECORDING_SECONDS * SAMPLE_RATE)
    clips = [
        AcousticClip(
            samples=clip.samples[offset : offset + step],
            sample_rate=SAMPLE_RATE,
            station_id=f"{clip.station_id}-{offset // step:03d}",
        )
        for clip in corpus.clips
        for offset in range(0, clip.samples.size, step)
    ][:ITEMS]
    meso = MesoClassifier()
    pipeline = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, keep_traces=False)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )
    train_meso(pipeline, meso, seed)
    return State(clips=clips, pipeline=pipeline, workdir=Path(workdir))


def run_pass(state: State, index: int) -> PassRecord:
    from repro.jobs.ledger import Ledger

    directory = state.workdir / f"pass-{index:04d}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    ledger, store = directory / "ledger.json", directory / "store"
    began = time.time()
    start = time.perf_counter()
    results = state.pipeline.run_corpus(state.clips, ledger=ledger, store=store)
    settled = time.perf_counter()
    replayed = state.pipeline.run_corpus(from_store=store)
    end = time.perf_counter()
    # Every item is submitted when the pass starts, so an item's latency runs
    # from then to its own completion stamp in the ledger: when its result
    # became durable.  (The gaps between consecutive stamps, ~20 ms each,
    # were tried first; their median jumped between a shared VM's speed levels,
    # IQR/median up to 0.33 over ten seeds.)
    done = sorted(row.updated for row in Ledger.open(ledger).rows if row.state == "done")
    return PassRecord(
        wall=end - start,
        items=len(state.clips),
        failed=sum(result is None for result in results),
        latencies=[stamp - began for stamp in done],
        audio_s=sum(clip.duration for clip in state.clips),
        extra={"ledger_wall": settled - start, "replay_wall": end - settled,
               "replayed": len(replayed)},
        output=(results_digest(results), results_digest(replayed), directory),
    )


def check(state: State, records: list[PassRecord]) -> list[str]:
    from repro.jobs.ledger import Ledger
    from repro.store.reader import StoreReader

    failures = []
    for record in records:
        ledgered, replayed, directory = record.output
        if replayed != ledgered:
            failures.append(f"{directory.name}: replay differs from the ledgered run")
        counts = Ledger.open(directory / "ledger.json").counts()
        if counts["done"] != len(state.clips):
            failures.append(f"{directory.name}: ledger rows not all done: {counts}")
        problems = StoreReader(directory / "store").verify()
        if problems:
            failures.append(f"{directory.name}: store damaged: {problems[:3]}")
        shutil.rmtree(directory, ignore_errors=True)
    digests = {record.output[0] for record in records}
    if len(digests) != 1:
        failures.append(f"ledgered passes disagree: {len(digests)} distinct outputs")
    plain = results_digest(state.pipeline.run_corpus(state.clips))
    if plain not in digests:
        failures.append("ledgered output differs from a plain run_corpus of the same corpus")
    return failures


def digest(records: list[PassRecord]) -> str:
    """The output digest of a run, compared with the recorded one."""
    return records[0].output[0]
