"""``crossval``: the Table-2 protocol, leave-one-out plus resubstitution.

Set-up builds the four data sets with ``build_experiment_data`` (global
normalisation, so extraction runs the batch ``sax_anomaly_scores``) from
one fixed corpus, as the paper's table comes from one fixed recording set;
the seed shuffles the protocols' item orders.  One pass runs both
protocols on all four data sets; single-pattern MESO training dominates it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..harness import PassRecord
from .common import SAMPLE_RATE

NAME = "crossval"
#: A closed loop: pass times follow the interpreter's speed, so they are
#: gated at reference speed (see perfbench.harness.speed_factor).
OPEN_LOOP = False
CORPUS_SEED = 2007
CLIP_SECONDS = 5.0
MAX_PATTERN_ITEMS = 60
MAX_ENSEMBLE_ITEMS = 30


@dataclass
class State:
    data: object
    seed: int


def setup(seed: int, workdir) -> State:
    from repro.experiments.datasets import ExperimentScale, build_experiment_data
    from repro.synth.dataset import CorpusSpec

    scale = ExperimentScale(
        name="perfbench",
        corpus=CorpusSpec(
            clips_per_species=1,
            songs_per_clip=2,
            clip_duration=CLIP_SECONDS,
            sample_rate=SAMPLE_RATE,
            seed=CORPUS_SEED,
        ),
        loo_repeats=1,
        resub_repeats=1,
        max_pattern_items=MAX_PATTERN_ITEMS,
        max_ensemble_items=MAX_ENSEMBLE_ITEMS,
    )
    return State(data=build_experiment_data(scale), seed=seed)


def _digest(outcomes) -> str:
    digest = hashlib.sha256()
    for name, protocol, result in outcomes:
        digest.update(f"{name}:{protocol}:{result.per_repeat_accuracy!r}|".encode())
        digest.update(np.ascontiguousarray(result.confusion.counts).tobytes())
    return digest.hexdigest()


def run_pass(state: State, index: int) -> PassRecord:
    from repro.classify.crossval import leave_one_out, resubstitution
    from repro.experiments.table2 import DATASET_NAMES, default_classifier_factory

    stamps: list[tuple[str, float]] = []
    protocol = ""

    def factory():
        # Called once per fold (leave-one-out) or repeat (resubstitution),
        # so the gaps between calls are per-fold times.
        stamps.append((protocol, time.perf_counter()))
        return default_classifier_factory()

    data = state.data
    outcomes = []
    start = time.perf_counter()
    for name in DATASET_NAMES:
        items = data.dataset(name)
        for protocol, runner, repeats in (
            ("Leave-one-out", leave_one_out, data.scale.loo_repeats),
            ("Resubstitution", resubstitution, data.scale.resub_repeats),
        ):
            result = runner(items, factory, repeats=repeats, seed=state.seed)
            outcomes.append((name, protocol, result))
    end = time.perf_counter()
    stamps.append(("", end))
    # Latency samples are leave-one-out folds only: a resubstitution repeat
    # is a different, far larger operation, and a handful of them per pass
    # would make the tail percentile jump with the pass count.
    return PassRecord(
        wall=end - start,
        items=len(stamps) - 1,
        latencies=[
            after - before
            for (kind, before), (_, after) in zip(stamps, stamps[1:])
            if kind == "Leave-one-out"
        ],
        output=(_digest(outcomes), outcomes),
    )


def check(state: State, records: list[PassRecord]) -> list[str]:
    failures = []
    digests = {record.output[0] for record in records}
    if len(digests) != 1:
        failures.append(f"crossval passes disagree: {len(digests)} distinct outputs")
    for name, protocol, result in records[0].output[1]:
        folds = len(state.data.dataset(name))
        if result.confusion.counts.sum() != folds * len(result.per_repeat_accuracy):
            failures.append(f"crossval {name}/{protocol}: confusion total is not one verdict per item")
    return failures


def digest(records: list[PassRecord]) -> str:
    """The output digest of a run, compared with the recorded one."""
    return records[0].output[0]
