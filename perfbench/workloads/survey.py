"""``survey``: the offline season survey, a closed loop over full recordings.

Set-up writes ``RECORDINGS`` synthetic recordings, of species drawn by the
seed, as 16-bit WAV files of the library's default corpus clip
(``CorpusSpec``: 10 s, two songs each).
One pass is a serial ``run_corpus`` over those files, read as the library
reads a recording directory (``WavChunkStream``, 4096-sample chunks),
through extract → features → classify, with MESO trained in set-up.
Extraction (anomaly scoring and the adaptive trigger) dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..harness import PassRecord
from .common import SAMPLE_RATE, results_digest, train_meso

NAME = "survey"
#: A closed loop: pass times follow the interpreter's speed, so they are
#: gated at reference speed (see perfbench.harness.speed_factor).
OPEN_LOOP = False
#: ``WavChunkStream``'s default read size.
CHUNK = 4096
#: Recordings per pass: five, so that a 20 s run holds five or more passes
#: and one slow pass moves the run's mean less than with ten.
RECORDINGS = 5


class _Recording:
    """A WAV recording handed to ``run_corpus`` that notes when it is read.

    The serial executor starts reading a recording only once it is done
    with the one before, so the gaps between these stamps are
    per-recording service times.  (Per-chunk gaps were tried first: on a
    VM whose speed switches between two levels within a pass, their median
    jumped between the levels from run to run, IQR/median 0.34 over ten
    seeds, against 0.17 for per-recording times.)
    """

    def __init__(self, path: Path, stamps: list[float]) -> None:
        from repro.pipeline.sources import WavChunkStream

        self._stream = WavChunkStream(path, chunk_size=CHUNK)
        self.sample_rate = self._stream.sample_rate
        self.station_id = path.stem
        self._stamps = stamps

    def __iter__(self):
        self._stamps.append(time.perf_counter())
        yield from self._stream


@dataclass
class State:
    paths: list
    pipeline: object


def setup(seed: int, workdir) -> State:
    from repro import FAST_EXTRACTION, AcousticPipeline, MesoClassifier
    from repro.dsp.wav import write_wav
    from repro.synth.dataset import CorpusSpec, build_corpus
    from repro.synth.species import SPECIES_CODES

    rng = np.random.default_rng([seed, 1])
    species = tuple(str(code) for code in rng.choice(SPECIES_CODES, RECORDINGS, replace=False))
    corpus = build_corpus(
        CorpusSpec(species=species, clips_per_species=1, sample_rate=SAMPLE_RATE, seed=seed)
    )
    directory = Path(workdir) / "survey"
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for clip in corpus.clips:
        paths.append(directory / f"{clip.station_id}.wav")
        write_wav(paths[-1], clip.samples, clip.sample_rate)
    meso = MesoClassifier()
    pipeline = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, keep_traces=False)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )
    train_meso(pipeline, meso, seed)
    return State(paths=paths, pipeline=pipeline)


def run_pass(state: State, index: int) -> PassRecord:
    stamps: list[float] = []
    recordings = [_Recording(path, stamps) for path in state.paths]
    start = time.perf_counter()
    results = state.pipeline.run_corpus(recordings)
    end = time.perf_counter()
    stamps.append(end)
    return PassRecord(
        wall=end - start,
        items=len(recordings),
        latencies=list(np.diff(stamps)),
        audio_s=sum(result.total_samples for result in results) / SAMPLE_RATE,
        output=results_digest(results),
    )


def check(state: State, records: list[PassRecord]) -> list[str]:
    from repro.dsp.wav import read_wav

    failures = []
    digests = {record.output for record in records}
    if len(digests) != 1:
        failures.append(f"survey passes disagree: {len(digests)} distinct outputs")
    # Chunk invariance: the same recordings decoded whole.
    whole = state.pipeline.run_corpus([read_wav(path) for path in state.paths])
    if results_digest(whole) not in digests:
        failures.append("survey output differs from a run over the same recordings decoded whole")
    return failures


def digest(records: list[PassRecord]) -> str:
    """The output digest of a run, compared with the recorded one."""
    return records[0].output
