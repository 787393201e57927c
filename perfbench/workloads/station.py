"""``station``: the live uplink, an open loop over one loopback TCP connection.

A generator thread writes int16 PCM to a ``SocketChunkSource`` on a fixed
schedule, ``SPEED`` times faster than real time, whether or not the
pipeline keeps up.  The pipeline is extract(emit="fragments") → features
→ classify.  Latency runs from the due time of an ensemble's last sample
to the emission of its ``ClassifiedEvent``.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..harness import PassRecord, due_latency
from .common import SAMPLE_RATE, ensembles_digest, train_meso

NAME = "station"
#: An open loop: the schedule sets the session's pace, so its times are
#: gated as measured.
OPEN_LOOP = True
LEAD_IN_SECONDS = 2.0
#: One song per species, each placed at random within a slot of this length
#: (the longest song is ~3.3 s), so songs are spread evenly over the stream
#: and every seed yields a similar number of events.
SLOT_SECONDS = 3.5
NOISE = 0.08
CHUNK = 512
#: About half the pipeline's measured capacity on a 2-core 2.1 GHz VM
#: (~10x real time with 512-sample chunks).
SPEED = 5.0
#: Head start between accepting the connection and the first due time.
LEAD_S = 0.05


@dataclass
class State:
    pcm: np.ndarray
    pipeline: object


def setup(seed: int, workdir) -> State:
    from repro import FAST_EXTRACTION, AcousticPipeline, MesoClassifier
    from repro.dsp.wav import samples_to_pcm16
    from repro.synth.clips import ClipBuilder
    from repro.synth.species import SPECIES_CODES

    rng = np.random.default_rng([seed, 4])
    # Background noise first, as when a station starts listening, so the
    # running normalisation settles on the noise floor, then one song of
    # every species, each in a slot of its own.
    lead = ClipBuilder(sample_rate=SAMPLE_RATE, duration=LEAD_IN_SECONDS, noise_level=NOISE)
    slot = ClipBuilder(sample_rate=SAMPLE_RATE, duration=SLOT_SECONDS, noise_level=NOISE)
    signal = np.concatenate(
        [lead.build([], rng).samples] + [slot.build(code, rng).samples for code in SPECIES_CODES]
    )
    # A clean end of stream falls on a chunk boundary.
    pcm = samples_to_pcm16(signal[: signal.size - signal.size % CHUNK])
    meso = MesoClassifier()
    pipeline = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, emit="fragments", keep_traces=False)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )
    train_meso(pipeline, meso, seed)
    return State(pcm=pcm, pipeline=pipeline)


def _send(server: socket.socket, pcm: np.ndarray, schedule: dict) -> None:
    """Send ``pcm`` chunk by chunk, each at the due time of its last sample."""
    try:
        connection, _ = server.accept()
    except OSError as exc:
        schedule["error"] = exc
        return
    try:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.perf_counter() + LEAD_S
        schedule["t0"] = t0
        late = schedule["late"]
        period = CHUNK / (SAMPLE_RATE * SPEED)
        for index in range(pcm.size // CHUNK):
            due = t0 + (index + 1) * period
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(time.perf_counter() - due)
            connection.sendall(pcm[index * CHUNK : (index + 1) * CHUNK].tobytes())
        connection.shutdown(socket.SHUT_WR)
    except OSError as exc:
        schedule["error"] = exc
    finally:
        connection.close()


def run_pass(state: State, index: int) -> PassRecord:
    from repro.pipeline import ClassifiedEvent, SocketChunkSource

    schedule: dict = {"late": []}
    emitted: list[tuple[object, float]] = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(10.0)
        sender = threading.Thread(target=_send, args=(server, state.pcm, schedule))
        sender.start()
        try:
            source = SocketChunkSource(
                port=server.getsockname()[1], sample_rate=SAMPLE_RATE, chunk_size=CHUNK,
                timeout=10.0,
            )
            for event in state.pipeline.extract_stream(source, SAMPLE_RATE):
                if isinstance(event, ClassifiedEvent):
                    emitted.append((event, time.perf_counter()))
            end = time.perf_counter()
        finally:
            sender.join(timeout=30.0)
    if sender.is_alive() or "error" in schedule:
        raise RuntimeError(f"station generator failed: {schedule.get('error', 'did not finish')}")
    t0 = schedule["t0"]
    return PassRecord(
        wall=end - t0,
        items=state.pcm.size // CHUNK,
        latencies=[
            due_latency(t0, event.ensemble.end - 1, at, SAMPLE_RATE, SPEED)
            for event, at in emitted
        ],
        audio_s=state.pcm.size / SAMPLE_RATE,
        extra={"late": schedule["late"]},
        output=ensembles_digest((e.ensemble, e.patterns, e.label) for e, _ in emitted),
    )


def check(state: State, records: list[PassRecord]) -> list[str]:
    from repro.dsp.wav import pcm16_to_samples

    failures = []
    batch = state.pipeline.run(pcm16_to_samples(state.pcm), sample_rate=SAMPLE_RATE)
    reference = ensembles_digest(zip(batch.ensembles, batch.patterns, batch.labels))
    for index, record in enumerate(records):
        if record.output != reference:
            failures.append(f"station session {index}: events differ from a batch run()")
    return failures


def digest(records: list[PassRecord]) -> str:
    """The output digest of a run, compared with the recorded one."""
    return records[0].output
