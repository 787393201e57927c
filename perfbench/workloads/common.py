"""Inputs and output digests shared by the workloads."""

from __future__ import annotations

import hashlib

import numpy as np

SAMPLE_RATE = 16000


def train_meso(pipeline, meso, seed: int, songs_per_species: int = 3) -> None:
    """Train ``meso`` on reference songs of every species through the
    pipeline's own feature stage, so training and queries share features."""
    from repro.synth import get_species
    from repro.synth.species import SPECIES_CODES

    rng = np.random.default_rng([seed, 2])
    for code in SPECIES_CODES:
        for _ in range(songs_per_species):
            song = get_species(code).render(SAMPLE_RATE, rng)
            for vector in pipeline.patterns_for(song):
                meso.partial_fit(vector, code)


def _update(digest, ensemble, patterns, label) -> None:
    digest.update(f"{ensemble.start}:{ensemble.end}:{label}:{len(patterns)}|".encode())
    digest.update(np.ascontiguousarray(ensemble.samples, dtype=float).tobytes())
    for pattern in patterns:
        digest.update(np.ascontiguousarray(pattern, dtype=float).tobytes())


def results_digest(results) -> str:
    """SHA-256 over every result's ensembles, patterns and labels."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"result:{result.total_samples}:{len(result.ensembles)}|".encode())
        for triple in zip(result.ensembles, result.patterns, result.labels):
            _update(digest, *triple)
    return digest.hexdigest()


def ensembles_digest(triples) -> str:
    """SHA-256 over ``(ensemble, patterns, label)`` triples, e.g. the fields
    of classified events or the columns of one result."""
    digest = hashlib.sha256()
    for triple in triples:
        _update(digest, *triple)
    return digest.hexdigest()
