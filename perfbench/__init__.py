"""End-to-end benchmark of the acoustic-ensemble system.

Run one workload with::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer breakdown from spans recorded around the library's public calls.
The benchmark imports the library from ``src/`` of the same checkout and
modifies none of it.  ``BENCHMARK.json`` at the repository root names the
workloads and metrics; ``perfbench/manifest.json`` records what each metric
means on each workload, which end-to-end metric each layer should move, and
the output digests of the default seed.
"""
