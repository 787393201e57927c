"""The benchmark's workloads, by name.

Each workload module defines ``setup(seed, workdir)`` returning its state,
``run_pass(state, index)`` returning a :class:`~perfbench.harness.PassRecord`,
``check(state, records)`` returning a list of failed checks and
``digest(records)`` returning the run's output digest.
Inputs are generated from the seed alone; the library sees only them.
"""

from . import crossval, ledgered, station, survey

WORKLOADS = {
    module.NAME: module for module in (survey, crossval, ledgered, station)
}
