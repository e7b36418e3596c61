"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper,
printing the paper's published values beside the values measured from
the simulation.  Expensive artifacts (the million-CPU campaign, the
catalog SDC-record corpus) are built once per session.
"""

import pytest

from repro.analysis import RecordFrame, build_catalog_corpus
from repro.cpu import full_catalog
from repro.fleet import FleetSpec, TestPipeline, generate_fleet
from repro.testing import TestFramework, build_library

#: The paper's population: "over one million processors".
FLEET_SIZE = 1_000_000


@pytest.fixture(scope="session")
def library():
    return build_library()


@pytest.fixture(scope="session")
def catalog():
    return full_catalog()


@pytest.fixture(scope="session")
def fleet():
    return generate_fleet(FleetSpec(total_processors=FLEET_SIZE, seed=1))


@pytest.fixture(scope="session")
def campaign(fleet, library):
    """The 32-month staged test campaign over the full fleet."""
    return TestPipeline(fleet, library, seed=1).run()


@pytest.fixture(scope="session")
def catalog_corpus(catalog, library):
    """SDC records from generous hot runs over all 27 study CPUs.

    This is the §2.4 corpus ("more than ten thousand SDC records")
    every §4-§5 figure is computed from, built once per session.
    """
    return build_catalog_corpus(catalog, library)


@pytest.fixture(scope="session")
def catalog_frame(catalog_corpus):
    """The corpus as a struct-of-arrays frame for columnar kernels."""
    return RecordFrame.from_store(catalog_corpus)


@pytest.fixture(scope="session")
def framework(library):
    return TestFramework(library)


def run_once(benchmark, func):
    """Benchmark a whole-experiment regeneration exactly once."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
