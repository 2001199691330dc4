"""Shared fixtures: cheap configs and cold batch state."""

import pytest

from repro import batch, fastpath
from repro.config.schema import (
    CacheGeometry,
    CoreConfig,
    MemoryControllerConfig,
    NocConfig,
    NocTopology,
    SystemConfig,
)


def make_tiny_config(**overrides) -> SystemConfig:
    """A minimal single-core chip that evaluates in well under a second."""
    fields = dict(
        name="tiny",
        node_nm=45,
        clock_hz=1.0e9,
        n_cores=1,
        core=CoreConfig(
            name="tiny-core",
            icache=CacheGeometry(capacity_bytes=8 * 1024),
            dcache=CacheGeometry(capacity_bytes=8 * 1024),
            branch_predictor=None,
        ),
        l2=None,
        noc=NocConfig(topology=NocTopology.NONE),
        memory_controller=MemoryControllerConfig(channels=1),
    )
    fields.update(overrides)
    return SystemConfig(**fields)


@pytest.fixture
def fresh_batch_state():
    """Cold memos and zeroed batch counters around one test."""
    fastpath.clear_all()
    batch.reset_counters()
    yield
    fastpath.clear_all()
    batch.reset_counters()


@pytest.fixture(scope="session")
def tiny_config_factory():
    """Factory for cheap configs (see :func:`make_tiny_config`)."""
    return make_tiny_config
