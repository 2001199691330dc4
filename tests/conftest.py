"""Shared fixtures: cheap configs, cold batch state, EXPERIMENTS.md."""

from pathlib import Path

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


def experiments_section(heading: str) -> str:
    """The EXPERIMENTS.md section under ``## <heading>``, its whitespace
    collapsed so that prose still matches after a re-wrap."""
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return " ".join(text[start:end if end != -1 else None].split())


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
