"""Exact regression gate for every field of ``subarray_figures``.

The ``build_array`` reference pins the five floats the search ranks each
candidate by; the other fields of a tiling that does not win (its
bitline capacitance, wordline delay, write and restore energies ...)
reach no reference there. ``data/subarray_reference.json`` pins them
all: for each (node, temperature, ports, cell type) group, one sha256
over the ``repr`` of every :class:`~repro.array.mat.SubarrayFigures`
field on a fixed grid of shapes (rows, columns, mux degree), shapes no
search would pick included. Every value must match to the last bit.

Regenerate (only when a model change is intended) with::

    PYTHONPATH=src python tests/array/test_subarray_reference.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.array.mat import (
    subarray_constants,
    subarray_figures,
    wordline_driver,
)
from repro.array.spec import CellType, PortCounts
from repro.tech import SUPPORTED_NODES_NM, Technology

REFERENCE_PATH = Path(__file__).parent / "data" / "subarray_reference.json"

_TEMPERATURES_K = (300.0, 360.0, 400.0)
_PORTS = ((1, 0, 0), (2, 0, 0), (1, 2, 1))
_CELL_TYPES = (CellType.SRAM, CellType.EDRAM)

#: The shapes every group is scored on: powers of two and the odd
#: counts a 3/4-sized or odd-width array tiles into.
_ROWS = (4, 5, 12, 25, 100, 384, 1024)
_COLS = (8, 9, 72, 116, 1024, 4096)
_MUX = (1, 2, 8)

GROUPS = {
    f"{node}nm-{temperature_k:g}K-ports{'.'.join(map(str, ports))}-"
    f"{cell_type.value}": (node, temperature_k, ports, cell_type)
    for node, temperature_k, ports, cell_type in itertools.product(
        SUPPORTED_NODES_NM, _TEMPERATURES_K, _PORTS, _CELL_TYPES,
    )
}


def _digest(node: int, temperature_k: float, ports: tuple[int, int, int],
            cell_type: CellType) -> str:
    """sha256 over every field of every shape of one group."""
    tech = Technology(node_nm=node, temperature_k=temperature_k)
    k = subarray_constants(tech, PortCounts(*ports), cell_type)
    rows_out = []
    for cols in _COLS:
        driver = wordline_driver(k, cols)
        for rows, mux in itertools.product(_ROWS, _MUX):
            figures = subarray_figures(k, rows, cols, mux, driver)
            rows_out.append([rows, cols, mux, *map(repr, figures)])
    blob = json.dumps(rows_out, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def generate_reference() -> dict[str, str]:
    return {name: _digest(*group) for name, group in GROUPS.items()}


def _load_reference() -> dict[str, str]:
    if not REFERENCE_PATH.exists():  # being regenerated
        return {}
    return json.loads(REFERENCE_PATH.read_text())["groups"]


REFERENCE = _load_reference()


def test_reference_covers_every_group():
    assert sorted(REFERENCE) == sorted(GROUPS)
    assert len(GROUPS) == len(SUPPORTED_NODES_NM) * 3 * 3 * 2


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_subarray_figures_match_reference(group):
    assert _digest(*GROUPS[group]) == REFERENCE[group], group


if __name__ == "__main__":
    payload = {"groups": generate_reference()}
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(payload['groups'])} groups to "
                     f"{REFERENCE_PATH}\n")
