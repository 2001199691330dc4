"""Exact regression gate for ``build_array`` beyond the four presets.

``data/build_array_reference.json`` holds about 150 seeded specs and,
for each, the organization ``build_array`` chose and every float of the
resulting :class:`~repro.array.SramArray`, plus a digest of the full
ranked candidate list ``search_organizations`` returns. The specs span
the corners the validation presets never reach: eDRAM restore and
refresh, multi-port cells, 1-8 banks, narrowed ``output_bits``, access
and cycle targets both met and missed, and non-default
:class:`~repro.array.OptimizationWeights`. Every value must match to
the last bit.

Regenerate (only when a model change is intended) with::

    PYTHONPATH=src python tests/array/test_build_array_reference.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import fastpath
from repro.array import ArraySpec, build_array, search_organizations
from repro.array.organization import OptimizationWeights
from repro.array.spec import CellType, PortCounts
from repro.tech import Technology

REFERENCE_PATH = Path(__file__).parent / "data" / "build_array_reference.json"

#: Number of specs in the reference and the seed that draws them.
N_CASES = 150
SEED = 2009

_FLOAT_FIELDS = (
    "access_time", "cycle_time", "read_energy", "write_energy",
    "clock_energy_per_cycle", "leakage_power", "refresh_power",
    "area", "height", "width",
)

_PORTS = ((1, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 2, 1), (0, 1, 1))
_WIDTHS = (8, 16, 32, 40, 64, 72, 116, 128, 256, 512, 1024)


def _draw_case(rng: random.Random) -> dict:
    width = rng.choice(_WIDTHS)
    entries = 2 ** rng.randint(4, 16)
    if rng.random() < 0.2:
        entries = entries * 3 // 4
    output_bits = rng.choice((None, None, width // 2 or 1, min(64, width), 1))
    access = (None if rng.random() < 0.5
              else 10 ** rng.uniform(-10.2, -8.6))
    cycle = (None if rng.random() < 0.6
             else 10 ** rng.uniform(-10.5, -9.0))
    weights = None
    if rng.random() < 0.4:
        values = [rng.choice((0.0, 0.25, 1.0, 2.0, 5.0)) for _ in range(4)]
        if not any(values):
            values[rng.randrange(4)] = 1.0
        weights = dict(zip(("delay", "dynamic_energy", "leakage", "area"),
                           values))
    read_write, read, write = rng.choice(_PORTS)
    return {
        "node_nm": rng.choice((90, 65, 45, 32)),
        "temperature_k": rng.choice((330.0, 380.0)),
        "spec": {
            "name": "ref",
            "entries": entries,
            "width_bits": width,
            "ports": [read_write, read, write],
            "cell_type": rng.choice(("sram", "sram", "edram")),
            "n_banks": rng.choice((1, 2, 4, 8)),
            "output_bits": output_bits,
            "target_access_time": access,
            "target_cycle_time": cycle,
        },
        "weights": weights,
    }


def _inputs(case: dict) -> tuple[Technology, ArraySpec,
                                  OptimizationWeights | None]:
    tech = Technology(node_nm=case["node_nm"],
                      temperature_k=case["temperature_k"])
    fields = dict(case["spec"])
    fields["ports"] = PortCounts(*fields["ports"])
    fields["cell_type"] = CellType(fields["cell_type"])
    spec = ArraySpec(**fields)
    weights = case["weights"]
    return tech, spec, (OptimizationWeights(**weights) if weights else None)


def _search_digest(tech: Technology, spec: ArraySpec,
                   weights: OptimizationWeights | None) -> str:
    """sha256 over every ranked candidate's organization and numbers."""
    rows = [
        [c.organization.ndwl, c.organization.ndbl, c.organization.nspd,
         repr(c.access_time), repr(c.cycle_time), repr(c.read_energy),
         repr(c.leakage_power), repr(c.area)]
        for c in search_organizations(tech, spec, weights)
    ]
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _outcome(case: dict) -> dict:
    tech, spec, weights = _inputs(case)
    built = build_array(tech, spec, weights)
    org = built.organization
    with fastpath.disabled():
        digest = _search_digest(tech, spec, weights)
    return {
        "organization": [org.ndwl, org.ndbl, org.nspd],
        **{name: getattr(built, name) for name in _FLOAT_FIELDS},
        "meets_timing": built.meets_timing,
        "search_sha256": digest,
    }


def generate_reference() -> list[dict]:
    """Draw ``N_CASES`` specs that tile, each with its outcome."""
    rng = random.Random(SEED)
    cases: list[dict] = []
    while len(cases) < N_CASES:
        case = _draw_case(rng)
        try:
            outcome = _outcome(case)
        except ValueError:
            continue  # nothing tiles this spec; draw another
        cases.append({**case, "expected": outcome})
    return cases


def _load_cases() -> list[dict]:
    if not REFERENCE_PATH.exists():  # being regenerated
        return []
    return json.loads(REFERENCE_PATH.read_text())["cases"]


CASES = _load_cases()


def test_reference_spans_the_corners():
    specs = [c["spec"] for c in CASES]
    assert len(CASES) == N_CASES
    assert {c["node_nm"] for c in CASES} == {90, 65, 45, 32}
    assert len({c["temperature_k"] for c in CASES}) == 2
    assert {s["cell_type"] for s in specs} == {"sram", "edram"}
    assert {s["n_banks"] for s in specs} == {1, 2, 4, 8}
    assert any(sum(s["ports"]) > 1 for s in specs)
    assert any(s["output_bits"] is not None for s in specs)
    assert any(c["weights"] is not None for c in CASES)
    for target in ("target_access_time", "target_cycle_time"):
        met = {c["expected"]["meets_timing"]
               for c in CASES if c["spec"][target] is not None}
        assert met == {True, False}, target


@pytest.mark.parametrize("index", range(len(CASES)))
def test_build_array_matches_reference(index):
    case = CASES[index]
    assert _outcome(case) == case["expected"], case


if __name__ == "__main__":
    payload = {"cases": generate_reference()}
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(payload['cases'])} cases to "
                     f"{REFERENCE_PATH}\n")
