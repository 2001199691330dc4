"""The goldens hold on every supported Python.

Since Python 3.12, builtin ``sum()`` adds floats with compensated
summation, so a model number read through it would differ in its last
bits from the goldens recorded under 3.11. The model adds floats left
to right from the int 0 instead, which is what ``sum()`` computed
through 3.11. This test stands in for 3.12 and later under any
interpreter: every ``repro`` module gets a compensating global ``sum``,
and cold reports must still equal the goldens exactly.
"""

import json
import math
import sys

from repro import fastpath
from repro.chip import Processor
from repro.chip.export import result_to_dict
from repro.config import presets
from repro.goldens import DEFAULT_GOLDENS_DIR, golden_path


def _compensated_sum(values, start=0):
    """A ``sum()`` that compensates float rounding, as builtin ``sum()``
    does since Python 3.12."""
    return start + math.fsum(values)


def test_cold_reports_do_not_depend_on_builtin_sum(monkeypatch):
    factories = presets.VALIDATION_PRESETS
    for factory in factories.values():  # load every model module
        Processor(factory()).report()
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not None:
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    differing = []
    for preset, factory in factories.items():
        golden = json.loads(
            golden_path(DEFAULT_GOLDENS_DIR, preset).read_text()
        )
        fastpath.clear_all()
        if result_to_dict(Processor(factory()).report()) != golden["report"]:
            differing.append(preset)
    fastpath.clear_all()
    assert differing == []
