"""Golden digests: sweep presets and experiment tables must not drift.

``golden_digests.json`` holds SHA-256 values of the deterministic outputs
recorded before a refactor.  A refactor that claims to keep behaviour
(routing, topology construction, worldbuild) must reproduce every value
byte for byte; a change that is meant to move an output re-records the
file in the same commit and says why.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from repro.experiments.report import EXPERIMENT_SPECS
from repro.experiments.sweep import PRESETS, payload_digest, run_sweep

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_digests.json")).read_text())


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN["presets"]))
def test_sweep_preset_digest(preset):
    payload = run_sweep(PRESETS[preset], workers=1)
    assert _sha256(payload_digest(payload)) == GOLDEN["presets"][preset]


def test_experiment_tables_digest():
    tables = {}
    for exp_id, module_name, run_name, kwargs, _desc in EXPERIMENT_SPECS:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        rows = getattr(module, run_name)(**kwargs)
        tables[exp_id] = [list(map(str, row.as_tuple())) for row in rows]
    assert _sha256(json.dumps(tables, sort_keys=True)) == GOLDEN["experiments"]
