"""Estimate pool: the benchmark's decided ambiguities, pinned byte for byte.

``blockbench/reference.py``'s ``record()`` decides the direct and the
reverse ambiguity of every pooled channel realisation of the benchmark
through the public estimation path, 576 values in all.  The benchmark holds
them to ``blockbench/reference.json`` only within its 1e-6 tolerance; here
a fresh record must equal ``tests/data/estimate_pools.json`` exactly, so a
change that is not meant to move an estimate moves none.

Only a change that is meant to move estimates re-records the file:

    PYTHONPATH=src python tests/test_estimate_pools.py
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = ROOT / "tests" / "data" / "estimate_pools.json"


def fresh_record() -> dict:
    """``reference.record()`` as JSON reads it back: floats round-trip exactly."""
    # reference.py imports its sibling stream.py by its bare name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "blockbench"))
        reference = importlib.import_module("reference")
        return json.loads(json.dumps(reference.record()))


def test_decided_ambiguities_equal_the_record():
    want = json.loads(RECORD_PATH.read_text())
    got = fresh_record()
    assert sum(map(len, got.values())) == 576
    assert got.keys() == want.keys()
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} realisations moved, first {moved[0]}"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "blockbench"))
    record = importlib.import_module("reference").record()
    RECORD_PATH.write_text(json.dumps(record, indent=1) + "\n")
