"""Analytic sweeps: the ``qkdpost sweep`` tables, pinned byte for byte.

``tests/data/sweeps.csv`` holds two ``sweep_rates`` tables back to back:
amplitude damping over p in [0, 1] and rotation over theta in [0, 3.2], 41
grid points each.  A fresh text must equal the file exactly, so a change
that is not meant to move an analytic rate moves none.

Only a change that is meant to move analytic rates re-records the file:

    PYTHONPATH=src python tests/test_sweeps.py
"""

from pathlib import Path

from qkdpost.simulate import sweep_rates

RECORD_PATH = Path(__file__).resolve().parent / "data" / "sweeps.csv"
SWEEPS = (("amplitude_damping", 0.0, 1.0, 41), ("rotation", 0.0, 3.2, 41))


def fresh_text() -> str:
    return "".join(sweep_rates(*sweep, None) for sweep in SWEEPS)


def test_sweeps_equal_the_record():
    assert fresh_text() == RECORD_PATH.read_text(encoding="utf-8")


if __name__ == "__main__":
    RECORD_PATH.write_text(fresh_text(), encoding="utf-8")
