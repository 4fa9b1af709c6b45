"""Classical and von Neumann entropy primitives (all in bits).

Eigenvalues and probabilities below 1e-12 are treated as exact zeros inside
entropy sums, implementing the 0*log(0) = 0 convention.
"""

from __future__ import annotations

import numpy as np

ZERO_CUTOFF = 1e-12


def _plogp(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > ZERO_CUTOFF]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p)."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return _plogp([p, 1.0 - p])


def cond_entropy(t: np.ndarray) -> float:
    """H(row | column) of a 2x2 joint table; transpose the table for the other."""
    return _plogp(t) - _plogp(t.sum(axis=0))
