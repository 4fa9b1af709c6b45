"""Classical and von Neumann entropy primitives (all in bits).

Eigenvalues and probabilities below 1e-12 are treated as exact zeros inside
entropy sums, implementing the 0*log(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class JointDistribution:
    """2x2 joint table P(x, y); rows index x, columns index y."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float).reshape(2, 2).copy()
        if (t < -1e-9).any() or abs(t.sum() - 1.0) > 1e-6:
            raise ValueError(f"invalid joint table {t}")
        t = np.clip(t, 0.0, None)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def marginal_y(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def conditional(self) -> np.ndarray:
        """Columns are P(x | y); a zero-probability y gives a uniform column."""
        py = self.marginal_y()
        safe = np.where(py > ZERO_CUTOFF, py, 1.0)
        cols = self.table / safe
        cols[:, py <= ZERO_CUTOFF] = 0.5
        return cols


def cond_entropy(dist: JointDistribution) -> float:
    """H(row | column) of a joint table; transpose the table for the other."""
    t = dist.table
    return _plogp(t) - _plogp(t.sum(axis=0))
