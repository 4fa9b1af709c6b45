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


def shannon_entropy(dist) -> float:
    dist = np.asarray(dist, dtype=float)
    if (dist < -1e-9).any() or abs(dist.sum() - 1.0) > 1e-6:
        raise ValueError("not a probability distribution")
    return _plogp(dist)


def von_neumann_entropy(density: np.ndarray) -> float:
    """Entropy of a Hermitian PSD unit-trace matrix from its spectrum.

    Each of the three properties is checked to within 1e-9.
    """
    density = np.asarray(density)
    if np.abs(density - density.conj().T).max() > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    ev = np.linalg.eigvalsh(density)
    if ev[0] < -1e-9:
        raise ValueError(f"negative eigenvalue {ev[0]:.3e} below -1e-09")
    if abs(ev.sum() - 1.0) > 1e-9:
        raise ValueError(f"trace {ev.sum():.6f} differs from 1")
    return _plogp(np.clip(ev, 0.0, None))


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

    def marginal_x(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def conditional(self) -> np.ndarray:
        """Columns are P(x | y); a zero-probability y gives a uniform column."""
        py = self.marginal_y()
        safe = np.where(py > ZERO_CUTOFF, py, 1.0)
        cols = self.table / safe
        cols[:, py <= ZERO_CUTOFF] = 0.5
        return cols

    def error_probability(self) -> float:
        """P(x != y)."""
        return float(self.table[0, 1] + self.table[1, 0])


def cond_entropy(dist: JointDistribution) -> float:
    """H(row | column) of a joint table; transpose the table for the other."""
    t = dist.table
    return _plogp(t) - _plogp(t.sum(axis=0))


def pw_from_joint(dist: JointDistribution) -> np.ndarray:
    """Distribution of the difference w = x + y (mod 2) under the joint table."""
    t = dist.table
    p1 = t[0, 1] + t[1, 0]
    return np.array([1.0 - p1, p1])
