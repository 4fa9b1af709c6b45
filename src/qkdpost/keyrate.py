"""Eavesdropper ambiguity and secret-key rates from an exactly known channel.

Eve is modeled as holding the full environment of the channel.  Her ambiguity
about the key bit K is the conditional von Neumann entropy H(K|E): K = X,
Alice's bit, for direct reconciliation and K = Y, Bob's bit, for reverse.
Both come from the Choi matrix C alone as H(K|E) = H(KE) - S(C).  Given
K = k a purification of C leaves the other party and E in a pure state, so
E's spectrum is that of the other party's 2x2 block of C at fixed k, and
H(KE) is the entropy of those two blocks (:func:`key_entropy`).

The asymptotic secret-key rate is the ambiguity minus the syndrome rate the
reconciliation needs, H(K|helper) for the other party's bit as helper.
:func:`key_bases` and :func:`key_joint` are the one place a direction is
decided: which bases the key pair is measured in, and which party's bit is
the key.  Every other layer takes the key pair's joint as P(key, helper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineChannel,
    Basis,
    ChoiMatrix,
    affine_from_choi,
    choi_coefficients,
    choi_from_affine,
    choi_from_coefficients,
    joint_distribution,
    pauli_diagonal,
    pauli_weights,
)
from .entropy import (
    JointDistribution,
    _plogp,
    binary_entropy,
    cond_entropy,
)

DIRECTIONS = ("direct", "reverse", "mismatched")
_KEY_BLOCKS = {"direct": "kakb->kab", "reverse": "akbk->kab"}

@dataclass(frozen=True)
class ErrorRates:
    """Per-basis bit flip probabilities, averaged over the two inputs."""

    p_z: float
    p_x: float
    p_y: float


@dataclass(frozen=True)
class RateReport:
    """Key-rate decision for one reconciliation direction.

    ``key_rate`` is clamped at zero (a negative value means abort);
    ``raw_rate`` keeps the unclamped difference.
    """

    direction: str
    ambiguity: float
    cond_entropy: float
    raw_rate: float
    key_rate: float

    @classmethod
    def build(cls, direction: str, ambiguity: float, ce: float) -> "RateReport":
        raw = ambiguity - ce
        return cls(direction, ambiguity, ce, raw, max(0.0, raw))


def key_entropy(c: np.ndarray, direction: str = "direct") -> float:
    """H(KE) in bits: the entropy of the two 2x2 blocks of ``c`` at fixed key bit.

    ``c`` is a real or complex 4x4 Choi matrix indexed (input, output).  The
    key bit is the input for direct reconciliation (blocks ``m[k, :, k, :]``)
    and the output for reverse (blocks ``m[:, k, :, k]``), with
    ``m = c.reshape(2, 2, 2, 2)``; ``_KEY_BLOCKS`` stacks them over k.
    """
    if direction not in _KEY_BLOCKS:
        raise ValueError(f"direction must be direct or reverse, got {direction!r}")
    blocks = np.einsum(_KEY_BLOCKS[direction], np.asarray(c).reshape(2, 2, 2, 2))
    return _plogp(np.linalg.eigvalsh(blocks))


def choi_ambiguity(c: np.ndarray, direction: str = "direct", tol: float = 1e-9) -> float:
    """H(K|E) = H(KE) - S(C) in bits for a real or complex 4x4 Choi matrix.

    Raises ValueError when the lowest eigenvalue of ``c`` is below ``-tol``.
    """
    ev = np.linalg.eigvalsh(c)
    if ev[0] < -tol:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {ev[0]:.3e})")
    return key_entropy(c, direction) - _plogp(ev)


def ambiguity_direct(choi: ChoiMatrix, tol: float = 1e-9) -> float:
    """H(X|E) in bits for a uniformly random key bit prepared in the z basis."""
    return choi_ambiguity(choi.matrix, "direct", tol)


def ambiguity_reverse(choi: ChoiMatrix, tol: float = 1e-9) -> float:
    """H(Y|E) in bits for Bob's z-basis bit."""
    return choi_ambiguity(choi.matrix, "reverse", tol)


def error_rates(choi: ChoiMatrix) -> ErrorRates:
    """Matched-basis flip probabilities; equal to (1 - r_aa)/2 per axis."""
    ch = affine_from_choi(choi, tol=1e-6)
    d = np.diag(ch.r)
    return ErrorRates(*(float(0.5 * (1.0 - v)) for v in d))


def key_bases(direction: str) -> tuple[Basis, Basis]:
    """(Alice's basis, Bob's basis) of the key pair: Bob measures x for the
    mismatched variant, z otherwise; Alice always prepares z."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return (Basis.Z, Basis.X) if direction == "mismatched" else (Basis.Z, Basis.Z)


def key_joint(table: np.ndarray, direction: str) -> JointDistribution:
    """The key pair's joint P(x, y) oriented as P(key, helper).

    Reverse reconciliation distills the key from Bob's bits, so the table is
    transposed; direct and mismatched distill from Alice's.
    """
    key_bases(direction)  # checks the direction
    table = np.asarray(table)
    return JointDistribution(table.T if direction == "reverse" else table)


def keyrate(choi: ChoiMatrix, direction: str = "direct") -> RateReport:
    """Secret-key rate of the tomography-based processing, one direction.

    direct:      H(X|E) - H(X|Y)   (key from Alice's z-basis bits)
    reverse:     H(Y|E) - H(Y|X)   (key from Bob's z-basis bits)
    mismatched:  H(X|E) - H(X|Y')  (Bob measured in the x basis)
    """
    ch = affine_from_choi(choi, tol=1e-6)
    joint = key_joint(joint_distribution(ch, *key_bases(direction)), direction)
    ambiguity = ambiguity_reverse(choi) if direction == "reverse" else ambiguity_direct(choi)
    return RateReport.build(direction, ambiguity, cond_entropy(joint))


# ---------------------------------------------------------------------------
# baselines that ignore mismatched statistics
# ---------------------------------------------------------------------------


def bell_diagonal_probs(choi: ChoiMatrix) -> np.ndarray:
    """Diagonal of the Choi matrix in the Bell basis, ordered (I, Z, X, Y): the
    Pauli weights of (r_zz, r_xx, r_yy), the Choi coefficients 0, 4 and 8."""
    return pauli_weights(choi_coefficients(choi.matrix)[0:9:4])


def twirl(choi: ChoiMatrix) -> ChoiMatrix:
    """Project onto the Bell-diagonal (Pauli channel) subspace."""
    q = np.clip(bell_diagonal_probs(choi), 0.0, None)
    theta = np.zeros(12)
    theta[0:9:4] = pauli_diagonal(q / q.sum())
    return ChoiMatrix(choi_from_coefficients(theta))


def keyrate_conventional_bb84(choi: ChoiMatrix) -> float:
    """Matched-statistics-only baseline 1 - h(p_x) - h(p_z), unclamped."""
    er = error_rates(choi)
    return 1.0 - binary_entropy(er.p_x) - binary_entropy(er.p_z)


def keyrate_conventional_sixstate(choi: ChoiMatrix) -> float:
    """Direct rate of the twirled channel, the worst case consistent with the
    three matched error rates; unclamped."""
    rep = keyrate(twirl(choi), "direct")
    return rep.raw_rate


def unital_ambiguity_closed_form(ch: AffineChannel, direction: str = "direct") -> float:
    """H(X|E) of a unital channel in closed form.

    Equals 1 - H(choi spectrum) + h((1 + |column|)/2) with the z column of
    ``r`` for direct reconciliation and the z row for reverse.  Checked
    against :func:`ambiguity_direct` in the test-suite; requires t = 0.
    """
    if not ch.is_unital():
        raise ValueError("closed form requires a unital channel (t = 0)")
    choi = choi_from_affine(ch)
    spec = np.clip(choi.eigenvalues(), 0.0, None)
    vec = ch.r[:, 0] if direction == "direct" else ch.r[0, :]
    rnorm = min(float(np.linalg.norm(vec)), 1.0)
    return 1.0 - _plogp(spec) + binary_entropy(0.5 * (1.0 + rnorm))


# ---------------------------------------------------------------------------
# closed-form example rates, exposed for fixture generation
# ---------------------------------------------------------------------------


def closed_form_example_rates(kind: str, param: float) -> float:
    """Analytic key rates for the two worked example channel families.

    ``kind='amplitude_damping_direct'``:
        1 + h(p)/2 - h(p/2) - ((1+p)/2) h(1/(1+p)), which crosses zero at
        exactly p = 1/2.
    ``kind='rotation'``:
        1 - h(sin^2(theta/2)), the direct rate of the rotation channel.
    """
    h = binary_entropy
    if kind == "amplitude_damping_direct":
        p = param
        return 1.0 + 0.5 * h(p) - h(0.5 * p) - 0.5 * (1.0 + p) * h(1.0 / (1.0 + p))
    if kind == "rotation":
        return 1.0 - h(float(np.sin(0.5 * param) ** 2))
    raise ValueError(f"unknown closed-form kind {kind!r}")
