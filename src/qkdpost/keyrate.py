"""Eavesdropper ambiguity and secret-key rates from an exactly known channel.

Eve is modeled as holding the full environment of the channel.  Her ambiguity
about Alice's bit (direct reconciliation) is the conditional von Neumann
entropy H(X|E); about Bob's bit (reverse reconciliation) it is H(Y|E).  Both
are computable from the Choi matrix alone:

* direct:  H(X|E) = 1 + (1/2) sum_x H(out_x) - H(choi), where out_x is the
  channel output for input |x><x|,
* reverse: purify the Choi matrix, trace out Alice, dephase Bob's system in
  the key basis, and take H(YE) - H(E).

The asymptotic secret-key rate is the ambiguity minus the syndrome rate the
reconciliation needs (a conditional Shannon entropy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineChannel,
    Basis,
    ChoiMatrix,
    affine_from_choi,
    choi_from_affine,
    joint_distribution,
)
from .entropy import (
    ZERO_CUTOFF,
    JointDistribution,
    _plogp,
    binary_entropy,
    cond_entropy,
)

DIRECTIONS = ("direct", "reverse", "mismatched")

# Bell vectors ordered to match PauliProbs (I, Z, X, Y); columns are states
_BELL = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=float,
) / np.sqrt(2.0)


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


def ambiguity_direct(choi: ChoiMatrix, tol: float = 1e-9) -> float:
    """H(X|E) in bits for a uniformly random key bit prepared in the z basis."""
    ev = choi.eigenvalues()
    if ev[0] < -tol:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {ev[0]:.3e})")
    ch = affine_from_choi(choi, tol=max(tol, 1e-6))
    return 1.0 + output_entropy(ch.r[:, 0], ch.t) - _plogp(np.clip(ev, 0.0, None))


def output_entropy(column: np.ndarray, t: np.ndarray) -> float:
    """(1/2) sum_x H(out_x) for inputs |x><x| of the z basis.

    ``column`` is the z column of ``r``; output x has Bloch vector
    ``(1 - 2x) * column + t``.
    """
    total = 0.0
    for x in (0, 1):
        rnorm = min(float(np.linalg.norm(column * (1.0 - 2.0 * x) + t)), 1.0)
        total += 0.5 * binary_entropy(0.5 * (1.0 + rnorm))
    return total


def ambiguity_reverse(choi: ChoiMatrix, tol: float = 1e-9) -> float:
    """H(Y|E) in bits, from a purification of the Choi matrix.

    The purification uses the eigendecomposition, so the environment has at
    most four dimensions; the result does not depend on that choice.
    """
    ev, vec = np.linalg.eigh(choi.matrix)
    if ev[0] < -tol:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {ev[0]:.3e})")
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    keep = ev > ZERO_CUTOFF
    lam, vec = ev[keep], vec[:, keep]
    rank = lam.size
    if rank == 0:
        raise ValueError("Choi matrix has no positive spectrum")
    # psi[a, b, k] amplitudes of the purification with environment index k
    psi = (vec * np.sqrt(lam)).reshape(2, 2, rank)
    rho_be = np.einsum("abk,acl->bkcl", psi, psi.conj()).reshape(2 * rank, 2 * rank)
    # dephase Bob: keep the two diagonal blocks (b = b')
    h_ye = 0.0
    for b in (0, 1):
        block = rho_be[b * rank : (b + 1) * rank, b * rank : (b + 1) * rank]
        h_ye += _plogp(np.clip(np.linalg.eigvalsh(block), 0.0, None))
    h_e = _plogp(lam)
    return h_ye - h_e


def error_rates(choi: ChoiMatrix) -> ErrorRates:
    """Matched-basis flip probabilities; equal to (1 - r_aa)/2 per axis."""
    ch = affine_from_choi(choi, tol=1e-6)
    d = np.diag(ch.r)
    return ErrorRates(*(float(0.5 * (1.0 - v)) for v in d))


def cond_entropy_direction(direction: str) -> str:
    """The :func:`cond_entropy` direction a reconciliation direction pays for.

    Reverse reconciliation distills the key from Bob's bits, so its syndrome
    must cover H(Y|X); direct and mismatched distill from Alice's, H(X|Y).
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return "y_given_x" if direction == "reverse" else "x_given_y"


def keyrate(choi: ChoiMatrix, direction: str = "direct") -> RateReport:
    """Secret-key rate of the tomography-based processing, one direction.

    direct:      H(X|E) - H(X|Y)   (key from Alice's z-basis bits)
    reverse:     H(Y|E) - H(Y|X)   (key from Bob's z-basis bits)
    mismatched:  H(X|E) - H(X|Y')  (Bob measured in the x basis)
    """
    given = cond_entropy_direction(direction)
    ch = affine_from_choi(choi, tol=1e-6)
    bob_basis = Basis.X if direction == "mismatched" else Basis.Z
    joint = JointDistribution(joint_distribution(ch, Basis.Z, bob_basis))
    ambiguity = ambiguity_reverse(choi) if direction == "reverse" else ambiguity_direct(choi)
    return RateReport.build(direction, ambiguity, cond_entropy(joint, given))


# ---------------------------------------------------------------------------
# baselines that ignore mismatched statistics
# ---------------------------------------------------------------------------


def bell_diagonal_probs(choi: ChoiMatrix) -> np.ndarray:
    """Diagonal of the Choi matrix in the Bell basis, ordered (I, Z, X, Y)."""
    return np.real(np.einsum("ia,ij,jb->ab", _BELL.conj(), choi.matrix, _BELL)).diagonal().copy()


def twirl(choi: ChoiMatrix) -> ChoiMatrix:
    """Project onto the Bell-diagonal (Pauli channel) subspace."""
    q = np.clip(bell_diagonal_probs(choi), 0.0, None)
    q = q / q.sum()
    return ChoiMatrix((_BELL * q) @ _BELL.T)


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
    """H(X|E) of a unital channel without the purification detour.

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
