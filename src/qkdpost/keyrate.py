"""Eavesdropper ambiguity and secret-key rates from an exactly known channel.

Eve is modeled as holding the full environment of the channel.  Her ambiguity
about the key bit K is the conditional von Neumann entropy H(K|E).  The key
party says whose bit K is: party 0, Alice (K = X), for direct reconciliation
and for the mismatched variant, and party 1, Bob (K = Y), for reverse.  Both
come from the Choi matrix C alone as H(K|E) = H(KE) - S(C).  Given K = k a
purification of C leaves the other party and E in a pure state, so E's
spectrum is that of the other party's 2x2 block of C at fixed k, and H(KE)
is the entropy of those two blocks (:func:`key_entropy`).

The asymptotic secret-key rate is the ambiguity minus the syndrome rate the
reconciliation needs, H(K|helper) for the other party's bit as helper.
``_DIRECTION_TABLE`` is the one place a direction is decided: the bases the
key pair is measured in and the key party.  Every other layer reads it
through :func:`key_bases` and :func:`key_party`, and takes the key pair's
joint as P(key, helper) from :func:`key_joint` or :func:`channel_key_joint`.

The conventional baselines (Shor & Preskill, *PRL* 85, 441, 2000; Lo,
*QIC* 1, 81, 2001) read only the matched contraction factors r_aa, whose
flip probabilities are p_a = (1 - r_aa)/2.  BB84's is 1 - h(p_x) - h(p_z);
six-state's is 1 - H(q) of the Pauli weights q of (r_zz, r_xx, r_yy), the
direct rate of the Bell-diagonal channel with those factors, which is the
worst case consistent with the three error rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .channels import (
    PSD_TOL,
    AffineChannel,
    Basis,
    affine_from_choi,
    joint_tables,
    pauli_weights,
)
from .entropy import _plogp, binary_entropy, cond_entropy

# direction -> (Alice's basis, Bob's basis, key party) of the key pair; key
# party 0 distills the key from Alice's bits, 1 from Bob's
_DIRECTION_TABLE = {
    "direct": (Basis.Z, Basis.Z, 0),
    "reverse": (Basis.Z, Basis.Z, 1),
    "mismatched": (Basis.Z, Basis.X, 0),
}
DIRECTIONS = tuple(_DIRECTION_TABLE)
_KEY_BLOCKS = ("kakb->kab", "akbk->kab")

@dataclass(frozen=True)
class RateReport:
    """Key-rate decision for one reconciliation direction.

    ``key_rate`` is clamped at zero (a negative value means abort);
    ``raw_rate`` keeps the unclamped difference.
    """

    ambiguity: float
    cond_entropy: float
    raw_rate: float
    key_rate: float

    @classmethod
    def build(cls, ambiguity: float, ce: float) -> "RateReport":
        raw = ambiguity - ce
        return cls(ambiguity, ce, raw, max(0.0, raw))


def key_entropy(c: np.ndarray, direction: str) -> float:
    """H(KE) in bits: the entropy of the two 2x2 blocks of ``c`` at fixed key bit.

    ``c`` is a real or complex 4x4 Choi matrix indexed (input, output).  The
    key bit is the input when Alice is the key party (blocks
    ``m[k, :, k, :]``) and the output when Bob is (blocks ``m[:, k, :, k]``),
    with ``m = c.reshape(2, 2, 2, 2)``; ``_KEY_BLOCKS`` stacks them over k.
    """
    blocks = np.einsum(_KEY_BLOCKS[key_party(direction)], np.asarray(c).reshape(2, 2, 2, 2))
    with _lapack.errors():
        return _plogp(_lapack.eigvalsh(blocks))


def choi_ambiguity(c: np.ndarray, direction: str) -> float:
    """H(K|E) = H(KE) - S(C) in bits for a real or complex 4x4 Choi matrix.

    Raises ValueError when the lowest eigenvalue of ``c`` is below ``-PSD_TOL``.
    """
    with _lapack.errors():
        ev = _lapack.eigvalsh(np.asarray(c))
    if ev[0] < -PSD_TOL:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {ev[0]:.3e})")
    return key_entropy(c, direction) - _plogp(ev)


def _direction_row(direction: str) -> tuple[Basis, Basis, int]:
    row = _DIRECTION_TABLE.get(direction)
    if row is None:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return row


def key_bases(direction: str) -> tuple[Basis, Basis]:
    """(Alice's basis, Bob's basis) of the key pair."""
    return _direction_row(direction)[:2]


def key_party(direction: str) -> int:
    """Whose bit is the key: 0 for Alice's, 1 for Bob's."""
    return _direction_row(direction)[2]


def key_joint(table: np.ndarray, direction: str) -> np.ndarray:
    """Read-only copy of the key pair's 2x2 joint P(x, y) oriented as
    P(key, helper): transposed when Bob is the key party."""
    table = np.asarray(table, dtype=float)
    joint = (table.T if key_party(direction) else table).copy()
    joint.setflags(write=False)
    return joint


def channel_key_joint(ch: AffineChannel, direction: str) -> np.ndarray:
    """The key pair's exact joint under channel ``ch``, as P(key, helper)."""
    return key_joint(joint_tables(ch, key_bases(direction))[0, 1], direction)


def keyrate(choi: np.ndarray, direction: str) -> RateReport:
    """Secret-key rate of the tomography-based processing, one direction.

    direct:      H(X|E) - H(X|Y)   (key from Alice's z-basis bits)
    reverse:     H(Y|E) - H(Y|X)   (key from Bob's z-basis bits)
    mismatched:  H(X|E) - H(X|Y')  (Bob measured in the x basis)
    """
    joint = channel_key_joint(affine_from_choi(choi), direction)
    return RateReport.build(choi_ambiguity(choi, direction), cond_entropy(joint))


# ---------------------------------------------------------------------------
# baselines that ignore mismatched statistics
# ---------------------------------------------------------------------------


def keyrate_conventional_bb84(r_zz: float, r_xx: float) -> float:
    """BB84 rate 1 - h(p_x) - h(p_z), p_a = (1 - r_aa)/2 clamped to [0, 1];
    a negative value is returned as is."""
    p_z, p_x = (min(max(0.5 * (1.0 - r), 0.0), 1.0) for r in (r_zz, r_xx))
    return 1.0 - binary_entropy(p_x) - binary_entropy(p_z)


def keyrate_conventional_sixstate(r_diag: np.ndarray) -> float:
    """Six-state rate 1 - H(q) of the Pauli weights q of ``r_diag`` =
    (r_zz, r_xx, r_yy), clipped at 0 and renormalised; a negative value is
    returned as is."""
    q = np.clip(pauli_weights(np.asarray(r_diag, dtype=float)), 0.0, None)
    return 1.0 - _plogp(q / q.sum())
