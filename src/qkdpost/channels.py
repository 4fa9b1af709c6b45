"""Qubit channel representations and measurement statistics.

A channel is stored in the Stokes (affine) picture: a real 3x3 matrix ``r``
and a translation 3-vector ``t`` acting on Bloch vectors ordered (z, x, y).
The equivalent Choi matrix, a read-only complex 4x4 array, is the Hermitian
unit-trace matrix of the two-qubit state obtained by sending half of a
maximally entangled pair through the channel; it is positive semidefinite
exactly when the channel is completely positive.

Axis order (z, x, y) is used everywhere, matching the index order of
:class:`Basis`.  With Pauli matrices ``s`` in that order and
``theta = (r row-major, t)``, the Choi matrix indexed (input, output) is

    C = (I (x) I + sum_ba r[b, a] s_a (x) s_b^T + sum_b t[b] I (x) s_b^T) / 4.

Its twelve operators ``_CHOI_BASIS`` are the one place that knows this
layout; ``tr(B_k B_l) = 4 delta_kl``, so ``theta_k = Re tr(B_k C)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Basis(Enum):
    """Measurement/preparation basis, one per Pauli axis."""

    Z = 0
    X = 1
    Y = 2

    @property
    def axis(self) -> int:
        return self.value

    @classmethod
    def from_letter(cls, letter: str) -> "Basis":
        try:
            return cls[letter.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown basis {letter!r}, expected one of z, x, y") from None


# Pauli matrices in (z, x, y) order, the Choi basis indexed like theta, and
# its (12, 16) reshapes for C from theta and (transposed) for theta from C
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
_CHOI_BASIS = np.array(
    [np.kron(p, s.T) for s in _PAULI for p in _PAULI] + [np.kron(np.eye(2), s.T) for s in _PAULI]
)
_CHOI_BASIS16 = _CHOI_BASIS.reshape(12, 16)
_CHOI_BASIS16_T = _CHOI_BASIS.transpose(0, 2, 1).reshape(12, 16)
_EYE16 = np.eye(4).reshape(16)
# the Bloch component sign of bit 0 and bit 1
_BIT_SIGNS = np.array([1.0, -1.0])
# (I, Z, X, Y) rows against (1, e_z, e_x, e_y) columns; symmetric, square 4 I
_PAULI_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], float)


def choi_coefficients(m: np.ndarray) -> np.ndarray:
    """The twelve ``Re tr(B_k m)`` of a 4x4 matrix, unchecked: ``(r row-major, t)``
    of a Choi matrix, and of any matrix the coefficients of its orthogonal
    projection onto the Hermitian matrices with output partial trace I/2."""
    return (_CHOI_BASIS16_T @ np.asarray(m).reshape(16)).real


def choi_from_coefficients(theta: np.ndarray) -> np.ndarray:
    """The complex 4x4 ``(I + sum_k theta_k B_k) / 4``, unchecked."""
    return ((_EYE16 + theta @ _CHOI_BASIS16) / 4.0).reshape(4, 4)


def pauli_diagonal(q: np.ndarray) -> np.ndarray:
    """The (e_z, e_x, e_y) contraction factors of (I, Z, X, Y) weights ``q``."""
    return (_PAULI_SIGNS[1:] * q).sum(axis=1)


def pauli_weights(e: np.ndarray) -> np.ndarray:
    """The (I, Z, X, Y) weights ``(1 +/- e_z +/- e_x +/- e_y) / 4``, unchecked."""
    return (_PAULI_SIGNS * np.concatenate(([1.0], e))).sum(axis=1) / 4.0


@dataclass(frozen=True)
class AffineChannel:
    """Trace-preserving qubit map theta -> r @ theta + t on Bloch vectors.

    Trace preservation holds by construction; complete positivity does not:
    it holds exactly when the Choi matrix of :func:`choi_from_affine` is PSD.
    """

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).reshape(3, 3).copy()
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)


def partial_trace_output(m: np.ndarray) -> np.ndarray:
    """Trace of a 4x4 input (x) output matrix over the output system.

    I/2 for any valid Choi matrix.
    """
    return np.einsum("iojo->ij", np.asarray(m).reshape(2, 2, 2, 2))


# A Choi matrix counts as PSD when its lowest eigenvalue is above -PSD_TOL;
# affine_from_choi reads one whose other conditions hold to AFFINE_TOL.
PSD_TOL = 1e-9
AFFINE_TOL = 1e-6


def check_choi(m: np.ndarray, tol: float) -> None:
    """Raise ValueError unless the 4x4 ``m`` is Hermitian with unit trace and
    output partial trace I/2, each to ``tol``; positivity is not tested."""
    if np.abs(m - m.conj().T).max() > tol:
        raise ValueError("Choi matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > tol:
        raise ValueError("Choi matrix trace differs from 1")
    if np.abs(partial_trace_output(m) - np.eye(2) / 2).max() > tol:
        raise ValueError("partial trace over the output system is not I/2")


@dataclass(frozen=True)
class PauliProbs:
    """Mixing probabilities of the four Pauli conjugations (I, Z, X, Y)."""

    q_i: float
    q_z: float
    q_x: float
    q_y: float

    def __post_init__(self):
        q = self.as_array()
        if (q < -1e-9).any() or abs(q.sum() - 1.0) > 1e-9:
            raise ValueError(f"not a probability distribution: {q}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q_i, self.q_z, self.q_x, self.q_y])

    def diagonal(self) -> np.ndarray:
        """The (e_z, e_x, e_y) contraction factors of the matching channel."""
        return pauli_diagonal(self.as_array())


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------


def make_amplitude_damping(p: float) -> AffineChannel:
    """Relaxation toward |0> with decay probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping parameter {p} outside [0, 1]")
    s = math.sqrt(1.0 - p)
    return AffineChannel(np.diag([1.0 - p, s, s]), np.array([p, 0.0, 0.0]))


def make_rotation(theta: float) -> AffineChannel:
    """Unitary rotation of the Bloch sphere by ``theta`` in the z-x plane."""
    c, s = math.cos(theta), math.sin(theta)
    return AffineChannel(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))


def make_pauli(q: PauliProbs) -> AffineChannel:
    return AffineChannel(np.diag(q.diagonal()), np.zeros(3))


# ---------------------------------------------------------------------------
# Choi matrix conversions
# ---------------------------------------------------------------------------


def choi_from_affine(ch: AffineChannel) -> np.ndarray:
    """Read-only complex 4x4 Choi matrix of the twelve affine parameters
    (layout in the module docstring)."""
    m = choi_from_coefficients(np.concatenate([ch.r.reshape(9), ch.t]))
    m.setflags(write=False)
    return m


def affine_from_choi(choi: np.ndarray) -> AffineChannel:
    """Invert :func:`choi_from_affine` after :func:`check_choi` to AFFINE_TOL."""
    check_choi(choi, AFFINE_TOL)
    theta = choi_coefficients(choi)
    return AffineChannel(theta[:9], theta[9:])


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def _joint(ch: AffineChannel, a, b) -> np.ndarray:
    """P(x, y) in the last two axes for a uniform x sent on axis ``a`` and read
    on axis ``b`` (integer arrays that broadcast): the output component is
    ``r[b, a] s_x + t[b]`` with s = (1, -1), and P(y | x) = (1 + s_y component) / 2."""
    comp = ch.r[b, a][..., None] * _BIT_SIGNS + ch.t[b][..., None]
    return 0.5 * np.clip(0.5 * (1.0 + _BIT_SIGNS * comp[..., None]), 0.0, 1.0)


def joint_distribution(ch: AffineChannel, a: Basis, b: Basis) -> np.ndarray:
    """2x2 table P(x, y) for a uniform input bit; rows x, columns y."""
    return _joint(ch, a.axis, b.axis)


def joint_tables(ch: AffineChannel, bases: tuple[Basis, ...]) -> np.ndarray:
    """Exact P(x, y) of every basis pair, indexed [a, b, x, y] like a tally."""
    axes = np.array([b.axis for b in bases])
    return _joint(ch, axes[:, None], axes)


# ---------------------------------------------------------------------------
# channel spec files
#
# One-line formats:
#   kind=amplitude_damping p=0.2
#   kind=rotation theta=0.7854
#   kind=pauli qi=0.7 qz=0.1 qx=0.1 qy=0.1
#   kind=explicit  followed by 9 entries of r (row-major) and 3 entries of t
# ---------------------------------------------------------------------------


def _finite(token: str) -> float:
    if not math.isfinite(value := float(token)):
        raise ValueError(f"channel parameter {token!r} is not finite")
    return value


def parse_channel_spec(text: str) -> AffineChannel:
    """Parse a one-line spec; raises ValueError naming the first token its
    kind does not take: a repeated key, another kind's key, or a bare number
    after a named kind."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty channel spec")
    keys = [tok.split("=", 1)[0].strip().lower() if "=" in tok else None for tok in tokens]
    if "kind" not in keys:
        raise ValueError("channel spec is missing kind=")
    kind = tokens[keys.index("kind")].split("=", 1)[1].strip().lower()
    # the keys each named kind takes, in the order its constructor reads them
    named = {
        "amplitude_damping": (("p",), make_amplitude_damping),
        "rotation": (("theta",), make_rotation),
        "pauli": (("qi", "qz", "qx", "qy"), lambda *q: make_pauli(PauliProbs(*q))),
        "explicit": ((), None),
    }
    if kind not in named:
        raise ValueError(f"unknown channel kind {kind!r}")
    takes, build = named[kind]
    kv = {}
    numbers = []
    for tok, key in zip(tokens, keys):
        if key is None and kind == "explicit":
            numbers.append(_finite(tok))
        elif key in ("kind", *takes) and key not in kv:
            kv[key] = tok.split("=", 1)[1].strip()
        else:
            raise ValueError(f"{kind} channel spec: unexpected token {tok!r}")
    if build is not None:
        if missing := [key for key in takes if key not in kv]:
            raise ValueError(f"{kind} channel spec is missing {missing[0]}=")
        return build(*(_finite(kv[key]) for key in takes))
    if len(numbers) != 12:
        raise ValueError(f"explicit channel needs 9 r entries plus 3 t entries, got {len(numbers)}")
    return AffineChannel(np.array(numbers[:9]).reshape(3, 3), np.array(numbers[9:]))


def format_channel_spec(ch: AffineChannel) -> str:
    entries = " ".join(repr(float(v)) for v in ch.r.ravel())
    tail = " ".join(repr(float(v)) for v in ch.t)
    return f"kind=explicit {entries} {tail}"


def load_channel_spec(path) -> AffineChannel:
    with open(path, "r", encoding="utf-8") as f:
        body = " ".join(line.split("#", 1)[0] for line in f)
    return parse_channel_spec(body)
