"""Qubit channel representations and measurement statistics.

A channel is stored in the Stokes (affine) picture: a real 3x3 matrix ``r``
and a translation 3-vector ``t`` acting on Bloch vectors ordered (z, x, y).
The equivalent Choi matrix is the 4x4 Hermitian unit-trace matrix of the
two-qubit state obtained by sending half of a maximally entangled pair
through the channel; it is positive semidefinite exactly when the channel is
completely positive.

Axis order (z, x, y) is used everywhere, matching the index order of
:class:`Basis`.
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


# Eigenvector conventions, fixed once for the whole package:
#   |0_z> = (1, 0),  |1_z> = (0, 1)
#   |0_x> = (1, 1)/sqrt(2),   |1_x> = (1, -1)/sqrt(2)
#   |0_y> = (1, i)/sqrt(2),   |1_y> = (1, -i)/sqrt(2)
_S = 1.0 / math.sqrt(2.0)
KETS = {
    Basis.Z: np.array([[1, 0], [0, 1]], dtype=complex),
    Basis.X: np.array([[_S, _S], [_S, -_S]], dtype=complex),
    Basis.Y: np.array([[_S, _S * 1j], [_S, -_S * 1j]], dtype=complex),
}
# columns of KETS[b] are |0_b>, |1_b>


def bloch_of_state(basis: Basis, bit: int) -> np.ndarray:
    """Bloch vector of |bit_basis>: +/-1 on the basis axis."""
    v = np.zeros(3)
    v[basis.axis] = 1.0 - 2.0 * bit
    return v


@dataclass(frozen=True)
class BlochVector:
    """Point in (or on) the Bloch ball, components ordered (z, x, y)."""

    theta_z: float
    theta_x: float
    theta_y: float

    def __post_init__(self):
        if self.norm() > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector norm {self.norm():.6f} exceeds 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_z, self.theta_x, self.theta_y])

    def norm(self) -> float:
        return math.sqrt(self.theta_z**2 + self.theta_x**2 + self.theta_y**2)


@dataclass(frozen=True)
class AffineChannel:
    """Trace-preserving qubit map theta -> r @ theta + t on Bloch vectors.

    Trace preservation holds by construction; complete positivity does not,
    use :func:`is_completely_positive` to check it.
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

    def apply(self, theta: np.ndarray) -> np.ndarray:
        return self.r @ np.asarray(theta, dtype=float) + self.t

    def is_unital(self) -> bool:
        """True when the translation vanishes, to within 1e-9."""
        return bool(np.abs(self.t).max() <= 1e-9)


def partial_trace_output(m: np.ndarray) -> np.ndarray:
    """Trace of a 4x4 input (x) output matrix over the output system.

    I/2 for any valid Choi matrix.
    """
    return np.array(
        [[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]], [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]]
    )


@dataclass(frozen=True)
class ChoiMatrix:
    """4x4 Hermitian unit-trace matrix of (id (x) channel) on a Bell pair."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(4, 4).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def validate(self, tol: float = 1e-9) -> None:
        m = self.matrix
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
        return np.array(
            [
                self.q_i + self.q_z - self.q_x - self.q_y,
                self.q_i - self.q_z + self.q_x - self.q_y,
                self.q_i - self.q_z - self.q_x + self.q_y,
            ]
        )


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------


def make_identity() -> AffineChannel:
    return AffineChannel(np.eye(3), np.zeros(3))


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


def pauli_probs_from_diagonal(e_z: float, e_x: float, e_y: float) -> PauliProbs:
    """Invert the diagonal contraction factors back to Pauli probabilities.

    Raises ValueError when any probability comes out below -1e-9,
    which means the diagonal does not belong to a completely positive
    (unital, axis-aligned) channel.
    """
    q = np.array(
        [
            1.0 + e_z + e_x + e_y,
            1.0 + e_z - e_x - e_y,
            1.0 - e_z + e_x - e_y,
            1.0 - e_z - e_x + e_y,
        ]
    ) / 4.0
    if (q < -1e-9).any():
        raise ValueError(f"diagonal ({e_z}, {e_x}, {e_y}) gives negative probabilities {q}")
    q = np.clip(q, 0.0, None)
    return PauliProbs(*(q / q.sum()))


# ---------------------------------------------------------------------------
# Choi matrix conversions
# ---------------------------------------------------------------------------


def choi_from_affine(ch: AffineChannel) -> ChoiMatrix:
    """Choi matrix from the twelve affine parameters (prefactor 1/4)."""
    (rzz, rzx, rzy), (rxz, rxx, rxy), (ryz, ryx, ryy) = ch.r
    tz, tx, ty = ch.t
    i = 1j
    m = np.array(
        [
            [
                1 + rzz + tz,
                rxz + tx + i * (ryz + ty),
                rzx - i * rzy,
                rxx + ryy + i * (ryx - rxy),
            ],
            [
                rxz + tx - i * (ryz + ty),
                1 - rzz - tz,
                rxx - ryy - i * (ryx + rxy),
                -rzx + i * rzy,
            ],
            [
                rzx + i * rzy,
                rxx - ryy + i * (ryx + rxy),
                1 - rzz + tz,
                -rxz + tx - i * (ryz - ty),
            ],
            [
                rxx + ryy - i * (ryx - rxy),
                -rzx - i * rzy,
                -rxz + tx + i * (ryz - ty),
                1 + rzz - tz,
            ],
        ],
        dtype=complex,
    ) / 4.0
    return ChoiMatrix(m)


def affine_from_choi(choi: ChoiMatrix, tol: float = 1e-9) -> AffineChannel:
    """Invert :func:`choi_from_affine`; linear in the matrix entries."""
    choi.validate(tol)
    m = choi.matrix
    d = np.real(np.diag(m))
    rzz = d[0] - d[1] - d[2] + d[3]
    tz = d[0] - d[1] + d[2] - d[3]
    tx = 2.0 * (m[0, 1].real + m[2, 3].real)
    rxz = 2.0 * (m[0, 1].real - m[2, 3].real)
    ty = 2.0 * (m[0, 1].imag + m[2, 3].imag)
    ryz = 2.0 * (m[0, 1].imag - m[2, 3].imag)
    rzx = 2.0 * (m[0, 2].real - m[1, 3].real)
    rzy = -2.0 * (m[0, 2].imag - m[1, 3].imag)
    rxx = 2.0 * (m[0, 3].real + m[1, 2].real)
    ryy = 2.0 * (m[0, 3].real - m[1, 2].real)
    ryx = 2.0 * (m[0, 3].imag - m[1, 2].imag)
    rxy = -2.0 * (m[0, 3].imag + m[1, 2].imag)
    r = np.array([[rzz, rzx, rzy], [rxz, rxx, rxy], [ryz, ryx, ryy]])
    return AffineChannel(r, np.array([tz, tx, ty]))


def is_completely_positive(ch: AffineChannel, tol: float = 1e-9) -> bool:
    """True when the Choi matrix is PSD up to ``-tol`` on the lowest eigenvalue."""
    return choi_from_affine(ch).min_eigenvalue() >= -tol


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def outcome_probability(ch: AffineChannel, a: Basis, x: int, b: Basis, y: int) -> float:
    """Probability of Bob reading ``y`` in basis ``b`` when Alice sent ``x`` in ``a``."""
    theta_out = ch.apply(bloch_of_state(a, x))
    p = 0.5 * (1.0 + (1.0 - 2.0 * y) * theta_out[b.axis])
    return float(min(max(p, 0.0), 1.0))


def joint_distribution(ch: AffineChannel, a: Basis, b: Basis) -> np.ndarray:
    """2x2 table P(x, y) for a uniform input bit; rows x, columns y."""
    p = np.empty((2, 2))
    for x in (0, 1):
        for y in (0, 1):
            p[x, y] = 0.5 * outcome_probability(ch, a, x, b, y)
    return p


def singular_values_zx(ch: AffineChannel) -> tuple[float, float]:
    """Singular values of the z-x block of ``r``, sorted descending."""
    block = ch.r[:2, :2]
    s = np.linalg.svd(block, compute_uv=False)
    return float(s[0]), float(s[1])


# ---------------------------------------------------------------------------
# channel spec files
#
# One-line formats:
#   kind=amplitude_damping p=0.2
#   kind=rotation theta=0.7854
#   kind=pauli qi=0.7 qz=0.1 qx=0.1 qy=0.1
#   kind=explicit  followed by 9 entries of r (row-major) and 3 entries of t
# ---------------------------------------------------------------------------


def parse_channel_spec(text: str) -> AffineChannel:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty channel spec")
    kv = {}
    numbers = []
    for tok in tokens:
        if "=" in tok:
            k, v = tok.split("=", 1)
            kv[k.strip().lower()] = v.strip()
        else:
            numbers.append(float(tok))
    kind = kv.get("kind")
    if kind is None:
        raise ValueError("channel spec is missing kind=")
    kind = kind.lower()

    def num(key: str) -> float:
        if key not in kv:
            raise ValueError(f"{kind} channel spec is missing {key}=")
        return float(kv[key])

    if kind == "amplitude_damping":
        return make_amplitude_damping(num("p"))
    if kind == "rotation":
        return make_rotation(num("theta"))
    if kind == "pauli":
        return make_pauli(PauliProbs(num("qi"), num("qz"), num("qx"), num("qy")))
    if kind == "explicit":
        if len(numbers) != 12:
            raise ValueError(
                f"explicit channel needs 9 r entries plus 3 t entries, got {len(numbers)}"
            )
        return AffineChannel(np.array(numbers[:9]).reshape(3, 3), np.array(numbers[9:]))
    raise ValueError(f"unknown channel kind {kind!r}")


def format_channel_spec(ch: AffineChannel) -> str:
    entries = " ".join(repr(float(v)) for v in ch.r.ravel())
    tail = " ".join(repr(float(v)) for v in ch.t)
    return f"kind=explicit {entries} {tail}"


def load_channel_spec(path) -> AffineChannel:
    with open(path, "r", encoding="utf-8") as f:
        body = " ".join(line.split("#", 1)[0] for line in f)
    return parse_channel_spec(body)
