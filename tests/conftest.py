import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    PauliProbs,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
)
from qkdpost.simulate import ProtocolConfig, simulate_exchange


def random_rotation_matrix(rng):
    a = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_unital_channel(rng):
    """Rotation . Pauli . rotation, exploring all unital channels."""
    while True:
        e = rng.uniform(-1.0, 1.0, 3)
        q = (
            np.array(
                [
                    1 + e[0] + e[1] + e[2],
                    1 + e[0] - e[1] - e[2],
                    1 - e[0] + e[1] - e[2],
                    1 - e[0] - e[1] + e[2],
                ]
            )
            / 4.0
        )
        if (q >= 0).all():
            break
    r = random_rotation_matrix(rng) @ np.diag(e) @ random_rotation_matrix(rng)
    return AffineChannel(r, np.zeros(3))


def random_cp_channel(rng):
    """Generic completely positive channel: rotated damping after a unital."""
    unital = random_unital_channel(rng)
    damp = make_amplitude_damping(rng.uniform(0.0, 0.9))
    o3 = random_rotation_matrix(rng)
    return AffineChannel(o3 @ damp.r @ unital.r, o3 @ damp.t)


def random_affine_channel(rng, k):
    """A CP channel for even ``k``, a uniform box draw (almost never CP) for odd."""
    if k % 2 == 0:
        return random_cp_channel(rng)
    return AffineChannel(rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, 3))


# ---------------------------------------------------------------------------
# the Choi layout written out entry by entry: oracles for the basis-table
# conversions in qkdpost.channels
# ---------------------------------------------------------------------------


def choi_entries_oracle(ch):
    """The 4x4 Choi matrix of ``ch``, each entry a hand-written formula."""
    (rzz, rzx, rzy), (rxz, rxx, rxy), (ryz, ryx, ryy) = ch.r
    tz, tx, ty = ch.t
    i = 1j
    m = np.array(
        [
            [1 + rzz + tz, rxz + tx + i * (ryz + ty), rzx - i * rzy, rxx + ryy + i * (ryx - rxy)],
            [rxz + tx - i * (ryz + ty), 1 - rzz - tz, rxx - ryy - i * (ryx + rxy), -rzx + i * rzy],
            [rzx + i * rzy, rxx - ryy + i * (ryx + rxy), 1 - rzz + tz, -rxz + tx - i * (ryz - ty)],
            [rxx + ryy - i * (ryx - rxy), -rzx - i * rzy, -rxz + tx + i * (ryz - ty), 1 + rzz - tz],
        ],
        dtype=complex,
    )
    return m / 4.0


def affine_entries_oracle(m):
    """``(r, t)`` of a Choi matrix ``m``, one formula per parameter."""
    d = np.real(np.diag(m))
    r = np.array(
        [
            [
                d[0] - d[1] - d[2] + d[3],
                2.0 * (m[0, 2].real - m[1, 3].real),
                -2.0 * (m[0, 2].imag - m[1, 3].imag),
            ],
            [
                2.0 * (m[0, 1].real - m[2, 3].real),
                2.0 * (m[0, 3].real + m[1, 2].real),
                -2.0 * (m[0, 3].imag + m[1, 2].imag),
            ],
            [
                2.0 * (m[0, 1].imag - m[2, 3].imag),
                2.0 * (m[0, 3].imag - m[1, 2].imag),
                2.0 * (m[0, 3].real - m[1, 2].real),
            ],
        ]
    )
    t = np.array(
        [
            d[0] - d[1] + d[2] - d[3],
            2.0 * (m[0, 1].real + m[2, 3].real),
            2.0 * (m[0, 1].imag + m[2, 3].imag),
        ]
    )
    return r, t


def partial_trace_oracle(m):
    """Trace over the output of a 4x4 (input, output) matrix, entry by entry."""
    return np.array(
        [[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]], [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]]
    )


def affine_projection_oracle(m):
    """Hermitian part of ``m`` minus (half its output-trace defect) (x) I."""
    m = 0.5 * (m + m.conj().T)
    defect = 0.5 * (partial_trace_oracle(m) - 0.5 * np.eye(2))
    m[0::2, 0::2] -= defect
    m[1::2, 1::2] -= defect
    return m


# Bell vectors in (I, Z, X, Y) order as columns: phi+, phi-, psi+, psi-
BELL_ORACLE = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=float
) / np.sqrt(2.0)


def bell_diagonal_oracle(m):
    """Diagonal of ``m`` in the Bell basis, ordered (I, Z, X, Y)."""
    return np.real(np.einsum("ia,ij,ja->a", BELL_ORACLE, m, BELL_ORACLE))


def twirl_oracle(m):
    """Bell-diagonal part of ``m``, its weights clipped at 0 and renormalised."""
    q = np.clip(bell_diagonal_oracle(m), 0.0, None)
    return (BELL_ORACLE * (q / q.sum())) @ BELL_ORACLE.T


def _entropy_bits(ev):
    ev = ev[ev > 1e-12]
    return float(-(ev * np.log2(ev)).sum())


def purification_ambiguity(c, direction):
    """H(K|E) in bits from an explicit purification of the Choi matrix ``c``.

    ``psi[a, b, k]`` holds the amplitudes of a purification with environment
    index k.  The key bit is A's z value (direct) or B's (reverse); E's state
    given K = k is read off ``psi`` directly, and H(E) is the Choi entropy.
    """
    ev, vec = np.linalg.eigh(np.asarray(c, dtype=complex))
    keep = ev > 1e-12
    lam, vec = ev[keep], vec[:, keep]
    psi = (vec * np.sqrt(lam)).reshape(2, 2, lam.size)
    if direction == "reverse":
        psi = psi.transpose(1, 0, 2)
    h_ke = sum(
        _entropy_bits(np.linalg.eigvalsh(psi[k].T @ psi[k].conj())) for k in (0, 1)
    )
    return h_ke - _entropy_bits(lam)


def conjugate_partner(ch):
    """Channel with the complex-conjugate state: same observable block and
    r_yy, all other hidden parameters negated."""
    r = ch.r.copy()
    for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)):
        r[i, j] = -r[i, j]
    t = ch.t.copy()
    t[2] = -t[2]
    return AffineChannel(r, t)


def completions_of_omega(ch, interval, rng, count):
    """Random full completions sharing ch's observable block.

    Mixtures of the channel, its conjugate partner, and reduced completions
    across the feasible interval; all are valid channels with the same
    observable parameters and generically nonzero hidden parameters.
    """
    from qkdpost.worstcase import ObservableParams

    omega = ObservableParams.from_channel(ch)
    partner = conjugate_partner(ch)
    out = []
    for _ in range(count):
        lam = rng.uniform(0.0, 1.0)
        mu = rng.uniform(0.0, 1.0)
        r_yy = rng.uniform(interval.lo, interval.hi)
        reduced = omega.complete(r_yy)
        r = mu * (lam * ch.r + (1 - lam) * partner.r) + (1 - mu) * reduced.r
        t = mu * (lam * ch.t + (1 - lam) * partner.t) + (1 - mu) * reduced.t
        out.append(AffineChannel(r, t))
    return out


def pool_tally(channel, seed=1001):
    """BB84 estimation tally of a 20,000-signal block at a channel seed."""
    config = ProtocolConfig(protocol="bb84", channel=channel, n_signals=20_000, seed_channel=seed)
    return simulate_exchange(config).tally


# the channels of the short-blocks benchmark workload, whose channel seeds
# run over 1000-1015
POOL_CHANNELS = (
    make_amplitude_damping(0.02),
    make_amplitude_damping(0.1),
    make_rotation(0.3),
    make_pauli(PauliProbs(0.94, 0.02, 0.02, 0.02)),
)


@pytest.fixture(scope="session")
def pool_tallies():
    """The 64 BB84 pool tallies: every pool channel at seeds 1000-1015."""
    return [pool_tally(ch, seed) for ch in POOL_CHANNELS for seed in range(1000, 1016)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
