import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    PauliProbs,
    joint_tables,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
)
from qkdpost.keyrate import key_bases
from qkdpost.reconciliation import LLR_CLAMP, DecodeResult, _check_parity, _prior_llrs
from qkdpost.simulate import ExchangeResult, ProtocolConfig, simulate_exchange
from qkdpost.tomography import TallyTable


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


def exchange_oracle(config):
    """The exchange written as full-length arrays: the stream oracle.

    Draws n of Alice's bits, n of Alice's bases, n of Bob's bases and n
    uniforms from ``default_rng(seed_channel)``, each in one call, and keeps
    every intermediate at length n.
    """
    rng = np.random.default_rng(config.seed_channel)
    bases = config.bases
    nb = len(bases)
    n = config.n_signals
    abit = rng.integers(0, 2, size=n)
    abas = rng.integers(0, nb, size=n)
    bbas = rng.integers(0, nb, size=n)
    # P(y = 1 | a, x, b), indexed [a, x, b]; the factor 2 undoes P(x) = 1/2 exactly
    p1 = 2.0 * joint_tables(config.channel, bases)[..., 1].transpose(0, 2, 1)
    ybit = (rng.random(n) < p1[abas, abit, bbas]).astype(np.int64)

    n_est = int(round(n * config.estimation_fraction))
    est = np.arange(n) < n_est
    flat = ((abas * nb + bbas) * 2 + abit) * 2 + ybit
    counts = np.bincount(flat[est], minlength=nb * nb * 4).reshape(nb, nb, 2, 2)
    tally = TallyTable(counts, bases)

    ia_key, ib_key = (bases.index(b) for b in key_bases(config.direction))
    mask = (~est) & (abas == ia_key) & (bbas == ib_key)
    return ExchangeResult(tally, abit[mask].astype(np.uint8), ybit[mask].astype(np.uint8))


def flooding_oracle(matrix, syn, priors, max_iter=100):
    """Sum-product decoding on the flooding schedule: the schedule oracle.

    Every check updates from the same variable totals in each sweep, and the
    totals are summed afresh from the prior and all messages.  ``sp_decode``
    must return exactly this on a code of one check group.
    """
    syn = np.asarray(syn, dtype=np.uint8)
    n, chk_ptr = matrix.n, matrix.chk_ptr
    var = np.append(matrix.chk_vars, n)
    row_weights = np.append(matrix.row_weights(), 1)
    sgn_syn = np.append(1.0 - 2.0 * syn, 1.0)
    prior = np.append(_prior_llrs(priors), 0.0)
    th = prior[var]
    cv = np.zeros(var.shape[0])
    for it in range(1, max_iter + 1):
        th -= cv
        np.clip(th, -LLR_CLAMP, LLR_CLAMP, out=th)
        th *= 0.5
        np.tanh(th, out=th)
        th[th == 0.0] = 1e-300
        prod = np.multiply.reduceat(th, chk_ptr) * sgn_syn
        cv = np.repeat(prod, row_weights)
        cv /= th
        np.clip(cv, -1 + 1e-15, 1 - 1e-15, out=cv)
        np.arctanh(cv, out=cv)
        cv *= 2.0
        np.clip(cv, -LLR_CLAMP, LLR_CLAMP, out=cv)
        tot = prior + np.bincount(var, weights=cv, minlength=n + 1)
        np.take(tot, var, out=th, mode="clip")
        if np.array_equal(_check_parity(chk_ptr, (th < 0.0).view(np.uint8)), syn):
            return DecodeResult((tot[:n] < 0.0).astype(np.uint8), True, it)
    return DecodeResult((tot[:n] < 0.0).astype(np.uint8), False, max_iter)


def alist_oracle(path):
    """An alist reader that parses and checks one column line at a time.

    Returns (n, m, chk_ptr, chk_vars), or raises ValueError naming the line.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [(k, line.split()) for k, line in enumerate(f, start=1) if line.strip()]
    if not lines:
        raise ValueError("empty alist file")
    cols = []
    try:
        lineno, tokens = lines[0]
        n, m = (int(v) for v in tokens)
        if n < 1 or m < 1:
            raise ValueError(f"sizes n={n} m={m} must be positive")
        lineno, tokens = lines[3] if len(lines) > 3 else (lines[-1][0], [])
        if len(tokens) != m:
            raise ValueError(f"expected m={m} row weights, got {len(tokens)}")
        for lineno, tokens in lines[4 : 4 + n]:
            ids = [int(v) for v in tokens]
            if min(ids, default=0) < 0:
                raise ValueError(f"negative check index {min(ids)}")
            rows = sorted(v - 1 for v in ids if v)
            if rows and rows[-1] >= m:
                raise ValueError(f"check index {rows[-1] + 1} above m={m}")
            if repeated := [a + 1 for a, b in zip(rows, rows[1:]) if a == b]:
                raise ValueError(f"check index {repeated[0]} repeated in one column")
            cols.append(rows)
    except ValueError as exc:
        raise ValueError(f"alist line {lineno}: {exc}") from None
    if len(cols) < n:
        raise ValueError(f"alist ends at line {lines[-1][0]}, before column {len(cols) + 1} of {n}")
    checks = [[] for _ in range(m)]
    for j, rows in enumerate(cols):
        for i in rows:
            checks[i].append(j)
    chk_ptr = np.cumsum([0] + [len(c) for c in checks])
    chk_vars = np.array([j for c in checks for j in c], dtype=np.int64)
    return n, m, chk_ptr, chk_vars


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
