import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    Basis,
    PauliProbs,
    choi_from_affine,
    joint_tables,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
)
from qkdpost.entropy import ZERO_CUTOFF, _plogp, binary_entropy
from qkdpost.keyrate import key_bases, keyrate
from qkdpost.reconciliation import LLR_CLAMP, DecodeResult, ParityCheckMatrix, _bits
from qkdpost.simulate import ExchangeResult, ProtocolConfig, simulate_exchange
from qkdpost.tomography import (
    _BARRIER_G,
    BB84_BASES,
    SIXSTATE_BASES,
    TallyTable,
    _barrier_rho,
    estimate_rates_bb84,
    estimate_rates_sixstate,
    sample_tally,
)


def make_identity():
    return AffineChannel(np.eye(3), np.zeros(3))


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


# Basis kets, |0_b> and |1_b> as the columns of KETS[b]:
#   |0_z> = (1, 0),  |1_z> = (0, 1)
#   |0_x> = (1, 1)/sqrt(2),   |1_x> = (1, -1)/sqrt(2)
#   |0_y> = (1, i)/sqrt(2),   |1_y> = (1, -i)/sqrt(2)
_S = 1.0 / np.sqrt(2.0)
KETS = {
    Basis.Z: np.array([[1, 0], [0, 1]], dtype=complex),
    Basis.X: np.array([[_S, _S], [_S, -_S]], dtype=complex),
    Basis.Y: np.array([[_S, _S], [_S * 1j, -_S * 1j]], dtype=complex),
}


def is_completely_positive(ch, tol=1e-9):
    """True when the Choi matrix is PSD up to ``-tol`` on the lowest eigenvalue."""
    return np.linalg.eigvalsh(choi_from_affine(ch))[0] >= -tol


def singular_values_zx(ch):
    """Singular values of the z-x block of ``r``, sorted descending."""
    block = ch.r[:2, :2]
    s = np.linalg.svd(block, compute_uv=False)
    return float(s[0]), float(s[1])


def unital_ambiguity_closed_form(ch, direction="direct"):
    """H(X|E) of a unital channel in closed form.

    Equals 1 - H(choi spectrum) + h((1 + |column|)/2) with the z column of
    ``r`` for direct reconciliation and the z row for reverse.  Checked
    against :func:`qkdpost.keyrate.choi_ambiguity` in the test-suite; requires t = 0.
    """
    if np.abs(ch.t).max() > 1e-9:
        raise ValueError("closed form requires a unital channel (t = 0)")
    choi = choi_from_affine(ch)
    spec = np.clip(np.linalg.eigvalsh(choi), 0.0, None)
    vec = ch.r[:, 0] if direction == "direct" else ch.r[0, :]
    rnorm = min(float(np.linalg.norm(vec)), 1.0)
    return 1.0 - _plogp(spec) + binary_entropy(0.5 * (1.0 + rnorm))


def closed_form_example_rates(kind, param):
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
        r_yy = rng.uniform(*interval)
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


def exact_tally(ch, bases, scale=10**12):
    """Idealized tally with counts proportional to the exact probabilities.

    Rounding error is at most one count per cell, which is negligible at the
    default scale; meant for fixtures and pipeline identities.
    """
    return TallyTable(np.rint(joint_tables(ch, bases) * scale).astype(np.int64), bases)


def write_tally(tally, path):
    """A tally as the ``a,b,x,y,count`` CSV that ``qkdpost estimate`` reads."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("a,b,x,y,count\n")
        for ia, a in enumerate(tally.bases):
            for ib, b in enumerate(tally.bases):
                for x in (0, 1):
                    for y in (0, 1):
                        f.write(
                            f"{a.name.lower()},{b.name.lower()},{x},{y},"
                            f"{int(tally.counts[ia, ib, x, y])}\n"
                        )


def rate_error_curve(ch, protocol, sample_sizes, trials, seed):
    """Median absolute error of the estimated direct rate at each sample size.

    Drives the estimator-consistency checks: the medians must fall as the
    per-cell sample count grows.
    """
    if protocol == "sixstate":
        bases, estimate = SIXSTATE_BASES, estimate_rates_sixstate
        truth = keyrate(choi_from_affine(ch), "direct").raw_rate
    else:
        bases, estimate = BB84_BASES, estimate_rates_bb84
        truth = estimate(exact_tally(ch, bases)).direct.raw_rate
    rng = np.random.default_rng(seed)
    medians = []
    for size in sample_sizes:
        errs = []
        for _ in range(trials):
            rate = estimate(sample_tally(ch, bases, size, rng)).direct.raw_rate
            errs.append(abs(rate - truth))
        medians.append(float(np.median(errs)))
    return medians


def error_probability(joint):
    """P(x != y) of a joint table, the flip rate the error-syndrome floor
    h(P(x != y)) reads."""
    return float(joint[0, 1] + joint[1, 0])


def conditional(joint):
    """Columns P(x | y) of a 2x2 joint P(x, y); a y of probability at most
    ZERO_CUTOFF gets a uniform column."""
    py = joint.sum(axis=0)
    cols = joint / np.where(py > ZERO_CUTOFF, py, 1.0)
    cols[:, py <= ZERO_CUTOFF] = 0.5
    return cols


def priors_from_joint(joint, observed):
    """Per-position pairs P(key | helper_j) of the (key, helper) joint: the
    n x 2 priors of ``flooding_oracle`` and ``map_decode_bruteforce``, which
    ``sp_decode`` reads from ``(joint, observed)`` without building them.
    ``observed`` holds the helper's bits; anything else raises ``ValueError``.
    """
    return conditional(joint).T[_bits(observed, "observed")]


def prior_llrs(priors):
    """ln p0 / p1 of each row of an n x 2 prior array, each prior clipped at
    1e-300 and each LLR clamped to LLR_CLAMP."""
    logs = np.log(np.clip(np.asarray(priors, dtype=float), 1e-300, None))
    return np.clip(logs[:, 0] - logs[:, 1], -LLR_CLAMP, LLR_CLAMP)


def flooding_oracle(matrix, syn, priors, max_iter=100):
    """Sum-product decoding on the flooding schedule: the schedule oracle.

    Every check updates from the same variable totals in each sweep.  The
    arithmetic is ``sp_decode``'s: float32 half LLRs, an exact zero factor
    floored at 2^-100, and the LLR_CLAMP half-LLR message where a product
    rounds to +/-1.  Each sweep adds its message changes to the totals one
    edge at a time, ordered by the row weight of the edge's check, then the
    edge's place in its check, then the check: the order of ``sp_decode``'s
    layout at one group.  A code of one check group therefore decodes here
    bit for bit as in ``sp_decode``, failed decodes included.
    """
    syn = np.asarray(syn, dtype=np.uint8)
    var, weights = matrix.chk_vars, matrix.row_weights()
    chk = np.repeat(np.arange(matrix.m), weights)
    place = np.arange(var.shape[0]) - matrix.chk_ptr[chk]
    order = np.lexsort((chk, place, weights[chk]))
    # reduceat from the first edge of each check that has one reduces
    # exactly that check's edges; an empty check's parity stays 0
    full = weights > 0
    starts = matrix.chk_ptr[:-1][full]
    half = np.float32(0.5 * LLR_CLAMP)
    sgn = (1.0 - 2.0 * syn).astype(np.float32)
    tot = (0.5 * prior_llrs(priors)).astype(np.float32)
    cv = np.zeros(var.shape[0], np.float32)
    prod, par = np.zeros(matrix.m, np.float32), np.zeros(matrix.m, bool)
    for it in range(1, max_iter + 1):
        th = np.tanh(tot[var] - cv)
        th[th == 0.0] = np.float32(2.0**-100)
        prod[full] = np.multiply.reduceat(th, starts)
        ratio = np.repeat(prod * sgn, weights) / th
        with np.errstate(divide="ignore"):
            new = np.where(np.abs(ratio) == 1.0, np.copysign(half, ratio), np.arctanh(ratio))
        np.add.at(tot, var[order], (new - cv)[order])
        cv = new
        par[full] = np.logical_xor.reduceat(tot[var] < 0.0, starts)
        if np.array_equal(par, syn):
            return DecodeResult((tot < 0.0).astype(np.uint8), True, it)
    return DecodeResult((tot < 0.0).astype(np.uint8), False, max_iter)


def to_dense(matrix):
    dense = np.zeros((matrix.m, matrix.n), np.uint8)
    rows = np.repeat(np.arange(matrix.m), matrix.row_weights())
    dense[rows, matrix.chk_vars] = 1
    return dense


def col_weights(matrix):
    return np.bincount(matrix.chk_vars, minlength=matrix.n)


def write_alist(matrix, path):
    """A parity-check matrix in the alist format that ``qkdpost decode`` reads."""
    colw = col_weights(matrix)
    roww = matrix.row_weights()
    # edges are grouped by check, so a stable sort by variable leaves each
    # column's checks ascending, as each check's variables already are
    checks = np.repeat(np.arange(1, matrix.m + 1), roww)
    col_checks = checks[np.argsort(matrix.chk_vars, kind="stable")]
    col_ptr = np.concatenate([[0], np.cumsum(colw)])
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{matrix.n} {matrix.m}\n")
        f.write(f"{int(colw.max())} {int(roww.max())}\n")
        f.write(" ".join(map(str, colw.tolist())) + "\n")
        f.write(" ".join(map(str, roww.tolist())) + "\n")
        # an empty column or row is a lone 0, since the reader skips blank lines
        for values, ptr in ((col_checks, col_ptr), (matrix.chk_vars + 1, matrix.chk_ptr)):
            words = list(map(str, values.tolist()))
            bounds = ptr.tolist()
            f.writelines(
                (" ".join(words[a:b]) or "0") + "\n" for a, b in zip(bounds[:-1], bounds[1:])
            )


def weight_two_code(n, m, seed):
    """``[A | T]`` with information columns of weight 2 and T the bare dual
    diagonal, dealt from ``seed`` as ``gen_parity_check`` deals its weight-3
    columns: the small codes of the brute-force and alist tests."""
    k = n - m
    rng = np.random.default_rng(seed)
    base, extra = divmod(2 * k, m)
    pool = np.concatenate([np.repeat(np.arange(m), base), rng.permutation(m)[:extra]])
    rng.shuffle(pool)
    a_rows = pool.reshape(k, 2)
    while True:
        a_rows.sort(axis=1)
        repeat = a_rows[:, 0] == a_rows[:, 1]
        if not repeat.any():
            break
        a_rows[repeat, 1] = rng.integers(m, size=int(repeat.sum()))
    dense = np.zeros((m, n), np.uint8)
    dense[a_rows.ravel(), np.repeat(np.arange(k), 2)] = 1
    dense[np.arange(m), k + np.arange(m)] = 1
    dense[np.arange(1, m), k + np.arange(m - 1)] = 1
    rows, cols = np.nonzero(dense)
    return ParityCheckMatrix(n, m, np.searchsorted(rows, np.arange(m + 1)), cols)


BRUTE_FORCE_MAX_N = 24


def _gf2_solve_with_nullspace(dense, syn):
    """Particular solution and null-space basis of M x = t, dense uint8 input."""
    m, n = dense.shape
    mat = dense.astype(np.uint8).copy()
    vec = syn.astype(np.uint8).copy()
    piv_cols = []
    r = 0
    for c in range(n):
        hits = np.flatnonzero(mat[r:, c])
        if hits.size == 0:
            continue
        p = r + hits[0]
        mat[[r, p]] = mat[[p, r]]
        vec[[r, p]] = vec[[p, r]]
        mask = mat[:, c].astype(bool).copy()
        mask[r] = False
        mat[mask] ^= mat[r]
        vec[mask] ^= vec[r]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if r < m:
        raise ValueError("parity-check matrix is rank deficient")
    x0 = np.zeros(n, np.uint8)
    for i, c in enumerate(piv_cols):
        x0[c] = vec[i]
    free_cols = sorted(set(range(n)) - set(piv_cols))
    basis = np.zeros((len(free_cols), n), np.uint8)
    for b, fc in enumerate(free_cols):
        basis[b, fc] = 1
        for i, c in enumerate(piv_cols):
            basis[b, c] = mat[i, fc]
    return x0, basis


def gf2_rank(dense):
    """Rank of a dense GF(2) matrix of full row rank; raises ValueError otherwise."""
    _, basis = _gf2_solve_with_nullspace(dense, np.zeros(dense.shape[0], np.uint8))
    return dense.shape[1] - basis.shape[0]


def map_decode_bruteforce(matrix, syn, priors):
    """Exact MAP over the coset, ties broken toward the lexicographically
    smallest vector.  Enumerates all 2^(n-m) coset members; n is capped at
    24 to keep this an oracle, not a decoder.

    Log-scores within 1e-9 of the maximum count as tied, which absorbs
    the summation-order rounding of mathematically equal products.
    """
    if matrix.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {matrix.n}")
    syn = np.asarray(syn, dtype=np.uint8)
    x0, basis = _gf2_solve_with_nullspace(to_dense(matrix), syn)
    k = basis.shape[0]
    masks = np.arange(2**k, dtype=np.uint32)
    select = ((masks[:, None] >> np.arange(k, dtype=np.uint32)[None, :]) & 1).astype(np.int64)
    members = (x0[None, :].astype(np.int64) ^ ((select @ basis.astype(np.int64)) & 1)).astype(
        np.uint8
    )
    logp = np.log(np.clip(np.asarray(priors, dtype=float), 1e-300, None))
    scores = np.take_along_axis(
        np.broadcast_to(logp, (members.shape[0], matrix.n, 2)),
        members[:, :, None].astype(np.int64),
        axis=2,
    )[:, :, 0].sum(axis=1)
    contenders = members[scores >= scores.max() - 1e-9]
    order = np.lexsort(contenders[:, ::-1].T)
    return contenders[order[0]].astype(np.uint8)


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


def toeplitz_matrix(desc):
    """Dense Toeplitz matrix of a hash descriptor; for tests and tiny sizes."""
    n, ell = desc.input_len, desc.output_len
    t = np.empty((ell, n), np.uint8)
    for i in range(ell):
        t[i] = desc.generator[i : n + i][::-1]
    return t


def barrier_projection_oracle(omega_raw):
    """The six observed coordinates of ``project_omega_bb84``'s barrier
    run with mu stepping from 1 down to 1e-9 by factors of 10: ten stages,
    each ended as there, on the Newton decrement, a failed line search or
    200 steps."""
    target = omega_raw.as_array()

    def value(vv, mu):
        try:
            chol = np.linalg.cholesky(_barrier_rho(vv))
        except np.linalg.LinAlgError:
            return None
        return float(np.sum((vv[:6] - target) ** 2) - 2.0 * mu * np.log(np.diag(chol)).sum())

    v = np.zeros(7)
    for mu in 10.0 ** -np.arange(10):
        f0 = value(v, mu)
        for _ in range(200):
            rg = np.linalg.inv(_barrier_rho(v)) @ _BARRIER_G
            grad = -mu * np.trace(rg, axis1=1, axis2=2)
            grad[:6] += 2.0 * (v[:6] - target)
            hess = mu * np.einsum("kab,lba->kl", rg, rg) + 2.0 * np.diag([1.0] * 6 + [0.0])
            step_dir = np.linalg.solve(hess, -grad)
            slope = float(grad @ step_dir)
            if -slope <= 1e-18:
                break
            step = 1.0
            while step > 1e-6:
                f1 = value(v + step * step_dir, mu)
                if f1 is not None and f1 <= f0 + 1e-4 * step * slope:
                    break
                step *= 0.5
            if step <= 1e-6:
                break
            v, f0 = v + step * step_dir, f1
    return v[:6]


def pool_tally(channel, seed=1001, protocol="bb84"):
    """Estimation tally of a 20,000-signal block at a channel seed."""
    config = ProtocolConfig(protocol=protocol, channel=channel, n_signals=20_000, seed_channel=seed)
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
