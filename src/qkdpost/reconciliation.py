"""Syndrome-based information reconciliation over GF(2).

One side publishes the syndrome ``t = M x`` of its bit block under a sparse
parity-check matrix; the other side recovers ``x`` from its correlated block
by a posteriori decoding restricted to the coset ``{x' : M x' = t}``.  The
production decoder is sum-product message passing seeded with per-position
source priors and with each check's sign set by its syndrome bit; an
exhaustive MAP decoder over the coset serves as the oracle at small block
lengths.

Priors enter as an (n, 2) table: row j holds the probability of key bit 0
and 1 at position j given the helper's observation, P(key | helper_j), read
from the key pair's joint with rows indexing the key bit and columns the
helper bit (see :func:`qkdpost.keyrate.key_joint`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import JointDistribution, cond_entropy

# bound on every log-likelihood ratio, prior and message alike
LLR_CLAMP = 30.0
BRUTE_FORCE_MAX_N = 24


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix in adjacency form, full rank m.

    ``chk_vars[chk_ptr[k]:chk_ptr[k+1]]`` lists the variables of check k in
    ascending order.
    """

    n: int
    m: int
    chk_ptr: np.ndarray
    chk_vars: np.ndarray

    def __post_init__(self):
        for name in ("chk_ptr", "chk_vars"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rows_fixed(self) -> int:
        # rank m holds by construction, so no row is ever resampled; kept
        # because the benchmark trace (blockbench/tracing.py) reads it
        return 0

    @property
    def num_edges(self) -> int:
        return int(self.chk_vars.shape[0])

    def row_weights(self) -> np.ndarray:
        return np.diff(self.chk_ptr)

    def col_weights(self) -> np.ndarray:
        return np.bincount(self.chk_vars, minlength=self.n)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.m, self.n), np.uint8)
        rows = np.repeat(np.arange(self.m), self.row_weights())
        dense[rows, self.chk_vars] = 1
        return dense


def gen_parity_check(n: int, m: int, col_weight: int = 3, seed: int = 0) -> ParityCheckMatrix:
    """Random parity-check matrix ``H = [A | T]`` of rank m by construction.

    A holds the first n - m columns, each of weight ``col_weight``, dealt
    from a shuffled pool with every row equally often; a row drawn twice in
    one column is redrawn until the column has distinct rows.  T is the
    m x m parity part: column j holds rows j and j + 1 (the dual-diagonal
    accumulator of IRA codes), and row i holds ``col_weight - 2`` more
    entries in columns drawn from the ``max(col_weight, m // 4)`` columns
    before column i - 1, dropping draws before column 0 and repeats.  T is
    unit lower-triangular, hence invertible over GF(2).  Drawing the band
    per row rather than per column keeps the row weights of H even and
    leaves T columns of weight 2 or more; it decodes with fewer frame errors
    than a per-column band or a random column-regular code.  Deterministic
    for a given seed.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m} n={n}")
    if col_weight < 2:
        raise ValueError("column weight below 2 cannot give a useful code")
    if col_weight > m:
        raise ValueError(f"column weight {col_weight} exceeds the row count {m}")
    w, k = col_weight, n - m
    rng = np.random.default_rng(seed)
    base, extra = divmod(k * w, m)
    pool = np.concatenate([np.repeat(np.arange(m), base), rng.permutation(m)[:extra]])
    rng.shuffle(pool)
    a_rows = pool.reshape(k, w)
    while True:
        a_rows.sort(axis=1)
        repeat = np.zeros(a_rows.shape, bool)
        repeat[:, 1:] = a_rows[:, 1:] == a_rows[:, :-1]
        if not repeat.any():
            break
        a_rows[repeat] = rng.integers(m, size=int(repeat.sum()))
    diag = np.arange(m)
    band = diag[:, None] - rng.integers(2, max(w, m // 4) + 2, size=(m, w - 2))
    t_rows = np.concatenate([diag, diag[1:], np.repeat(diag, w - 2)])
    t_cols = np.concatenate([diag, diag[:-1], band.ravel()])
    inside = t_cols >= 0
    # one sort groups the edges by check with variables ascending; equal
    # neighbours are band draws that repeat within a row of T
    key = np.sort(
        np.concatenate(
            [a_rows.ravel() * n + np.repeat(np.arange(k), w), t_rows[inside] * n + k + t_cols[inside]]
        )
    )
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]
    chk, chk_vars = np.divmod(key, n)
    chk_ptr = np.searchsorted(chk, np.arange(m + 1))
    return ParityCheckMatrix(n, m, chk_ptr, chk_vars)


def _check_parity(chk_ptr: np.ndarray, edge_bits: np.ndarray) -> np.ndarray:
    """Parity of each check's edge bits, uint8 of length m.

    ``edge_bits`` is in check-grouped edge order with one sentinel entry
    appended, so ``reduceat`` over all m + 1 pointers reduces exactly each
    check's own edges, the last check's included; an empty check would read
    its successor's first bit instead, so its parity is set to 0.
    """
    par = np.bitwise_xor.reduceat(edge_bits, chk_ptr)[:-1] & 1
    par[chk_ptr[:-1] == chk_ptr[1:]] = 0
    return par


def syndrome(matrix: ParityCheckMatrix, x: np.ndarray) -> np.ndarray:
    """GF(2) product M x as a uint8 vector of length m."""
    x = np.asarray(x)
    if x.shape != (matrix.n,):
        raise ValueError(f"sequence length {x.shape} does not match n={matrix.n}")
    edge_bits = np.zeros(matrix.num_edges + 1, np.uint8)
    edge_bits[:-1] = x[matrix.chk_vars]
    return _check_parity(matrix.chk_ptr, edge_bits)


def priors_from_joint(joint: JointDistribution, observed: np.ndarray) -> np.ndarray:
    """Per-position pairs P(key | helper_j) of the (key, helper) joint.

    They carry the key bit's own prior, which is non-uniform when the key
    side is biased (this is what makes MAP differ from ML).
    """
    observed = np.asarray(observed, dtype=np.int64)
    return joint.conditional()[:, observed].T.copy()


def _prior_llrs(priors: np.ndarray) -> np.ndarray:
    priors = np.asarray(priors, dtype=float)
    llr = np.log(np.clip(priors[:, 0], 1e-300, None)) - np.log(np.clip(priors[:, 1], 1e-300, None))
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


@dataclass(frozen=True)
class DecodeResult:
    bits: np.ndarray
    converged: bool
    iterations: int


def sp_decode(
    matrix: ParityCheckMatrix,
    syn: np.ndarray,
    priors: np.ndarray,
    max_iter: int = 100,
) -> DecodeResult:
    """Sum-product decoding of the coset selected by ``syn``.

    Flooding schedule, log-likelihood messages clamped to +/-30, tanh-rule
    check updates with the sign of check k flipped when syn[k] = 1.  Each
    check multiplies its factors tanh(v/2) in one segmented product, and an
    edge's message divides its own factor back out; an exact zero factor is
    floored at 1e-300, which keeps that edge's message exact and sends about
    0 to the check's other edges.  Success means the running hard decision
    reproduced the syndrome before ``max_iter`` sweeps; a False flag means
    the caller must abort or retry, the returned bits are then only
    diagnostic.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    syn = np.asarray(syn, dtype=np.uint8)
    if syn.shape != (matrix.m,):
        raise ValueError(f"syndrome length {syn.shape} does not match m={matrix.m}")
    if priors.shape != (matrix.n, 2):
        raise ValueError(f"priors must have shape ({matrix.n}, 2)")
    # edges are grouped by check, plus one sentinel edge on a dummy variable n
    # in a dummy check m that keeps every reduceat segment inside its check
    # (see _check_parity); llr > 0 means bit 0 is more likely
    n, chk_ptr = matrix.n, matrix.chk_ptr
    var = np.append(matrix.chk_vars, n)
    row_weights = np.append(matrix.row_weights(), 1)
    sgn_syn = np.append(1.0 - 2.0 * syn, 1.0)
    prior = np.append(_prior_llrs(priors), 0.0)
    # ``th`` is updated in place across sweeps, which spares the page faults
    # of fresh edge-sized arrays: it holds tot[var], then the clamped
    # variable-to-check message, then its tanh.  take(mode="clip") writes
    # ``out`` directly, where the default mode buffers it; every index is in
    # range anyway.
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
        # the next sweep starts from this gather, and its signs are the
        # running hard decision on every edge
        np.take(tot, var, out=th, mode="clip")
        if np.array_equal(_check_parity(chk_ptr, (th < 0.0).view(np.uint8)), syn):
            return DecodeResult((tot[:n] < 0.0).astype(np.uint8), True, it)
    return DecodeResult((tot[:n] < 0.0).astype(np.uint8), False, max_iter)


# ---------------------------------------------------------------------------
# brute-force MAP oracle
# ---------------------------------------------------------------------------


def _gf2_solve_with_nullspace(dense: np.ndarray, syn: np.ndarray):
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


def map_decode_bruteforce(
    matrix: ParityCheckMatrix, syn: np.ndarray, priors: np.ndarray
) -> np.ndarray:
    """Exact MAP over the coset, ties broken toward the lexicographically
    smallest vector.  Enumerates all 2^(n-m) coset members; n is capped at
    24 to keep this an oracle, not a decoder.

    Log-scores within 1e-9 of the maximum count as tied, which absorbs
    the summation-order rounding of mathematically equal products.
    """
    if matrix.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {matrix.n}")
    syn = np.asarray(syn, dtype=np.uint8)
    x0, basis = _gf2_solve_with_nullspace(matrix.to_dense(), syn)
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


def required_syndrome_rate(joint: JointDistribution, margin: float = 0.05) -> float:
    """Syndrome rate m/n the reconciliation needs: H(key | helper) of the
    (key, helper) joint, plus a finite-length margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return cond_entropy(joint) + margin


# ---------------------------------------------------------------------------
# alist-format I/O (per-column and per-row adjacency, 1-indexed)
# ---------------------------------------------------------------------------


def write_alist(matrix: ParityCheckMatrix, path) -> None:
    colw = matrix.col_weights()
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


def _column_checks(tokens: list[str], m: int) -> list[int]:
    """The 0-based checks of one alist column line, ascending; raises on a bad line."""
    # 0 pads a column to the maximum weight
    ids = [int(v) for v in tokens]
    if min(ids, default=0) < 0:
        raise ValueError(f"negative check index {min(ids)}")
    rows = sorted(v - 1 for v in ids if v)
    if rows and rows[-1] >= m:
        raise ValueError(f"check index {rows[-1] + 1} above m={m}")
    if repeated := [a + 1 for a, b in zip(rows, rows[1:]) if a == b]:
        raise ValueError(f"check index {repeated[0]} repeated in one column")
    return rows


def read_alist(path) -> ParityCheckMatrix:
    """Parse an alist file; malformed input raises ValueError naming the line.

    The column lines are parsed and checked as one array; a bad file is then
    read line by line with :func:`_column_checks` to name its first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    # alist fields count nonblank lines only
    nonblank = [k for k, line in enumerate(lines, start=1) if line.strip()]
    if not nonblank:
        raise ValueError("empty alist file")
    try:
        lineno = nonblank[0]
        n, m = (int(v) for v in lines[lineno - 1].split())
        if n < 1 or m < 1:
            raise ValueError(f"sizes n={n} m={m} must be positive")
        # line 4 lists the m row weights, so a file bounds its own m
        lineno = nonblank[min(3, len(nonblank) - 1)]
        weights = lines[lineno - 1].split() if len(nonblank) > 3 else []
        if len(weights) != m:
            raise ValueError(f"expected m={m} row weights, got {len(weights)}")
        col_linenos = nonblank[4 : 4 + n]
        columns = [lines[k - 1] for k in col_linenos]
        try:
            ids = np.array(" ".join(columns).split(), dtype=np.int64)
        except (ValueError, OverflowError):
            first = 0  # a token int() rejects, or one beyond int64
        else:
            per_line = [len(line.split()) for line in columns]
            # 0 pads a column to the maximum weight
            col = np.repeat(np.arange(len(columns)), per_line)[ids != 0]
            row = ids[ids != 0] - 1
            # a stable sort by check keeps each check's columns ascending, so a
            # check repeated in one column lands on adjacent edges
            order = np.argsort(row, kind="stable")
            col, row = col[order], row[order]
            wrong = (row < 0) | (row >= m)
            wrong[1:] |= (row[1:] == row[:-1]) & (col[1:] == col[:-1])
            # every line before the first wrong edge's passes the line check
            first = int(col[wrong].min()) if wrong.any() else len(columns)
        for lineno, line in zip(col_linenos[first:], columns[first:]):
            _column_checks(line.split(), m)
    except ValueError as exc:
        raise ValueError(f"alist line {lineno}: {exc}") from None
    if len(columns) < n:
        raise ValueError(
            f"alist ends at line {nonblank[-1]}, before column {len(columns) + 1} of {n}"
        )
    return ParityCheckMatrix(n, m, np.searchsorted(row, np.arange(m + 1)), col)
