"""Syndrome-based information reconciliation over GF(2).

One side publishes the syndrome ``t = M x`` of its bit block under a sparse
parity-check matrix; the other side recovers ``x`` from its correlated block
by a posteriori decoding restricted to the coset ``{x' : M x' = t}``.  The
production decoder is sum-product message passing seeded with per-position
source priors and with each check's sign set by its syndrome bit; an
exhaustive MAP decoder over the coset serves as the oracle at small block
lengths.

Priors enter as an (n, 2) table: row j holds the probability of bit 0 and
bit 1 at position j given that side's observation.  For direct
reconciliation this is P(x|y_j), for reverse P(y|x_j), and for the
mismatched-basis variant the conditional of the cross-basis joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import JointDistribution, cond_entropy
from .keyrate import cond_entropy_direction

# bound on every log-likelihood ratio, prior and message alike
LLR_CLAMP = 30.0
BRUTE_FORCE_MAX_N = 24


class CodeConstructionError(RuntimeError):
    """Raised when no full-rank matrix is found within the retry budget."""


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix in adjacency form, full rank m.

    ``chk_vars[chk_ptr[k]:chk_ptr[k+1]]`` lists the variables of check k.
    ``rows_fixed`` counts rows that were resampled to reach full rank; the
    construction is column-regular, and resampled rows can disturb individual
    column weights by one.
    """

    n: int
    m: int
    col_weight: int
    chk_ptr: np.ndarray
    chk_vars: np.ndarray
    seed: int
    rows_fixed: int = 0

    def __post_init__(self):
        for name in ("chk_ptr", "chk_vars"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


def _balanced_columns(n: int, m: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Column-regular assignment with near-uniform row weights.

    Row slots are dealt from a shuffled pool; duplicate rows inside a column
    are swapped out against later pool entries.
    """
    total = n * w
    base, extra = divmod(total, m)
    pool = np.concatenate([np.repeat(np.arange(m), base), rng.permutation(m)[:extra]])
    rng.shuffle(pool)
    pool = pool.tolist()
    cols = np.empty((n, w), np.int64)
    for j in range(n):
        block = pool[j * w : (j + 1) * w]
        fixes = 0
        while len(set(block)) < w:
            if fixes > 50 * w or (j + 1) * w >= total:
                # local pool exhausted; draw an arbitrary fresh row
                for i, v in enumerate(block):
                    if v in block[:i]:
                        block[i] = int(rng.integers(m))
                        break
                fixes += 1
                continue
            seen = set()
            dup = 0
            for i, v in enumerate(block):
                if v in seen:
                    dup = i
                    break
                seen.add(v)
            k = int(rng.integers((j + 1) * w, total))
            block[dup], pool[k] = pool[k], block[dup]
            fixes += 1
        pool[j * w : (j + 1) * w] = block
        cols[j] = sorted(block)
    return cols


def gen_parity_check(n: int, m: int, col_weight: int = 3, seed: int = 0) -> ParityCheckMatrix:
    """Random column-regular parity-check matrix, full rank enforced.

    Deterministic for a given seed.  Dependent rows found by GF(2)
    elimination are replaced with fresh random rows and the rank re-checked,
    up to 50 rounds.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m} n={n}")
    if col_weight < 2:
        raise ValueError("column weight below 2 cannot give a useful code")
    if col_weight > m:
        raise ValueError(f"column weight {col_weight} exceeds the row count {m}")
    rng = np.random.default_rng(seed)
    cols = _balanced_columns(n, m, col_weight, rng)
    rows = [set() for _ in range(m)]
    for j in range(n):
        for r in cols[j]:
            rows[int(r)].add(j)
    rows_fixed = 0
    row_weight = max(2, round(n * col_weight / m))
    for _ in range(50):
        chk_ptr, chk_vars = _adjacency_from_rows(rows)
        rank, pivot = _gf2_eliminate(_pack_rows(chk_vars, chk_ptr, n), n)
        if rank == m:
            return ParityCheckMatrix(n, m, col_weight, chk_ptr, chk_vars, seed, rows_fixed)
        # replace every dependent row with a fresh random support; this can
        # disturb column weights, which is unavoidable: exactly-regular even
        # column weights force the rows to sum to zero over GF(2)
        for r in np.flatnonzero(~pivot):
            rows[int(r)] = set(int(v) for v in rng.choice(n, size=row_weight, replace=False))
            rows_fixed += 1
        covered = np.zeros(n, bool)
        for support in rows:
            for j in support:
                covered[j] = True
        for j in np.flatnonzero(~covered):
            rows[int(rng.integers(m))].add(int(j))
    raise CodeConstructionError(f"no full-rank matrix after 50 repair rounds (n={n}, m={m})")


def _adjacency_from_rows(rows):
    chk_ptr = np.zeros(len(rows) + 1, np.int64)
    parts = []
    for k, support in enumerate(rows):
        ordered = np.fromiter(sorted(support), np.int64, len(support))
        parts.append(ordered)
        chk_ptr[k + 1] = chk_ptr[k] + ordered.shape[0]
    return chk_ptr, np.concatenate(parts)


def _pack_rows(row_cols, row_ptr, n):
    """Pack adjacency-list rows into uint64 words, one row per matrix row."""
    m = row_ptr.shape[0] - 1
    W = (n + 63) // 64
    out = np.zeros((m, W), np.uint64)
    rows = np.repeat(np.arange(m), np.diff(row_ptr))
    np.bitwise_xor.at(out, (rows, row_cols >> 6), np.uint64(1) << (row_cols & 63).astype(np.uint64))
    return out


def _gf2_eliminate(rows, nbits):
    """Rank of the packed rows over GF(2), and which rows hold a pivot.

    Rows without a pivot are dependent on the pivot rows.  ``rows`` is
    overwritten.
    """
    m = rows.shape[0]
    pivot = np.zeros(m, bool)
    rank = 0
    for c in range(nbits):
        wi = c >> 6
        bit = np.uint64(c & 63)
        has = ((rows[:, wi] >> bit) & np.uint64(1)).astype(bool) & ~pivot
        idx = np.flatnonzero(has)
        if idx.size == 0:
            continue
        p = idx[0]
        pivot[p] = True
        rank += 1
        if idx.size > 1:
            rows[idx[1:]] ^= rows[p]
        if rank == m:
            break
    return rank, pivot


def syndrome(matrix: ParityCheckMatrix, x: np.ndarray) -> np.ndarray:
    """GF(2) product M x as a uint8 vector of length m."""
    x = np.asarray(x)
    if x.shape != (matrix.n,):
        raise ValueError(f"sequence length {x.shape} does not match n={matrix.n}")
    chk_of_edge = np.repeat(np.arange(matrix.m), matrix.row_weights())
    par = np.bincount(chk_of_edge, weights=x[matrix.chk_vars].astype(float), minlength=matrix.m)
    return (par.astype(np.int64) & 1).astype(np.uint8)


def priors_from_joint(
    joint: JointDistribution, observed: np.ndarray, direction: str = "direct"
) -> np.ndarray:
    """Per-position conditional probability pairs for the decoder.

    direct / mismatched: columns P(x | y_j) of the (cross-basis) joint;
    reverse: P(y | x_j), which bakes the non-uniform prior of the decoded
    side into the table (this is what makes MAP differ from ML).
    """
    observed = np.asarray(observed, dtype=np.int64)
    if cond_entropy_direction(direction) == "y_given_x":
        cond = joint.cond_y_given_x()
    else:
        cond = joint.cond_x_given_y()
    return cond[:, observed].T.copy()


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
    check updates with the sign of check k flipped when syn[k] = 1.  Success
    means the running hard decision reproduced the syndrome before
    ``max_iter`` sweeps; a False flag means the caller must abort or retry,
    the returned bits are then only diagnostic.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    syn = np.asarray(syn, dtype=np.uint8)
    if syn.shape != (matrix.m,):
        raise ValueError(f"syndrome length {syn.shape} does not match m={matrix.m}")
    if priors.shape != (matrix.n, 2):
        raise ValueError(f"priors must have shape ({matrix.n}, 2)")
    prior = _prior_llrs(priors)
    # edges are grouped by check: chk_var[e] is the variable of edge e and
    # chk_of_edge[e] its check; llr > 0 means bit 0 is more likely
    n, m = matrix.n, matrix.m
    chk_var = matrix.chk_vars
    chk_of_edge = np.repeat(np.arange(m), matrix.row_weights())
    sgn_syn = 1.0 - 2.0 * syn.astype(np.float64)
    cv = np.zeros(matrix.num_edges)
    for it in range(1, max_iter + 1):
        tot = prior + np.bincount(chk_var, weights=cv, minlength=n)
        vc = np.clip(tot[chk_var] - cv, -LLR_CLAMP, LLR_CLAMP)
        th = np.tanh(0.5 * vc)
        # product-with-exclusion in log/sign form; the 1e-300 floor keeps a
        # single zero factor exact and collapses multiple zeros to 0 messages
        lg = np.log(np.clip(np.abs(th), 1e-300, None))
        neg = (th < 0.0).astype(np.int64)
        sum_lg = np.bincount(chk_of_edge, weights=lg, minlength=m)
        sum_neg = np.bincount(chk_of_edge, weights=neg, minlength=m).astype(np.int64)
        excl = np.exp(sum_lg[chk_of_edge] - lg)
        excl_sgn = 1.0 - 2.0 * ((sum_neg[chk_of_edge] - neg) & 1)
        raw = np.clip(sgn_syn[chk_of_edge] * excl_sgn * excl, -1 + 1e-15, 1 - 1e-15)
        cv = np.clip(2.0 * np.arctanh(raw), -LLR_CLAMP, LLR_CLAMP)
        tot = prior + np.bincount(chk_var, weights=cv, minlength=n)
        xhat = (tot < 0.0).astype(np.uint8)
        par = np.bincount(chk_of_edge, weights=xhat[chk_var], minlength=m).astype(np.int64) & 1
        if np.array_equal(par, syn.astype(np.int64)):
            return DecodeResult(xhat, True, it)
    return DecodeResult(xhat, False, max_iter)


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
    matrix: ParityCheckMatrix, syn: np.ndarray, priors: np.ndarray, tie_tol: float = 1e-9
) -> np.ndarray:
    """Exact MAP over the coset, ties broken toward the lexicographically
    smallest vector.  Enumerates all 2^(n-m) coset members; n is capped at
    24 to keep this an oracle, not a decoder.

    Log-scores within ``tie_tol`` of the maximum count as tied, which absorbs
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
    contenders = members[scores >= scores.max() - tie_tol]
    order = np.lexsort(contenders[:, ::-1].T)
    return contenders[order[0]].astype(np.uint8)


def required_syndrome_rate(
    joint: JointDistribution, direction: str = "direct", margin: float = 0.05
) -> float:
    """Syndrome rate m/n the reconciliation needs: conditional entropy of the
    decoded side given the helper side, plus a finite-length margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return cond_entropy(joint, cond_entropy_direction(direction)) + margin


# ---------------------------------------------------------------------------
# alist-format I/O (per-column and per-row adjacency, 1-indexed)
# ---------------------------------------------------------------------------


def write_alist(matrix: ParityCheckMatrix, path) -> None:
    colw = matrix.col_weights()
    roww = matrix.row_weights()
    col_lists = [[] for _ in range(matrix.n)]
    row_lists = []
    for k in range(matrix.m):
        vs = matrix.chk_vars[matrix.chk_ptr[k] : matrix.chk_ptr[k + 1]]
        row_lists.append([int(v) + 1 for v in vs])
        for v in vs:
            col_lists[int(v)].append(k + 1)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{matrix.n} {matrix.m}\n")
        f.write(f"{int(colw.max())} {int(roww.max())}\n")
        f.write(" ".join(str(int(w)) for w in colw) + "\n")
        f.write(" ".join(str(int(w)) for w in roww) + "\n")
        for lst in col_lists:
            f.write(" ".join(str(v) for v in sorted(lst)) + "\n")
        for lst in row_lists:
            f.write(" ".join(str(v) for v in sorted(lst)) + "\n")


def read_alist(path) -> ParityCheckMatrix:
    with open(path, "r", encoding="utf-8") as f:
        tokens = [line.split() for line in f if line.strip()]
    n, m = int(tokens[0][0]), int(tokens[0][1])
    col_lines = tokens[4 : 4 + n]
    cols = []
    for j in range(n):
        rows = sorted(int(v) - 1 for v in col_lines[j] if int(v) > 0)
        cols.append(rows)
    weights = {len(c) for c in cols}
    width = max(weights)
    evar = np.concatenate([np.full(len(c), j, np.int64) for j, c in enumerate(cols)])
    echk = np.concatenate([np.asarray(c, np.int64) for c in cols])
    order = np.argsort(echk, kind="stable")
    echk_sorted = echk[order]
    chk_ptr = np.searchsorted(echk_sorted, np.arange(m + 1)).astype(np.int64)
    return ParityCheckMatrix(n, m, width, chk_ptr, evar[order], seed=-1)
