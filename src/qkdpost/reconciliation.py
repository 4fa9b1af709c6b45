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


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix in adjacency form, full rank m.

    ``chk_vars[chk_ptr[k]:chk_ptr[k+1]]`` lists the variables of check k in
    ascending order.  ``col_weight`` is the weight of the information part A
    of ``H = [A | T]`` built by ``gen_parity_check``; the parity part T has
    its own column weights.
    """

    n: int
    m: int
    col_weight: int
    chk_ptr: np.ndarray
    chk_vars: np.ndarray
    seed: int

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
    return ParityCheckMatrix(n, m, w, chk_ptr, chk_vars, seed)


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
    """Parse an alist file; malformed input raises ValueError naming the line."""
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
        for lineno, tokens in lines[4 : 4 + n]:
            rows = sorted(int(v) - 1 for v in tokens if int(v) > 0)
            if rows and rows[-1] >= m:
                raise ValueError(f"check index {rows[-1] + 1} above m={m}")
            cols.append(rows)
    except ValueError as exc:
        raise ValueError(f"alist line {lineno}: {exc}") from None
    if len(cols) < n:
        raise ValueError(f"alist ends at line {lines[-1][0]}, before column {len(cols) + 1} of {n}")
    weights = {len(c) for c in cols}
    width = max(weights)
    evar = np.concatenate([np.full(len(c), j, np.int64) for j, c in enumerate(cols)])
    echk = np.concatenate([np.asarray(c, np.int64) for c in cols])
    order = np.argsort(echk, kind="stable")
    echk_sorted = echk[order]
    chk_ptr = np.searchsorted(echk_sorted, np.arange(m + 1)).astype(np.int64)
    return ParityCheckMatrix(n, m, width, chk_ptr, evar[order], seed=-1)
