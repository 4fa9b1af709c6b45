"""Syndrome-based information reconciliation over GF(2).

One side publishes the syndrome ``t = M x`` of its bit block under a sparse
parity-check matrix; the other side recovers ``x`` from its correlated block
by a posteriori decoding restricted to the coset ``{x' : M x' = t}``.  The
decoder is sum-product message passing seeded with per-position source
priors and with each check's sign set by its syndrome bit.

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
# column weight of gen_parity_check's codes unless a caller asks for another
COL_WEIGHT = 3
# sp_decode runs E // GROUP_EDGES check groups per sweep, at least 1 and at
# most MAX_GROUPS: each group pays about fifteen numpy calls a sweep, which a
# code of fewer than 2 * GROUP_EDGES edges does not earn back in saved sweeps
GROUP_EDGES = 6_000
MAX_GROUPS = 4


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


def gen_parity_check(n: int, m: int, col_weight: int = COL_WEIGHT, seed: int = 0) -> ParityCheckMatrix:
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
    """Parity of each check's edge bits, uint8 of length len(chk_ptr) - 1.

    ``chk_ptr`` bounds a run of consecutive checks, counted from the start
    of ``edge_bits``, which holds the run's edge bits in check-grouped order
    and one entry more: the next check's first bit, or a sentinel.
    ``reduceat`` over all the pointers then reduces exactly each check's own
    edges, the last check's included, and the extra entry's segment is
    dropped; an empty check would read its successor's first bit instead,
    so its parity is set to 0.  :func:`syndrome` passes every check of the
    matrix, and :func:`sp_decode` its two syndrome-test runs in group order.
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


def _group_count(num_edges: int) -> int:
    """Check groups per sweep: one below 2 * GROUP_EDGES edges, at most MAX_GROUPS."""
    return max(1, min(MAX_GROUPS, num_edges // GROUP_EDGES))


def sp_decode(
    matrix: ParityCheckMatrix,
    syn: np.ndarray,
    priors: np.ndarray,
    max_iter: int = 100,
) -> DecodeResult:
    """Sum-product decoding of the coset selected by ``syn``.

    Group-serial schedule: check i belongs to group i mod G, and a sweep
    updates the groups in turn, each from the variable totals the groups
    before it left, so a sweep passes information along the checks and
    fewer sweeps are needed than with flooding.  G = min(MAX_GROUPS,
    E // GROUP_EDGES), at least 1, for a code of E edges: each group costs a
    fixed number of numpy calls, which short codes do not repay, and at
    G = 1 the sweep is a flooding sweep.  A variable may sit in several
    checks of one group; those checks read the same total, as in flooding.

    Log-likelihood messages are clamped to +/-30, and the tanh-rule check
    update flips the sign of check k when syn[k] = 1.  Each check
    multiplies its factors tanh(v/2) in one segmented product, and an
    edge's message divides its own factor back out; an exact zero factor is
    floored at 1e-300, which keeps that edge's message exact and sends about
    0 to the check's other edges.  Totals and messages are held as half
    LLRs, which is exact.  Success means the hard decision at the end of a
    sweep reproduced the syndrome before ``max_iter`` sweeps; ``iterations``
    counts whole sweeps.  A False flag means the caller must abort or
    retry, the returned bits are then only diagnostic.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    syn = np.asarray(syn, dtype=np.uint8)
    if syn.shape != (matrix.m,):
        raise ValueError(f"syndrome length {syn.shape} does not match m={matrix.m}")
    if priors.shape != (matrix.n, 2):
        raise ValueError(f"priors must have shape ({matrix.n}, 2)")
    n, m = matrix.n, matrix.m
    chk_ptr, chk_vars, row_weights = matrix.chk_ptr, matrix.chk_vars, matrix.row_weights()
    count = _group_count(matrix.num_edges)
    # group g holds the relabelled checks first[g]:first[g + 1]
    first = np.cumsum([0] + [len(range(g, m, count)) for g in range(count)]).tolist()
    if count > 1:
        # relabel the checks in group order, and their edges with them, in
        # O(m + E) without a sort; each check keeps its variables ascending
        order = np.concatenate([np.arange(g, m, count) for g in range(count)])
        row_weights = row_weights[order]
        chk_ptr = np.zeros(m + 1, np.int64)
        np.cumsum(row_weights, out=chk_ptr[1:])
        edges = np.repeat(matrix.chk_ptr[order] - chk_ptr[:-1], row_weights)
        edges += np.arange(matrix.num_edges)
        chk_vars = chk_vars[edges]
        syn = syn[order]
    sgn_syn = 1.0 - 2.0 * syn
    # every total and message is held as half its LLR, the argument tanh
    # takes; halving is exact, so the clamps and signs are those of full
    # LLRs.  llr > 0 means bit 0 is more likely.
    half = 0.5 * LLR_CLAMP
    prior = 0.5 * _prior_llrs(priors)
    tot = prior.copy()
    # ``th`` is updated in place across sweeps, which spares the page faults
    # of fresh edge-sized arrays: it holds tot[chk_vars], then the clamped
    # variable-to-check message, then its tanh.  Its sentinel entry, 0 after
    # the last edge, keeps _check_parity's last segment inside the last
    # check.  take(mode="clip") writes ``out`` directly, where the default
    # mode buffers it; every index is in range anyway.
    th = np.append(prior[chk_vars], 0.0)
    # the groups that have edges, as (first check, end check, first edge,
    # end edge); each keeps its views of th and chk_vars, and the starts,
    # weights and signs of its non-empty checks: reduceat reads each start
    # up to the next, the last one up to the end of the view, and an empty
    # check sends nothing
    spans = [
        (c0, c1, int(chk_ptr[c0]), int(chk_ptr[c1]))
        for c0, c1 in zip(first[:-1], first[1:])
        if chk_ptr[c0] < chk_ptr[c1]
    ]
    layout = []
    for c0, c1, a, b in spans:
        full = row_weights[c0:c1] > 0
        starts = chk_ptr[c0:c1][full] - a
        layout.append((th[a:b], chk_vars[a:b], starts, row_weights[c0:c1][full], sgn_syn[c0:c1][full]))
    cv = [np.zeros(b - a) for _, _, a, b in spans]
    # the syndrome test gathers and reads the checks up to the end of the
    # first group first, where most failing sweeps already fail, and the
    # rest only if those hold; that first gather starts the next sweep
    split = spans[0][1] if spans else m
    tests = []
    for c0, c1 in ((0, split), (split, m)):
        a, b = int(chk_ptr[c0]), int(chk_ptr[c1])
        if c0 < c1:
            tests.append((th[a:b], chk_vars[a:b], th[a : b + 1], chk_ptr[c0 : c1 + 1] - a, syn[c0:c1]))
    for it in range(1, max_iter + 1):
        for g, (t, v, starts, weights, sgn) in enumerate(layout):
            if g:
                np.take(tot, v, out=t, mode="clip")
            t -= cv[g]
            np.clip(t, -half, half, out=t)
            np.tanh(t, out=t)
            t[t == 0.0] = 1e-300
            msg = np.repeat(np.multiply.reduceat(t, starts) * sgn, weights)
            msg /= t
            np.clip(msg, -1 + 1e-15, 1 - 1e-15, out=msg)
            np.arctanh(msg, out=msg)
            np.clip(msg, -half, half, out=msg)
            # one group sums its messages afresh, exactly as flooding does;
            # with more, each group adds the change of its own messages
            if len(layout) == 1:
                tot = prior + np.bincount(v, weights=msg, minlength=n)
            else:
                np.add.at(tot, v, msg - cv[g])
            cv[g] = msg
        for t, v, signs, ptr, syn_part in tests:
            np.take(tot, v, out=t, mode="clip")
            if not np.array_equal(_check_parity(ptr, (signs < 0.0).view(np.uint8)), syn_part):
                break
        else:
            return DecodeResult((tot < 0.0).astype(np.uint8), True, it)
    return DecodeResult((tot < 0.0).astype(np.uint8), False, max_iter)


def required_syndrome_rate(joint: JointDistribution, margin: float) -> float:
    """Syndrome rate m/n the reconciliation needs: H(key | helper) of the
    (key, helper) joint, plus a finite-length margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return cond_entropy(joint) + margin


# ---------------------------------------------------------------------------
# alist-format input (per-column and per-row adjacency, 1-indexed)
# ---------------------------------------------------------------------------


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
