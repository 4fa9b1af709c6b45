"""Syndrome-based information reconciliation over GF(2).

One side publishes the syndrome ``t = M x`` of its bit block under a sparse
parity-check matrix; the other side recovers ``x`` from its correlated block
by a posteriori decoding restricted to the coset ``{x' : M x' = t}``.  The
decoder is sum-product message passing seeded with per-position source
priors and with each check's sign set by its syndrome bit.

The priors come from the key pair's 2x2 joint, rows indexing the key bit
and columns the helper bit (see :func:`qkdpost.keyrate.key_joint`): the
decoder takes two prior LLRs of P(key | helper), one per helper bit, and
gives position j the one its observed helper bit selects.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .entropy import ZERO_CUTOFF

# bound on every log-likelihood ratio, prior and message alike
LLR_CLAMP = 30.0
# column weight of gen_parity_check's information columns
COL_WEIGHT = 3
# sp_decode runs E // GROUP_EDGES check groups per sweep, at least 1 and at
# most MAX_GROUPS: each group pays about fifteen numpy calls a sweep, and
# two more per row weight in it, which a code of fewer than 2 * GROUP_EDGES
# edges does not earn back in saved sweeps; such a code runs one group, a
# flooding sweep, on the same float32 body
GROUP_EDGES = 6_000
MAX_GROUPS = 4


@dataclass(frozen=True)
class _Bucket:
    """The checks of one weight w in one group: k checks, w * k edges.

    The bucket's edges are a contiguous run of the layout, read as a (w, k)
    block whose column c lists the variables of the bucket's c-th check
    ascending.  ``edges`` and ``checks`` are slices of the layout.
    """

    edges: slice
    checks: slice
    shape: tuple[int, int]


@dataclass(frozen=True)
class _Layout:
    """A code's edges in the order :func:`syndrome` and :func:`sp_decode`
    read, built once per code.

    Check i is in group i mod G.  ``checks`` lists every check by group,
    then row weight, then index; a group's empty checks come first and sit
    in no bucket.  ``groups`` holds the buckets of each group that has
    edges (see :class:`_Bucket`), and ``edge_vars`` the variable of each
    layout edge, bucket by bucket, as intp, which gathers and scatters
    faster than int32 under numpy 2.4.
    """

    checks: np.ndarray
    edge_vars: np.ndarray
    groups: tuple[tuple[_Bucket, ...], ...]


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix in adjacency form.

    ``chk_vars[chk_ptr[k]:chk_ptr[k+1]]`` lists the variables of check k in
    ascending order.  A check may be empty and the rank may be below m, as
    in any alist code; only :func:`gen_parity_check` guarantees rank m.
    Malformed arrays raise ``ValueError``.
    """

    n: int
    m: int
    chk_ptr: np.ndarray
    chk_vars: np.ndarray

    def __post_init__(self):
        for name in ("chk_ptr", "chk_vars"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ptr, var = self.chk_ptr, self.chk_vars
        if self.n < 1 or self.m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got n={self.n} m={self.m}")
        if ptr.shape != (self.m + 1,) or var.ndim != 1:
            raise ValueError(
                f"chk_ptr must have shape ({self.m + 1},) and chk_vars one axis, "
                f"got {ptr.shape} and {var.shape}"
            )
        if ptr[0] != 0 or ptr[-1] != var.shape[0] or (np.diff(ptr) < 0).any():
            raise ValueError(
                f"chk_ptr must rise from 0 to the edge count {var.shape[0]} without decreasing"
            )
        if var.shape[0] and not (0 <= var.min() and var.max() < self.n):
            raise ValueError(f"chk_vars must lie in [0, {self.n}), got {var.min()}..{var.max()}")
        ascending = var[1:] > var[:-1]
        # a pair of edges across a check boundary may step down
        starts = ptr[1:-1]
        ascending[starts[(0 < starts) & (starts < var.shape[0])] - 1] = True
        if not ascending.all():
            k = int(np.searchsorted(ptr, np.argmin(ascending), side="right")) - 1
            raise ValueError(f"the variables of check {k} must ascend strictly")

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

    @functools.cached_property
    def _layout(self) -> _Layout:
        """The bucketed layout of :func:`sp_decode`, for the group count of
        ``_group_count(num_edges)`` when it is first read."""
        weights = self.row_weights()
        count = _group_count(self.num_edges)
        # one stable sort by (group, weight) keeps each bucket's checks
        # ascending; a 16-bit key sorts by radix
        span = int(weights.max(initial=0)) + 1
        key = weights.astype(np.int16 if count * span <= 2**15 else np.intp)
        for g in range(1, count):
            key[g::count] += g * span
        order = np.argsort(key, kind="stable")
        sizes = np.bincount(key, minlength=count * span).tolist()
        edge_vars = np.empty(self.num_edges, np.intp)
        groups: dict[int, list[_Bucket]] = {}
        hi = stop = 0
        for b, k in enumerate(sizes):
            lo, hi = hi, hi + k
            g, w = divmod(b, span)
            if not (k and w):
                continue
            start, stop = stop, stop + w * k
            # row j of a bucket holds the j-th variable of each of its checks
            edges = self.chk_ptr[order[lo:hi]] + np.arange(w)[:, None]
            np.take(self.chk_vars, edges, out=edge_vars[start:stop].reshape(w, k), mode="clip")
            groups.setdefault(g, []).append(_Bucket(slice(start, stop), slice(lo, hi), (w, k)))
        return _Layout(order, edge_vars, tuple(tuple(b) for b in groups.values()))


def gen_parity_check(n: int, m: int, seed: int) -> ParityCheckMatrix:
    """Random parity-check matrix ``H = [A | T]`` of rank m by construction.

    A holds the first n - m columns, each of weight ``COL_WEIGHT``, dealt
    from a shuffled pool with every row equally often; a row drawn twice in
    one column is redrawn until the column has distinct rows.  T is the
    m x m parity part: column j holds rows j and j + 1 (the dual-diagonal
    accumulator of IRA codes), and row i holds one more entry in a column
    drawn from the ``max(COL_WEIGHT, m // 4)`` columns before column i - 1,
    dropped when it falls before column 0.  T is unit lower-triangular,
    hence invertible over GF(2).  Drawing the band per row rather than per
    column keeps the row weights of H even and leaves T columns of weight 2
    or more; it decodes with fewer frame errors than a per-column band or a
    random column-regular code.

    Deterministic for a given seed, whose stream is read in this order:
    ``permutation(m)``, whose first (n - m) * COL_WEIGHT mod m rows join the
    pool; ``shuffle`` of the pool; each redraw round's
    ``integers(m, size=r)`` for its r repeats (entries equal to the one
    before them in their sorted column), given out in the C order of the
    (n - m, COL_WEIGHT) array of columns; then the band's
    ``integers(2, max(COL_WEIGHT, m // 4) + 2, size=m)``.  Edges sort by
    the key ``row << s | col``, s = (n - 1).bit_length(), a uint32 when
    m * 2^s < 2^32 and a uint64 otherwise.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m} n={n}")
    if COL_WEIGHT > m:
        raise ValueError(f"column weight {COL_WEIGHT} exceeds the row count {m}")
    w, k = COL_WEIGHT, n - m
    rng = np.random.default_rng(seed)
    base, extra = divmod(k * w, m)
    pool = np.empty(k * w, np.int64)
    pool[: base * m].reshape(m, base)[:] = np.arange(m)[:, None]
    pool[base * m :] = rng.permutation(m)[:extra]
    rng.shuffle(pool)
    a_rows = pool.reshape(k, w)
    # sort each column's rows with a min/max network, then redraw the
    # repeats of the columns that hold one until none does
    a, b, c = a_rows.T
    lo = np.minimum(a, b)
    np.maximum(a, b, out=b)
    np.minimum(b, c, out=a)
    np.maximum(b, c, out=c)
    np.maximum(lo, a, out=b)
    np.minimum(lo, a, out=a)
    redo = np.flatnonzero((a == b) | (b == c))
    while redo.size:
        sub = a_rows[redo]
        repeat = sub[:, 1:] == sub[:, :-1]
        sub[:, 1:][repeat] = rng.integers(m, size=int(repeat.sum()))
        sub.sort(axis=1)
        a_rows[redo] = sub
        redo = redo[(sub[:, 1:] == sub[:, :-1]).any(axis=1)]
    r = rng.integers(2, max(w, m // 4) + 2, size=m)
    inside = r <= np.arange(m)
    # check i's edges: its A entries, T's diagonal and subdiagonal (none in check 0)
    # and its band entry when inside
    sizes = np.bincount(pool, minlength=m) + inside + 2
    sizes[0] -= 1
    # A's keys, then T's (i, k + i), (i + 1, k + i) and (i, k + i - r)
    s = (n - 1).bit_length()
    pool <<= s
    for rows in (a, b, c):
        rows |= np.arange(k)
    diag = np.arange(k, k + m * ((1 << s) + 1), (1 << s) + 1)
    parts = [pool, diag, diag[:-1] + (1 << s), (diag - r)[inside]]
    key = np.concatenate(parts, dtype=np.uint32 if m << s < 2**32 else np.uint64, casting="unsafe")
    # one sort groups the edges by check with variables ascending; no key
    # repeats, since A's columns hold distinct rows and row i's band entry
    # lies before T's columns i - 1 and i
    key.sort()
    key &= (1 << s) - 1
    return ParityCheckMatrix(n, m, np.concatenate([[0], np.cumsum(sizes)]), key)


def _bits(values, what: str) -> np.ndarray:
    """``values`` as uint8; an entry other than 0 or 1 raises ValueError."""
    values = np.asarray(values)
    if ((values != 0) & (values != 1)).any():
        raise ValueError(f"{what} entries must be 0 or 1")
    return values.astype(np.uint8)


def _blocks(buckets, edge_values: np.ndarray, check_values: np.ndarray) -> list:
    # each bucket's (w, k) block of edge_values and its slice of check_values
    return [(edge_values[b.edges].reshape(b.shape), check_values[b.checks]) for b in buckets]


def _xor_checks(blocks) -> None:
    """Check parities, of the syndrome and of the decoder's hard decision:
    XOR each bool block of :func:`_blocks` down its columns."""
    for bits, par in blocks:
        np.logical_xor.reduce(bits, axis=0, out=par)


def syndrome(matrix: ParityCheckMatrix, x: np.ndarray) -> np.ndarray:
    """GF(2) product M x as a uint8 vector of length m; x holds bits 0 and 1.

    The parities are reduced bucket by bucket on the code's layout, which
    :func:`sp_decode` reuses; an empty check is in no bucket and stays 0.
    """
    x = _bits(x, "sequence")
    if x.shape != (matrix.n,):
        raise ValueError(f"sequence length {x.shape} does not match n={matrix.n}")
    layout = matrix._layout
    edge_bits = x.view(bool)[layout.edge_vars]
    par = np.zeros(matrix.m, bool)
    for buckets in layout.groups:
        _xor_checks(_blocks(buckets, edge_bits, par))
    syn = np.empty(matrix.m, np.uint8)
    syn[layout.checks] = par
    return syn


def _prior_llrs(joint: np.ndarray) -> np.ndarray:
    """ln P(key 0 | helper) / P(key 1 | helper) of the (key, helper) joint,
    one per helper bit; a helper bit of probability <= ZERO_CUTOFF has a
    uniform key column and LLR 0."""
    py = joint.sum(axis=0)
    cond = joint / np.where(py > ZERO_CUTOFF, py, 1.0)
    cond[:, py <= ZERO_CUTOFF] = 0.5
    logs = np.log(np.clip(cond, 1e-300, None))
    return np.clip(logs[0] - logs[1], -LLR_CLAMP, LLR_CLAMP)


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
    joint: np.ndarray,
    observed: np.ndarray,
    max_iter: int = 100,
) -> DecodeResult:
    """Sum-product decoding of the coset selected by ``syn``.

    Position j starts from the prior P(key | helper = observed[j]) of the
    (key, helper) ``joint``, which carries the key bit's own prior: it is
    non-uniform when the key side is biased, and that makes MAP differ from
    ML.  The two prior LLRs, one per helper bit, are computed once.

    Group-serial schedule: check i belongs to group i mod G, and a sweep
    updates the groups in turn, each from the variable totals the groups
    before it left, so a sweep passes information along the checks and
    fewer sweeps are needed than with flooding.  G = min(MAX_GROUPS,
    E // GROUP_EDGES), at least 1, for a code of E edges: each group costs a
    fixed number of numpy calls, which short codes do not repay, and at
    G = 1 the sweep is a flooding sweep.  A variable may sit in several
    checks of one group; those checks read the same total, as in flooding.

    The code's layout (``ParityCheckMatrix._layout``, built once per code)
    keeps each group's checks in buckets of equal row weight w, each a
    (w, k) block of edges whose column holds one check.  A check multiplies
    its factors tanh(v/2) down its column, times -1 when its syndrome bit
    is 1, and an edge's message divides its own factor back out; an exact
    zero factor is floored far below any other (2^-100), which keeps that
    edge's message exact and sends about 0 to the check's other edges.

    Totals and messages are float32 half LLRs (the halving is exact), and
    each group adds the change of its own messages to the totals, in layout
    order; at G = 1 that is a flooding sweep whose sums are rounded in
    another order than a float64 flooding decoder's.  A check-to-variable
    message is bounded by +/-15, LLR_CLAMP in full LLRs.  A
    variable-to-check message needs no clamp, since tanh is exactly +/-1
    in float32 from |v/2| = 10 on.  arctanh of the largest float below 1 is
    8.66: a product that rounds to +/-1 steps to that float, which keeps
    arctanh on its fast path, and its message is then lifted to the clamp.

    Success means the hard decision at the end of a sweep reproduced the
    syndrome before ``max_iter`` sweeps; ``iterations`` counts whole
    sweeps.  A False flag means the caller must abort or retry, the
    returned bits are then only diagnostic.  ``syn`` holds m bits and
    ``observed`` n bits; anything else raises ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    syn = _bits(syn, "syndrome")
    if syn.shape != (matrix.m,):
        raise ValueError(f"syndrome length {syn.shape} does not match m={matrix.m}")
    observed = _bits(observed, "observed")
    if observed.shape != (matrix.n,):
        raise ValueError(f"observed length {observed.shape} does not match n={matrix.n}")
    layout = matrix._layout
    half, tiny = np.float32(0.5 * LLR_CLAMP), np.float32(2.0**-100)
    # a product of +/-1 steps down by ``eps`` to the float below 1, and its
    # arctanh, 8.66, is then lifted by eps * lift to the clamp; both steps
    # are exact
    eps = np.float32(np.finfo(np.float32).epsneg)
    lift = (half - np.arctanh(np.full(1, 1 - eps))[0]) / eps
    # llr > 0 means bit 0 is more likely.  The totals start at the prior of
    # each position's helper bit and each group updates them in place
    tot = np.take((0.5 * _prior_llrs(joint)).astype(np.float32), observed)
    # an empty check has parity 0, so a 1 on one fails every syndrome test
    testable = not syn[matrix.row_weights() == 0].any()
    syn = syn[layout.checks]
    sgn = (1.0 - 2.0 * syn).astype(np.float32)
    want = syn.astype(bool)
    # edge-sized buffers, sliced per group.  A group's two value slices
    # trade roles every sweep: ``t`` gathers the totals and turns into the
    # variable-to-check messages, their tanh factors and the new
    # check-to-variable messages, while ``c`` holds the last sweep's
    # messages and then their change.  take(mode="clip") writes ``out``
    # directly, where the default mode buffers it; every index is in range.
    edges = layout.edge_vars.shape[0]
    values = np.zeros((2, edges), np.float32)
    spare = np.empty(edges, np.float32)
    # the hard-decision bools reuse spare's bytes: the syndrome test runs
    # after a sweep's updates, the only users of spare
    neg = spare.view(bool)[:edges]
    prod, par = np.empty(want.shape[0], np.float32), np.empty(want.shape[0], bool)
    updates, syndrome_tests = [], []
    for buckets in layout.groups:
        span = slice(buckets[0].edges.start, buckets[-1].edges.stop)
        checks = slice(buckets[0].checks.start, buckets[-1].checks.stop)
        sides = [(vals[span], _blocks(buckets, vals, prod)) for vals in values]
        v = layout.edge_vars[span]
        updates.append((sides, v, prod[checks], sgn[checks], spare[span]))
        blocks = _blocks(buckets, neg, par)
        syndrome_tests.append((sides, v, neg[span], blocks, par[checks], want[checks]))
    for it in range(1, max_iter + 1):
        for g, (sides, v, prod_g, sgn_g, work) in enumerate(updates):
            (t, blocks), (c, _) = sides
            # after the first sweep, group 0 reads the totals the last
            # syndrome test gathered
            if g or it == 1:
                np.take(tot, v, out=t, mode="clip")
            t -= c
            np.tanh(t, out=t)
            if not t.all():
                t[t == 0.0] = tiny
            for tb, pb in blocks:
                np.multiply.reduce(tb, axis=0, out=pb)
            prod_g *= sgn_g
            for tb, pb in blocks:
                np.divide(pb, tb, out=tb)
            # no factor exceeds 1, so |t| <= 1, and trunc(t) is +/-1 where
            # the product rounds to +/-1 and 0 elsewhere
            sat = np.trunc(t, out=work)
            sat *= eps
            t -= sat
            np.arctanh(t, out=t)
            sat *= lift
            t += sat
            np.subtract(t, c, out=c)
            np.add.at(tot, v, c)
            sides.reverse()
        # the hard decision is tested group by group, group 0 first, where
        # most failing sweeps already fail; its gather starts the next sweep
        for sides, v, neg_g, blocks, par_g, want_g in syndrome_tests:
            t = sides[0][0]
            np.take(tot, v, out=t, mode="clip")
            np.less(t, 0.0, out=neg_g)
            _xor_checks(blocks)
            if (par_g != want_g).any():
                break
        else:
            if testable:
                return DecodeResult((tot < 0.0).astype(np.uint8), True, it)
    return DecodeResult((tot < 0.0).astype(np.uint8), False, max_iter)


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


def _column_ids(columns: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 tokens of the column lines, and the token count of each line.

    One ``np.fromstring`` reads the lines, each ended by a -1 marker.  When
    the text has no sign but the markers' and every marker is read back, each
    token was a run of decimal digits and was read as ``int()`` reads it,
    except that one beyond int64 reads as 2^63 - 1, which no check index can
    be.  Any other text is read token by token, where a token ``int()``
    rejects, or one beyond int64, raises.
    """
    text = " -1 ".join(columns) + " -1"
    if "+" not in text and text.count("-") == len(columns):
        try:
            ids = np.fromstring(text, dtype=np.int64, sep=" ")
        # numpy raises on unmatched text, or warns and stops reading there
        except (ValueError, DeprecationWarning):
            ids = np.zeros(0, np.int64)
        ends = np.flatnonzero(ids == -1)
        if ends.size == len(columns):
            return ids[ids != -1], np.diff(ends, prepend=-1) - 1
    ids = np.array(" ".join(columns).split(), dtype=np.int64)
    return ids, np.array([len(line.split()) for line in columns], np.int64)


def _line_number(path, index: int) -> int:
    """The line number (from 1) of ``path``'s nonblank line ``index`` (from 0)."""
    with open(path, "r", encoding="utf-8") as f:
        return [k for k, line in enumerate(f, start=1) if line.strip()][index]


def read_alist(path) -> ParityCheckMatrix:
    """Parse an alist file; malformed input raises ValueError naming the line.

    Reading stops at the last column line.  The column lines are parsed as
    one array by :func:`_column_ids` and validated once, by
    :class:`ParityCheckMatrix`; a file it rejects is read again line by line
    with :func:`_column_checks` to name its first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        # alist fields count nonblank lines only, read here stripped
        lines = filter(None, map(str.strip, f))
        head = list(islice(lines, 4))
        if not head:
            raise ValueError("empty alist file")
        # the nonblank line an error names, counted from 0
        at = 0
        try:
            n, m = (int(v) for v in head[0].split())
            if n < 1 or m < 1:
                raise ValueError(f"sizes n={n} m={m} must be positive")
            # line 4 lists the m row weights, so a file bounds its own m
            at = len(head) - 1
            weights = head[3].split() if len(head) > 3 else []
            if len(weights) != m:
                raise ValueError(f"expected m={m} row weights, got {len(weights)}")
            # islice takes at most sys.maxsize, more lines than a file holds
            columns = list(islice(lines, min(n, sys.maxsize)))
            try:
                ids, per_line = _column_ids(columns)
                # 0 pads a column to the maximum weight
                col = np.repeat(np.arange(len(columns)), per_line)[ids != 0]
                row = ids[ids != 0] - 1
                # a check out of range fails here, one repeated in one column
                # fails validation
                if row.size and not (0 <= row.min() and row.max() < m):
                    raise ValueError("check index out of range")
                # edges sorted by (check, column): each check's columns ascend
                width = len(columns)
                edges = np.sort(row * width + col)
                chk_ptr = np.searchsorted(edges, np.arange(m + 1) * width)
                matrix = ParityCheckMatrix(n, m, chk_ptr, edges % width)
            except (ValueError, OverflowError):
                for at, line in enumerate(columns, start=4):
                    _column_checks(line.split(), m)
                raise
        except UnicodeDecodeError:  # text that is not UTF-8 raises as it is read
            raise
        except ValueError as exc:
            raise ValueError(f"alist line {_line_number(path, at)}: {exc}") from None
    if len(columns) < n:
        raise ValueError(
            f"alist ends at line {_line_number(path, 3 + len(columns))}, "
            f"before column {len(columns) + 1} of {n}"
        )
    return matrix
