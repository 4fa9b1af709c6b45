import random
from itertools import product, takewhile

import numpy as np
import pytest

from qkdpost import reconciliation
from qkdpost.channels import Basis, joint_tables, make_amplitude_damping
from qkdpost.entropy import binary_entropy, cond_entropy
from qkdpost.keyrate import key_joint
from qkdpost.reconciliation import (
    COL_WEIGHT,
    _group_count,
    _prior_llrs,
    gen_parity_check,
    read_alist,
    sp_decode,
    syndrome,
)

from conftest import (
    alist_oracle,
    col_weights,
    conditional,
    error_probability,
    flooding_oracle,
    gf2_rank,
    map_decode_bruteforce,
    prior_llrs,
    priors_from_joint,
    to_dense,
    weight_two_code,
    write_alist,
)


def damping_joint(p):
    return joint_tables(make_amplitude_damping(p), (Basis.Z, Basis.Z))[0, 1]


def bsc_joint(p):
    return np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])


def weak_one_joint(q):
    """Helper bit 0 gives the prior 0.9/0.1 toward key bit 0, helper bit 1
    the prior q/(1 - q), with q = P(key = 0 | helper = 1)."""
    return np.array([[0.45, 0.5 * q], [0.05, 0.5 * (1 - q)]])


def half_every_seventh(rng):
    """(x, observed) of 60 bits for ``weak_one_joint(0.5)``: every seventh
    bit is random under an exact 1/2 prior, the others are 0 under 0.9/0.1."""
    x, observed = np.zeros(60, np.uint8), np.zeros(60, np.uint8)
    x[::7] = rng.integers(0, 2, 9)
    observed[::7] = 1
    return x, observed


def sample_pair(joint, n, rng):
    """(x, y) of length n drawn iid from a 2x2 joint table."""
    flat = rng.choice(4, size=n, p=joint.ravel())
    return (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)


class TestConstruction:
    def test_small_example_full_rank_and_reproducible(self):
        a = gen_parity_check(6, 3, seed=9)
        b = gen_parity_check(6, 3, seed=9)
        assert np.array_equal(a.chk_vars, b.chk_vars)
        assert np.array_equal(a.chk_ptr, b.chk_ptr)
        assert gf2_rank(to_dense(a)) == 3

    def test_column_regular_when_unrepaired(self):
        n, m, w = 400, 200, COL_WEIGHT
        code = gen_parity_check(n, m, seed=13)
        dense = to_dense(code)
        assert gf2_rank(dense) == m
        assert (col_weights(code)[: n - m] == w).all()
        t = dense[:, n - m :]
        assert np.array_equal(np.triu(t), np.eye(m, dtype=np.uint8))
        assert (np.diagonal(t, offset=-1) == 1).all()

    def test_full_rank_across_seeds(self):
        for n, m in [(60, 30), (30, 3), (100, 4), (7, 6), (200, 150)]:
            for seed in range(20):
                code = gen_parity_check(n, m, seed=seed)
                assert gf2_rank(to_dense(code)) == m
                assert (col_weights(code)[: n - m] == COL_WEIGHT).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_parity_check(10, 10, seed=0)
        with pytest.raises(ValueError, match="column weight 3 exceeds the row count 2"):
            gen_parity_check(10, 2, seed=0)

    def test_large_build_under_a_second(self):
        import time

        t0 = time.perf_counter()
        m = gen_parity_check(10_000, 5_000, seed=42)
        assert time.perf_counter() - t0 < 1.0
        assert m.n == 10_000 and m.m == 5_000

    def test_million_bit_build_under_a_second(self):
        import time

        n, m = 1_000_000, 341_724
        t0 = time.perf_counter()
        code = gen_parity_check(n, m, seed=42)
        assert time.perf_counter() - t0 < 1.0
        assert code.m == m and (col_weights(code)[: n - m] == 3).all()


class TestSyndrome:
    def test_hand_example(self):
        code = _explicit_code([[0, 1], [1, 2]], n=3)
        got = syndrome(code, np.array([1, 0, 1], np.uint8))
        assert got.tolist() == [1, 1]

    def test_zero_vector(self):
        code = gen_parity_check(20, 8, seed=1)
        assert syndrome(code, np.zeros(20, np.uint8)).tolist() == [0] * 8

    def test_linearity(self, rng):
        code = gen_parity_check(40, 16, seed=2)
        for _ in range(20):
            a = rng.integers(0, 2, 40).astype(np.uint8)
            b = rng.integers(0, 2, 40).astype(np.uint8)
            lhs = syndrome(code, a) ^ syndrome(code, b)
            assert np.array_equal(lhs, syndrome(code, a ^ b))

    def test_length_mismatch(self):
        code = gen_parity_check(20, 8, seed=1)
        with pytest.raises(ValueError):
            syndrome(code, np.zeros(19, np.uint8))

    @pytest.mark.parametrize("x", [np.full(12, 2), np.full(12, 0.7), np.full(12, -1)])
    def test_entries_other_than_bits_rejected(self, x):
        code = gen_parity_check(12, 6, seed=1)
        with pytest.raises(ValueError, match="0 or 1"):
            syndrome(code, x)

    def test_bool_and_float_bits_accepted(self, rng):
        code = gen_parity_check(12, 6, seed=1)
        x = rng.integers(0, 2, 12).astype(np.uint8)
        assert np.array_equal(syndrome(code, x.astype(bool)), syndrome(code, x))
        assert np.array_equal(syndrome(code, x.astype(float)), syndrome(code, x))

    @staticmethod
    def _assert_dense(code, rng, draws=3):
        dense = to_dense(code).astype(np.int64)
        for _ in range(draws):
            x = rng.integers(0, 2, code.n).astype(np.uint8)
            got = syndrome(code, x)
            assert got.dtype == np.uint8
            assert np.array_equal(got, dense @ x % 2)

    @pytest.mark.parametrize(
        "n, m, groups", [(600, 300, 1), (4000, 1000, 1), (4500, 1500, 2), (7000, 2000, 3), (9000, 2000, 4)]
    )
    def test_matches_the_dense_product(self, n, m, groups, rng):
        code = gen_parity_check(n, m, seed=n)
        assert len(code._layout.groups) == groups
        self._assert_dense(code, rng)

    @pytest.mark.parametrize("groups", [1, 2, 3, 4])
    def test_empty_checks_in_several_groups(self, groups, rng, monkeypatch):
        monkeypatch.setattr(reconciliation, "GROUP_EDGES", 1)
        monkeypatch.setattr(reconciliation, "MAX_GROUPS", groups)
        base = gen_parity_check(40, 20, seed=groups)
        supports = [base.chk_vars[a:b] for a, b in zip(base.chk_ptr[:-1], base.chk_ptr[1:])]
        # empty checks at the start, in a run of three, spread over the
        # groups, and as the last two checks, each the last of its group
        for k in (0, 3, 4, 5, 11, 17):
            supports.insert(k, [])
        supports += [[], []]
        code = _explicit_code(supports, n=40)
        empty = np.flatnonzero(code.row_weights() == 0)
        assert len(code._layout.groups) == groups
        assert len(set(empty % groups)) == groups
        assert code.m - 1 in empty
        self._assert_dense(code, rng, draws=20)

    def test_no_checks(self):
        from qkdpost.reconciliation import ParityCheckMatrix

        code = ParityCheckMatrix(5, 0, [0], [])
        got = syndrome(code, np.ones(5, np.uint8))
        assert got.shape == (0,) and got.dtype == np.uint8

    @pytest.mark.parametrize("n, m", [(12, 6), (4500, 1500)])
    def test_an_alist_code(self, n, m, rng, tmp_path):
        path = tmp_path / "code.alist"
        write_alist(gen_parity_check(n, m, seed=3), path)
        self._assert_dense(read_alist(path), rng)

    @pytest.mark.parametrize("n, m", [(600, 300), (9000, 2000)])
    def test_unchanged_by_a_decode_of_the_same_code(self, n, m, rng):
        joint = bsc_joint(0.05)
        x, y = sample_pair(joint, n, rng)
        code = gen_parity_check(n, m, seed=5)
        before = syndrome(code, x)
        layout = code._layout
        sp_decode(code, before, joint, y, max_iter=3)
        assert code._layout is layout
        assert np.array_equal(syndrome(code, x), before)
        # a fresh copy whose layout the decoder builds first
        fresh = gen_parity_check(n, m, seed=5)
        sp_decode(fresh, before, joint, y, max_iter=3)
        assert np.array_equal(syndrome(fresh, x), before)


class TestMatrixValidation:
    @pytest.mark.parametrize(
        "n, m, chk_ptr, chk_vars",
        [
            (4, 2, [0, 2, 4], [0, 9, 1, 2]),
            (4, 2, [0, 2, 4], [0, -1, 1, 2]),
            (4, 2, [0, 2], [0, 1]),
            (4, 2, [1, 2, 4], [0, 1, 1, 2]),
            (4, 2, [0, 3, 2], [0, 1, 2]),
            (4, 2, [0, 2, 3], [0, 1, 1, 2]),
            (4, 2, [0, 2, 4], [1, 0, 1, 2]),
            (4, 2, [0, 2, 4], [0, 1, 2, 2]),
            (4, 2, [0, 2, 4], [[0, 1], [1, 2]]),
            (0, 0, [0], []),
        ],
        ids=[
            "variable-above-n", "negative-variable", "pointer-length", "pointer-start",
            "pointer-decreases", "pointer-end", "descending-check", "repeated-variable",
            "two-axes", "no-variables",
        ],
    )
    def test_malformed_arrays_raise_value_error(self, n, m, chk_ptr, chk_vars):
        from qkdpost.reconciliation import ParityCheckMatrix

        with pytest.raises(ValueError):
            ParityCheckMatrix(n, m, chk_ptr, chk_vars)

    def test_empty_checks_and_steps_down_between_checks_allowed(self):
        code = _explicit_code([[], [2, 3], [], [0, 1], []], n=4)
        assert code.num_edges == 4
        assert syndrome(code, np.array([1, 0, 1, 0], np.uint8)).tolist() == [0, 1, 0, 1, 0]


def _explicit_code(row_supports, n):
    from qkdpost.reconciliation import ParityCheckMatrix

    chk_ptr = np.zeros(len(row_supports) + 1, np.int64)
    parts = []
    for k, sup in enumerate(row_supports):
        parts.append(np.asarray(sorted(sup), np.int64))
        chk_ptr[k + 1] = chk_ptr[k] + len(sup)
    return ParityCheckMatrix(n, len(row_supports), chk_ptr, np.concatenate(parts))


# alist text of gen_parity_check(12, 6, seed=1), pinned byte for byte:
# each column's checks and each check's variables ascending, 1-based
SMALL_ALIST = (
    "12 6\n"
    "4 6\n"
    "3 3 3 3 3 3 2 4 3 2 2 1\n"
    "5 5 5 6 6 5\n"
    "1 3 4\n"
    "3 5 6\n"
    "2 5 6\n"
    "1 2 4\n"
    "1 2 3\n"
    "1 4 5\n"
    "1 2\n"
    "2 3 4 5\n"
    "3 4 6\n"
    "4 5\n"
    "5 6\n"
    "6\n"
    "1 4 5 6 7\n"
    "3 4 5 7 8\n"
    "1 2 5 8 9\n"
    "1 4 6 8 9 10\n"
    "2 3 6 8 10 11\n"
    "2 3 9 11 12\n"
)


class TestAlist:
    def test_round_trip(self, rng, tmp_path):
        code = gen_parity_check(50, 25, seed=3)
        path = tmp_path / "code.alist"
        write_alist(code, path)
        back = read_alist(path)
        assert back.n == code.n and back.m == code.m
        assert np.array_equal(back.chk_ptr, code.chk_ptr)
        assert np.array_equal(back.chk_vars, code.chk_vars)
        write_alist(gen_parity_check(12, 6, seed=1), path)
        assert path.read_text() == SMALL_ALIST

    def test_round_trip_at_scale(self, tmp_path):
        # 10^5 columns, 2.96 * 10^5 edges: the reader parses columns as one array
        code = gen_parity_check(100_000, 20_000, seed=4)
        path = tmp_path / "code.alist"
        write_alist(code, path)
        back = read_alist(path)
        assert back.n == code.n and back.m == code.m
        assert np.array_equal(back.chk_ptr, code.chk_ptr)
        assert np.array_equal(back.chk_vars, code.chk_vars)

    @pytest.mark.parametrize("seed", range(4))
    def test_reader_matches_the_line_by_line_oracle(self, tmp_path, seed):
        # small codes with up to three token edits each: bad integers, numbers
        # beyond int64, negative, zero, repeated or out-of-range checks, and
        # blank or split lines; the outcome and any message must agree
        rng = random.Random(seed)
        edits = ["0", "1", "2", "3", "-1", "7", "9" * 25, "x", "1.5", "+2", "", " ", "\n"]
        path = tmp_path / "code.alist"
        outcomes = set()
        for trial in range(100):
            m = rng.randint(2, 5)
            write_alist(weight_two_code(m + rng.randint(1, 5), m, trial), path)
            chars = list(path.read_text())
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(len(chars))
                if rng.random() < 0.5:
                    chars[k] = rng.choice(edits)
                else:
                    chars.insert(k, rng.choice(edits) + " ")
            path.write_text("".join(chars))
            try:
                want = alist_oracle(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_alist(path)
                assert str(got.value) == str(exc)
                outcomes.add("error")
                continue
            back = read_alist(path)
            assert (back.n, back.m) == want[:2]
            assert np.array_equal(back.chk_ptr, want[2])
            assert np.array_equal(back.chk_vars, want[3])
            outcomes.add("parsed")
        assert outcomes == {"error", "parsed"}

    # tokens the one-pass parse must not read otherwise than int(): a token
    # beyond int64 either way, one whose edge key (index - 1) * 10 wraps
    # around to 4, bare signs (fromstring reads "+ 2" as 2 and "- 0" as 0),
    # a sign inside a token, digit separators and non-ASCII digits, a NUL,
    # and whitespace that only Python splits on
    ODD_TOKENS = ["9" * 25, "-" + "9" * 25, str(2**64 // 10 + 2), "-", "+", "+ 2", "- 0",
                  "- 1", "+-2", "1-2", "2+", "-0", "+1", "1_0", "\u0661", "1\x002",
                  "1\x1c2", "1\x0b2"]

    @staticmethod
    def _assert_token_reads_as_the_oracle_reads_it(tmp_path, token, column):
        path = tmp_path / "code.alist"
        write_alist(weight_two_code(10, 4, 1), path)
        lines = path.read_text().split("\n")
        lines[4 + column] += " " + token
        path.write_text("\n".join(lines))
        try:
            want = alist_oracle(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_alist(path)
            assert str(got.value) == str(exc)
            return
        back = read_alist(path)
        assert (back.n, back.m) == want[:2]
        assert np.array_equal(back.chk_ptr, want[2])
        assert np.array_equal(back.chk_vars, want[3])

    @pytest.mark.parametrize("token", ODD_TOKENS, ids=[repr(t) for t in ODD_TOKENS])
    @pytest.mark.parametrize("column", [0, 5])
    def test_odd_token_reads_as_the_oracle_reads_it(self, tmp_path, token, column):
        self._assert_token_reads_as_the_oracle_reads_it(tmp_path, token, column)

    # "\u0662", an Arabic-Indic 2, is a check this column lacks: int() reads it
    @pytest.mark.parametrize("token", ["x", "\u0662", "1_0"])
    def test_a_short_one_pass_read_falls_back(self, tmp_path, monkeypatch, token):
        # older numpy warns at unmatched text and returns the values before it
        def stops_at_unmatched(text, dtype, sep):
            plain = lambda t: t.lstrip("-").isascii() and t.lstrip("-").isdigit()  # noqa: E731
            return np.array(list(takewhile(plain, text.split())), dtype=dtype)

        monkeypatch.setattr(np, "fromstring", stops_at_unmatched)
        self._assert_token_reads_as_the_oracle_reads_it(tmp_path, token, 5)

    def test_round_trip_keeps_an_empty_column(self, tmp_path):
        code = _explicit_code([{0}, {2}], 3)
        path = tmp_path / "code.alist"
        write_alist(code, path)
        back = read_alist(path)
        assert np.array_equal(to_dense(back), to_dense(code))


class TestObserved:
    """``sp_decode`` gives position j the prior P(key | helper = observed[j])
    of the joint; the helper's bits may come in any dtype or as a list."""

    def test_positions_start_from_their_helper_conditional(self, rng):
        joint = damping_joint(0.3)
        code = gen_parity_check(60, 40, seed=4)
        x, y = sample_pair(joint, 60, rng)
        syn = syndrome(code, x)
        want = flooding_oracle(code, syn, conditional(joint)[:, y].T, max_iter=5)
        for obs in (y, y.tolist(), y.astype(bool), y.astype(float)):
            got = sp_decode(code, syn, joint, obs, max_iter=5)
            assert np.array_equal(got.bits, want.bits)
            assert (got.converged, got.iterations) == (want.converged, want.iterations)

    @pytest.mark.parametrize("shape", [59, 61, (60, 1)], ids=["short", "long", "two-axes"])
    def test_observed_of_another_shape_rejected(self, shape):
        code = gen_parity_check(60, 30, seed=4)
        with pytest.raises(ValueError, match="observed length"):
            sp_decode(code, np.zeros(30, np.uint8), bsc_joint(0.1), np.zeros(shape, np.uint8))


class TestPriorLlrs:
    """``sp_decode``'s two prior LLRs are read straight off the joint, with the
    conditional's arithmetic: a helper bit of probability <= ZERO_CUTOFF gets
    a uniform key column and LLR 0."""

    EDGE_TABLES = [
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.0, 0.5], [0.5, 0.0]],
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.5, 0.0], [0.5, 0.0]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.5, 1e-13], [0.5 - 1e-13, 0.0]],
        [[0.5, 1e-12], [0.5 - 1e-12, 0.0]],
        [[0.5, 2e-12], [0.5 - 2e-12, 0.0]],
        [[0.5, 1e-200], [0.5, 1e-320]],
    ]

    def test_equals_the_conditional_formula(self, rng):
        tables = [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(1000)]
        for table in tables + [np.array(t) for t in self.EDGE_TABLES]:
            got, want = _prior_llrs(table), prior_llrs(conditional(table).T)
            assert (got == want).all(), table

    def test_a_helper_bit_of_probability_at_most_the_cutoff_gives_llr_zero(self):
        assert _prior_llrs(np.array([[0.5, 1e-13], [0.5 - 1e-13, 0.0]]))[1] == 0.0


class TestBruteForceMap:
    def test_deterministic_priors_pick_the_pinned_member(self, rng):
        code = weight_two_code(8, 4, seed=5)
        x = rng.integers(0, 2, 8).astype(np.uint8)
        syn = syndrome(code, x)
        priors = np.where(x[:, None] == 0, [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(map_decode_bruteforce(code, syn, priors), x)

    def test_matches_exhaustive_scan_n6(self, rng):
        joint = damping_joint(0.3)
        for seed in range(30):
            code = weight_two_code(6, 3, seed)
            x, y = sample_pair(joint, 6, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y)
            got = map_decode_bruteforce(code, syn, priors)
            want = _scan_all(code, syn, priors)
            assert np.array_equal(got, want)

    def test_uniform_priors_give_lexicographic_minimum(self):
        code = weight_two_code(10, 5, seed=11)
        syn = syndrome(code, np.ones(10, np.uint8))
        priors = np.full((10, 2), 0.5)
        got = map_decode_bruteforce(code, syn, priors)
        members = _coset_members(code, syn)
        want = min(tuple(v) for v in members)
        assert tuple(got) == want

    def test_size_cap(self):
        code = gen_parity_check(30, 12, seed=1)
        with pytest.raises(ValueError):
            map_decode_bruteforce(code, np.zeros(12, np.uint8), np.full((30, 2), 0.5))


def _coset_members(code, syn):
    """Every word of syndrome syn, in increasing order of its value with bit
    i of the value as entry i."""
    words = ((np.arange(2**code.n)[:, None] >> np.arange(code.n)) & 1).astype(np.uint8)
    return list(words[((words @ to_dense(code).T) % 2 == syn).all(axis=1)])


def _scan_all(code, syn, priors):
    lp = np.log(np.clip(priors, 1e-300, None))
    best, best_v = -np.inf, None
    for vec in _coset_members(code, syn):
        s = lp[np.arange(code.n), vec].sum()
        if s > best + 1e-12 or (abs(s - best) <= 1e-12 and best_v is not None and tuple(vec) < tuple(best_v)):
            best, best_v = s, vec
    return best_v


class TestSumProduct:
    def test_delta_priors_converge_immediately(self, rng):
        code = gen_parity_check(60, 30, seed=4)
        x = rng.integers(0, 2, 60).astype(np.uint8)
        res = sp_decode(code, syndrome(code, x), bsc_joint(0.0), x)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.bits, x)

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -0.1, 1.5, 0.7, -1, 2],
        ids=["nan", "inf", "negative", "above-one", "fraction", "minus-one", "two"],
    )
    def test_observed_entries_other_than_bits_rejected(self, rng, bad):
        code = gen_parity_check(60, 30, seed=4)
        x = rng.integers(0, 2, 60).astype(np.uint8)
        observed = x.astype(float)
        observed[7] = bad
        with pytest.raises(ValueError, match="observed entries must be 0 or 1"):
            sp_decode(code, syndrome(code, x), bsc_joint(0.1), observed)
        with pytest.raises(ValueError, match="observed entries must be 0 or 1"):
            sp_decode(code, syndrome(code, x), bsc_joint(0.1), np.full(60, bad))

    @pytest.mark.parametrize("groups", [1, 2])
    def test_a_product_of_ones_sends_the_clamp(self, groups, monkeypatch):
        # variables 0 and 1 are certain, so check 0's product for variable 2
        # is 1 (exactly 1 in float32), and its message must outweigh the
        # wrong half-LLR -12 there; arctanh of the float32 below 1 is 8.66.
        # Helper bit 0 makes key bit 0 certain, helper bit 1 gives LLR -24
        if groups > 1:
            monkeypatch.setattr(reconciliation, "GROUP_EDGES", 1)
            monkeypatch.setattr(reconciliation, "MAX_GROUPS", groups)
        code = _explicit_code([[0, 1, 2], [3, 4]], n=5)
        assert _group_count(code.num_edges) == groups
        s = 1 / (1 + np.exp(24.0))
        joint = np.array([[0.5, 0.5 * s], [0.0, 0.5 * (1 - s)]])
        res = sp_decode(code, np.zeros(2, np.uint8), joint, [0, 0, 1, 0, 0])
        assert res.converged and res.iterations == 1
        assert not res.bits.any()

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_syndrome_entries_other_than_bits_rejected(self, bad):
        code = gen_parity_check(60, 30, seed=4)
        syn = np.zeros(30)
        syn[3] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            sp_decode(code, syn, bsc_joint(0.5), np.zeros(60, np.uint8))

    def test_rejects_fewer_than_one_iteration(self, rng):
        code = gen_parity_check(60, 30, seed=4)
        x = rng.integers(0, 2, 60).astype(np.uint8)
        with pytest.raises(ValueError, match="max_iter"):
            sp_decode(code, syndrome(code, x), bsc_joint(0.5), x, max_iter=0)

    def test_converged_output_satisfies_syndrome(self, rng):
        joint = damping_joint(0.3)
        code = gen_parity_check(600, 370, seed=6)
        for _ in range(10):
            x, y = sample_pair(joint, 600, rng)
            res = sp_decode(code, syndrome(code, x), joint, y)
            if res.converged:
                assert np.array_equal(syndrome(code, res.bits), syndrome(code, x))

    def test_frame_errors_rare_at_working_margin(self, rng):
        joint = damping_joint(0.3)
        n = 4000
        m = int(np.ceil(n * (cond_entropy(joint) + 0.1)))
        code = gen_parity_check(n, m, seed=7)
        fails = 0
        for _ in range(10):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(code, syndrome(code, x), joint, y)
            if not (res.converged and np.array_equal(res.bits, x)):
                fails += 1
        assert fails <= 2

    def test_frame_errors_rare_on_a_symmetric_channel(self, rng):
        joint = np.array([[0.47, 0.03], [0.03, 0.47]])
        n = 12_000
        m = int(np.ceil(n * (cond_entropy(joint) + 0.1)))
        code = gen_parity_check(n, m, seed=8)
        fails = 0
        for _ in range(20):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(code, syndrome(code, x), joint, y)
            if not (res.converged and np.array_equal(res.bits, x)):
                fails += 1
        assert fails <= 3

    def test_agreement_with_map_oracle_among_decodes(self, rng):
        joint = damping_joint(0.3)
        hxy = cond_entropy(joint)
        agree = conv = 0
        trials = 120
        for _ in range(trials):
            n = int(rng.integers(10, 17))
            m = int(np.ceil(n * (hxy + 0.2)))
            code = gen_parity_check(n, m, seed=int(rng.integers(1e9)))
            x, y = sample_pair(joint, n, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y)
            res = sp_decode(code, syn, joint, y)
            if not res.converged:
                continue
            conv += 1
            agree += np.array_equal(res.bits, map_decode_bruteforce(code, syn, priors))
        assert conv > trials * 0.55
        assert agree / conv >= 0.95

    def test_converged_beats_nearest_member_with_symmetric_priors(self, rng):
        """A converged word is a coset member, so it never scores above the
        nearest member, the MAP member under symmetric priors.  Sum-product
        is not MAP decoding, so equality is asserted on 97% of the converged
        draws rather than on each: over 2,000 draws at each of 11 seeds, 92
        of 18,911 converged words (0.5%, at most 13 of 1,738 in one seed)
        scored below the nearest member."""
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        nearest_found = []
        for _ in range(1000):
            n = int(rng.integers(10, 15))
            m = int(np.ceil(n * 0.7))
            code = gen_parity_check(n, m, seed=int(rng.integers(1e9)))
            x, y = sample_pair(joint, n, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y)
            res = sp_decode(code, syn, joint, y)
            if not res.converged:
                continue
            members = _coset_members(code, syn)
            dists = [(v ^ y).sum() for v in members]
            nearest = members[int(np.argmin(dists))]
            lp = np.log(np.clip(priors, 1e-300, None))
            score = lambda v: lp[np.arange(n), v].sum()
            decoded, best = score(res.bits), score(nearest)
            assert decoded <= best + 1e-9
            nearest_found.append(decoded >= best - 1e-9)
        assert len(nearest_found) > 700
        assert sum(nearest_found) >= 0.97 * len(nearest_found)


class TestSumProductSegments:
    """Check segments the decoder must reduce exactly: empty checks, a last
    non-empty check ending at the final edge, one check over every variable,
    and exact zero factors."""

    # checks 1, 3 and 5 are empty; check 4 ends at the final edge and is
    # the only check on variable 7
    SUPPORTS = [[0, 1, 2], [], [2, 3, 4], [], [4, 5, 6, 7], []]

    def _decode_with_weak_last_bit(self, syn_of_empty):
        code = _explicit_code(self.SUPPORTS, n=8)
        x = np.array([0, 0, 0, 0, 0, 0, 0, 1], np.uint8)
        syn = syndrome(code, x)
        syn[[1, 3, 5]] = syn_of_empty
        # strong priors toward x, except a weak wrong one on variable 7
        observed = np.eye(8, dtype=np.uint8)[7]
        return code, x, syn, sp_decode(code, syn, weak_one_joint(0.6), observed, max_iter=20)

    def test_empty_checks_with_zero_syndrome_converge(self):
        code, x, syn, res = self._decode_with_weak_last_bit([0, 0, 0])
        assert res.converged
        assert np.array_equal(res.bits, x)
        assert np.array_equal(syndrome(code, res.bits), syn)
        assert np.array_equal((to_dense(code).astype(int) @ res.bits) % 2, syn)

    @pytest.mark.parametrize("syn_of_empty", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_an_empty_check_with_syndrome_one_never_converges(self, syn_of_empty):
        _, _, _, res = self._decode_with_weak_last_bit(syn_of_empty)
        assert not res.converged and res.iterations == 20

    def test_one_check_over_every_variable(self, rng):
        n, p = 2000, 0.03
        joint = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
        m = int(np.ceil(n * (cond_entropy(joint) + 0.2)))
        base = gen_parity_check(n, m, seed=9)
        supports = [base.chk_vars[a:b] for a, b in zip(base.chk_ptr[:-1], base.chk_ptr[1:])]
        code = _explicit_code(supports + [range(n)], n)
        x, y = sample_pair(joint, n, rng)
        res = sp_decode(code, syndrome(code, x), joint, y)
        assert res.converged and np.array_equal(res.bits, x)

    def test_exact_half_priors_converge(self, rng):
        code = gen_parity_check(60, 30, seed=4)
        x, observed = half_every_seventh(rng)
        res = sp_decode(code, syndrome(code, x), weak_one_joint(0.5), observed)
        assert res.converged and np.array_equal(res.bits, x)

    def test_exact_half_priors_agree_with_map_on_tiny_codes(self, rng):
        # helper bit 1, one bit in 7, leaves the key bit at exactly 1/2
        joint = np.array([[0.774, 0.07], [0.086, 0.07]])
        agree = conv = 0
        for _ in range(40):
            n = int(rng.integers(10, 17))
            code = gen_parity_check(n, int(np.ceil(n * 0.8)), seed=int(rng.integers(1e9)))
            x, y = sample_pair(joint, n, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y)
            res = sp_decode(code, syn, joint, y)
            if not res.converged:
                continue
            # agreement means a word of the MAP score: with exact 1/2 priors,
            # words that differ only in those bits tie, and the oracle breaks
            # ties its own way
            conv += 1
            lp = np.log(np.clip(priors, 1e-300, None))
            score = lambda v: lp[np.arange(n), v].sum()
            best = map_decode_bruteforce(code, syn, priors)
            agree += score(res.bits) >= score(best) - 1e-9
        assert conv >= 30
        assert agree / conv >= 0.95


class TestSumProductSegmentsInGroups(TestSumProductSegments):
    """The segment cases again, with the checks split into 2, 3 or 4 groups."""

    @pytest.fixture(autouse=True, params=[2, 3, 4])
    def groups(self, request, monkeypatch):
        # every code here has at least 4 edges, so it runs MAX_GROUPS groups
        monkeypatch.setattr(reconciliation, "GROUP_EDGES", 1)
        monkeypatch.setattr(reconciliation, "MAX_GROUPS", request.param)
        return request.param

    @pytest.mark.parametrize("syn_of_empty", [0, 1])
    def test_an_empty_check_last_in_its_group(self, groups, syn_of_empty):
        # check 0 carries the weak wrong bit 7 on its last edge, and check
        # `groups`, the next one in its group, is empty; checks 1 and
        # groups + 1 share group 1, whose last check ends at the final edge
        supports = [[] for _ in range(groups + 2)]
        supports[0], supports[1], supports[groups + 1] = [4, 5, 6, 7], [0, 1, 2], [2, 3, 4]
        code = _explicit_code(supports, n=8)
        assert code.num_edges == 10 and _group_count(code.num_edges) == groups
        x = np.zeros(8, np.uint8)
        syn = syndrome(code, x)
        syn[groups] = syn_of_empty
        # strong priors toward x, except a weak one toward 1 on variable 7: a
        # check 0 product that missed bit 7 would, divided by its negative
        # factor, push bit 7 further toward 1
        observed = np.eye(8, dtype=np.uint8)[7]
        res = sp_decode(code, syn, weak_one_joint(0.4), observed, max_iter=20)
        if syn_of_empty:
            assert not res.converged and res.iterations == 20
        else:
            assert res.converged and np.array_equal(res.bits, x)


class TestFloodingOracle:
    """Below 2 * GROUP_EDGES edges a sweep is one group, a flooding sweep in
    float32.  The oracle floods in the same arithmetic and adds to the
    totals in the same order, so the two decode bit for bit.  The
    benchmark's short-blocks pool (256 decodes, see
    ``test_decode_pools.py``) converged 215 times in 25.105 mean sweeps on
    the float32 body, against 217 and 24.609 for the float64 flooding body
    it replaced."""

    @staticmethod
    def _assert_flooding(code, syn, joint, observed, max_iter=100):
        assert _group_count(code.num_edges) == 1
        got = sp_decode(code, syn, joint, observed, max_iter)
        want = flooding_oracle(code, syn, priors_from_joint(joint, observed), max_iter)
        assert np.array_equal(got.bits, want.bits)
        assert (got.converged, got.iterations) == (want.converged, want.iterations)
        return got

    @pytest.mark.parametrize("joint", [bsc_joint(0.05), damping_joint(0.3)], ids=["bsc", "damping"])
    def test_random_codes_decode_as_flooding(self, joint, rng):
        converged = []
        for n, margin in ((200, 0.02), (1000, 0.03), (2000, 0.1), (3500, 0.05)):
            m = int(np.ceil(n * (cond_entropy(joint) + margin)))
            code = gen_parity_check(n, m, seed=n)
            for _ in range(3):
                x, y = sample_pair(joint, n, rng)
                res = self._assert_flooding(code, syndrome(code, x), joint, y)
                converged.append(res.converged)
        # failing decodes, whose bits are only diagnostic, are compared too
        assert any(converged) and not all(converged)

    def test_segment_codes_decode_as_flooding(self, rng):
        code = _explicit_code(TestSumProductSegments.SUPPORTS, n=8)
        observed = np.eye(8, dtype=np.uint8)[7]
        for bit7, empty in product((0, 1), ([0, 0, 0], [0, 1, 0])):
            x = np.array([0, 0, 0, 0, 0, 0, 0, bit7], np.uint8)
            # strong priors toward x, except a weak wrong one on variable 7
            joint = weak_one_joint(0.6 if bit7 else 0.4)
            syn = syndrome(code, x)
            syn[[1, 3, 5]] = empty
            self._assert_flooding(code, syn, joint, observed, max_iter=20)
        joint = bsc_joint(0.03)
        base = gen_parity_check(2000, 800, seed=9)
        supports = [base.chk_vars[a:b] for a, b in zip(base.chk_ptr[:-1], base.chk_ptr[1:])]
        code = _explicit_code(supports + [range(2000)], 2000)
        x, y = sample_pair(joint, 2000, rng)
        self._assert_flooding(code, syndrome(code, x), joint, y)
        code = gen_parity_check(60, 30, seed=4)
        x, observed = half_every_seventh(rng)
        self._assert_flooding(code, syndrome(code, x), weak_one_joint(0.5), observed)


class TestGroupSchedule:
    def test_fewer_sweeps_than_flooding_above_the_threshold(self):
        """At n = 12,000 the decoder runs 4 groups: it decodes at least as many
        blocks as flooding in at most 3/4 of its sweeps."""
        rng = np.random.default_rng(12)
        n = 12_000
        joints = [bsc_joint(0.03), bsc_joint(0.05), bsc_joint(0.08), damping_joint(0.3)]
        decoded, sweeps = np.zeros(2, int), np.zeros(2, int)
        for k, joint in enumerate(joints):
            m = int(np.ceil(n * (cond_entropy(joint) + 0.1)))
            code = gen_parity_check(n, m, seed=30 + k)
            assert _group_count(code.num_edges) == reconciliation.MAX_GROUPS
            for _ in range(3):
                x, y = sample_pair(joint, n, rng)
                syn, priors = syndrome(code, x), priors_from_joint(joint, y)
                for side, res in enumerate(
                    (sp_decode(code, syn, joint, y), flooding_oracle(code, syn, priors))
                ):
                    decoded[side] += res.converged and np.array_equal(res.bits, x)
                    sweeps[side] += res.iterations
        assert decoded[0] >= decoded[1]
        assert sweeps[0] <= 0.75 * sweeps[1]


class TestLayout:
    """sp_decode's bucketed layout: every edge once, group i mod G, buckets
    of one row weight, and column c of a bucket is check c's variables."""

    @pytest.mark.parametrize("n, m, seed", [(12_000, 4_000, 1), (2_000, 800, 2), (300, 200, 3)])
    def test_buckets_cover_every_check_once(self, n, m, seed):
        code = gen_parity_check(n, m, seed=seed)
        layout = code._layout
        assert code._layout is layout
        count = _group_count(code.num_edges)
        assert len(layout.groups) == count
        weights = code.row_weights()
        seen = []
        for g, buckets in enumerate(layout.groups):
            assert [b.shape[0] for b in buckets] == sorted({b.shape[0] for b in buckets})
            for b in buckets:
                checks = layout.checks[b.checks]
                assert (checks % count == g).all() and (np.diff(checks) > 0).all()
                assert (weights[checks] == b.shape[0]).all()
                block = layout.edge_vars[b.edges].reshape(b.shape)
                for c, check in enumerate(checks):
                    own = code.chk_vars[code.chk_ptr[check] : code.chk_ptr[check + 1]]
                    assert np.array_equal(block[:, c], own)
                seen.extend(checks.tolist())
        assert sorted(seen + np.flatnonzero(weights == 0).tolist()) == list(range(m))

    def test_empty_checks_sit_in_no_bucket(self):
        code = _explicit_code([[0, 1], [], [1, 2, 3], [], [3]], n=4)
        layout = code._layout
        # the empty checks first, then the others by weight
        assert layout.checks.tolist() == [1, 3, 4, 0, 2]
        assert [b.shape for b in layout.groups[0]] == [(1, 1), (2, 1), (3, 1)]


class TestConventionalFloorSeparation:
    def test_decoding_succeeds_below_the_error_syndrome_floor(self, rng):
        """The error-difference method needs m/n > H(W); source-side priors
        decode reliably at a rate strictly between H(X|Y) and H(W)."""
        p = 0.5
        joint = damping_joint(p)
        hxy = cond_entropy(joint)
        hw = binary_entropy(error_probability(joint))
        assert hw == pytest.approx(binary_entropy(p / 2), abs=1e-12)
        rate = 0.805
        assert hxy + 0.05 < rate < hw
        n = 30_000
        code = gen_parity_check(n, int(np.ceil(n * rate)), seed=99)
        wins = 0
        for _ in range(6):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(code, syndrome(code, x), joint, y, max_iter=200)
            wins += res.converged and np.array_equal(res.bits, x)
        assert wins >= 5


class TestReverseMapVsMl:
    def test_map_and_ml_pick_different_words(self):
        """Reverse reconciliation: the decoded side has a non-uniform prior,
        so weighting by it changes the argmax on this frozen instance."""
        joint = np.array([[0.45, 0.05], [0.15, 0.35]])
        # weight_two_code(8, 4, seed=653866010)
        code = _explicit_code([[0, 2, 4], [0, 1, 4, 5], [2, 3, 5, 6], [1, 3, 6, 7]], n=8)
        x = np.array([0, 0, 1, 1, 0, 1, 0, 1], np.uint8)
        y = np.array([0, 0, 0, 1, 0, 0, 0, 0], np.uint8)
        syn = syndrome(code, y)
        priors_map = priors_from_joint(key_joint(joint, "reverse"), x)
        got_map = map_decode_bruteforce(code, syn, priors_map)
        # likelihood-only decoding scores candidates by P(x_j | yhat_j)
        cxy = conditional(joint)
        priors_ml = cxy[x, :]
        got_ml = map_decode_bruteforce(code, syn, priors_ml)
        assert np.array_equal(got_map, y)
        assert not np.array_equal(got_map, got_ml)
