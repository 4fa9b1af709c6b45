import os

import numpy as np
import pytest

from qkdpost.channels import Basis, joint_distribution, make_amplitude_damping
from qkdpost.entropy import JointDistribution, binary_entropy, cond_entropy, pw_from_joint, shannon_entropy
from qkdpost.reconciliation import (
    gen_parity_check,
    map_decode_bruteforce,
    priors_from_joint,
    read_alist,
    required_syndrome_rate,
    sp_decode,
    syndrome,
    write_alist,
)


def damping_joint(p):
    return JointDistribution(joint_distribution(make_amplitude_damping(p), Basis.Z, Basis.Z))


def sample_pair(joint, n, rng):
    """(x, y) of length n drawn iid from a 2x2 joint table."""
    flat = rng.choice(4, size=n, p=joint.table.ravel())
    return (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)


class TestConstruction:
    def test_small_example_full_rank_and_reproducible(self):
        a = gen_parity_check(6, 3, 2, seed=9)
        b = gen_parity_check(6, 3, 2, seed=9)
        assert np.array_equal(a.chk_vars, b.chk_vars)
        assert np.array_equal(a.chk_ptr, b.chk_ptr)
        assert _gf2_rank(a.to_dense()) == 3

    def test_column_regular_when_unrepaired(self):
        n, m, w = 400, 200, 3
        code = gen_parity_check(n, m, w, seed=13)
        dense = code.to_dense()
        assert _gf2_rank(dense) == m
        assert (code.col_weights()[: n - m] == w).all()
        t = dense[:, n - m :]
        assert np.array_equal(np.triu(t), np.eye(m, dtype=np.uint8))
        assert (np.diagonal(t, offset=-1) == 1).all()

    def test_full_rank_across_seeds(self):
        sizes = [(60, 30, 3), (60, 30, 2), (60, 30, 4), (60, 30, 5), (30, 3, 3), (100, 4, 4), (50, 2, 2)]
        for n, m, w in sizes:
            for seed in range(20):
                code = gen_parity_check(n, m, w, seed=seed)
                assert _gf2_rank(code.to_dense()) == m
                assert (code.col_weights()[: n - m] == w).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_parity_check(10, 10, 3)
        with pytest.raises(ValueError):
            gen_parity_check(10, 5, 1)
        with pytest.raises(ValueError):
            gen_parity_check(10, 2, 3)

    def test_large_build_under_a_second(self):
        import time

        t0 = time.perf_counter()
        m = gen_parity_check(10_000, 5_000, 3, seed=42)
        assert time.perf_counter() - t0 < 1.0
        assert m.n == 10_000 and m.m == 5_000

    def test_million_bit_build_under_a_second(self):
        import time

        n, m = 1_000_000, 341_724
        t0 = time.perf_counter()
        code = gen_parity_check(n, m, 3, seed=42)
        assert time.perf_counter() - t0 < 1.0
        assert code.m == m and (code.col_weights()[: n - m] == 3).all()


def _gf2_rank(dense):
    a = dense.astype(np.uint8).copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        p = r + rows[0]
        a[[r, p]] = a[[p, r]]
        mask = a[:, c].astype(bool).copy()
        mask[r] = False
        a[mask] ^= a[r]
        r += 1
        if r == m:
            break
    return r


class TestSyndrome:
    def test_hand_example(self):
        code = _explicit_code([[0, 1], [1, 2]], n=3)
        got = syndrome(code, np.array([1, 0, 1], np.uint8))
        assert got.tolist() == [1, 1]

    def test_zero_vector(self):
        code = gen_parity_check(20, 8, 3, seed=1)
        assert syndrome(code, np.zeros(20, np.uint8)).tolist() == [0] * 8

    def test_linearity(self, rng):
        code = gen_parity_check(40, 16, 3, seed=2)
        for _ in range(20):
            a = rng.integers(0, 2, 40).astype(np.uint8)
            b = rng.integers(0, 2, 40).astype(np.uint8)
            lhs = syndrome(code, a) ^ syndrome(code, b)
            assert np.array_equal(lhs, syndrome(code, a ^ b))

    def test_length_mismatch(self):
        code = gen_parity_check(20, 8, 3, seed=1)
        with pytest.raises(ValueError):
            syndrome(code, np.zeros(19, np.uint8))


def _explicit_code(row_supports, n):
    from qkdpost.reconciliation import ParityCheckMatrix

    chk_ptr = np.zeros(len(row_supports) + 1, np.int64)
    parts = []
    for k, sup in enumerate(row_supports):
        parts.append(np.asarray(sorted(sup), np.int64))
        chk_ptr[k + 1] = chk_ptr[k] + len(sup)
    return ParityCheckMatrix(n, len(row_supports), 0, chk_ptr, np.concatenate(parts), seed=-1)


class TestAlist:
    def test_round_trip(self, rng):
        code = gen_parity_check(50, 25, 3, seed=3)
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "code.alist")
            write_alist(code, path)
            back = read_alist(path)
        assert back.n == code.n and back.m == code.m
        assert np.array_equal(back.chk_ptr, code.chk_ptr)
        assert np.array_equal(back.chk_vars, code.chk_vars)


class TestBruteForceMap:
    def test_deterministic_priors_pick_the_pinned_member(self, rng):
        code = gen_parity_check(8, 4, 2, seed=5)
        x = rng.integers(0, 2, 8).astype(np.uint8)
        syn = syndrome(code, x)
        priors = np.where(x[:, None] == 0, [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(map_decode_bruteforce(code, syn, priors), x)

    def test_matches_exhaustive_scan_n6(self, rng):
        joint = damping_joint(0.3)
        for seed in range(30):
            code = gen_parity_check(6, 3, 2, seed=seed)
            x, y = sample_pair(joint, 6, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y, "direct")
            got = map_decode_bruteforce(code, syn, priors)
            want = _scan_all(code, syn, priors)
            assert np.array_equal(got, want)

    def test_uniform_priors_give_lexicographic_minimum(self):
        code = gen_parity_check(10, 5, 2, seed=11)
        syn = syndrome(code, np.ones(10, np.uint8))
        priors = np.full((10, 2), 0.5)
        got = map_decode_bruteforce(code, syn, priors)
        members = _coset_members(code, syn)
        want = min(tuple(v) for v in members)
        assert tuple(got) == want

    def test_size_cap(self):
        code = gen_parity_check(30, 12, 3, seed=1)
        with pytest.raises(ValueError):
            map_decode_bruteforce(code, np.zeros(12, np.uint8), np.full((30, 2), 0.5))


def _coset_members(code, syn):
    dense = code.to_dense()
    out = []
    for v in range(2**code.n):
        vec = np.array([(v >> i) & 1 for i in range(code.n)], np.uint8)
        if np.array_equal((dense @ vec) % 2, syn):
            out.append(vec)
    return out


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
        code = gen_parity_check(60, 30, 3, seed=4)
        x = rng.integers(0, 2, 60).astype(np.uint8)
        syn = syndrome(code, x)
        priors = np.where(x[:, None] == 0, [1.0, 0.0], [0.0, 1.0])
        res = sp_decode(code, syn, priors)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.bits, x)

    def test_rejects_fewer_than_one_iteration(self, rng):
        code = gen_parity_check(60, 30, 3, seed=4)
        x = rng.integers(0, 2, 60).astype(np.uint8)
        priors = np.full((60, 2), 0.5)
        with pytest.raises(ValueError, match="max_iter"):
            sp_decode(code, syndrome(code, x), priors, max_iter=0)

    def test_converged_output_satisfies_syndrome(self, rng):
        joint = damping_joint(0.3)
        code = gen_parity_check(600, 370, 3, seed=6)
        for _ in range(10):
            x, y = sample_pair(joint, 600, rng)
            res = sp_decode(code, syndrome(code, x), priors_from_joint(joint, y, "direct"))
            if res.converged:
                assert np.array_equal(syndrome(code, res.bits), syndrome(code, x))

    def test_frame_errors_rare_at_working_margin(self, rng):
        joint = damping_joint(0.3)
        n = 4000
        m = int(np.ceil(n * required_syndrome_rate(joint, "direct", 0.1)))
        code = gen_parity_check(n, m, 3, seed=7)
        fails = 0
        for _ in range(10):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(code, syndrome(code, x), priors_from_joint(joint, y, "direct"))
            if not (res.converged and np.array_equal(res.bits, x)):
                fails += 1
        assert fails <= 2

    def test_frame_errors_rare_on_a_symmetric_channel(self, rng):
        joint = JointDistribution([[0.47, 0.03], [0.03, 0.47]])
        n = 12_000
        m = int(np.ceil(n * required_syndrome_rate(joint, "direct", 0.1)))
        code = gen_parity_check(n, m, 3, seed=8)
        fails = 0
        for _ in range(20):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(code, syndrome(code, x), priors_from_joint(joint, y, "direct"))
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
            code = gen_parity_check(n, m, 3, seed=int(rng.integers(1e9)))
            x, y = sample_pair(joint, n, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y, "direct")
            res = sp_decode(code, syn, priors)
            if not res.converged:
                continue
            conv += 1
            agree += np.array_equal(res.bits, map_decode_bruteforce(code, syn, priors))
        assert conv > trials * 0.55
        assert agree / conv >= 0.95

    def test_converged_beats_nearest_member_with_symmetric_priors(self, rng):
        q = 0.1
        joint = JointDistribution([[0.45, 0.05], [0.05, 0.45]])
        checked = 0
        for _ in range(100):
            n = int(rng.integers(10, 15))
            m = int(np.ceil(n * 0.7))
            code = gen_parity_check(n, m, 3, seed=int(rng.integers(1e9)))
            x, y = sample_pair(joint, n, rng)
            syn = syndrome(code, x)
            priors = priors_from_joint(joint, y, "direct")
            res = sp_decode(code, syn, priors)
            if not res.converged:
                continue
            checked += 1
            members = _coset_members(code, syn)
            dists = [(v ^ y).sum() for v in members]
            nearest = members[int(np.argmin(dists))]
            lp = np.log(np.clip(priors, 1e-300, None))
            score = lambda v: lp[np.arange(n), v].sum()
            assert score(res.bits) >= score(nearest) - 1e-9
        assert checked > 40


class TestSyndromeRate:
    def test_noiseless_needs_only_margin(self):
        ident = JointDistribution(np.diag([0.5, 0.5]))
        assert required_syndrome_rate(ident, "direct", 0.05) == pytest.approx(0.05)

    def test_damping_value(self):
        got = required_syndrome_rate(damping_joint(0.5), "direct", 0.1)
        assert got == pytest.approx(0.6887218755408671 + 0.1, abs=1e-12)

    def test_symmetric_crossover(self):
        joint = JointDistribution([[0.375, 0.125], [0.125, 0.375]])  # crossover 0.25
        got = required_syndrome_rate(joint, "direct", 0.02)
        assert got == pytest.approx(binary_entropy(0.25) + 0.02, abs=1e-12)

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            required_syndrome_rate(damping_joint(0.3), "direct", 0.0)


class TestConventionalFloorSeparation:
    def test_decoding_succeeds_below_the_error_syndrome_floor(self, rng):
        """The error-difference method needs m/n > H(W); source-side priors
        decode reliably at a rate strictly between H(X|Y) and H(W)."""
        p = 0.5
        joint = damping_joint(p)
        hxy = cond_entropy(joint)
        hw = shannon_entropy(pw_from_joint(joint))
        assert hw == pytest.approx(binary_entropy(p / 2), abs=1e-12)
        rate = 0.805
        assert hxy + 0.05 < rate < hw
        n = 30_000
        code = gen_parity_check(n, int(np.ceil(n * rate)), 3, seed=99)
        wins = 0
        for _ in range(6):
            x, y = sample_pair(joint, n, rng)
            res = sp_decode(
                code, syndrome(code, x), priors_from_joint(joint, y, "direct"), max_iter=200
            )
            wins += res.converged and np.array_equal(res.bits, x)
        assert wins >= 5


class TestReverseMapVsMl:
    def test_map_and_ml_pick_different_words(self):
        """Reverse reconciliation: the decoded side has a non-uniform prior,
        so weighting by it changes the argmax on this frozen instance."""
        joint = JointDistribution(np.array([[0.45, 0.05], [0.15, 0.35]]))
        code = gen_parity_check(8, 4, 2, seed=653866010)
        x = np.array([0, 0, 1, 1, 0, 1, 0, 1], np.uint8)
        y = np.array([0, 0, 0, 1, 0, 0, 0, 0], np.uint8)
        syn = syndrome(code, y)
        priors_map = priors_from_joint(joint, x, "reverse")
        got_map = map_decode_bruteforce(code, syn, priors_map)
        # likelihood-only decoding scores candidates by P(x_j | yhat_j)
        cxy = joint.cond_x_given_y()
        priors_ml = cxy[x, :]
        got_ml = map_decode_bruteforce(code, syn, priors_ml)
        assert np.array_equal(got_map, y)
        assert not np.array_equal(got_map, got_ml)
