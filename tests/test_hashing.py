import numpy as np
import pytest

from qkdpost.hashing import HashDescriptor, apply_hash, key_length, sample_hash

from conftest import hash_generator_oracle, toeplitz_matrix


class TestKeyLength:
    def test_worked_example(self):
        assert key_length(10_000, 6_000, 0.9, 0.01) == 2900

    def test_abort_when_syndrome_eats_everything(self):
        assert key_length(1000, 950, 0.9, 0.01) == 0

    def test_rotation_budget(self):
        # ambiguity 1, syndrome rate 0.86, epsilon 0.01
        assert key_length(10_000, 8_600, 1.0, 0.01) == 1300

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            key_length(-1, 0, 0.5, 0.01)

    @pytest.mark.parametrize(
        "ambiguity, epsilon",
        [(0.9, 1e308), (float("inf"), 0.01), (float("nan"), 0.01)],
        ids=["epsilon-overflows", "infinite-ambiguity", "nan-ambiguity"],
    )
    def test_rejects_a_budget_that_is_not_finite(self, ambiguity, epsilon):
        with pytest.raises(ValueError, match="ambiguity=.*epsilon="):
            key_length(1000, 0, ambiguity, epsilon)


class TestDescriptor:
    def test_hand_matrix(self):
        desc = HashDescriptor(3, 2, np.array([1, 0, 1, 1], np.uint8))
        assert toeplitz_matrix(desc).tolist() == [[1, 0, 1], [1, 1, 0]]

    def test_hand_hash(self):
        desc = HashDescriptor(3, 2, np.array([1, 0, 1, 1], np.uint8))
        key = apply_hash(desc, np.array([1, 1, 0], np.uint8))
        assert key.tolist() == [1, 0]

    def test_generator_length_check(self):
        with pytest.raises(ValueError):
            HashDescriptor(3, 2, np.array([1, 0, 1], np.uint8))
        with pytest.raises(ValueError):
            HashDescriptor(3, 5, np.ones(7, np.uint8))

    @pytest.mark.parametrize("bad", [2, 257, 0.5, -1], ids=["two", "wraps-to-one", "fraction", "negative"])
    def test_generator_entries_other_than_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="generator entries must be 0 or 1"):
            HashDescriptor(3, 2, np.array([1, 0, bad, 1]))

    @pytest.mark.parametrize("ell, n", [(11, 10), (-1, 10)], ids=["longer-than-input", "negative"])
    def test_sampling_rejects_lengths_a_descriptor_rejects(self, ell, n):
        with pytest.raises(ValueError) as sampled:
            sample_hash(ell, n, seed=0)
        with pytest.raises(ValueError) as built:
            HashDescriptor(n, ell, np.zeros(max(n + ell - 1, 0), np.uint8))
        assert str(sampled.value) == str(built.value)

    @pytest.mark.parametrize("nbits", [1, 7, 8, 9, 63, 64, 65, 58541])
    def test_generator_bits_are_the_generator_draw(self, nbits):
        # one input bit per generator bit: ell = 1, n = nbits
        for seed in (0, 3, 2**40 + 1):
            got = sample_hash(1, nbits, seed=seed).generator
            assert np.array_equal(got, hash_generator_oracle(nbits, seed))

    def test_sampling_deterministic(self):
        a = sample_hash(64, 256, seed=9)
        b = sample_hash(64, 256, seed=9)
        assert np.array_equal(a.generator, b.generator)


class TestApplyHash:
    def test_zero_maps_to_zero(self):
        desc = sample_hash(32, 100, seed=1)
        assert apply_hash(desc, np.zeros(100, np.uint8)).tolist() == [0] * 32

    def test_matches_dense_matrix(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 400))
            ell = int(rng.integers(1, n + 1))
            desc = sample_hash(ell, n, seed=int(rng.integers(1e9)))
            x = rng.integers(0, 2, n).astype(np.uint8)
            want = (toeplitz_matrix(desc).astype(np.int64) @ x.astype(np.int64)) & 1
            assert np.array_equal(apply_hash(desc, x), want.astype(np.uint8))

    def test_linearity(self, rng):
        desc = sample_hash(48, 300, seed=2)
        for _ in range(20):
            a = rng.integers(0, 2, 300).astype(np.uint8)
            b = rng.integers(0, 2, 300).astype(np.uint8)
            lhs = apply_hash(desc, a) ^ apply_hash(desc, b)
            assert np.array_equal(lhs, apply_hash(desc, a ^ b))

    def test_zero_output_length_rejected(self):
        # a zero-length key is an abort, never hashed
        with pytest.raises(ValueError, match="output length must be at least 1, got 0"):
            HashDescriptor(10, 0, np.zeros(0, np.uint8))
        with pytest.raises(ValueError, match="output length must be at least 1, got 0"):
            sample_hash(0, 10, seed=0)

    def test_length_mismatch(self):
        desc = sample_hash(8, 32, seed=3)
        with pytest.raises(ValueError):
            apply_hash(desc, np.zeros(31, np.uint8))

    @pytest.mark.parametrize("bad", [2, 257, 1.5, -1], ids=["two", "wraps-to-one", "fraction", "negative"])
    def test_input_entries_other_than_bits_rejected(self, bad):
        desc = sample_hash(8, 32, seed=3)
        x = np.zeros(32)
        x[5] = bad
        with pytest.raises(ValueError, match="input entries must be 0 or 1"):
            apply_hash(desc, x)

    def test_collision_rate_is_two_universal(self, rng):
        """Distinct fixed inputs collide with probability about 2^-ell over
        the seed choice."""
        ell, n = 8, 64
        x = rng.integers(0, 2, n).astype(np.uint8)
        y = x.copy()
        y[:7] ^= 1
        trials = 30_000
        collisions = 0
        for seed in range(trials):
            desc = sample_hash(ell, n, seed=seed)
            if np.array_equal(apply_hash(desc, x), apply_hash(desc, y)):
                collisions += 1
        want = trials * 2.0**-ell
        sigma = (trials * 2.0**-ell) ** 0.5
        assert abs(collisions - want) <= 3 * sigma
        assert collisions <= want * 1.1 + 3 * sigma

    @pytest.mark.parametrize("ell", [212, 213, 214])
    def test_matches_dense_matrix_around_a_power_of_two(self, rng, ell):
        # n + ell - 1 is 2^9 - 1, 2^9 and 2^9 + 1
        desc = sample_hash(ell, 300, seed=ell)
        for _ in range(5):
            x = rng.integers(0, 2, 300).astype(np.uint8)
            want = (toeplitz_matrix(desc).astype(np.int64) @ x.astype(np.int64)) & 1
            assert np.array_equal(apply_hash(desc, x), want.astype(np.uint8))

    def test_generator_transformed_once_per_descriptor(self, rng, monkeypatch):
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(args[0].shape)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        desc = sample_hash(100, 400, seed=4)
        x = rng.integers(0, 2, 400).astype(np.uint8)
        first = apply_hash(desc, x)
        second = apply_hash(desc, x ^ 1)
        assert len(calls) == 3
        want = (toeplitz_matrix(desc).astype(np.int64) @ (x ^ 1).astype(np.int64)) & 1
        assert np.array_equal(second, want.astype(np.uint8))
        assert np.array_equal(first, apply_hash(desc, x))


def _dense_key(desc, x):
    return ((toeplitz_matrix(desc).astype(np.int64) @ x.astype(np.int64)) & 1).astype(np.uint8)


class TestHashMemo:
    """``apply_hash`` keeps each descriptor's last input and key."""

    def test_repeated_input_is_not_transformed_again(self, rng, monkeypatch):
        desc = sample_hash(100, 400, seed=4)
        x = rng.integers(0, 2, 400).astype(np.uint8)
        first = apply_hash(desc, x)
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        second = apply_hash(desc, x.copy())
        assert calls == []
        assert np.array_equal(first, second) and not np.shares_memory(first, second)

    def test_keys_and_input_are_not_shared_with_the_memo(self, rng):
        desc = sample_hash(100, 400, seed=4)
        x = rng.integers(0, 2, 400).astype(np.uint8)
        want = _dense_key(desc, x)
        first = apply_hash(desc, x)
        first ^= 1
        second = apply_hash(desc, x)
        assert np.array_equal(second, want)
        second ^= 1
        assert np.array_equal(apply_hash(desc, x), want)
        x[:50] ^= 1
        assert np.array_equal(apply_hash(desc, x), _dense_key(desc, x))

    def test_alternating_inputs(self, rng):
        desc = sample_hash(60, 300, seed=5)
        a = rng.integers(0, 2, 300).astype(np.uint8)
        b = a.copy()
        b[-1] ^= 1
        for x in (a, b, a):
            assert np.array_equal(apply_hash(desc, x), _dense_key(desc, x))

    def test_memo_belongs_to_its_descriptor(self, rng):
        one, other = sample_hash(60, 300, seed=5), sample_hash(60, 300, seed=6)
        x = rng.integers(0, 2, 300).astype(np.uint8)
        assert not np.array_equal(apply_hash(one, x), _dense_key(other, x))
        assert np.array_equal(apply_hash(other, x), _dense_key(other, x))
        assert np.array_equal(apply_hash(one, x), _dense_key(one, x))
