import numpy as np
import pytest

from qkdpost.hashing import HashDescriptor, apply_hash, key_length, sample_hash


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


class TestDescriptor:
    def test_hand_matrix(self):
        desc = HashDescriptor(3, 2, np.array([1, 0, 1, 1], np.uint8))
        assert desc.matrix().tolist() == [[1, 0, 1], [1, 1, 0]]

    def test_hand_hash(self):
        desc = HashDescriptor(3, 2, np.array([1, 0, 1, 1], np.uint8))
        key = apply_hash(desc, np.array([1, 1, 0], np.uint8))
        assert key.tolist() == [1, 0]

    def test_generator_length_check(self):
        with pytest.raises(ValueError):
            HashDescriptor(3, 2, np.array([1, 0, 1], np.uint8))
        with pytest.raises(ValueError):
            HashDescriptor(3, 5, np.ones(7, np.uint8))

    def test_serialize_round_trip(self):
        desc = sample_hash(40, 128, seed=5)
        back = HashDescriptor.deserialize(desc.serialize())
        assert back.input_len == desc.input_len
        assert back.output_len == desc.output_len
        assert back.seed == desc.seed
        assert np.array_equal(back.generator, desc.generator)

    def test_deserialize_rejects_missing_fields(self):
        text = sample_hash(4, 8, seed=1).serialize()
        with pytest.raises(ValueError, match="missing gen="):
            HashDescriptor.deserialize(text.rsplit(" ", 1)[0])

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
            want = (desc.matrix().astype(np.int64) @ x.astype(np.int64)) & 1
            assert np.array_equal(apply_hash(desc, x), want.astype(np.uint8))

    def test_linearity(self, rng):
        desc = sample_hash(48, 300, seed=2)
        for _ in range(20):
            a = rng.integers(0, 2, 300).astype(np.uint8)
            b = rng.integers(0, 2, 300).astype(np.uint8)
            lhs = apply_hash(desc, a) ^ apply_hash(desc, b)
            assert np.array_equal(lhs, apply_hash(desc, a ^ b))

    def test_empty_output(self):
        desc = HashDescriptor(10, 0, np.zeros(0, np.uint8))
        assert apply_hash(desc, np.ones(10, np.uint8)).size == 0

    def test_length_mismatch(self):
        desc = sample_hash(8, 32, seed=3)
        with pytest.raises(ValueError):
            apply_hash(desc, np.zeros(31, np.uint8))

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
            want = (desc.matrix().astype(np.int64) @ x.astype(np.int64)) & 1
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
        want = (desc.matrix().astype(np.int64) @ (x ^ 1).astype(np.int64)) & 1
        assert np.array_equal(second, want.astype(np.uint8))
        assert np.array_equal(first, apply_hash(desc, x))
