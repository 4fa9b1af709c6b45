import math

import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    PauliProbs,
    choi_from_affine,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
)
from qkdpost.entropy import binary_entropy
from qkdpost.keyrate import (
    choi_ambiguity,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
)

from conftest import (
    bell_diagonal_oracle,
    closed_form_example_rates,
    make_identity,
    random_cp_channel,
    random_unital_channel,
    twirl_oracle,
    unital_ambiguity_closed_form,
)


def choi_of(ch):
    return choi_from_affine(ch)


class TestAmbiguityDirect:
    def test_identity(self):
        assert choi_ambiguity(choi_of(make_identity()), "direct") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_depolarizing(self):
        depol = AffineChannel(np.zeros((3, 3)), np.zeros(3))
        assert choi_ambiguity(choi_of(depol), "direct") == pytest.approx(0.0, abs=1e-12)

    def test_damping_half(self):
        got = choi_ambiguity(choi_of(make_amplitude_damping(0.5)), "direct")
        want = 1 + 0.5 * binary_entropy(0.5) - binary_entropy(0.25)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.6887218755408672, abs=1e-9)

    def test_damping_general_closed_form(self):
        for p in (0.1, 0.3, 0.7, 0.95):
            got = choi_ambiguity(choi_of(make_amplitude_damping(p)), "direct")
            want = 1 + 0.5 * binary_entropy(p) - binary_entropy(p / 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_unitary_channels_leak_nothing(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, 20):
            assert choi_ambiguity(choi_of(make_rotation(theta)), "direct") == pytest.approx(
                1.0, abs=1e-12
            )

    def test_range(self, rng):
        for _ in range(100):
            amb = choi_ambiguity(choi_of(random_cp_channel(rng)), "direct")
            assert -1e-12 <= amb <= 1.0 + 1e-12

    def test_rejects_unphysical(self):
        transpose = AffineChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            choi_ambiguity(choi_of(transpose), "direct")


class TestAmbiguityReverse:
    def test_identity(self):
        assert choi_ambiguity(choi_of(make_identity()), "reverse") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_pauli_channels_symmetric(self, rng):
        for _ in range(20):
            e = rng.uniform(-1, 1, 3)
            q = np.array(
                [1 + e.sum(), 1 + e[0] - e[1] - e[2], 1 - e[0] + e[1] - e[2], 1 - e[0] - e[1] + e[2]]
            ) / 4
            if (q < 0).any():
                continue
            choi = choi_of(make_pauli(PauliProbs(*q)))
            assert choi_ambiguity(choi, "reverse") == pytest.approx(
                choi_ambiguity(choi, "direct"), abs=1e-10
            )

    def test_damping_half_value(self):
        # equal to the direct ambiguity at this channel; the reverse RATE then
        # differs through H(Y|X) only
        got = choi_ambiguity(choi_of(make_amplitude_damping(0.5)), "reverse")
        assert got == pytest.approx(0.6887218755408672, abs=1e-9)

    def test_unital_equality_condition(self, rng):
        """direct == reverse ambiguity iff the z column and z row of r have
        equal off-diagonal norms."""
        seen_equal = seen_unequal = False
        for _ in range(60):
            ch = random_unital_channel(rng)
            choi = choi_of(ch)
            lhs = ch.r[1, 0] ** 2 + ch.r[2, 0] ** 2
            rhs = ch.r[0, 1] ** 2 + ch.r[0, 2] ** 2
            d = choi_ambiguity(choi, "direct")
            r = choi_ambiguity(choi, "reverse")
            if abs(lhs - rhs) < 1e-12:
                assert d == pytest.approx(r, abs=1e-9)
                seen_equal = True
            elif abs(lhs - rhs) > 1e-3:
                assert abs(d - r) > 1e-12
                seen_unequal = True
        assert seen_unequal
        # rotations satisfy the equality condition exactly
        choi = choi_of(make_rotation(1.234))
        assert choi_ambiguity(choi, "direct") == pytest.approx(
            choi_ambiguity(choi, "reverse"), abs=1e-12
        )


class TestKeyrate:
    def test_identity_all_directions(self):
        choi = choi_of(make_identity())
        for direction in ("direct", "reverse", "mismatched"):
            rep = keyrate(choi, direction)
            if direction == "mismatched":
                # identity channel leaves mismatched bases uncorrelated
                assert rep.key_rate == pytest.approx(0.0, abs=1e-12)
            else:
                assert rep.key_rate == pytest.approx(1.0, abs=1e-12)

    def test_damping_direct_zero_crossing(self):
        rep = keyrate(choi_of(make_amplitude_damping(0.5)), "direct")
        assert rep.raw_rate == pytest.approx(0.0, abs=1e-12)
        assert rep.key_rate == 0.0

    def test_damping_direct_closed_form_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            rep = keyrate(choi_of(make_amplitude_damping(float(p))), "direct")
            want = closed_form_example_rates("amplitude_damping_direct", float(p))
            assert rep.raw_rate == pytest.approx(want, abs=1e-11)

    def test_damping_reverse_value(self):
        rep = keyrate(choi_of(make_amplitude_damping(0.5)), "reverse")
        assert rep.raw_rate == pytest.approx(0.1887218755408672, abs=1e-6)

    def test_damping_reverse_closed_form_with_corrected_term(self):
        # fixture form: H(Y) + H(X|Y) - h(p/2) - h(p)/2; the h(p/2) term is
        # the channel-state entropy, which the general path computes from the
        # purification
        h = binary_entropy
        for p in (0.1, 0.3, 0.6, 0.9):
            want = (
                h((1 + p) / 2) + (1 + p) / 2 * h(1 / (1 + p)) - h(p / 2) - 0.5 * h(p)
            )
            rep = keyrate(choi_of(make_amplitude_damping(p)), "reverse")
            assert rep.raw_rate == pytest.approx(want, abs=1e-9)

    def test_rotation_mismatched(self):
        theta = math.pi / 8
        rep = keyrate(choi_of(make_rotation(theta)), "mismatched")
        flip = math.sin(theta / 2 - math.pi / 4) ** 2
        assert rep.key_rate == pytest.approx(1 - binary_entropy(flip), abs=1e-12)

    def test_report_invariant(self, rng):
        for _ in range(50):
            rep = keyrate(choi_of(random_cp_channel(rng)), "direct")
            assert rep.key_rate == max(0.0, rep.ambiguity - rep.cond_entropy)
            assert rep.raw_rate == pytest.approx(rep.ambiguity - rep.cond_entropy)


def conventional_rates(ch):
    """(BB84, six-state) baselines of a channel's matched contraction factors."""
    d = np.diag(ch.r)
    return keyrate_conventional_bb84(d[0], d[1]), keyrate_conventional_sixstate(d)


class TestConventionalBaselines:
    def test_identity(self):
        bb84, sixstate = conventional_rates(make_identity())
        assert bb84 == pytest.approx(1.0)
        assert sixstate == pytest.approx(1.0, abs=1e-12)
        # factors a rounding step beyond +/-1 clamp to no flips and to all flips
        assert keyrate_conventional_bb84(1.0 + 1e-9, -1.0 - 1e-9) == 1.0

    def test_rotation_matches_two_entropy_form(self):
        for theta in (0.3, 0.8, 1.2):
            bb84, _ = conventional_rates(make_rotation(theta))
            want = 1 - 2 * binary_entropy(math.sin(theta / 2) ** 2)
            assert bb84 == pytest.approx(want, abs=1e-12)

    def test_damping_matches_flip_probabilities(self):
        p = 0.4
        bb84, _ = conventional_rates(make_amplitude_damping(p))
        want = 1 - binary_entropy(p / 2) - binary_entropy((1 - math.sqrt(1 - p)) / 2)
        assert bb84 == pytest.approx(want, abs=1e-12)

    def test_sixstate_baseline_equals_bell_spectrum_form(self, rng):
        for _ in range(20):
            ch = random_cp_channel(rng)
            q = bell_diagonal_oracle(choi_of(ch))
            q = np.clip(q, 0, None)
            q = q / q.sum()
            q = q[q > 1e-15]
            want = 1 + (q * np.log2(q)).sum()
            assert conventional_rates(ch)[1] == pytest.approx(want, abs=1e-9)

    def test_sixstate_baseline_is_the_twirled_direct_rate(self, rng):
        # the baseline's definition: the direct rate of the Bell-diagonal
        # channel with the same matched error rates
        for _ in range(300):
            ch = random_cp_channel(rng)
            want = keyrate(twirl_oracle(choi_of(ch)), "direct").raw_rate
            assert abs(conventional_rates(ch)[1] - want) < 1e-12

    def test_damping_proposed_beats_conventional(self):
        ch = make_amplitude_damping(0.2)
        proposed = keyrate(choi_of(ch), "direct").raw_rate
        for baseline in conventional_rates(ch):
            assert proposed > baseline + 1e-6

    def test_proposed_at_least_conventional_on_random_channels(self, rng):
        for _ in range(100):
            ch = random_cp_channel(rng)
            proposed = keyrate(choi_of(ch), "direct").raw_rate
            for baseline in conventional_rates(ch):
                assert proposed >= baseline - 1e-9


class TestUnitalClosedForm:
    def test_identity_and_rotation(self):
        assert unital_ambiguity_closed_form(make_identity()) == pytest.approx(1.0, abs=1e-12)
        assert unital_ambiguity_closed_form(make_rotation(0.8)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_general_path(self, rng):
        for _ in range(50):
            ch = random_unital_channel(rng)
            choi = choi_of(ch)
            assert unital_ambiguity_closed_form(ch, "direct") == pytest.approx(
                choi_ambiguity(choi, "direct"), abs=1e-9
            )
            assert unital_ambiguity_closed_form(ch, "reverse") == pytest.approx(
                choi_ambiguity(choi, "reverse"), abs=1e-9
            )

    def test_rejects_nonunital(self):
        with pytest.raises(ValueError):
            unital_ambiguity_closed_form(make_amplitude_damping(0.2))


class TestConvexity:
    def test_mixture_never_above_mixture_of_values(self, rng):
        """Ambiguity is convex over channels."""
        for _ in range(200):
            a = random_cp_channel(rng)
            b = random_cp_channel(rng)
            amb_a = choi_ambiguity(choi_of(a), "direct")
            amb_b = choi_ambiguity(choi_of(b), "direct")
            for lam in np.linspace(0.1, 0.9, 9):
                mixed = AffineChannel(lam * a.r + (1 - lam) * b.r, lam * a.t + (1 - lam) * b.t)
                amb_mix = choi_ambiguity(choi_of(mixed), "direct")
                assert amb_mix <= lam * amb_a + (1 - lam) * amb_b + 1e-9


class TestClosedFormExamples:
    def test_damping_fixture_values(self):
        assert closed_form_example_rates("amplitude_damping_direct", 0.2) == pytest.approx(
            0.5019550008653874, abs=1e-12
        )
        assert closed_form_example_rates("amplitude_damping_direct", 0.5) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_rotation_fixture_values(self):
        got = closed_form_example_rates("rotation", math.pi / 3)
        assert got == pytest.approx(0.18872187554086717, abs=1e-12)
        # error rate is exactly 25% there
        assert math.sin(math.pi / 6) ** 2 == pytest.approx(0.25)

    def test_rotation_above_quarter_error(self):
        theta = 1.2
        err = math.sin(theta / 2) ** 2
        assert err > 0.25
        assert err == pytest.approx(0.3188, abs=2e-4)
        assert closed_form_example_rates("rotation", theta) > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_example_rates("bogus", 0.1)
