import math

import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    PauliProbs,
    choi_from_affine,
    make_amplitude_damping,
    make_identity,
    make_pauli,
    make_rotation,
)
from qkdpost.entropy import binary_entropy
from qkdpost.keyrate import (
    ambiguity_direct,
    ambiguity_reverse,
    bell_diagonal_probs,
    closed_form_example_rates,
    error_rates,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
    twirl,
    unital_ambiguity_closed_form,
)

from conftest import (
    bell_diagonal_oracle,
    random_cp_channel,
    random_unital_channel,
    twirl_oracle,
)


def choi_of(ch):
    return choi_from_affine(ch)


class TestAmbiguityDirect:
    def test_identity(self):
        assert ambiguity_direct(choi_of(make_identity())) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing(self):
        depol = AffineChannel(np.zeros((3, 3)), np.zeros(3))
        assert ambiguity_direct(choi_of(depol)) == pytest.approx(0.0, abs=1e-12)

    def test_damping_half(self):
        got = ambiguity_direct(choi_of(make_amplitude_damping(0.5)))
        want = 1 + 0.5 * binary_entropy(0.5) - binary_entropy(0.25)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.6887218755408672, abs=1e-9)

    def test_damping_general_closed_form(self):
        for p in (0.1, 0.3, 0.7, 0.95):
            got = ambiguity_direct(choi_of(make_amplitude_damping(p)))
            want = 1 + 0.5 * binary_entropy(p) - binary_entropy(p / 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_unitary_channels_leak_nothing(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, 20):
            assert ambiguity_direct(choi_of(make_rotation(theta))) == pytest.approx(1.0, abs=1e-12)

    def test_range(self, rng):
        for _ in range(100):
            amb = ambiguity_direct(choi_of(random_cp_channel(rng)))
            assert -1e-12 <= amb <= 1.0 + 1e-12

    def test_rejects_unphysical(self):
        transpose = AffineChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ambiguity_direct(choi_of(transpose))


class TestAmbiguityReverse:
    def test_identity(self):
        assert ambiguity_reverse(choi_of(make_identity())) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_channels_symmetric(self, rng):
        for _ in range(20):
            e = rng.uniform(-1, 1, 3)
            q = np.array(
                [1 + e.sum(), 1 + e[0] - e[1] - e[2], 1 - e[0] + e[1] - e[2], 1 - e[0] - e[1] + e[2]]
            ) / 4
            if (q < 0).any():
                continue
            choi = choi_of(make_pauli(PauliProbs(*q)))
            assert ambiguity_reverse(choi) == pytest.approx(ambiguity_direct(choi), abs=1e-10)

    def test_damping_half_value(self):
        # equal to the direct ambiguity at this channel; the reverse RATE then
        # differs through H(Y|X) only
        got = ambiguity_reverse(choi_of(make_amplitude_damping(0.5)))
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
            d = ambiguity_direct(choi)
            r = ambiguity_reverse(choi)
            if abs(lhs - rhs) < 1e-12:
                assert d == pytest.approx(r, abs=1e-9)
                seen_equal = True
            elif abs(lhs - rhs) > 1e-3:
                assert abs(d - r) > 1e-12
                seen_unequal = True
        assert seen_unequal
        # rotations satisfy the equality condition exactly
        choi = choi_of(make_rotation(1.234))
        assert ambiguity_direct(choi) == pytest.approx(ambiguity_reverse(choi), abs=1e-12)


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


class TestErrorRates:
    def test_identity(self):
        er = error_rates(choi_of(make_identity()))
        assert (er.p_z, er.p_x, er.p_y) == (0.0, 0.0, 0.0)

    def test_rotation(self):
        theta = 1.1
        er = error_rates(choi_of(make_rotation(theta)))
        flip = math.sin(theta / 2) ** 2
        assert er.p_z == pytest.approx(flip, abs=1e-12)
        assert er.p_x == pytest.approx(flip, abs=1e-12)
        assert er.p_y == pytest.approx(0.0, abs=1e-12)

    def test_damping(self):
        p = 0.4
        er = error_rates(choi_of(make_amplitude_damping(p)))
        assert er.p_z == pytest.approx(p / 2, abs=1e-12)
        assert er.p_x == pytest.approx((1 - math.sqrt(1 - p)) / 2, abs=1e-12)


class TestConventionalBaselines:
    def test_identity(self):
        choi = choi_of(make_identity())
        assert keyrate_conventional_bb84(choi) == pytest.approx(1.0)
        assert keyrate_conventional_sixstate(choi) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_matches_two_entropy_form(self):
        for theta in (0.3, 0.8, 1.2):
            choi = choi_of(make_rotation(theta))
            want = 1 - 2 * binary_entropy(math.sin(theta / 2) ** 2)
            assert keyrate_conventional_bb84(choi) == pytest.approx(want, abs=1e-12)

    def test_sixstate_baseline_equals_bell_spectrum_form(self, rng):
        for _ in range(20):
            choi = choi_of(random_cp_channel(rng))
            q = bell_diagonal_probs(choi)
            q = np.clip(q, 0, None)
            q = q / q.sum()
            q = q[q > 1e-15]
            want = 1 + (q * np.log2(q)).sum()
            assert keyrate_conventional_sixstate(choi) == pytest.approx(want, abs=1e-9)

    def test_bell_diagonal_and_twirl_match_the_bell_vectors(self, rng):
        for _ in range(300):
            choi = choi_of(random_cp_channel(rng))
            want = bell_diagonal_oracle(choi.matrix)
            assert np.abs(bell_diagonal_probs(choi) - want).max() < 1e-14
            assert np.abs(twirl(choi).matrix - twirl_oracle(choi.matrix)).max() < 1e-14

    def test_twirl_preserves_error_rates(self, rng):
        for _ in range(20):
            choi = choi_of(random_cp_channel(rng))
            before = error_rates(choi)
            after = error_rates(twirl(choi))
            assert before.p_z == pytest.approx(after.p_z, abs=1e-9)
            assert before.p_x == pytest.approx(after.p_x, abs=1e-9)
            assert before.p_y == pytest.approx(after.p_y, abs=1e-9)

    def test_damping_proposed_beats_conventional(self):
        choi = choi_of(make_amplitude_damping(0.2))
        proposed = keyrate(choi, "direct").raw_rate
        assert proposed > keyrate_conventional_sixstate(choi) + 1e-6
        assert proposed > keyrate_conventional_bb84(choi) + 1e-6

    def test_proposed_at_least_conventional_on_random_channels(self, rng):
        for _ in range(100):
            choi = choi_of(random_cp_channel(rng))
            proposed = keyrate(choi, "direct").raw_rate
            assert proposed >= keyrate_conventional_sixstate(choi) - 1e-9
            assert proposed >= keyrate_conventional_bb84(choi) - 1e-9


class TestUnitalClosedForm:
    def test_identity_and_rotation(self):
        assert unital_ambiguity_closed_form(make_identity()) == pytest.approx(1.0, abs=1e-12)
        assert unital_ambiguity_closed_form(make_rotation(0.8)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_general_path(self, rng):
        for _ in range(50):
            ch = random_unital_channel(rng)
            choi = choi_of(ch)
            assert unital_ambiguity_closed_form(ch, "direct") == pytest.approx(
                ambiguity_direct(choi), abs=1e-9
            )
            assert unital_ambiguity_closed_form(ch, "reverse") == pytest.approx(
                ambiguity_reverse(choi), abs=1e-9
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
            amb_a = ambiguity_direct(choi_of(a))
            amb_b = ambiguity_direct(choi_of(b))
            for lam in np.linspace(0.1, 0.9, 9):
                mixed = AffineChannel(lam * a.r + (1 - lam) * b.r, lam * a.t + (1 - lam) * b.t)
                amb_mix = ambiguity_direct(choi_of(mixed))
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
