import math

import numpy as np
import pytest

from qkdpost.channels import (
    AffineChannel,
    Basis,
    PauliProbs,
    affine_from_choi,
    check_choi,
    choi_coefficients,
    choi_from_affine,
    choi_from_coefficients,
    format_channel_spec,
    joint_tables,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
    parse_channel_spec,
    partial_trace_output,
    pauli_diagonal,
    pauli_weights,
)

from conftest import (
    KETS,
    affine_entries_oracle,
    choi_entries_oracle,
    is_completely_positive,
    make_identity,
    partial_trace_oracle,
    random_affine_channel,
    random_cp_channel,
    singular_values_zx,
)


class TestConstructors:
    def test_damping_identity_at_zero(self):
        ch = make_amplitude_damping(0.0)
        assert np.allclose(ch.r, np.eye(3))
        assert np.allclose(ch.t, 0.0)

    def test_damping_p036(self):
        ch = make_amplitude_damping(0.36)
        assert ch.r[0, 0] == pytest.approx(0.64)
        assert ch.r[1, 1] == pytest.approx(0.8)
        assert ch.r[2, 2] == pytest.approx(0.8)
        assert ch.t[0] == pytest.approx(0.36)

    def test_damping_endpoint_collapses_to_zero_state(self):
        ch = make_amplitude_damping(1.0)
        assert np.allclose(ch.r, 0.0)
        assert np.allclose(ch.t, [1.0, 0.0, 0.0])
        for theta in (np.array([1.0, 0, 0]), np.array([-0.3, 0.4, 0.2])):
            assert np.allclose(ch.r @ theta + ch.t, [1.0, 0.0, 0.0])

    def test_damping_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            make_amplitude_damping(-0.1)
        with pytest.raises(ValueError):
            make_amplitude_damping(1.5)

    def test_rotation_identity_and_half_turn(self):
        assert np.allclose(make_rotation(0.0).r, np.eye(3))
        half = make_rotation(math.pi)
        assert half.r[0, 0] == pytest.approx(-1.0)
        assert half.r[1, 1] == pytest.approx(-1.0)
        assert half.r[2, 2] == pytest.approx(1.0)
        assert abs(half.r[0, 1]) < 1e-15

    def test_rotation_third(self):
        ch = make_rotation(math.pi / 3)
        assert ch.r[0, 0] == pytest.approx(0.5)
        assert ch.r[1, 1] == pytest.approx(0.5)
        assert ch.r[1, 0] == pytest.approx(math.sqrt(3) / 2)
        assert ch.r[0, 1] == pytest.approx(-math.sqrt(3) / 2)

    def test_pauli_identity(self):
        ch = make_pauli(PauliProbs(1, 0, 0, 0))
        assert np.allclose(ch.r, np.eye(3))

    def test_pauli_depolarizing(self):
        ch = make_pauli(PauliProbs(0.25, 0.25, 0.25, 0.25))
        assert np.allclose(ch.r, 0.0)

    def test_pauli_half_identity_half_y(self):
        ch = make_pauli(PauliProbs(0.5, 0, 0, 0.5))
        assert np.allclose(np.diag(ch.r), [0.0, 0.0, 1.0])


class TestPauliWeights:
    def test_identity_diagonal(self):
        assert np.allclose(pauli_weights(np.array([1.0, 1.0, 1.0])), [1, 0, 0, 0])

    def test_zero_diagonal(self):
        assert np.allclose(pauli_weights(np.zeros(3)), [0.25, 0.25, 0.25, 0.25])

    def test_worked_example(self):
        assert np.allclose(pauli_weights(np.array([0.5, 0.5, 0.0])), [0.5, 0.25, 0.25, 0.0])

    def test_transpose_diagonal_rejected(self):
        with pytest.raises(ValueError):
            PauliProbs(*pauli_weights(np.array([1.0, 1.0, -1.0])))

    def test_round_trip_on_valid_diagonals(self, rng):
        for _ in range(200):
            e = rng.uniform(-1, 1, 3)
            assert np.allclose(pauli_diagonal(pauli_weights(e)), e, atol=1e-12)


class TestChoiConversions:
    def test_identity_choi_is_pure_bell(self):
        choi = choi_from_affine(make_identity())
        ev = np.linalg.eigvalsh(choi)
        assert ev[-1] == pytest.approx(1.0)
        assert np.allclose(ev[:3], 0.0, atol=1e-15)

    def test_depolarizing_choi_is_maximally_mixed(self):
        choi = choi_from_affine(AffineChannel(np.zeros((3, 3)), np.zeros(3)))
        assert np.allclose(choi, np.eye(4) / 4)

    @pytest.mark.parametrize("p", [0.1, 0.36, 0.7])
    def test_damping_bell_diagonal_entries(self, p):
        choi = choi_from_affine(make_amplitude_damping(p))
        s = math.sqrt(1 - p)
        bell = {
            "phi+": np.array([1, 0, 0, 1]) / math.sqrt(2),
            "phi-": np.array([1, 0, 0, -1]) / math.sqrt(2),
            "psi+": np.array([0, 1, 1, 0]) / math.sqrt(2),
            "psi-": np.array([0, 1, -1, 0]) / math.sqrt(2),
        }
        want = {
            "phi+": (2 + 2 * s - p) / 4,
            "phi-": (2 - 2 * s - p) / 4,
            "psi+": p / 4,
            "psi-": p / 4,
        }
        for name, v in bell.items():
            assert np.real(v @ choi @ v) == pytest.approx(want[name])

    def test_trivial_inversions(self):
        ch = affine_from_choi(choi_from_affine(make_identity()))
        assert np.allclose(ch.r, np.eye(3), atol=1e-14)
        depol = affine_from_choi(choi_from_affine(AffineChannel(np.zeros((3, 3)), np.zeros(3))))
        assert np.allclose(depol.r, 0.0, atol=1e-14)
        assert np.allclose(depol.t, 0.0, atol=1e-14)

    def test_round_trip_random_channels(self, rng):
        for _ in range(1000):
            ch = random_cp_channel(rng)
            back = affine_from_choi(choi_from_affine(ch))
            assert np.abs(back.r - ch.r).max() < 1e-12
            assert np.abs(back.t - ch.t).max() < 1e-12

    def test_choi_invariants_on_constructors(self, rng):
        channels = [
            make_identity(),
            make_amplitude_damping(0.3),
            make_rotation(1.1),
            make_pauli(PauliProbs(0.6, 0.2, 0.1, 0.1)),
        ] + [random_cp_channel(rng) for _ in range(50)]
        for ch in channels:
            choi = choi_from_affine(ch)
            check_choi(choi, 1e-12)

    def test_partial_trace_mismatch_rejected(self):
        bad = np.eye(4) / 4
        bad[0, 0] = 0.5
        bad[3, 3] = 0.0
        with pytest.raises(ValueError):
            affine_from_choi(bad)


class TestChoiLayout:
    """The basis-table conversions against the layout written out entry by entry."""

    def test_conversions_match_the_entry_formulas(self, rng):
        for k in range(600):
            ch = random_affine_channel(rng, k)
            want = choi_entries_oracle(ch)
            assert np.abs(choi_from_affine(ch) - want).max() < 1e-14
            r, t = affine_entries_oracle(want)
            back = affine_from_choi(want)
            assert np.abs(back.r - r).max() < 1e-14
            assert np.abs(back.t - t).max() < 1e-14

    def test_coefficients_are_r_row_major_then_t(self, rng):
        for k in range(50):
            ch = random_affine_channel(rng, k)
            theta = np.concatenate([ch.r.ravel(), ch.t])
            m = choi_from_coefficients(theta)
            assert np.abs(choi_coefficients(m) - theta).max() < 1e-14

    def test_partial_trace_is_bitwise_the_entry_sums(self, rng):
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.array_equal(partial_trace_output(m), partial_trace_oracle(m))


class TestCompletePositivity:
    def test_identity_positive(self):
        assert is_completely_positive(make_identity())

    def test_transpose_map_is_the_witness(self):
        transpose = AffineChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        assert not is_completely_positive(transpose)

    @pytest.mark.parametrize("p", np.linspace(0, 1, 11).tolist())
    def test_damping_always_physical(self, p):
        assert is_completely_positive(make_amplitude_damping(p))

    def test_agrees_with_eigenvalue_oracle_on_random_draws(self, rng):
        hits = 0
        for k in range(1000):
            if k % 2 == 0:
                # uniform box draws are essentially never physical
                ch = AffineChannel(rng.uniform(-1, 1, (3, 3)), rng.uniform(-0.5, 0.5, 3))
            else:
                ch = random_cp_channel(rng)
            # independent construction of the same state: apply the channel to
            # the operator basis and assemble the conjugate-convention matrix
            oracle = _oracle_choi(ch)
            oracle_cp = np.linalg.eigvalsh(oracle)[0] >= -1e-9
            assert is_completely_positive(ch) == oracle_cp
            hits += oracle_cp
        assert 100 < hits < 900  # the draw exercised both answers


def _oracle_choi(ch):
    """(id x E) acting on the unnormalized Bell projector, then conjugated.

    Built from the channel action on the operator basis, independently of the
    closed-form entries used in production.
    """
    paulis = {
        "i": np.eye(2, dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    }

    def channel_on(op):
        coeff = {k: 0.5 * np.trace(paulis[k] @ op) for k in paulis}
        out = coeff["i"] * (np.eye(2) + ch.t[0] * paulis["z"] + ch.t[1] * paulis["x"] + ch.t[2] * paulis["y"])
        for col, a in enumerate("zxy"):
            img = ch.r[0, col] * paulis["z"] + ch.r[1, col] * paulis["x"] + ch.r[2, col] * paulis["y"]
            out = out + coeff[a] * img
        return out

    rho = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            ketbra = np.zeros((2, 2), dtype=complex)
            ketbra[a, b] = 1.0
            rho += 0.5 * np.kron(ketbra, channel_on(ketbra))
    return rho.conj()


class TestOutcomeStatistics:
    def test_identity_matched(self):
        assert 2 * joint_tables(make_identity(), (Basis.Z, Basis.Z))[0, 1, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9])
    def test_damping_flip_from_one(self, p):
        got = 2 * joint_tables(make_amplitude_damping(p), (Basis.Z, Basis.Z))[0, 1, 1, 0]
        assert got == pytest.approx(p)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.2])
    def test_rotation_cross_basis(self, theta):
        got = 2 * joint_tables(make_rotation(theta), (Basis.Z, Basis.X))[0, 1, 0, 1]
        assert got == pytest.approx(math.sin(theta / 2 - math.pi / 4) ** 2, abs=1e-12)

    def test_outcomes_normalize(self, rng):
        for _ in range(30):
            ch = random_cp_channel(rng)
            for a in Basis:
                for b in Basis:
                    for x in (0, 1):
                        total = sum(2 * joint_tables(ch, (a, b))[0, 1, x, y] for y in (0, 1))
                        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probability_matches_choi_trace_in_real_bases(self, rng):
        # 2 * Re Tr[choi (proj_x (x) conj(proj_y))] for the basis kets of all
        # nine basis pairs; the output projector is conjugated as the Choi
        # matrix stores the output transposed
        for _ in range(20):
            ch = random_cp_channel(rng)
            choi = choi_from_affine(ch)
            for a in Basis:
                for b in Basis:
                    for x in (0, 1):
                        for y in (0, 1):
                            ka = KETS[a][:, x]
                            kb = KETS[b][:, y]
                            proj = np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()).conj())
                            want = 2.0 * np.real(np.trace(choi @ proj))
                            got = 2 * joint_tables(ch, (a, b))[0, 1, x, y]
                            assert got == pytest.approx(want, abs=1e-12)

    def test_joint_tables_match_choi_trace_in_all_bases(self, rng):
        # P(x, y) = Tr[choi (proj_x (x) conj(proj_y))] for the conjugate-
        # convention oracle Choi matrix, with proj = (I +/- sigma) / 2
        sigma = [np.array(p, dtype=complex) for p in ([[1, 0], [0, -1]], [[0, 1], [1, 0]])]
        sigma.append(np.array([[0, -1j], [1j, 0]]))
        proj = [[(np.eye(2) + s * p) / 2 for s in (1, -1)] for p in sigma]
        for _ in range(20):
            ch = random_cp_channel(rng)
            choi = _oracle_choi(ch)
            got = joint_tables(ch, tuple(Basis))
            for a, b, x, y in np.ndindex(3, 3, 2, 2):
                want = np.real(np.trace(choi @ np.kron(proj[a][x], proj[b][y].conj())))
                assert got[a, b, x, y] == pytest.approx(want, abs=1e-12)

    def test_joint_identity(self):
        j = joint_tables(make_identity(), (Basis.Z, Basis.Z))[0, 1]
        assert np.allclose(j, np.diag([0.5, 0.5]))

    def test_joint_rotation_flip_probability(self):
        theta = 0.9
        j = joint_tables(make_rotation(theta), (Basis.Z, Basis.Z))[0, 1]
        flip = math.sin(theta / 2) ** 2
        assert j[0, 1] == pytest.approx(flip / 2, abs=1e-12)
        assert j[1, 0] == pytest.approx(flip / 2, abs=1e-12)

    def test_joint_damping(self):
        p = 0.35
        j = joint_tables(make_amplitude_damping(p), (Basis.Z, Basis.Z))[0, 1]
        assert j[0, 0] == pytest.approx(0.5)
        assert j[0, 1] == pytest.approx(0.0)
        assert j[1, 0] == pytest.approx(p / 2)
        assert j[1, 1] == pytest.approx((1 - p) / 2)


class TestSingularValues:
    def test_identity(self):
        assert singular_values_zx(make_identity()) == pytest.approx((1.0, 1.0))

    def test_rotation_is_orthogonal(self):
        assert singular_values_zx(make_rotation(0.77)) == pytest.approx((1.0, 1.0))

    def test_damping_diagonal(self):
        d = singular_values_zx(make_amplitude_damping(0.36))
        assert d == pytest.approx((0.8, 0.64))


class TestChannelSpecFiles:
    @pytest.mark.parametrize(
        "text",
        [
            "kind=amplitude_damping p=0.2",
            "kind=rotation theta=0.7854",
            "kind=pauli qi=0.7 qz=0.1 qx=0.1 qy=0.1",
        ],
    )
    def test_named_kinds_parse(self, text):
        ch = parse_channel_spec(text)
        assert is_completely_positive(ch)

    def test_explicit_round_trip(self, rng):
        ch = random_cp_channel(rng)
        back = parse_channel_spec(format_channel_spec(ch))
        assert np.allclose(back.r, ch.r)
        assert np.allclose(back.t, ch.t)

    def test_explicit_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            parse_channel_spec("kind=explicit 1 0 0 0 1 0 0 0")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_channel_spec("kind=teleporter q=1")
