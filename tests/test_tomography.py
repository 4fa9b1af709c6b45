import math

import numpy as np
import pytest

import qkdpost.tomography as tomography
import qkdpost.worstcase as worstcase
from qkdpost.channels import (
    Basis,
    PauliProbs,
    check_choi,
    choi_from_affine,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
)
from qkdpost.entropy import binary_entropy
from qkdpost.tomography import (
    BB84_BASES,
    SIXSTATE_BASES,
    EstimationError,
    TallyTable,
    estimate_rates_bb84,
    estimate_rates_sixstate,
    linear_inversion,
    nearest_choi,
    project_omega_bb84,
    sample_tally,
)
from qkdpost.worstcase import (
    ObservableParams,
    feasible_interval,
    golden_section_min,
    worst_case_ambiguity,
)

from conftest import (
    POOL_CHANNELS,
    affine_projection_oracle,
    barrier_projection_oracle,
    closed_form_example_rates,
    exact_tally,
    make_identity,
    pool_tally,
    random_cp_channel,
    rate_error_curve,
    write_tally,
)


class TestTallyTable:
    def test_csv_round_trip(self, rng, tmp_path):
        tally = sample_tally(make_amplitude_damping(0.3), SIXSTATE_BASES, 1000, rng)
        path = tmp_path / "tally.csv"
        write_tally(tally, path)
        back = TallyTable.from_csv(path)
        assert back.bases == tally.bases
        assert np.array_equal(back.counts, tally.counts)

    def test_bb84_csv_has_no_y_rows(self, rng, tmp_path):
        tally = sample_tally(make_rotation(0.4), BB84_BASES, 500, rng)
        path = tmp_path / "bb84.csv"
        write_tally(tally, path)
        body = path.read_text()
        assert ",y," not in body.replace("a,b,x,y,count", "")
        assert TallyTable.from_csv(path).protocol == "bb84"

    def test_negative_counts_rejected(self):
        counts = np.zeros((2, 2, 2, 2), np.int64)
        counts[0, 0, 0, 0] = -1
        with pytest.raises(ValueError, match="negative counts"):
            TallyTable(counts, BB84_BASES)

    def test_non_integral_counts_rejected(self):
        counts = np.ones((2, 2, 2, 2))
        counts[1, 0, 1, 0] = 1.5
        with pytest.raises(ValueError, match="non-integral counts"):
            TallyTable(counts, BB84_BASES)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        counts = np.ones((2, 2, 2, 2))
        counts[0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite counts"):
            TallyTable(counts, BB84_BASES)

    @pytest.mark.parametrize(
        "big", [[2**70], [2.0**70], [2**62, 2**62], [2**63 - 1, 1]],
        ids=["int-2^70", "float-2^70", "two-2^62", "total-2^63"],
    )
    def test_counts_totalling_2_63_rejected(self, big):
        # each of these overflows the int64 sums of linear_inversion
        counts = [1] * (16 - len(big)) + big
        with pytest.raises(ValueError, match=r"counts total 2\^63 or more"):
            TallyTable(counts, BB84_BASES)

    @pytest.mark.parametrize(
        "bases",
        [(Basis.Z, Basis.Y), (Basis.Z,), (Basis.Z, Basis.Z)],
        ids=["z-y", "z-only", "z-twice"],
    )
    def test_bases_of_no_protocol_rejected(self, bases):
        # inversion of any of these leaves NaN in omega, where BB84 estimation
        # would end in a LinAlgError
        nb = len(bases)
        with pytest.raises(ValueError, match=r"neither \(Z, X\) nor \(Z, X, Y\)"):
            TallyTable(np.full((nb, nb, 2, 2), 5), bases)

    def test_bases_in_either_order_estimate_alike(self):
        tally = pool_tally(make_amplitude_damping(0.1))
        swapped = TallyTable(tally.counts[::-1, ::-1], (Basis.X, Basis.Z))
        assert repr(estimate_rates_bb84(swapped)) == repr(estimate_rates_bb84(tally))

    def test_whole_float_counts_are_kept_exactly(self):
        tally = TallyTable(np.full(16, 2.0**52), BB84_BASES)
        assert tally.counts.dtype == np.int64
        assert (tally.counts == 2**52).all()


class TestLinearInversion:
    def test_identity_exact(self):
        raw = linear_inversion(exact_tally(make_identity(), SIXSTATE_BASES))
        assert np.allclose(raw.r, np.eye(3), atol=1e-9)
        assert np.allclose(raw.t, 0.0, atol=1e-9)

    def test_damping_biases(self):
        p = 0.28
        raw = linear_inversion(exact_tally(make_amplitude_damping(p), SIXSTATE_BASES))
        assert raw.r[0, 0] == pytest.approx(1 - p, abs=1e-9)
        assert raw.t[0] == pytest.approx(p, abs=1e-9)
        assert raw.r[1, 1] == pytest.approx(math.sqrt(1 - p), abs=1e-9)

    def test_bb84_leaves_hidden_entries_undetermined(self):
        raw = linear_inversion(exact_tally(make_rotation(0.5), BB84_BASES))
        assert np.isnan(raw.r[2, 2])
        assert np.isnan(raw.r[0, 2])
        assert np.isnan(raw.t[2])
        om = ObservableParams.from_channel(raw)
        assert om.r_zz == pytest.approx(math.cos(0.5), abs=1e-9)

    def test_empty_cell_is_named(self):
        counts = np.zeros((2, 2, 2, 2), np.int64)
        counts[:, :, :, :] = 5
        counts[1, 0, 1, :] = 0  # alice x-basis, bob z-basis, bit 1 missing
        tally = TallyTable(counts, BB84_BASES)
        with pytest.raises(EstimationError, match="a=x b=z x=1"):
            linear_inversion(tally)

    def test_monte_carlo_accuracy_at_a_million_samples(self, rng):
        ch = make_rotation(0.5)
        raw = linear_inversion(sample_tally(ch, SIXSTATE_BASES, 10**6, rng))
        assert np.linalg.norm(raw.r - ch.r) <= 0.01
        assert np.linalg.norm(raw.t - ch.t) <= 0.01


class TestNearestChoi:
    def test_affine_step_matches_the_defect_projection(self, rng):
        for _ in range(500):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            once = tomography._project_affine_constraints(m)
            assert np.abs(once - affine_projection_oracle(m.copy())).max() < 1e-14
            assert np.abs(tomography._project_affine_constraints(once) - once).max() < 1e-14

    def test_valid_input_unchanged(self):
        choi = choi_from_affine(make_amplitude_damping(0.4))
        assert nearest_choi(choi) is choi

    def test_diagonal_perturbation_projected_back(self, rng):
        choi = choi_from_affine(make_amplitude_damping(0.3))
        pert = np.diag(rng.normal(0, 0.05, 4))
        raw = choi + pert
        out = nearest_choi(raw)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9
        check_choi(out, 1e-8)
        # nonexpansive: no farther from the raw point than the valid start
        assert np.linalg.norm(out - raw) <= np.linalg.norm(pert) + 1e-12

    def test_idempotent(self, rng):
        choi = choi_from_affine(random_cp_channel(rng))
        noisy = choi + rng.normal(0, 0.03, (4, 4))
        once = nearest_choi(noisy)
        twice = nearest_choi(once)
        assert np.abs(twice - once).max() < 1e-10

    def test_choi_matrices_are_read_only(self, rng):
        valid = choi_from_affine(make_amplitude_damping(0.4))
        projected = nearest_choi(valid + np.diag(rng.normal(0, 0.05, 4)))
        tally = sample_tally(make_rotation(0.8), SIXSTATE_BASES, 2000, rng)
        estimated = estimate_rates_sixstate(tally).choi
        for m in (valid, nearest_choi(valid), projected, estimated):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0

    def test_projection_from_tally(self, rng):
        tally = sample_tally(make_rotation(0.8), SIXSTATE_BASES, 2000, rng)
        out = nearest_choi(choi_from_affine(linear_inversion(tally)))
        check_choi(out, 1e-8)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_consistency_with_growing_samples(self, rng):
        truth = choi_from_affine(make_rotation(0.8))
        errors = []
        for size in (10**3, 10**5):
            dists = []
            for _ in range(10):
                tally = sample_tally(make_rotation(0.8), SIXSTATE_BASES, size, rng)
                est = nearest_choi(choi_from_affine(linear_inversion(tally)))
                dists.append(np.linalg.norm(est - truth))
            errors.append(np.median(dists))
        assert errors[1] < errors[0]


def barrier_stationarity(omega, omega_raw, mu=1e-9):
    """Residuals of the barrier's stationarity at ``omega``: the largest
    |2(omega - omega_raw)_k - mu tr(C^-1 G_k)| over the six observed
    coordinates, and |mu tr(C^-1 G_r_yy)|.  C = C(omega, r_yy), with r_yy
    the maximiser of log det C(omega, r) on omega's feasible interval."""
    w, iv = omega.as_array(), omega.interval

    def neg_logdet(r):
        sign, logdet = np.linalg.slogdet(tomography._barrier_rho(np.append(w, r)))
        return -logdet if sign > 0 else np.inf

    r_yy, _ = golden_section_min(neg_logdet, *iv, tol=1e-13)
    rho_inv = np.linalg.inv(tomography._barrier_rho(np.append(w, r_yy)))
    traces = np.trace(rho_inv @ tomography._BARRIER_G, axis1=1, axis2=2)
    observed = np.abs(2.0 * (w - omega_raw.as_array()) - mu * traces[:6]).max()
    return observed, abs(mu * traces[6])


class TestOmegaProjection:
    def test_feasible_unchanged(self):
        om = ObservableParams.from_channel(make_rotation(0.3))
        assert project_omega_bb84(om) is om

    def test_scaled_identity_projects_to_the_corner(self):
        om = ObservableParams(1.05, 0.0, 0.0, 1.05, 0.0, 0.0)
        out = project_omega_bb84(om)
        assert feasible_interval(out) is not None
        got = np.linalg.norm(out.as_array() - om.as_array())
        # grid oracle: the nearest feasible point is the identity block
        assert got == pytest.approx(math.hypot(0.05, 0.05), abs=1e-3)

    def test_distance_no_worse_than_grid_oracle(self, rng):
        om = ObservableParams(0.99, 0.1, -0.12, 1.02, 0.05, -0.03)
        out = project_omega_bb84(om)
        target = om.as_array()
        got = np.linalg.norm(out.as_array() - target)
        best = np.inf
        for _ in range(4000):
            trial = target + rng.uniform(-0.25, 0.25, 6)
            cand = ObservableParams(*trial)
            if feasible_interval(cand) is not None:
                best = min(best, np.linalg.norm(trial - target))
        assert got <= best + 1e-3

    @pytest.mark.parametrize(
        "p, seed",
        [(0.02, 1001), (0.02, 1002), (0.02, 1015), (0.1, 1003), (0.1, 1015)],
    )
    def test_stalled_barrier_stage_ends(self, monkeypatch, p, seed):
        # on these tallies rounding keeps a gradient-norm test at 1e-9 from
        # ever passing, so a stage that waits for it creeps on by tiny steps
        # for thousands of barrier evaluations
        tally = pool_tally(make_amplitude_damping(p), seed)
        omega = ObservableParams.from_channel(linear_inversion(tally))
        calls = 0
        original = tomography._barrier_rho

        def counted(v):
            nonlocal calls
            calls += 1
            return original(v)

        monkeypatch.setattr(tomography, "_barrier_rho", counted)
        assert project_omega_bb84(omega) is not omega
        assert calls > 0
        assert calls < 1000

    def test_barrier_evaluation_budget_on_the_pool(self, monkeypatch, pool_tallies):
        # 6,633 evaluations with mu falling by factors of 1000, 8,759 by
        # factors of 10, and 11,490 when every Newton step also re-evaluated
        # its starting point; the counts repeat exactly
        calls = 0
        original = tomography._barrier_rho

        def counted(v):
            nonlocal calls
            calls += 1
            return original(v)

        monkeypatch.setattr(tomography, "_barrier_rho", counted)
        for tally in pool_tallies:
            project_omega_bb84(ObservableParams.from_channel(linear_inversion(tally)))
        assert 0 < calls <= 6_633

    def test_four_stages_reach_the_ten_stage_point_on_the_pool(self, pool_tallies):
        """mu falls by factors of 1000, not 10; the projected omegas stay
        within 1e-9 of the ten-stage run's (5.6e-11 measured)."""
        projected = 0
        for tally in pool_tallies:
            raw = ObservableParams.from_channel(linear_inversion(tally))
            out = project_omega_bb84(raw)
            if out is raw:
                continue
            projected += 1
            gap = np.abs(out.as_array() - barrier_projection_oracle(raw)).max()
            assert gap <= 1e-9
        assert projected > 0

    def test_every_barrier_matrix_comes_from_barrier_rho(self, monkeypatch, pool_tallies):
        """Each barrier matrix feeds one Cholesky (a value) or one inverse (a
        Newton step), so forming it anywhere but ``_barrier_rho`` breaks the
        balance even where the other site still calls it."""
        raws = [ObservableParams.from_channel(linear_inversion(t)) for t in pool_tallies]
        calls = {"rho": 0, "cholesky": 0, "inv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tomography, "_barrier_rho", counted("rho", tomography._barrier_rho))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        for raw in raws:
            project_omega_bb84(raw)
        assert calls["cholesky"] > 0 and calls["inv"] > 0
        assert calls["rho"] == calls["cholesky"] + calls["inv"]

    def test_pool_projections_are_the_barrier_stationary_point(self, pool_tallies):
        """The projection returns the mu = 1e-9 log-det barrier point.  On the
        pool's 48 projected omegas the residuals of its stationarity read at
        most 9.4e-7 (observed) and 1.4e-6 (r_yy); a feasible point moved 1e-3
        of the way back toward omega_raw reads 9.4e-5."""
        moved_feasible = 0
        for tally in pool_tallies:
            raw = ObservableParams.from_channel(linear_inversion(tally))
            out = project_omega_bb84(raw)
            if out is raw:
                continue
            assert max(barrier_stationarity(out, raw)) <= 1e-5
            back = ObservableParams(*(out.as_array() + 1e-3 * (raw.as_array() - out.as_array())))
            if back.interval is not None:
                moved_feasible += 1
                assert max(barrier_stationarity(back, raw)) > 1e-5
        assert moved_feasible > 0

    def test_noisy_rotation_tally_becomes_feasible(self, rng):
        sizes = (2000, 50_000)
        gaps = []
        for size in sizes:
            tally = sample_tally(make_rotation(0.5), BB84_BASES, size, rng)
            om_raw = ObservableParams.from_channel(linear_inversion(tally))
            om = project_omega_bb84(om_raw)
            assert feasible_interval(om) is not None
            gaps.append(abs(worst_case_ambiguity(om) - 1.0))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.05


class TestPipelines:
    @pytest.mark.parametrize(
        "channel, projected, intervals",
        [
            (make_pauli(PauliProbs(0.94, 0.02, 0.02, 0.02)), False, 1),
            (make_amplitude_damping(0.02), True, 2),
        ],
        ids=["unprojected-pauli", "projected-damping"],
    )
    def test_one_feasible_interval_per_omega(self, monkeypatch, channel, projected, intervals):
        tally = pool_tally(channel)
        calls = []
        original = worstcase.feasible_interval

        def counted(omega):
            calls.append(omega)
            return original(omega)

        # both attributes the traced benchmark run patches
        monkeypatch.setattr(worstcase, "feasible_interval", counted)
        monkeypatch.setattr(tomography, "feasible_interval", counted)
        assert estimate_rates_bb84(tally).projected == projected
        assert len(calls) == intervals

    def test_sixstate_projects_exactly_the_non_psd_raw_estimates(self):
        """The six-state pipeline projects when, and only when, the raw Choi
        matrix has an eigenvalue below -PSD_TOL; nearest_choi makes that test."""
        flags = []
        for ch in POOL_CHANNELS:
            for seed in range(1000, 1016):
                tally = pool_tally(ch, seed, protocol="sixstate")
                raw = choi_from_affine(linear_inversion(tally))
                projected = estimate_rates_sixstate(tally).projected
                assert projected == (np.linalg.eigvalsh(raw)[0] < -tomography.PSD_TOL)
                flags.append(projected)
        assert any(flags) and not all(flags)

    def test_sixstate_estimation_of_a_bb84_tally_is_an_estimation_error(self):
        # the guard between the NaN y entries of a BB84 inversion and a Choi matrix
        with pytest.raises(EstimationError, match="all three bases"):
            estimate_rates_sixstate(pool_tally(make_amplitude_damping(0.1)))

    def test_identity_tally_gives_unit_rates(self):
        est = estimate_rates_sixstate(exact_tally(make_identity(), SIXSTATE_BASES))
        assert est.direct.key_rate == pytest.approx(1.0, abs=1e-9)
        assert est.reverse.key_rate == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_damping_tally_matches_closed_forms(self, p):
        est = estimate_rates_sixstate(exact_tally(make_amplitude_damping(p), SIXSTATE_BASES))
        want = closed_form_example_rates("amplitude_damping_direct", p)
        assert est.direct.raw_rate == pytest.approx(want, abs=1e-6)

    def test_bb84_matches_sixstate_for_damping(self):
        p = 0.3
        six = estimate_rates_sixstate(exact_tally(make_amplitude_damping(p), SIXSTATE_BASES))
        bb = estimate_rates_bb84(exact_tally(make_amplitude_damping(p), BB84_BASES))
        assert bb.direct.raw_rate == pytest.approx(six.direct.raw_rate, abs=1e-6)
        assert bb.reverse.raw_rate == pytest.approx(six.reverse.raw_rate, abs=1e-6)

    def test_bb84_rotation_rate(self):
        theta = 0.9
        est = estimate_rates_bb84(exact_tally(make_rotation(theta), BB84_BASES))
        want = 1 - binary_entropy(math.sin(theta / 2) ** 2)
        assert est.direct.raw_rate == pytest.approx(want, abs=1e-9)
        assert est.direct.ambiguity == pytest.approx(1.0, abs=1e-9)

    def test_bb84_mismatched_rate(self):
        theta = math.pi / 8
        est = estimate_rates_bb84(exact_tally(make_rotation(theta), BB84_BASES))
        flip = math.sin(theta / 2 - math.pi / 4) ** 2
        assert est.mismatched.raw_rate == pytest.approx(1 - binary_entropy(flip), abs=1e-9)

    def test_bb84_never_beats_sixstate(self, rng):
        for _ in range(5):
            ch = random_cp_channel(rng)
            six = estimate_rates_sixstate(exact_tally(ch, SIXSTATE_BASES))
            bb = estimate_rates_bb84(exact_tally(ch, BB84_BASES))
            assert bb.direct.raw_rate <= six.direct.raw_rate + 1e-6

    def test_projected_outputs_keep_invariants(self, rng):
        for _ in range(10):
            tally = sample_tally(random_cp_channel(rng), SIXSTATE_BASES, 500, rng)
            est = estimate_rates_sixstate(tally)
            check_choi(est.choi, 1e-8)
            assert np.linalg.eigvalsh(est.choi)[0] >= -1e-9

    def test_rate_error_decreases_with_samples(self, rng):
        medians = rate_error_curve(
            make_amplitude_damping(0.3), "sixstate", [10**3, 10**5], trials=9, seed=7
        )
        assert medians[1] < medians[0]
