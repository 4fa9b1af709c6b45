import math

import numpy as np
import pytest

from qkdpost import worstcase
from qkdpost.channels import choi_from_affine, make_amplitude_damping, make_rotation
from qkdpost.entropy import _plogp, binary_entropy
from qkdpost.keyrate import DIRECTIONS, choi_ambiguity
from qkdpost.tomography import linear_inversion, project_omega_bb84
from qkdpost.worstcase import (
    DEGENERATE_WIDTH,
    PSD_SLACK,
    ObservableParams,
    feasible_interval,
    golden_section_min,
    worst_case_ambiguity,
    worst_case_lower_bound,
)

from conftest import (
    POOL_CHANNELS,
    is_completely_positive,
    make_identity,
    pool_tally,
    purification_ambiguity,
    random_cp_channel,
)


def omega_of(ch):
    return ObservableParams.from_channel(ch)


def min_eig(omega, r_yy):
    """Minimum eigenvalue of the completed Choi matrix at r_yy."""
    base, step = omega.pencil
    return float(np.linalg.eigvalsh(base + r_yy * step)[0])


def argmax_min_eig(omega):
    """The point of omega's feasible interval where the completion is most
    positive, found as ``max_entropy`` finds it on a degenerate interval."""
    lo, hi = omega.interval
    r, _ = golden_section_min(lambda r: -min_eig(omega, r), lo, hi, tol=1e-12)
    return r


def anchor(omega):
    """One point per interval: the argmax of the minimum eigenvalue on a
    degenerate interval, the midpoint otherwise."""
    lo, hi = omega.interval
    return argmax_min_eig(omega) if hi - lo <= DEGENERATE_WIDTH else 0.5 * (lo + hi)


def feasible_omega(rng, unital=False):
    ch = random_cp_channel(rng)
    om = omega_of(ch)
    if unital:
        om = ObservableParams(om.r_zz, om.r_zx, om.r_xz, om.r_xx, 0.0, 0.0)
    return om


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_min(lambda v: (v - 0.3) ** 2, -1, 1, tol=1e-9)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_boundary_minimum(self):
        x, _ = golden_section_min(lambda v: v, -1, 1, tol=1e-9)
        assert x == pytest.approx(-1.0, abs=1e-8)


class TestFeasibleInterval:
    @pytest.mark.parametrize("p", [0.1, 0.36, 0.8])
    def test_damping_interval_is_a_point(self, p):
        """The interval is sqrt(1 - p) inflated by the slack, and the maximum
        entropy is read at the argmax of the minimum eigenvalue."""
        om = omega_of(make_amplitude_damping(p))
        iv = feasible_interval(om)
        assert iv is not None
        lo, hi = iv
        want = math.sqrt(1 - p)
        assert lo == pytest.approx(want, abs=1e-5)
        assert hi == pytest.approx(want, abs=1e-5)
        assert hi - lo <= DEGENERATE_WIDTH
        r = argmax_min_eig(om)
        assert r == pytest.approx(want, abs=1e-6)
        base, step = om.pencil
        assert om.max_entropy == _plogp(np.linalg.eigvalsh(base + r * step))

    def test_identity_pins_to_one(self):
        iv = feasible_interval(omega_of(make_identity()))
        assert iv is not None
        lo, hi = iv
        assert lo - 1e-12 <= 1.0 <= hi + 1e-12
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_rotation_contains_one(self):
        iv = feasible_interval(omega_of(make_rotation(math.pi / 6)))
        assert iv is not None
        lo, hi = iv
        assert lo - 1e-12 <= 1.0 <= hi + 1e-12

    def test_grid_oracle_agreement(self, rng):
        """Interval endpoints bracket exactly the grid points whose completion
        passes the positivity check."""
        cases = [omega_of(make_rotation(math.pi / 6))]
        cases += [feasible_omega(rng) for _ in range(5)]
        grid = np.linspace(-1, 1, 2001)
        for om in cases:
            iv = feasible_interval(om)
            assert iv is not None
            lo, hi = iv
            ok = np.array(
                [is_completely_positive(om.complete(float(r)), tol=1e-12) for r in grid]
            )
            inside = (grid >= lo - 1e-3) & (grid <= hi + 1e-3)
            assert not (ok & ~inside).any()
            well_inside = (grid >= lo + 1e-3) & (grid <= hi - 1e-3)
            assert (ok | ~well_inside).all()

    def test_infeasible_omega(self):
        om = ObservableParams(1.0, 0.0, 0.0, 1.0, 0.4, 0.0)  # identity block with a shift
        assert feasible_interval(om) is None

    def test_pool_endpoints_are_sharp_and_none_means_no_completion(self):
        """On raw and projected pool omegas, each endpoint inside (-1, 1) is
        feasible and 1e-9 beyond it is not; a None verdict leaves no
        completely positive completion on the grid."""
        grid = np.linspace(-1, 1, 2001)
        nones = 0
        for ch in POOL_CHANNELS:
            for seed in (1000, 1001, 1002, 1003):
                raw = ObservableParams.from_channel(linear_inversion(pool_tally(ch, seed)))
                for om in (raw, project_omega_bb84(raw)):
                    iv = feasible_interval(om)
                    if iv is None:
                        nones += 1
                        assert not any(
                            is_completely_positive(om.complete(float(r)), tol=1e-12)
                            for r in grid
                        )
                        continue
                    lo, hi = iv
                    for end, outward in ((lo, -1e-9), (hi, 1e-9)):
                        if -1.0 < end < 1.0:
                            assert min_eig(om, end) >= -PSD_SLACK - 1e-14
                            assert min_eig(om, end + outward) < -PSD_SLACK
        assert nones > 0


class TestPencil:
    def test_pencil_is_the_completed_choi_matrix(self, rng):
        for _ in range(20):
            om = feasible_omega(rng)
            base, step = om.pencil
            for r in (-1.0, -0.3, 0.0, 0.7, 1.0):
                want = choi_from_affine(om.complete(r))
                assert np.abs(base + r * step - want).max() < 1e-15

    def test_step_is_zero_on_the_key_blocks(self, rng):
        """H(KE) reads only the blocks at fixed key bit, on which r_yy has no
        weight, so H(KE) is the same for every completion."""
        for _ in range(20):
            _, step = feasible_omega(rng).pencil
            m = step.reshape(2, 2, 2, 2)
            for k in (0, 1):
                assert (m[k, :, k, :] == 0.0).all()
                assert (m[:, k, :, k] == 0.0).all()

    def test_kernel_matches_the_purification_on_random_channels(self, rng):
        for _ in range(100):
            c = choi_from_affine(random_cp_channel(rng))
            for direction in ("direct", "reverse"):
                want = purification_ambiguity(c, direction)
                assert abs(choi_ambiguity(c, direction) - want) <= 1e-12
            # the mismatched key is Alice's bit, as for direct
            assert choi_ambiguity(c, "mismatched") == choi_ambiguity(c, "direct")

    def test_ambiguity_matches_the_channel_formulas_on_pool_omegas(self, pool_tallies):
        """On raw and projected pool omegas the kernel on the real pencil
        matches the purification at lo, hi, anchor and lo + 0.3 width, and
        the worst case is never above it where the search reads the interval."""
        checked = 0
        for tally in pool_tallies:
            raw = ObservableParams.from_channel(linear_inversion(tally))
            for om in {raw, project_omega_bb84(raw)}:
                if om.interval is None:
                    continue
                lo, hi = om.interval
                base, step = om.pencil
                worst = {d: worst_case_ambiguity(om, d) for d in ("direct", "reverse")}
                for r in (lo, hi, anchor(om), lo + 0.3 * (hi - lo)):
                    for direction in ("direct", "reverse"):
                        got = choi_ambiguity(base + r * step, direction)
                        want = purification_ambiguity(base + r * step, direction)
                        assert abs(got - want) <= 1e-9
                        if hi - lo > DEGENERATE_WIDTH:
                            assert worst[direction] <= got + 1e-12
                    checked += 1
        assert checked >= 4 * len(pool_tallies)

    def test_rejects_unknown_direction_and_non_psd_points(self):
        om = omega_of(make_amplitude_damping(0.3))
        base, step = om.pencil
        with pytest.raises(ValueError, match="direction"):
            worst_case_ambiguity(om, "sideways")
        with pytest.raises(ValueError, match="direction"):
            choi_ambiguity(base + argmax_min_eig(om) * step, "sideways")
        with pytest.raises(ValueError, match="direction"):
            worst_case_lower_bound(om, "sideways")
        for direction in ("direct", "reverse"):
            with pytest.raises(ValueError, match="not PSD"):
                choi_ambiguity(base - step, direction)

    def test_one_search_per_omega_for_both_directions(self, rng, monkeypatch):
        """One golden search per omega on either branch: the entropy search
        on a wide interval, the minimum-eigenvalue argmax on a degenerate one."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return golden_section_min(*args, **kwargs)

        monkeypatch.setattr(worstcase, "golden_section_min", counted)
        for om, degenerate in (
            (feasible_omega(rng), False),
            (omega_of(make_amplitude_damping(0.3)), True),
        ):
            calls.clear()
            worst = {d: worst_case_ambiguity(om, d) for d in DIRECTIONS}
            assert len(calls) == 1
            assert worst["mismatched"] == worst["direct"]
            lo, hi = om.interval
            assert (hi - lo <= DEGENERATE_WIDTH) == degenerate


class TestWorstCaseAmbiguity:
    @pytest.mark.parametrize("theta", [0.1, 0.9, 1.2, 2.5])
    def test_rotation_gives_full_ambiguity(self, theta):
        assert worst_case_ambiguity(omega_of(make_rotation(theta))) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_damping_point_interval_recovers_exact_value(self, p):
        ch = make_amplitude_damping(p)
        want = choi_ambiguity(choi_from_affine(ch), "direct")
        assert worst_case_ambiguity(omega_of(ch)) == pytest.approx(want, abs=1e-6)

    def test_unital_matches_bound(self, rng):
        for _ in range(30):
            om = feasible_omega(rng, unital=True)
            for direction in ("direct", "reverse"):
                f = worst_case_ambiguity(om, direction)
                b = worst_case_lower_bound(om, direction)
                assert f == pytest.approx(b, abs=1e-6)

    def test_never_below_bound(self, rng):
        for _ in range(30):
            om = feasible_omega(rng)
            assert worst_case_ambiguity(om) >= worst_case_lower_bound(om, "direct") - 1e-9

    def test_infeasible_raises(self):
        om = ObservableParams(1.0, 0.0, 0.0, 1.0, 0.4, 0.0)
        with pytest.raises(ValueError):
            worst_case_ambiguity(om)

    def test_any_channel_dominates_its_own_worst_case(self, rng):
        """Every channel is a full completion of its observable block, so the
        reduced search can never exceed the channel's own ambiguity."""
        for _ in range(60):
            ch = random_cp_channel(rng)
            f = worst_case_ambiguity(omega_of(ch))
            assert choi_ambiguity(choi_from_affine(ch), "direct") >= f - 1e-6

    def test_full_completions_never_beat_reduced_search(self, rng):
        """Monte-Carlo over completions with all six hidden parameters free."""
        from conftest import completions_of_omega

        for _ in range(4):
            ch = random_cp_channel(rng)
            om = omega_of(ch)
            iv = feasible_interval(om)
            assert iv is not None
            f = worst_case_ambiguity(om)
            hidden_seen = 0
            for comp in completions_of_omega(ch, iv, rng, 50):
                choi = choi_from_affine(comp)
                assert np.linalg.eigvalsh(choi)[0] >= -1e-9
                back = omega_of(comp)
                assert np.allclose(back.as_array(), om.as_array(), atol=1e-12)
                if np.abs(comp.r[2, :2]).max() > 1e-6 or np.abs(comp.r[:2, 2]).max() > 1e-6:
                    hidden_seen += 1
                assert choi_ambiguity(choi, "direct") >= f - 1e-6
            assert hidden_seen > 10  # the sample really explored hidden parameters

    def test_continuity_under_small_shifts(self, rng):
        om = feasible_omega(rng)
        f0 = worst_case_ambiguity(om)
        base = om.as_array()
        deltas = []
        for scale in (1e-3, 1e-4, 1e-5):
            shifted = ObservableParams(*(base * (1.0 - scale)))
            deltas.append(abs(worst_case_ambiguity(shifted) - f0))
        assert deltas[2] <= deltas[0] + 1e-9
        assert deltas[2] < 1e-3

    def test_convex_along_free_parameter(self, rng):
        for _ in range(10):
            om = feasible_omega(rng)
            iv = feasible_interval(om)
            if iv is None or iv[1] - iv[0] < 1e-3:
                continue
            amb = lambda r: choi_ambiguity(choi_from_affine(om.complete(r)), "direct")
            lo, hi = iv[0] + 1e-6, iv[1] - 1e-6
            for lam in (0.25, 0.5, 0.75):
                mid = lo + lam * (hi - lo)
                assert amb(mid) <= lam * amb(hi) + (1 - lam) * amb(lo) + 1e-9


class TestLowerBound:
    def test_rotation_and_identity_saturate(self):
        assert worst_case_lower_bound(omega_of(make_rotation(0.6)), "direct") == pytest.approx(1.0)
        assert worst_case_lower_bound(omega_of(make_identity()), "direct") == pytest.approx(1.0)

    def test_tighter_than_single_entropy_baseline(self, rng):
        for _ in range(50):
            om = feasible_omega(rng)
            p_x = (1 - om.r_xx) / 2
            bound = worst_case_lower_bound(om, "direct")
            assert bound >= 1 - binary_entropy(min(max(p_x, 0), 1)) - 1e-12

    def test_reverse_swaps_the_cross_term(self):
        om = ObservableParams(0.8, 0.3, 0.1, 0.7, 0.0, 0.0)
        d = worst_case_lower_bound(om, "direct")
        r = worst_case_lower_bound(om, "reverse")
        assert d != pytest.approx(r, abs=1e-6)
        h = binary_entropy
        dvals = np.linalg.svd(np.array([[0.8, 0.3], [0.1, 0.7]]), compute_uv=False)
        assert dvals[0] <= 1.0
        base = 1 - h((1 + dvals[0]) / 2) - h((1 + dvals[1]) / 2)
        assert d == pytest.approx(base + h((1 + math.hypot(0.8, 0.1)) / 2), abs=1e-12)
        assert r == pytest.approx(base + h((1 + math.hypot(0.8, 0.3)) / 2), abs=1e-12)
        # the mismatched key is Alice's bit, so it takes the direct bound
        for omega in (om, ObservableParams(0.8, 0.1, -0.2, 0.7, 0.1, 0.0)):
            want = worst_case_lower_bound(omega, "direct")
            assert worst_case_lower_bound(omega, "mismatched") == want
