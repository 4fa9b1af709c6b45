"""Acceptance suite: one test per release criterion, each printing a verdict
line.  Tolerances are fixed here and nowhere else."""

import math
import time

import numpy as np
import pytest

from qkdpost.channels import (
    check_choi,
    choi_from_affine,
    make_amplitude_damping,
    make_rotation,
)
from qkdpost.entropy import binary_entropy, cond_entropy
from qkdpost.keyrate import choi_ambiguity, keyrate
from qkdpost.reconciliation import (
    gen_parity_check,
    sp_decode,
    syndrome,
)
from qkdpost.simulate import ProtocolConfig, run_protocol, sweep_rates
from qkdpost.tomography import SIXSTATE_BASES, estimate_rates_sixstate, sample_tally
from qkdpost.worstcase import (
    ObservableParams,
    feasible_interval,
    worst_case_ambiguity,
    worst_case_lower_bound,
)
from qkdpost.channels import Basis, joint_tables

from conftest import (
    closed_form_example_rates,
    completions_of_omega,
    conditional,
    error_probability,
    map_decode_bruteforce,
    priors_from_joint,
    random_cp_channel,
    rate_error_curve,
)


def _sweep_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def test_criterion_1_damping_direct_closed_form():
    """Sweep matches 1 + h(p)/2 - h(p/2) - ((1+p)/2)h(1/(1+p)) at 21 points."""
    t0 = time.perf_counter()
    text = sweep_rates("amplitude_damping", 0.0, 1.0, 21, None)
    elapsed = time.perf_counter() - t0
    rows = _sweep_rows(text)
    assert len(rows) == 21
    worst = 0.0
    for row in rows:
        want = closed_form_example_rates("amplitude_damping_direct", row["param"])
        worst = max(worst, abs(row["sixstate_direct"] - want))
    assert worst <= 1e-9
    mid = [r for r in rows if abs(r["param"] - 0.5) < 1e-12][0]
    assert abs(mid["sixstate_direct"]) <= 1e-9
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: damping direct matches closed form at 21 points "
        f"(max dev {worst:.2e}), zero at p=0.5, {elapsed:.2f}s"
    )


def test_criterion_2_damping_reverse_beats_direct():
    """Reverse rate above direct on (0,1); reverse(0.5) = 0.188722 +/- 1e-6."""
    for p in np.arange(0.05, 0.951, 0.05):
        choi = choi_from_affine(make_amplitude_damping(float(p)))
        direct = keyrate(choi, "direct").raw_rate
        reverse = keyrate(choi, "reverse").raw_rate
        assert reverse > direct, f"reverse {reverse} <= direct {direct} at p={p}"
    rev_half = keyrate(choi_from_affine(make_amplitude_damping(0.5)), "reverse").raw_rate
    assert rev_half == pytest.approx(0.188722, abs=1e-6)
    print(
        f"\nPASS criterion 2: reverse > direct on the damping family, "
        f"reverse(0.5) = {rev_half:.6f}"
    )


def test_criterion_3_rotation_worst_case_and_limit():
    """F(omega)=1 to 1e-9, rate = 1 - h(sin^2(theta/2)) to 1e-9, positive key
    above the 25% error point where the two-entropy baseline is negative."""
    worst_f = worst_rate = 0.0
    for theta in np.arange(0.1, 3.001, 0.1):
        ch = make_rotation(float(theta))
        om = ObservableParams.from_channel(ch)
        f = worst_case_ambiguity(om, "direct")
        worst_f = max(worst_f, abs(f - 1.0))
        joint = joint_tables(ch, (Basis.Z, Basis.Z))[0, 1]
        rate = f - cond_entropy(joint)
        want = 1.0 - binary_entropy(math.sin(theta / 2) ** 2)
        worst_rate = max(worst_rate, abs(rate - want))
    assert worst_f <= 1e-9
    assert worst_rate <= 1e-9

    theta = 1.2
    err = math.sin(theta / 2) ** 2
    assert err == pytest.approx(0.3188, abs=2e-4)
    assert err > 0.25
    rate = closed_form_example_rates("rotation", theta)
    baseline = 1.0 - 2.0 * binary_entropy(err)
    assert rate > 0
    assert baseline < 0
    print(
        f"\nPASS criterion 3: F=1 (max dev {worst_f:.1e}), rate matches closed form "
        f"(max dev {worst_rate:.1e}); at theta=1.2 error={err:.4f}>25%, "
        f"rate={rate:.4f}>0, baseline={baseline:.4f}<0"
    )


def test_criterion_4_singular_value_bound_equality():
    """Unital omegas: search equals the closed-form bound to 1e-6; general
    omegas never fall below it."""
    rng = np.random.default_rng(20240404)
    worst_eq = 0.0
    for _ in range(100):
        ch = random_cp_channel(rng)
        om = ObservableParams(ch.r[0, 0], ch.r[0, 1], ch.r[1, 0], ch.r[1, 1], 0.0, 0.0)
        assert feasible_interval(om) is not None
        worst_eq = max(
            worst_eq, abs(worst_case_ambiguity(om) - worst_case_lower_bound(om, "direct"))
        )
    assert worst_eq <= 1e-6
    worst_gap = np.inf
    for _ in range(100):
        om = ObservableParams.from_channel(random_cp_channel(rng))
        gap = worst_case_ambiguity(om) - worst_case_lower_bound(om, "direct")
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-9
    print(
        f"\nPASS criterion 4: unital equality max dev {worst_eq:.2e}; "
        f"non-unital min slack {worst_gap:.2e} >= -1e-9"
    )


def test_criterion_5_convexity_and_full_completions():
    """Ambiguity convex over channel mixtures; completions with all hidden
    parameters free never undercut the reduced worst-case search."""
    from qkdpost.channels import AffineChannel

    rng = np.random.default_rng(20240405)
    for _ in range(200):
        a = random_cp_channel(rng)
        b = random_cp_channel(rng)
        amb_a = choi_ambiguity(choi_from_affine(a), "direct")
        amb_b = choi_ambiguity(choi_from_affine(b), "direct")
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            mix = AffineChannel(lam * a.r + (1 - lam) * b.r, lam * a.t + (1 - lam) * b.t)
            amb_mix = choi_ambiguity(choi_from_affine(mix), "direct")
            assert amb_mix <= lam * amb_a + (1 - lam) * amb_b + 1e-9

    undercut = 0.0
    for _ in range(4):
        ch = random_cp_channel(rng)
        om = ObservableParams.from_channel(ch)
        iv = feasible_interval(om)
        f = worst_case_ambiguity(om)
        for comp in completions_of_omega(ch, iv, rng, 50):
            amb = choi_ambiguity(choi_from_affine(comp), "direct")
            undercut = max(undercut, f - amb)
            assert amb >= f - 1e-6
    print(
        f"\nPASS criterion 5: convexity holds on 200 mixtures; 4x50 full "
        f"completions undercut at most {undercut:.2e} <= 1e-6"
    )


def test_criterion_6_tomography_consistency():
    """Median direct-rate error falls monotonically over 1e4/1e5/1e6 samples
    per cell for both example channels; projections stay valid."""
    t0 = time.perf_counter()
    sizes = [10**4, 10**5, 10**6]
    for name, ch in (("rotation 0.5", make_rotation(0.5)), ("damping 0.3", make_amplitude_damping(0.3))):
        medians = rate_error_curve(ch, "sixstate", sizes, trials=50, seed=1234)
        assert medians[0] > medians[1] > medians[2], f"{name}: {medians}"
    rng = np.random.default_rng(77)
    for _ in range(20):
        tally = sample_tally(make_amplitude_damping(0.3), SIXSTATE_BASES, 10**4, rng)
        est = estimate_rates_sixstate(tally)
        check_choi(est.choi, 1e-8)
        assert np.linalg.eigvalsh(est.choi)[0] >= -1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: estimation error monotone over sample sizes, {elapsed:.1f}s")


def test_criterion_7_reconciliation():
    """Frame errors, oracle agreement on decodes, and the conditional-entropy
    floor inequality."""
    joint = joint_tables(make_amplitude_damping(0.3), (Basis.Z, Basis.Z))[0, 1]
    hxy = cond_entropy(joint)
    n = 10_000
    m = int(np.ceil(n * (cond_entropy(joint) + 0.1)))
    code = gen_parity_check(n, m, seed=2024)
    rng = np.random.default_rng(4321)
    fails = 0
    for _ in range(50):
        flat = rng.choice(4, size=n, p=joint.ravel())
        x, y = (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)
        res = sp_decode(code, syndrome(code, x), joint, y)
        if not (res.converged and np.array_equal(res.bits, x)):
            fails += 1
    assert fails <= 5, f"frame error rate {fails}/50 above 10%"

    # oracle agreement is scored over decodes: a non-converged run returns no
    # decode (the protocol aborts), so there is nothing to compare
    rng = np.random.default_rng(321)
    agree = conv = 0
    for _ in range(500):
        nn = int(rng.integers(10, 17))
        mm = int(np.ceil(nn * (hxy + 0.2)))
        small = gen_parity_check(nn, mm, seed=int(rng.integers(1e9)))
        flat = rng.choice(4, size=nn, p=joint.ravel())
        x, y = (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)
        syn = syndrome(small, x)
        priors = priors_from_joint(joint, y)
        res = sp_decode(small, syn, joint, y)
        if not res.converged:
            continue
        conv += 1
        agree += np.array_equal(res.bits, map_decode_bruteforce(small, syn, priors))
    assert conv >= 300, f"only {conv}/500 trials converged"
    assert agree / conv >= 0.95, f"agreement {agree}/{conv} below 95%"

    rng = np.random.default_rng(111)
    strict = 0
    for _ in range(1000):
        table = rng.dirichlet(np.ones(4)).reshape(2, 2)
        hx = cond_entropy(table)
        hw = binary_entropy(error_probability(table))
        assert hx <= hw + 1e-12
        cond = conditional(table)
        if abs(cond[0, 0] - cond[1, 1]) > 1e-6:
            assert hw > hx - 1e-12
            strict += hw > hx + 1e-9
    assert strict > 900
    print(
        f"\nPASS criterion 7: FER {fails}/50 <= 10%; oracle agreement "
        f"{agree}/{conv} = {agree / conv:.1%} on decodes ({conv}/500 converged); "
        f"floor inequality strict on {strict} asymmetric joints"
    )


def test_criterion_8_end_to_end_simulation():
    """Full run on damping 0.2: matching keys, empirical rate near the
    analytic budget, byte-identical reports under fixed seeds."""
    cfg = ProtocolConfig(
        protocol="sixstate",
        channel=make_amplitude_damping(0.2),
        direction="direct",
        n_signals=100_000,
        margin=0.1,
        epsilon=0.01,
        seed_channel=3,
        seed_code=1003,
        seed_hash=2003,
    )
    rep = run_protocol(cfg)
    assert rep.abort_reason == "none"
    assert rep.decode_success
    assert rep.keys_equal
    expect = closed_form_example_rates("amplitude_damping_direct", 0.2) - cfg.margin - cfg.epsilon
    gap = abs(rep.empirical_key_rate - expect)
    assert gap <= 0.05, f"empirical rate off budget by {gap:.4f}"
    assert run_protocol(cfg).canonical_text() == rep.canonical_text()
    print(
        f"\nPASS criterion 8: keys equal, empirical rate {rep.empirical_key_rate:.4f} "
        f"within {gap:.4f} of budget {expect:.4f}, reports byte-identical"
    )
