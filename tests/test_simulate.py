import importlib
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkdpost.channels import (
    PauliProbs,
    make_amplitude_damping,
    make_identity,
    make_pauli,
    make_rotation,
)
from qkdpost.keyrate import DIRECTIONS, closed_form_example_rates
from qkdpost.simulate import (
    EXCHANGE_CHUNK,
    SWEEP_COLUMNS,
    ProtocolConfig,
    load_config,
    parse_config,
    run_protocol,
    simulate_exchange,
    sweep_rates,
)

from conftest import exchange_oracle


class TestConfig:
    def test_parse_round_values(self):
        cfg = parse_config(
            """
            protocol = bb84
            direction = reverse
            channel = kind=amplitude_damping p=0.25
            n_signals = 20000
            estimation_fraction = 0.4
            margin = 0.08
            epsilon = 0.02
            seed_channel = 5
            seed_code = 6
            seed_hash = 7
            """
        )
        assert cfg.protocol == "bb84"
        assert cfg.direction == "reverse"
        assert cfg.n_signals == 20000
        assert cfg.channel.t[0] == pytest.approx(0.25)

    def test_rejects_unknown_keys_and_values(self):
        with pytest.raises(ValueError):
            parse_config("protocol = b92")
        with pytest.raises(ValueError):
            parse_config("flux_capacitor = 1")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("protocol=sixstate\nchannel=kind=rotation theta=0.5\nn_signals=5000\n")
        cfg = load_config(path)
        assert cfg.protocol == "sixstate"
        assert cfg.n_signals == 5000

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(direction="sideways")
        with pytest.raises(ValueError):
            ProtocolConfig(estimation_fraction=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(n_signals=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("margin", 0.0),
            ("margin", -0.1),
            ("epsilon", -0.1),
            ("max_iter", 0),
            ("ldpc_col_weight", 1),
            ("seed_channel", -1),
            ("seed_code", -1),
            ("seed_hash", -2),
        ],
    )
    def test_security_and_decoder_fields_checked_at_build(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            parse_config(f"{field} = {value}")


class TestExchange:
    def test_identity_channel_never_flips_matched_pairs(self):
        cfg = ProtocolConfig(
            protocol="sixstate", channel=make_identity(), n_signals=20_000, seed_channel=3
        )
        ex = simulate_exchange(cfg)
        assert np.array_equal(ex.x_key, ex.y_key)
        for ib in range(3):
            cell = ex.tally.counts[ib, ib]
            assert cell[0, 1] == 0 and cell[1, 0] == 0

    def test_rotation_flip_rate_within_three_sigma(self):
        theta = 0.8
        cfg = ProtocolConfig(
            protocol="bb84", channel=make_rotation(theta), n_signals=100_000, seed_channel=4
        )
        ex = simulate_exchange(cfg)
        flips = (ex.x_key != ex.y_key).mean()
        want = math.sin(theta / 2) ** 2
        sigma = math.sqrt(want * (1 - want) / ex.x_key.size)
        assert abs(flips - want) <= 3 * sigma

    def test_damping_flips_only_from_one(self):
        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=make_amplitude_damping(0.3),
            n_signals=100_000,
            seed_channel=5,
        )
        ex = simulate_exchange(cfg)
        from_zero = ((ex.x_key == 0) & (ex.y_key == 1)).sum()
        assert from_zero == 0
        rate_from_one = ((ex.x_key == 1) & (ex.y_key == 0)).sum() / (ex.x_key == 1).sum()
        sigma = math.sqrt(0.3 * 0.7 / (ex.x_key == 1).sum())
        assert abs(rate_from_one - 0.3) <= 3 * sigma

    def test_estimation_fraction_controls_the_split(self):
        cfg = ProtocolConfig(
            protocol="bb84",
            channel=make_identity(),
            n_signals=40_000,
            estimation_fraction=0.25,
            seed_channel=6,
        )
        ex = simulate_exchange(cfg)
        assert ex.tally.counts.sum() == 10_000
        # remaining z/z pairs: ~ 30000 / 4
        assert abs(ex.x_key.size - 7_500) < 500


C = EXCHANGE_CHUNK
# (n_signals, estimation_fraction): odd n, n at the chunk size and one off it,
# the estimation prefix ending one before, at and one after a chunk boundary
EXCHANGE_SIZES = (
    (1001, 0.05),
    (20_001, 0.5),
    (20_001, 0.97),
    (C - 1, 0.5),
    (C, 0.05),
    (C + 1, 0.97),
    (2 * C, (C - 1) / (2 * C)),
    (2 * C, 0.5),
    (2 * C, (C + 1) / (2 * C)),
    (3 * C + 7, 0.97),
)
EXCHANGE_CHANNELS = {
    "damping": make_amplitude_damping(0.2),
    "rotation": make_rotation(0.7),
    "pauli": make_pauli(PauliProbs(0.85, 0.05, 0.06, 0.04)),
}


@pytest.mark.parametrize("channel", sorted(EXCHANGE_CHANNELS))
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("protocol", ["bb84", "sixstate"])
def test_exchange_draws_the_oracle_stream(protocol, direction, channel):
    """The chunked exchange gives the tally and keys of the full-length oracle."""
    for k, (n, fraction) in enumerate(EXCHANGE_SIZES):
        for seed in (k, 100 + k):
            cfg = ProtocolConfig(
                protocol=protocol,
                direction=direction,
                channel=EXCHANGE_CHANNELS[channel],
                n_signals=n,
                estimation_fraction=fraction,
                seed_channel=seed,
            )
            got, want = simulate_exchange(cfg), exchange_oracle(cfg)
            assert np.array_equal(got.tally.counts, want.tally.counts), (n, fraction, seed)
            for a, b in ((got.x_key, want.x_key), (got.y_key, want.y_key)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, fraction, seed)


def test_exchange_memory_is_bytes_per_signal():
    # one uint8 cell per signal plus chunk-sized temporaries: about 1.5 MiB
    # here, against 43 MiB for the full-length oracle
    cfg = ProtocolConfig(protocol="bb84", channel=make_amplitude_damping(0.1), n_signals=10**6)
    tracemalloc.start()
    try:
        simulate_exchange(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestRunProtocol:
    def test_identity_run_hits_the_budget(self):
        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=make_identity(),
            n_signals=20_000,
            margin=0.05,
            epsilon=0.01,
            seed_channel=1,
            seed_code=2,
            seed_hash=3,
        )
        rep = run_protocol(cfg)
        assert rep.abort_reason == "none"
        assert rep.keys_equal
        # identity: ambiguity 1, cond entropy ~0, so rate ~ 1 - margin - eps up
        # to the ambiguity-estimate noise at ~1.1k samples per tally cell
        assert rep.decided_cond_entropy == 0.0
        assert rep.empirical_key_rate == pytest.approx(1 - 0.05 - 0.01, abs=0.04)

    def test_reports_are_byte_identical(self):
        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=make_amplitude_damping(0.2),
            n_signals=30_000,
            seed_channel=8,
            seed_code=9,
            seed_hash=10,
        )
        a = run_protocol(cfg).canonical_text()
        b = run_protocol(cfg).canonical_text()
        assert a == b
        assert "timing" not in a

    def test_reverse_direction_distills_from_bob(self):
        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=make_amplitude_damping(0.3),
            direction="reverse",
            n_signals=60_000,
            seed_channel=11,
            seed_code=12,
            seed_hash=13,
        )
        rep = run_protocol(cfg)
        assert rep.abort_reason == "none"
        assert rep.keys_equal

    def test_mismatched_direction_uses_cross_basis_block(self):
        cfg = ProtocolConfig(
            protocol="bb84",
            channel=make_rotation(1.2),
            direction="mismatched",
            n_signals=60_000,
            seed_channel=14,
            seed_code=15,
            seed_hash=16,
        )
        rep = run_protocol(cfg)
        assert rep.abort_reason == "none"
        assert rep.keys_equal
        # mismatched z->x pairs are a quarter of the non-estimation signals
        assert abs(rep.n_key - 7_500) < 400

    def test_mismatched_direction_sixstate(self):
        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=make_rotation(1.3),
            direction="mismatched",
            n_signals=90_000,
            seed_channel=21,
            seed_code=22,
            seed_hash=23,
        )
        rep = run_protocol(cfg)
        assert rep.abort_reason == "none"
        assert rep.keys_equal
        # z->x pairs are one ninth of the non-estimation signals
        assert abs(rep.n_key - 5_000) < 350

    def test_nonpositive_rate_aborts_cleanly(self):
        # near-depolarizing channel: no extractable key
        from qkdpost.channels import AffineChannel

        cfg = ProtocolConfig(
            protocol="sixstate",
            channel=AffineChannel(np.diag([0.05, 0.05, 0.05]), np.zeros(3)),
            n_signals=20_000,
            seed_channel=17,
            seed_code=18,
            seed_hash=19,
        )
        rep = run_protocol(cfg)
        assert rep.abort_reason in ("nonpositive_rate", "syndrome_rate_full")
        assert rep.key_length == 0
        assert not rep.keys_equal

    def test_keys_equal_implies_decode_success(self):
        for seed in range(4):
            cfg = ProtocolConfig(
                protocol="bb84",
                channel=make_amplitude_damping(0.25),
                n_signals=24_000,
                seed_channel=seed,
                seed_code=seed + 50,
                seed_hash=seed + 100,
            )
            rep = run_protocol(cfg)
            if rep.keys_equal:
                assert rep.decode_success
            if not rep.decode_success:
                assert rep.key_length == 0


ROOT = Path(__file__).resolve().parents[1]
PINNED_REPORTS = json.loads((ROOT / "tests" / "data" / "canonical_reports.json").read_text())
PINNED_CHANNELS = {"damping-0.1": make_amplitude_damping(0.1), "rotation-1.4": make_rotation(1.4)}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_canonical_report_matches_pinned_text(name):
    """Default-seed reports at 20,000 signals, pinned as text: any change to
    one of them is a change of result, not of form."""
    protocol, direction, channel = name.split("-", 2)
    cfg = ProtocolConfig(
        protocol=protocol,
        direction=direction,
        channel=PINNED_CHANNELS[channel],
        n_signals=20_000,
    )
    assert run_protocol(cfg).canonical_text() == PINNED_REPORTS[name]


def _benchmark_tracing():
    spec = importlib.util.spec_from_file_location(
        "blockbench_tracing", ROOT / "blockbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_patch_points_resolve():
    # the traced benchmark run wraps these module attributes in place, so each
    # must stay bound to a callable under its module
    tracing = _benchmark_tracing()
    targets = [t[:2] for t in tracing.SPAN_TARGETS] + [t[:2] for t in tracing.COUNT_TARGETS]
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_benchmark_trace_reads_every_per_layer_count():
    # the trace reads counts such as rows_fixed, num_edges and iterations
    # from return values; trace.overhead_s is computed by the stream instead
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    channel = make_amplitude_damping(0.1)
    with tracer.installed():
        for block, protocol in enumerate(("bb84", "sixstate")):
            with tracer.block(block):
                run_protocol(ProtocolConfig(protocol=protocol, channel=channel, n_signals=20_000))
    metrics = tracer.layer_metrics(2)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in per_layer} - {"trace.overhead_s"} <= set(metrics)


class TestSweep:
    def test_columns_and_determinism(self, tmp_path):
        path = tmp_path / "rates.csv"
        text = sweep_rates("amplitude_damping", 0.0, 1.0, 11, path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0].startswith("# qkdpost rates sweep v1")
        assert lines[1] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 13
        assert sweep_rates("amplitude_damping", 0.0, 1.0, 11) == text

    def test_damping_crossing_and_reverse_advantage(self):
        text = sweep_rates("amplitude_damping", 0.0, 1.0, 21)
        rows = _parse_sweep(text)
        by_p = {round(r["param"], 3): r for r in rows}
        assert by_p[0.5]["sixstate_direct"] == pytest.approx(0.0, abs=1e-9)
        assert by_p[0.5]["sixstate_reverse"] == pytest.approx(0.1887218755408672, abs=1e-6)
        for r in rows:
            if 0.05 <= r["param"] <= 0.95:
                assert r["sixstate_reverse"] > r["sixstate_direct"]

    def test_rotation_rates_match_closed_forms(self):
        text = sweep_rates("rotation", 0.1, 3.0, 30)
        for r in _parse_sweep(text):
            theta = r["param"]
            flip = math.sin(theta / 2) ** 2
            want = closed_form_example_rates("rotation", theta)
            assert r["bb84_direct"] == pytest.approx(want, abs=1e-9)
            assert r["sixstate_direct"] == pytest.approx(want, abs=1e-9)
            from qkdpost.entropy import binary_entropy

            assert r["conventional_bb84"] == pytest.approx(1 - 2 * binary_entropy(flip), abs=1e-9)

    def test_ordering_invariants(self):
        for family, lo, hi in (("amplitude_damping", 0.0, 0.9), ("rotation", 0.1, 2.9)):
            for r in _parse_sweep(sweep_rates(family, lo, hi, 12)):
                assert r["sixstate_direct"] >= r["bb84_direct"] - 1e-9
                assert r["bb84_direct"] >= r["conventional_bb84"] - 1e-9
                assert r["sixstate_direct"] >= r["conventional_sixstate"] - 1e-9


def _parse_sweep(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rows.append({k: float(v) for k, v in zip(header, ln.split(","))})
    return rows
