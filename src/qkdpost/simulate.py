"""End-to-end protocol simulation and analytic key-rate sweeps.

``run_protocol`` plays both parties of one post-processing session over a
simulated channel: exchange and sifting, channel estimation on the sacrificed
fraction, rate decision, syndrome reconciliation of the remaining block, and
privacy amplification down to the decided key length.  Every random draw is
controlled by one of three named seeds, so a config reproduces its report
byte for byte (wall-clock timings are kept out of the canonical text).

``sweep_rates`` writes the analytic rate table of a one-parameter channel
family as CSV; the values are unclamped, so negative entries mean the
corresponding processing aborts there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channels import (
    PSD_TOL,
    AffineChannel,
    Basis,
    choi_from_affine,
    format_channel_spec,
    joint_tables,
    make_amplitude_damping,
    make_rotation,
    parse_channel_spec,
)
from .entropy import cond_entropy
from .hashing import apply_hash, key_length, sample_hash
from .keyrate import (
    RateReport,
    channel_key_joint,
    key_bases,
    key_party,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
)
from .reconciliation import (
    COL_WEIGHT,
    gen_parity_check,
    sp_decode,
    syndrome,
)
from .tomography import (
    BB84_BASES,
    SIXSTATE_BASES,
    TallyTable,
    empirical_key_joint,
    estimate_rates_bb84,
    estimate_rates_sixstate,
)
from .worstcase import ObservableParams, worst_case_ambiguity

SWEEP_FORMAT_VERSION = 1
SWEEP_COLUMNS = (
    "param",
    "sixstate_direct",
    "sixstate_reverse",
    "bb84_direct",
    "bb84_reverse",
    "mismatched",
    "conventional_bb84",
    "conventional_sixstate",
)


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str = "sixstate"
    channel: AffineChannel = field(default_factory=lambda: make_amplitude_damping(0.0))
    direction: str = "direct"
    n_signals: int = 100_000
    estimation_fraction: float = 0.5
    margin: float = 0.1
    epsilon: float = 0.01
    seed_channel: int = 1
    seed_code: int = 2
    seed_hash: int = 3

    def __post_init__(self):
        if self.protocol not in ("bb84", "sixstate"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        key_party(self.direction)  # checks the direction
        if not 0.0 < self.estimation_fraction < 1.0:
            raise ValueError("estimation fraction must be inside (0, 1)")
        if self.n_signals < 1000:
            raise ValueError("need at least 1000 signals for a meaningful run")
        # above 1 the syndrome would cover the whole block
        if not 0.0 < self.margin <= 1.0:
            raise ValueError(f"margin must be inside (0, 1], got {self.margin}")
        # above 1 no key is possible
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be inside [0, 1], got {self.epsilon}")
        for name in ("seed_channel", "seed_code", "seed_hash"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        # the exchange would silently clip a non-physical channel's probabilities
        if (ev := np.linalg.eigvalsh(choi_from_affine(self.channel))[0]) < -PSD_TOL:
            raise ValueError(f"channel is not completely positive (Choi min eigenvalue {ev:.3e})")

    @property
    def bases(self) -> tuple[Basis, ...]:
        return SIXSTATE_BASES if self.protocol == "sixstate" else BB84_BASES


# every ProtocolConfig field but the channel is a plain str, int or float
_CONFIG_KEYS = {
    f.name: {"str": str, "int": int, "float": float}[f.type]
    for f in fields(ProtocolConfig)
    if f.name != "channel"
}


def parse_config(text: str) -> ProtocolConfig:
    """Key = value lines, each key once; the channel value is a one-line spec."""
    kwargs, key_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} without '=': {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        parse = parse_channel_spec if key == "channel" else _CONFIG_KEYS.get(key)
        if parse is None:
            raise ValueError(f"config line {lineno}: unknown config key {key!r}")
        if (first := key_line.setdefault(key, lineno)) != lineno:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {first}")
        try:
            kwargs[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}, key {key!r}: {exc}") from None
    return ProtocolConfig(**kwargs)


def load_config(path) -> ProtocolConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


# Signals per draw call: each chunk allocates a few int64 / float64 arrays
# of this length, and consecutive draws continue one stream unchanged.
EXCHANGE_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExchangeResult:
    tally: TallyTable
    x_key: np.ndarray
    y_key: np.ndarray


def _chunks(n: int):
    for start in range(0, n, EXCHANGE_CHUNK):
        yield start, min(start + EXCHANGE_CHUNK, n)


def simulate_exchange(config: ProtocolConfig) -> ExchangeResult:
    """Sample one session's raw data.

    Uniform bit and uniform basis on both sides.  The first
    ``estimation_fraction`` of the signals feeds the tally (all basis pairs);
    of the remainder only the configured key basis pair is kept, as aligned
    (x, y) sequences.

    Stream contract: a ``default_rng(seed_channel)`` draws n int64 values of
    Alice's bits, then n of Alice's bases, then n of Bob's bases, then n
    uniforms that decide Bob's bits.  Each is drawn in chunks of
    ``EXCHANGE_CHUNK``; consecutive draws continue the same stream, so the
    values do not depend on the chunk size.  The three integer draws are
    kept as one uint8 cell per signal, (Alice basis, Bob basis, x), so the
    exchange holds O(n) bytes.
    """
    rng = np.random.default_rng(config.seed_channel)
    bases = config.bases
    nb = len(bases)
    n = config.n_signals
    # cell = (a * nb + b) * 2 + x, the tally's index without Bob's bit
    cell = np.zeros(n, np.uint8)
    for high, weight in ((2, 1), (nb, 2 * nb), (nb, 2)):  # x, then a, then b
        for start, stop in _chunks(n):
            # the int64 draw keeps the stream; a uint8 draw would pack the words
            draw = rng.integers(0, high, size=stop - start).astype(np.uint8)
            cell[start:stop] += draw * weight
    # P(y = 1 | cell); the factor 2 undoes P(x) = 1/2 exactly
    p1 = 2.0 * joint_tables(config.channel, bases)[..., 1].reshape(-1)

    n_est = int(round(n * config.estimation_fraction))
    ia_key, ib_key = (bases.index(b) for b in key_bases(config.direction))
    key_pair = ia_key * nb + ib_key
    counts = np.zeros(nb * nb * 4, np.int64)
    x_parts, y_parts = [np.zeros(0, np.uint8)], [np.zeros(0, np.uint8)]
    for start, stop in _chunks(n):
        u = rng.random(stop - start)
        split = min(max(n_est - start, 0), stop - start)
        if split:
            est = cell[start : start + split]
            flat = 2 * est + (u[:split] < p1[est])
            counts += np.bincount(flat, minlength=counts.size)
        if split < stop - start:
            tail = cell[start + split : stop]
            pos = np.flatnonzero(tail >> 1 == key_pair)
            key = tail[pos]
            x_parts.append(key & 1)
            y_parts.append((u[split:][pos] < p1[key]).astype(np.uint8))
    tally = TallyTable(counts.reshape(nb, nb, 2, 2), bases)
    return ExchangeResult(tally, np.concatenate(x_parts), np.concatenate(y_parts))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protocol run.

    The fields after ``decided_rate`` default to their abort values, and
    ``abort_reason`` to "none", a key.  nonpositive_rate and
    syndrome_rate_full set none of them, decode_failure ``syndrome_rate``,
    zero_key_length also ``decode_success`` and ``decode_iterations``, and a
    key all.  ``timings`` holds wall-clock seconds per stage and is excluded
    from :meth:`canonical_text` so reports stay reproducible.
    """

    protocol: str
    direction: str
    n_signals: int
    n_key: int
    channel_estimate: str
    decided_ambiguity: float
    decided_cond_entropy: float
    decided_rate: float
    syndrome_rate: float = 0.0
    decode_success: bool = False
    decode_iterations: int = 0
    key_length: int = 0
    keys_equal: bool = False
    empirical_key_rate: float = 0.0
    abort_reason: str = "none"
    timings: dict = field(default_factory=dict, compare=False)

    def canonical_text(self) -> str:
        lines = [f"# qkdpost run report v{SWEEP_FORMAT_VERSION}"]
        for name in (f.name for f in fields(self) if f.name != "timings"):
            value = getattr(self, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"


def _estimate_for_run(config: ProtocolConfig, tally: TallyTable):
    """Decided rate report, prior-feeding joint, and estimate summary text.

    Ambiguity comes from the tomographic pipeline, about the key party's
    bits.  The conditional entropy comes from the empirical key-pair joint:
    the reconciliation statistics are directly observable, so the syndrome
    rate and the decoder priors use the raw cell rather than the smoothed
    joint of the projected channel estimate; near-deterministic channels
    would otherwise pick up a large upward entropy bias from the noise floor.
    """
    joint = empirical_key_joint(tally, config.direction)
    ce = cond_entropy(joint)
    if config.protocol == "sixstate":
        est = estimate_rates_sixstate(tally)
        estimate_text = format_channel_spec(est.channel)
    else:
        est = estimate_rates_bb84(tally)
        estimate_text = "omega " + " ".join(repr(float(v)) for v in est.omega.as_array())
    ambiguity = (est.direct, est.reverse)[key_party(config.direction)].ambiguity
    return RateReport.build(ambiguity, ce), joint, estimate_text


def run_protocol(config: ProtocolConfig) -> RunReport:
    timings: dict = {}
    t0 = time.perf_counter()
    exchange = simulate_exchange(config)
    timings["exchange_s"] = time.perf_counter() - t0
    n_key = int(exchange.x_key.shape[0])

    t0 = time.perf_counter()
    rep, joint, estimate_text = _estimate_for_run(config, exchange.tally)
    timings["estimate_s"] = time.perf_counter() - t0

    report = RunReport(
        protocol=config.protocol, direction=config.direction, n_signals=config.n_signals,
        n_key=n_key, channel_estimate=estimate_text, decided_ambiguity=rep.ambiguity,
        decided_cond_entropy=rep.cond_entropy, decided_rate=rep.key_rate, timings=timings,
    )
    if rep.raw_rate <= 0.0:
        return replace(report, abort_reason="nonpositive_rate")

    # H(key | helper) plus the finite-length margin
    m = int(np.ceil(n_key * (rep.cond_entropy + config.margin)))
    # a code needs COL_WEIGHT checks at least; the extra ones are disclosed too
    m = max(m, COL_WEIGHT)
    if m >= n_key:
        return replace(report, abort_reason="syndrome_rate_full")
    report = replace(report, syndrome_rate=m / n_key)

    # source holds the key party's sequence, the key's origin; the helper decodes
    party = key_party(config.direction)
    bits = (exchange.x_key, exchange.y_key)
    source, helper = bits[party], bits[1 - party]

    t0 = time.perf_counter()
    code = gen_parity_check(n_key, m, seed=config.seed_code)
    timings["code_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    syn = syndrome(code, source)
    result = sp_decode(code, syn, joint, helper)
    timings["decode_s"] = time.perf_counter() - t0

    if not result.converged:
        return replace(report, abort_reason="decode_failure")
    report = replace(report, decode_success=True, decode_iterations=result.iterations)

    ell = key_length(n_key, m, rep.ambiguity, config.epsilon)
    if ell == 0:
        return replace(report, abort_reason="zero_key_length")

    t0 = time.perf_counter()
    desc = sample_hash(ell, n_key, config.seed_hash)
    key_source = apply_hash(desc, source)
    key_helper = apply_hash(desc, result.bits)
    timings["hash_s"] = time.perf_counter() - t0

    return replace(
        report,
        key_length=ell,
        keys_equal=bool(np.array_equal(key_source, key_helper)),
        empirical_key_rate=ell / n_key,
    )


# ---------------------------------------------------------------------------
# analytic sweeps
# ---------------------------------------------------------------------------


def make_family_channel(family: str, param: float) -> AffineChannel:
    if family == "amplitude_damping":
        return make_amplitude_damping(param)
    if family == "rotation":
        return make_rotation(param)
    raise ValueError(f"unknown channel family {family!r}")


def sweep_row(ch: AffineChannel) -> dict[str, float]:
    """All analytic rates for one channel; unclamped."""
    choi = choi_from_affine(ch)
    direct = keyrate(choi, "direct")
    reverse = keyrate(choi, "reverse")
    mismatched = keyrate(choi, "mismatched")
    omega = ObservableParams.from_channel(ch)
    bb84 = {
        d: worst_case_ambiguity(omega, d) - cond_entropy(channel_key_joint(ch, d))
        for d in ("direct", "reverse")
    }
    return {
        "sixstate_direct": direct.raw_rate,
        "sixstate_reverse": reverse.raw_rate,
        "bb84_direct": bb84["direct"],
        "bb84_reverse": bb84["reverse"],
        "mismatched": mismatched.raw_rate,
        "conventional_bb84": keyrate_conventional_bb84(ch.r[0, 0], ch.r[1, 1]),
        "conventional_sixstate": keyrate_conventional_sixstate(np.diag(ch.r)),
    }


def sweep_rates(family: str, start: float, stop: float, steps: int, out_path) -> str:
    """CSV of analytic rates over an inclusive parameter grid."""
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep range {start}..{stop} is not finite")
    grid = np.linspace(start, stop, steps)
    lines = [
        f"# qkdpost rates sweep v{SWEEP_FORMAT_VERSION} family={family}",
        ",".join(SWEEP_COLUMNS),
    ]
    for param in grid:
        row = sweep_row(make_family_channel(family, float(param)))
        values = [repr(float(param))] + [repr(float(row[c])) for c in SWEEP_COLUMNS[1:]]
        lines.append(",".join(values))
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    return text
