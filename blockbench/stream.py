"""Closed-loop stream of ``qkdpost.run_protocol`` blocks: the benchmark worker.

One process runs one block at a time and starts the next block only when the
previous one has returned.  A workload is a fixed round of protocol
configurations, run round-robin; the workload seed fixes every per-block seed,
so the same seed gives the same blocks in the same order.

Channel seeds come from a fixed pool, so that every block's decided
ambiguity can be checked against a value recorded in ``reference.json``
(see ``reference.py``).  Code and hash seeds are drawn freely from the
workload seed.

Usually started by ``run.py``, which caps the thread pools, times process
set-up and prints the result.  Direct use:

    python3 blockbench/stream.py --workload short-blocks --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qkdpost  # noqa: E402
from qkdpost import (  # noqa: E402
    ProtocolConfig,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
    run_protocol,
)
from qkdpost.channels import PauliProbs  # noqa: E402

import tracing  # noqa: E402
from run import THREAD_ENV_VARS  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

# A decided ambiguity may move this far from its recorded value before the
# block counts as failed: room for reordered floating-point sums, while a
# change to the estimator itself (1e-5 and up) still shows.  At the largest
# n_key (~37k) it is worth 0.04 key bits.
AMBIGUITY_TOL = 1e-6

CHANNEL_SEED_POOL = tuple(range(1000, 1016))

CHANNELS = {
    "damping-0.02": lambda: make_amplitude_damping(0.02),
    "damping-0.1": lambda: make_amplitude_damping(0.1),
    "damping-0.25": lambda: make_amplitude_damping(0.25),
    "damping-0.3": lambda: make_amplitude_damping(0.3),
    "rotation-0.3": lambda: make_rotation(0.3),
    "pauli-0.94": lambda: make_pauli(PauliProbs(0.94, 0.02, 0.02, 0.02)),
    "pauli-0.90": lambda: make_pauli(PauliProbs(0.9, 0.04, 0.03, 0.03)),
}


@dataclass(frozen=True)
class Setting:
    """One configuration of a workload's round."""

    protocol: str
    direction: str
    channel: str
    n_signals: int

    @property
    def label(self) -> str:
        return f"{self.protocol}/{self.direction}/{self.channel}/n={self.n_signals}"


def _round(channels, n_signals):
    # protocols alternate, so a run cut inside a round still holds both
    return tuple(
        Setting(p, d, c, n_signals[p])
        for c in channels
        for d in ("direct", "reverse")
        for p in ("bb84", "sixstate")
    )


WORKLOADS = {
    "short-blocks": _round(
        ("damping-0.02", "damping-0.1", "rotation-0.3", "pauli-0.94"),
        {"bb84": 20_000, "sixstate": 20_000},
    ),
    "long-blocks": _round(
        ("damping-0.1", "pauli-0.94"),
        {"bb84": 300_000, "sixstate": 300_000},
    ),
    "noisy-blocks": _round(
        ("damping-0.25", "damping-0.3", "pauli-0.90"),
        {"bb84": 100_000, "sixstate": 200_000},
    ),
}


def reference_key(protocol: str, channel: str, n_signals: int, seed_channel: int) -> str:
    return f"{protocol}/{channel}/{n_signals}/{seed_channel}"


@dataclass(frozen=True)
class Block:
    index: int
    setting_index: int
    setting: Setting
    config: ProtocolConfig

    @property
    def label(self) -> str:
        c = self.config
        return (
            f"{self.setting.label} seed_channel={c.seed_channel} "
            f"seed_code={c.seed_code} seed_hash={c.seed_hash}"
        )


class BlockStream:
    """The workload's blocks in order, generated from the workload seed.

    Round r runs every setting once.  Each setting walks through its own
    permutation of the channel-seed pool, drawn afresh every len(pool)
    rounds.  ``scale`` shrinks n_signals for the self-tests.
    """

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.workload = workload
        self.settings = WORKLOADS[workload]
        self.scale = scale
        self._rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        self._channels = {s.channel: CHANNELS[s.channel]() for s in self.settings}
        self._perms: np.ndarray | None = None
        self._blocks: list[Block] = []

    def __getitem__(self, i: int) -> Block:
        while len(self._blocks) <= i:
            self._blocks.append(self._next(len(self._blocks)))
        return self._blocks[i]

    def _next(self, i: int) -> Block:
        nset = len(self.settings)
        rnd, k = divmod(i, nset)
        pool = len(CHANNEL_SEED_POOL)
        if k == 0 and rnd % pool == 0:
            self._perms = np.stack([self._rng.permutation(pool) for _ in range(nset)])
        s = self.settings[k]
        seed_code, seed_hash = (int(v) for v in self._rng.integers(0, 2**31, size=2))
        config = ProtocolConfig(
            protocol=s.protocol,
            channel=self._channels[s.channel],
            direction=s.direction,
            n_signals=max(1000, int(round(s.n_signals * self.scale))),
            seed_channel=CHANNEL_SEED_POOL[int(self._perms[k, rnd % pool])],
            seed_code=seed_code,
            seed_hash=seed_hash,
        )
        return Block(i, k, s, config)


def load_reference() -> dict[str, dict[str, float]]:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)["ambiguity"]


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

DECODE_FAILURE = "decode_failure"
KEYS_DIFFER = "keys differ"
FRAME_ERRORS = (DECODE_FAILURE, KEYS_DIFFER)


def check_block(block: Block, report, reference) -> list[str]:
    """Reasons the block failed; empty when it passed.

    Frame errors of the code, a decode-failure abort or a decode that
    converged to the wrong word (keys differ), fail the block, but the
    report states them, so they are correct outputs.  Every other reason
    means a wrong output.  The other aborts (nonpositive_rate,
    syndrome_rate_full, zero_key_length) are correct decisions and pass.
    ``reference`` is None when no recorded ambiguities apply (scaled
    self-test runs).
    """
    reasons = []
    if report.abort_reason == DECODE_FAILURE:
        reasons.append(DECODE_FAILURE)
    cfg = block.config
    if reference is not None:
        key = reference_key(cfg.protocol, block.setting.channel, cfg.n_signals, cfg.seed_channel)
        expected = reference[key][cfg.direction]
        if abs(report.decided_ambiguity - expected) > AMBIGUITY_TOL:
            reasons.append(
                f"decided_ambiguity {report.decided_ambiguity!r} is off the reference "
                f"{expected!r} by more than {AMBIGUITY_TOL}"
            )
    if report.abort_reason == "none":
        if not report.keys_equal:
            reasons.append(KEYS_DIFFER)
        m = round(report.syndrome_rate * report.n_key)
        ledger = math.floor(
            report.n_key * report.decided_ambiguity - m - report.n_key * cfg.epsilon
        )
        if report.key_length != ledger:
            reasons.append(f"key_length {report.key_length} breaks the ledger value {ledger}")
    elif report.key_length != 0:
        reasons.append(f"abort {report.abort_reason} with key_length {report.key_length}")
    return reasons


@dataclass(frozen=True)
class Record:
    """What one block did; ``seconds`` is the wall time of run_protocol."""

    block: Block
    seconds: float
    n_key: int
    key_length: int
    decoded: bool
    reasons: tuple[str, ...]
    report_text: str

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def wrong(self) -> bool:
        return any(r not in FRAME_ERRORS for r in self.reasons)


def run_block(block: Block, reference, tracer=None) -> Record:
    ctx = tracer.block(block.index) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            report = run_protocol(block.config)
    except Exception as exc:  # a raising block is a failed block, not a crash
        seconds = time.perf_counter() - t0
        return Record(block, seconds, 0, 0, False, (f"raised {exc!r}",), "")
    seconds = time.perf_counter() - t0
    return Record(
        block,
        seconds,
        report.n_key,
        report.key_length,
        report.decode_success,
        tuple(check_block(block, report, reference)),
        report.canonical_text(),
    )


def run_stream(stream: BlockStream, seconds: float, reference, tracer=None) -> list[Record]:
    """Blocks back to back until ``seconds`` have passed and a full round ran."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < len(stream.settings):
        records.append(run_block(stream[len(records)], reference, tracer))
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def _round_sum(records, value) -> float:
    """Sum over settings of the setting's mean ``value``, each channel
    realisation of the setting weighted equally.

    This is the value of one round in which every setting runs every
    realisation once, so it does not depend on where the run stopped
    inside a round or a pass through the pool."""
    cells: dict[tuple[int, int], list[float]] = {}
    for r in records:
        cells.setdefault((r.block.setting_index, r.block.config.seed_channel), []).append(value(r))
    settings: dict[int, list[float]] = {}
    for (k, _), values in cells.items():
        settings.setdefault(k, []).append(statistics.fmean(values))
    return sum(statistics.fmean(v) for v in settings.values())


def end_to_end_metrics(records: list[Record]) -> dict[str, float]:
    """Throughput and latency of a round of the workload.

    Over whole rounds and whole passes through the channel-seed pool the
    ratios equal sum(ell) / sum(block time) and so on.  The median is the
    median over settings of each setting's median block time.
    """
    seconds = _round_sum(records, lambda r: r.seconds)
    key_bits = _round_sum(records, lambda r: r.key_length)
    by_setting: dict[int, list[float]] = {}
    for r in records:
        by_setting.setdefault(r.block.setting_index, []).append(r.seconds)
    return {
        "key_bits_per_s": key_bits / seconds,
        "reconciled_bits_per_s": _round_sum(records, lambda r: r.n_key * r.decoded) / seconds,
        "block_p50_s": statistics.median(statistics.median(v) for v in by_setting.values()),
        "key_fraction": key_bits / _round_sum(records, lambda r: r.n_key),
    }


def block_tail(records: list[Record]):
    """(percentile, seconds) at the highest percentile with at least ten
    blocks beyond it, or None when the run is too short for any."""
    n = len(records)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= TAIL_MIN_BEYOND:
            return q, float(np.percentile([r.seconds for r in records], q))
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance and set-up
# ---------------------------------------------------------------------------


def provenance() -> dict:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qkdpost").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": qkdpost.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_ENV_VARS},
    }


def warm_up() -> None:
    """One small block per protocol, so lazy imports and first-call set-up
    (FFT plans, LAPACK) are paid before timing; no workload block is run."""
    channel = CHANNELS["pauli-0.94"]()
    for protocol in ("sixstate", "bb84"):
        run_protocol(ProtocolConfig(protocol=protocol, channel=channel, n_signals=4000))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _failure_lines(records):
    return [
        f"block {r.block.index} {r.block.label}: {'; '.join(r.reasons)}"
        for r in records
        if r.failed
    ]


def run_untraced(stream: BlockStream, seconds: float, reference) -> dict:
    records = run_stream(stream, seconds, reference)
    metrics = end_to_end_metrics(records)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {**_result(records, metrics, stream), "block_tail": block_tail(records)}


def run_traced(stream: BlockStream, seconds: float, reference, tag: str) -> dict:
    """Traced run for the per-layer metrics, then the same blocks untraced
    for the tracing overhead.  The reports of both passes must agree."""
    tracer = tracing.Tracer()
    with tracer.installed():
        records = run_stream(stream, seconds, reference, tracer)
    traced_wall = sum(r.seconds for r in records)
    untraced_wall = 0.0
    for i, r in enumerate(records):
        again = run_block(r.block, None)
        untraced_wall += again.seconds
        if again.report_text != r.report_text:
            records[i] = dataclasses.replace(
                r, reasons=r.reasons + ("report changed under tracing",)
            )
    metrics = tracer.layer_metrics(len(records))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    result = _result(records, metrics, stream)
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{tag}.jsonl"
    tracer.write(span_path, header={"workload": stream.workload, **result["provenance"]})
    result.update(
        properties=tracer.input_properties(),
        spans_file=str(span_path.relative_to(ROOT)),
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        self_time_s=tracer.total_self_time(),
    )
    return result


def _result(records, metrics, stream) -> dict:
    return {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(r.wrong for r in records),
        "blocks_failed": sum(r.failed for r in records),
        "metrics": metrics,
        "failures": _failure_lines(records),
        "settings": len(stream.settings),
        "provenance": provenance(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="n_signals factor (self-tests)")
    ap.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = ap.parse_args(argv)

    stream = BlockStream(args.workload, args.seed, args.scale)
    reference = load_reference() if args.scale == 1.0 else None
    warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(stream, args.seconds, reference, f"{args.workload}-seed{args.seed}")
    else:
        result = run_untraced(stream, args.seconds, reference)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
