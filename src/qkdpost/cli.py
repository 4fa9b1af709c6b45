"""Command-line interface.

Subcommands
-----------
rates     analytic key-rate sweep over a channel family, CSV output
bound     closed-form worst-case ambiguity bound for a channel spec file
estimate  key rates from a tally CSV (``a,b,x,y,count`` rows)
simulate  full protocol run from a config file
decode    standalone syndrome decoding on files

Bit sequences on disk are single lines of ASCII 0/1, or ``hex <nbits> <hex>``.
Exit codes: 0 success (including a clean protocol abort), 1 usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channels import load_channel_spec
from .keyrate import DIRECTIONS, channel_key_joint
from .reconciliation import read_alist, sp_decode
from .simulate import load_config, run_protocol, sweep_rates
from .tomography import (
    EstimationError,
    ProjectionError,
    TallyTable,
    estimate_rates_bb84,
    estimate_rates_sixstate,
)
from .worstcase import ObservableParams, worst_case_ambiguity, worst_case_lower_bound


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full: ``--step`` is not ``--steps``; subcommand
    # parsers are made with this class, so the default reaches them too
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def read_bits(path) -> np.ndarray:
    """First bit line of the file; malformed input raises ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("hex "):
                try:
                    _, nbits, digits = line.split()
                    nbits = int(nbits)
                    if not 0 <= nbits <= 4 * len(digits):
                        raise ValueError(f"bit count {nbits} not in 0..{4 * len(digits)}")
                    raw = np.frombuffer(bytes.fromhex(digits), dtype=np.uint8)
                    return np.unpackbits(raw)[:nbits]
                except ValueError as exc:
                    raise ValueError(
                        f"{path} line {lineno}: expected 'hex <nbits> <digits>' ({exc})"
                    ) from None
            bits = np.frombuffer(line.encode(), np.uint8) - ord("0")
            if (bits <= 1).all():
                return bits
            raise ValueError(f"{path} line {lineno}: unrecognized bit line {line[:40]!r}")
    raise ValueError(f"no bit data in {path}")


def _bit_text(bits: np.ndarray) -> str:
    """A 0/1 sequence as one line of ASCII digits, without the newline."""
    return (np.asarray(bits, np.uint8) + ord("0")).tobytes().decode()


def write_bits(path, bits: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_bit_text(bits) + "\n")


def _cmd_rates(args) -> int:
    text = sweep_rates(args.channel_family, args.start, args.stop, args.steps, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.steps} rows to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    ch = load_channel_spec(args.channel)
    omega = ObservableParams.from_channel(ch)
    # BB84 statistics see only omega, so omega alone must admit a channel
    if omega.interval is None:
        raise ValueError(f"{args.channel}: omega admits no completely positive completion")
    directions = ("direct", "reverse") if args.direction == "both" else (args.direction,)
    for d in directions:
        bound = worst_case_lower_bound(omega, d)
        print(f"bound_{d}={bound!r}")
        if args.exact:
            print(f"worst_case_{d}={worst_case_ambiguity(omega, d)!r}")
    return 0


def _cmd_estimate(args) -> int:
    tally = TallyTable.from_csv(args.tally)
    sixstate = (args.protocol or tally.protocol) == "sixstate"
    if sixstate and tally.protocol != "sixstate":
        raise ValueError(f"{args.tally}: six-state estimation needs tallies in all three bases")
    est = estimate_rates_sixstate(tally) if sixstate else estimate_rates_bb84(tally)
    print(f"projected={'true' if est.projected else 'false'}")
    if est.choi is None:  # a BB84 estimate knows omega, the values its text lists
        print("omega=" + est.text.removeprefix("omega "))
    for name, rep in zip(DIRECTIONS, (est.direct, est.reverse, est.mismatched)):
        print(
            f"{name}: ambiguity={rep.ambiguity!r} cond_entropy={rep.cond_entropy!r} "
            f"key_rate={rep.key_rate!r}"
        )
    print(f"conventional_bb84={est.conventional_bb84!r}")
    if est.conventional_sixstate is not None:
        print(f"conventional_sixstate={est.conventional_sixstate!r}")
    return 0


def _cmd_simulate(args) -> int:
    seeds = {k: v for k, v in vars(args).items() if k.startswith("seed_") and v is not None}
    report = run_protocol(replace(load_config(args.config), **seeds))
    text = report.canonical_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    total = sum(report.timings.values())
    print(f"# total wall time {total:.2f}s", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    matrix = read_alist(args.matrix)
    syn = read_bits(args.syndrome)
    if syn.shape != (matrix.m,):
        raise ValueError(f"{args.syndrome} holds {syn.size} bits, the matrix has m={matrix.m}")
    observed = read_bits(args.observed)
    if observed.shape != (matrix.n,):
        raise ValueError(f"{args.observed} holds {observed.size} bits, the matrix has n={matrix.n}")
    joint = channel_key_joint(load_channel_spec(args.channel), args.direction)
    result = sp_decode(matrix, syn, joint, observed, args.max_iter)
    print(f"converged={'true' if result.converged else 'false'}")
    print(f"iterations={result.iterations}")
    if args.out:
        write_bits(args.out, result.bits)
    else:
        print(_bit_text(result.bits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdpost", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qkdpost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="analytic key-rate sweep as CSV")
    p.add_argument("--channel-family", required=True, choices=("amplitude_damping", "rotation"))
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("bound", help="worst-case ambiguity bound for a channel spec")
    p.add_argument("--channel", required=True, help="channel spec file")
    p.add_argument("--direction", default="both", choices=("direct", "reverse", "both"))
    p.add_argument("--exact", action="store_true", help="also run the worst-case search")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("estimate", help="key rates from a tally CSV")
    p.add_argument("--tally", required=True)
    p.add_argument("--protocol", default=None, choices=("bb84", "sixstate"))
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="full protocol run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed-channel", dest="seed_channel", type=int, default=None)
    p.add_argument("--seed-code", dest="seed_code", type=int, default=None)
    p.add_argument("--seed-hash", dest="seed_hash", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", help="standalone syndrome decoding on files")
    p.add_argument("--matrix", required=True, help="parity-check matrix, alist format")
    p.add_argument("--syndrome", required=True, help="syndrome bit file")
    p.add_argument("--observed", required=True, help="helper-side sequence bit file")
    p.add_argument("--channel", required=True, help="channel spec file for the priors")
    p.add_argument("--direction", default="direct", choices=DIRECTIONS)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EstimationError, ProjectionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
