"""Block-stream benchmark launcher.

    python3 blockbench/run.py --workload short-blocks --seed 1 --seconds 30 --trace 0

Caps the BLAS/OpenMP thread pools at the CPU count before numpy loads, then
starts ``stream.py`` as a fresh process: a few times with ``--setup-only`` and
once for the measured run.  Set-up time is the wall time from starting a
worker process to its READY line (imports, input generation, warm-up); the
reported ``setup_s`` is the median over all of those starts.

Prints a human-readable report (provenance, every metric with its unit and
sample count, every failed block) and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics.  ``failed`` counts the blocks with a wrong output; frame
errors of the code (decode failures, keys that differ) are correct outputs
and show in the printed ``fail_frac`` only.  Exits 1 when a block produced a
wrong output, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "stream.py"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    with open(BENCHMARK, encoding="utf-8") as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def capped_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_ENV_VARS:
        try:
            current = int(env[var])
        except (KeyError, ValueError):
            current = nproc
        env[var] = str(min(max(current, 1), nproc))
    return env


class WorkerError(RuntimeError):
    pass


def start_worker(args, env, extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up time."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready: {line.strip()!r}")
    return proc, setup


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> tuple[dict, list[float]]:
    env = capped_env(len(os.sched_getaffinity(0)))
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(args, env, ["--setup-only"])
        finish_worker(proc, PROBE_TIMEOUT_S)
        setups.append(setup)
    proc, setup = start_worker(args, env, [])
    setups.append(setup)
    out = finish_worker(proc, PROBE_TIMEOUT_S + 3 * args.seconds)
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), setups


def report(args, res: dict, metrics: dict, units: dict, setups: list[float]) -> None:
    n = res["attempted"]
    prov = res["provenance"]
    print(f"blockbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} scale={args.scale}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in prov["threads"].items()))
    print(f"blocks={n} settings_per_round={res['settings']}")
    if args.trace:
        print("input properties: " + " ".join(f"{k}={v}" for k, v in res["properties"].items()))
        print(f"traced wall {res['traced_wall_s']:.4f} s, untraced wall "
              f"{res['untraced_wall_s']:.4f} s, span self time {res['self_time_s']:.4f} s; "
              f"spans in {res['spans_file']}")
    for name, value in metrics.items():
        count = f"{len(setups)} starts" if name == "setup_s" else f"{n} blocks"
        print(f"{name} = {value:.6g} {units[name]} ({count})")
    if not args.trace:
        tail = res["block_tail"]
        if tail is None:
            print(f"block_tail_s not reported: {n} blocks leave fewer than 10 beyond p75")
        else:
            print(f"block_tail_s = {tail[1]:.6g} s (p{tail[0]} of {n} blocks)")
    print(f"fail_frac = {res['blocks_failed'] / n:.6g} 1 ({res['blocks_failed']} of {n} blocks, "
          f"{res['failed']} of them wrong outputs)")
    for line in res["failures"]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Block-stream benchmark of qkdpost.run_protocol")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="n_signals factor; below 1 only for the self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qkdpost" / "__init__.py").is_file():
        print(f"blockbench: no qkdpost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        end_to_end, per_layer = metric_units()
        units = per_layer if args.trace else end_to_end
        res, setups = measure(args)
    except (OSError, WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"blockbench: {exc}", file=sys.stderr)
        return 2
    measured = dict(res["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    if set(measured) != set(units):
        print(f"blockbench: measured {sorted(measured)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: measured[name] for name in units}
    report(args, res, metrics, units, setups)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
