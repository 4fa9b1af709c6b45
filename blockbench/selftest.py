"""Self-tests of the block-stream benchmark, on tiny blocks.

    python3 blockbench/selftest.py

Takes under a minute.  Scaled runs skip the reference-ambiguity check,
because reference.json holds values for the full-size blocks only.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stream  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402

import qkdpost.simulate  # noqa: E402

TINY = 0.05


def launch(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(stream.HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", str(TINY),
        ],
        capture_output=True,
        text=True,
        cwd=stream.ROOT,
        timeout=300,
    )


def targets():
    return [
        (importlib.import_module(mod), attr)
        for mod, attr, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    ]


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        spec = json.loads((stream.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            for workload in stream.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = launch(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units
                    )
                    for name, unit in units.items():
                        self.assertTrue(
                            any(line.startswith(f"{name} = ") and f" {unit} (" in line
                                for line in lines),
                            f"{name} [{unit}] not printed",
                        )
                    self.assertTrue(any(line.startswith("fail_frac = ") for line in lines))
                    if not trace:
                        self.assertTrue(any(line.startswith("block_tail_s") for line in lines))


class OutputCheck(unittest.TestCase):
    def test_key_mismatch_counts_as_failed(self):
        original = qkdpost.simulate.apply_hash
        calls = []

        def flip_helper_bit(desc, x):
            key = original(desc, x)
            calls.append(1)
            # run_protocol hashes the source first and the decoded helper second
            if len(calls) % 2 == 0 and key.size:
                key = key.copy()
                key[0] ^= 1
            return key

        qkdpost.simulate.apply_hash = flip_helper_bit
        try:
            result = stream.run_untraced(stream.BlockStream("long-blocks", 3, TINY), 0, None)
        finally:
            qkdpost.simulate.apply_hash = original
        mismatched = [line for line in result["failures"] if stream.KEYS_DIFFER in line]
        self.assertTrue(calls)
        self.assertEqual(len(mismatched), len(calls) // 2)
        self.assertGreaterEqual(result["blocks_failed"], len(mismatched))
        # a frame error fails the block; the report that states it is correct,
        # so it is not a failed operation of the JSON line
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_raising_block_is_a_wrong_output(self):
        original = qkdpost.simulate.sp_decode

        def broken(*args, **kwargs):
            raise FloatingPointError("injected")

        qkdpost.simulate.sp_decode = broken
        try:
            tracer = tracing.Tracer()
            with tracer.installed():
                records = stream.run_stream(
                    stream.BlockStream("noisy-blocks", 3, TINY), 0, None, tracer
                )
        finally:
            qkdpost.simulate.sp_decode = original
        raised = [r for r in records if r.reasons and r.reasons[0].startswith("raised")]
        self.assertTrue(raised)
        self.assertTrue(all(r.wrong for r in raised))
        self.assertEqual(tracer.layer_metrics(len(records))["reconciliation.decode_iters"], 0)

    def test_clean_run_is_correct(self):
        result = stream.run_untraced(stream.BlockStream("noisy-blocks", 3, TINY), 0, None)
        self.assertTrue(result["correct"], result["failures"])


class Tracing(unittest.TestCase):
    def test_self_times_within_wall(self):
        tracer = tracing.Tracer()
        with tracer.installed():
            records = stream.run_stream(
                stream.BlockStream("short-blocks", 5, TINY), 0, None, tracer
            )
        wall = sum(r.seconds for r in records)
        self.assertLessEqual(tracer.total_self_time(), wall)
        for root in (s for s in tracer.spans if s.name == tracing.BLOCK):
            inside = sum(s.self_time for s in tracer.spans if s.block == root.block)
            self.assertLessEqual(inside, root.duration + 1e-9)
        self.assertTrue(all(s.self_time >= -1e-9 for s in tracer.spans))
        seen = {s.name for s in tracer.spans}
        for *_, name, _counts in tracing.SPAN_TARGETS:
            self.assertIn(name, seen)
        self.assertGreater(tracer.counters["worstcase.eig_evals"], 0)

    def test_untraced_run_installs_no_wrapper(self):
        where = targets()
        originals = [getattr(mod, attr) for mod, attr in where]
        snapshots = []
        run_protocol = stream.run_protocol

        def probe(config):
            snapshots.append([getattr(mod, attr) for mod, attr in where])
            return run_protocol(config)

        stream.run_protocol = probe
        try:
            stream.run_untraced(stream.BlockStream("noisy-blocks", 4, TINY), 0, None)
        finally:
            stream.run_protocol = run_protocol
        self.assertTrue(snapshots)
        for snapshot in snapshots:
            for got, original in zip(snapshot, originals):
                self.assertIs(got, original)

    def test_traced_run_restores_originals(self):
        where = targets()
        originals = [getattr(mod, attr) for mod, attr in where]
        with tracing.Tracer().installed():
            self.assertFalse(any(getattr(m, a) is o for (m, a), o in zip(where, originals)))
        for (mod, attr), original in zip(where, originals):
            self.assertIs(getattr(mod, attr), original)


if __name__ == "__main__":
    unittest.main()
