"""Decode pools: the benchmark's reconciliation work, gated against a record.

A pool holds the decodes ``run_protocol`` makes for every setting of a
``blockbench/stream.py`` workload at each channel seed of
``CHANNEL_SEED_POOL``, with ``seed_code`` 2.  The decodes are recorded
from ``run_protocol`` itself, by wrapping the ``syndrome`` and
``sp_decode`` it calls, so a block that ends before decoding is in no pool.

``tests/data/decode_pools.json`` records, per pool, the decodes, those that
converge, the mean sweeps (a failure counts as ``sp_decode``'s default
``max_iter``, 100, which ``run_protocol`` uses), and the converged words
that differ from the source.  A decoder change that converges fewer, needs
more sweeps on average, or decodes more wrong words fails here; one that
improves a pool records the new values, which

    PYTHONPATH=src python tests/test_decode_pools.py

writes to the file from ``pool_decodes``.
"""

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qkdpost import ProtocolConfig, run_protocol, simulate
from qkdpost.reconciliation import _group_count, sp_decode, syndrome

from conftest import flooding_oracle, priors_from_joint

ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = ROOT / "tests" / "data" / "decode_pools.json"
RECORD = json.loads(RECORD_PATH.read_text())
MAX_ITER = inspect.signature(sp_decode).parameters["max_iter"].default


class Decode(NamedTuple):
    converged: bool
    sweeps: int
    wrong: bool
    # None for a code of several check groups
    as_flooding: bool | None


def pool_decodes(stream, workload):
    """One Decode for every decode ``run_protocol`` makes on the workload's
    pool; a one-group decode is compared with ``flooding_oracle``."""
    sources, decodes = [], []

    def syndrome_of_source(code, word):
        sources.append(word)
        return syndrome(code, word)

    def recorded_decode(code, syn, joint, observed, *args):
        res = sp_decode(code, syn, joint, observed, *args)
        as_flooding = None
        if _group_count(code.num_edges) == 1:
            want = flooding_oracle(code, syn, priors_from_joint(joint, observed), *args)
            as_flooding = np.array_equal(res.bits, want.bits) and (
                (res.converged, res.iterations) == (want.converged, want.iterations)
            )
        wrong = res.converged and not np.array_equal(res.bits, sources[-1])
        sweeps = res.iterations if res.converged else MAX_ITER
        decodes.append(Decode(res.converged, sweeps, wrong, as_flooding))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "syndrome", syndrome_of_source)
        mp.setattr(simulate, "sp_decode", recorded_decode)
        for setting in stream.WORKLOADS[workload]:
            for seed_channel in stream.CHANNEL_SEED_POOL:
                run_protocol(
                    ProtocolConfig(
                        protocol=setting.protocol,
                        channel=stream.CHANNELS[setting.channel](),
                        direction=setting.direction,
                        n_signals=setting.n_signals,
                        seed_channel=seed_channel,
                        seed_code=2,
                    )
                )
    assert len(sources) == len(decodes)
    return decodes


def pool_record(decodes) -> dict:
    """A pool's entry in ``decode_pools.json``."""
    return {
        "decodes": len(decodes),
        "converged": sum(d.converged for d in decodes),
        "mean_sweeps": float(np.mean([d.sweeps for d in decodes])),
        "wrong_words": sum(d.wrong for d in decodes),
    }


@pytest.fixture(scope="module")
def pools():
    """The pool of a workload, run on its first use."""
    # stream.py imports its sibling modules by their bare names
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "blockbench"))
        stream = importlib.import_module("stream")
        yield functools.cache(lambda workload: pool_decodes(stream, workload))


@pytest.mark.parametrize("workload", sorted(RECORD))
def test_pool_decodes_no_worse_than_the_record(pools, workload):
    want, got = RECORD[workload], pool_record(pools(workload))
    assert got["decodes"] == want["decodes"]
    assert got["converged"] >= want["converged"]
    assert got["mean_sweeps"] <= want["mean_sweeps"] + 1e-9
    assert got["wrong_words"] <= want["wrong_words"]


def test_short_pool_decodes_as_flooding(pools):
    """Every short-blocks code is one check group and decodes bit for bit as
    ``flooding_oracle``.  Summing the totals in check order instead of the
    layout's order parts the two on 8 of these 256 decodes."""
    assert all(d.as_flooding for d in pools("short-blocks"))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "blockbench"))
    stream = importlib.import_module("stream")
    lines = [
        f" {json.dumps(workload)}: {json.dumps(pool_record(pool_decodes(stream, workload)))}"
        for workload in sorted(stream.WORKLOADS)
    ]
    RECORD_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
