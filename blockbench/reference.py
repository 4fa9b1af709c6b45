"""Record the reference decided ambiguity of every pooled channel realisation.

The benchmark fails a block whose decided ambiguity moves away from the value
recorded here.  Each entry is computed through the public estimation path
(``simulate_exchange`` then ``estimate_rates_*``), not through
``run_protocol``, so the check does not compare the runner with itself.  The
tally does not depend on the reconciliation direction, so one entry holds
both directions.  Rerun only when a change is meant to move the estimate:

    python3 blockbench/reference.py
"""

from __future__ import annotations

import json

from stream import CHANNEL_SEED_POOL, CHANNELS, REFERENCE_PATH, WORKLOADS, reference_key

from qkdpost import (
    ProtocolConfig,
    estimate_rates_bb84,
    estimate_rates_sixstate,
    simulate_exchange,
)


def record() -> dict[str, dict[str, float]]:
    entries = {}
    for settings in WORKLOADS.values():
        for s in settings:
            for seed in CHANNEL_SEED_POOL:
                key = reference_key(s.protocol, s.channel, s.n_signals, seed)
                if key in entries:
                    continue
                config = ProtocolConfig(
                    protocol=s.protocol,
                    channel=CHANNELS[s.channel](),
                    n_signals=s.n_signals,
                    seed_channel=seed,
                )
                tally = simulate_exchange(config).tally
                estimate = (
                    estimate_rates_bb84 if s.protocol == "bb84" else estimate_rates_sixstate
                )(tally)
                entries[key] = {
                    "direct": estimate.direct.ambiguity,
                    "reverse": estimate.reverse.ambiguity,
                }
    return dict(sorted(entries.items()))


def main() -> None:
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump({"ambiguity": record()}, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
