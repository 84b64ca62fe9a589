#!/usr/bin/env python3
"""prompture_ray benchmark: one workload per invocation, one Ray session
with ``num_cpus`` = the CPUs this process may use.

    python3 perfbench/run.py --workload pages_extract --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). The first run in a checkout builds the seeded page pool under
``.perfbench/`` (under a minute on one CPU); later runs reuse it.

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs one repetition, then replays its scan layers serially
with spans and prints the per-layer metrics. Either way every
operation is checked against an independent reference, a human summary
goes to stderr, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import the benchmark as a package from the checkout root, not as loose
# modules from this directory
sys.path[0] = str(ROOT)

from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, WORKLOAD_NAMES)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "prompture_ray" / "__init__.py").is_file():
        print(f"perfbench: no prompture_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    from perfbench import inputs, session
    from perfbench.workloads import WORKLOADS, log

    t0 = time.perf_counter()
    inputs.build_all()
    log(f"inputs ready in {time.perf_counter() - t0:.1f}s")

    wl = WORKLOADS[args.workload](args.workload, args.seed % 2**32)
    try:
        if args.trace:
            values, outcome = wl.trace()
            units = PER_LAYER
        else:
            values, outcome = wl.measure(args.seconds)
            units = END_TO_END
    finally:
        session.stop()
    missing = [k for k in units if k not in values]
    if missing:
        log(f"no value for {missing}")
    correct = outcome.failed == 0 and outcome.attempted > 0 and not missing
    for k, v in values.items():
        log(f"{args.workload}/{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in values.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
