"""End-to-end benchmark of the analysis system, with a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot-cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time,
throughput, latency percentiles, peak memory); ``--trace 1`` runs the
same seeded stream with spans installed and prints the per-layer
metrics instead.  ``--smoke`` runs every workload both ways for about
a second each and checks that every metric ``BENCHMARK.json``
declares is printed with its unit and that nothing failed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
state the environment, the sample counts and the per-cell rows.
"""

from __future__ import annotations

import argparse
import json

import hermetic
from declared import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up, and stop mid-round when time "
                             "is up (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload quickly, both ways, "
                             "and check the printed metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.smoke:
        import smoke
        return smoke.run_all(args.seed, args.seconds)
    workdir = hermetic.enter()
    try:
        import measure
        document = measure.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir, args.quick)
        print(json.dumps(document, sort_keys=True))
        return 0
    finally:
        hermetic.leave()


if __name__ == "__main__":
    raise SystemExit(main())
