"""Record the output digests the benchmark checks for listed seeds.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/pin.py --seeds 1 2 3 4 5 6 7 8 9 10

For every workload and seed it does the workload's cold runs and the
ROV campaign of each input variant at the workload's size and writes their digests
(study result, table dump, VRP set, ``verdict_digest``, what-if deltas)
to ``digests.json``.
Re-pin only when a change is meant to alter the program's outputs, and
say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    bench = run.Bench()
    path = run.HERE / "digests.json"
    pinned = json.loads(path.read_text())
    for name, spec in sorted(run.WORKLOADS.items()):
        for seed in args.seeds:
            session = run.Session(bench, spec, seed, {}, run.Tally(), 1,
                                  run.Pace())
            for _ in range(spec.cold_runs):
                session.run_cold()
            for variant in range(spec.variants):
                session.run_rov(variant)
            pinned.setdefault(name, {})[str(seed)] = {
                "cold": {str(v): d for v, d in session.cold_digests.items()},
                "rov": {str(v): d for v, d in session.rov_digests.items()},
            }
            print(f"{name} seed {seed} pinned")
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
