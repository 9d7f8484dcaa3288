"""Run one workload in this interpreter and print its result as JSON.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts this in a fresh interpreter per workload.  The program is
imported from the checkout's own `src/`, nowhere else.  The last line of
standard output is the result; the per-round samples (or, traced, the
aggregated spans) go to `perfbench/results/`.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cocenter" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'cocenter'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        result, detail = harness.traced_run(workload, args.seed)
        stem = f"trace-{args.workload}-seed{args.seed}"
    else:
        result, detail = harness.timed_run(workload, args.seed, args.seconds)
        stem = f"{args.workload}-seed{args.seed}"
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{stem}.json", "w") as out:
        json.dump({"workload": args.workload, "seed": args.seed, "result": result,
                   "detail": detail}, out, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
