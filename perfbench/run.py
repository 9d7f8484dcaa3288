"""Benchmark of the cocenter verifier, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --trace 1          # every workload, one after another

Each workload runs in a fresh interpreter of its own, one at a time.  With
--trace 0 the result reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); with --trace 1 it reports the per-layer metrics of a traced
set-up and round.  The last line of standard output is the result as JSON:
{"correct", "attempted", "failed", "metrics"}; without --workload it maps
each workload to its result.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gl3-restriction", "gl2-induction-descent", "ff-induced-classes",
             "discriminant-identity")
CHILD_TIMEOUT_S = 170


def run_workload(name, seed, seconds, trace):
    """The workload's result, or None when it produced none."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "measure.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"   {metric:55s} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
