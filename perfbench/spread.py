"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload kvc_query --seeds 10 --seconds 20

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles and the spread: the distance between
the first and third quartile as a share of the median.  This is the
figure each end-to-end bound in BENCHMARK.json must stay well above.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28} median {median:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
