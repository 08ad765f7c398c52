"""Benchmark of authenticated quantile queries over q-digests.

    python3 perfbench/run.py --workload kvc_query --seed 0 --seconds 20 --trace 0

Runs one workload (kvc_query, wda_stream or cli_roundtrip) in this
process against the package source in ../src, checks every output
against an independent oracle, and prints one JSON object as the last
line of standard output: whether all checks held, the operations
attempted and failed, and the metrics.  With --trace 0 these are the
end-to-end metrics; with --trace 1 the run records spans and SHA-256
call counts and reports the per-layer metrics instead.  See README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import CheckFailed
from speed import measure
from tracing import PROBE, SETUP, Tracer, install_hash_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Per-layer times: the median duration of the spans of that name, in the
# unit the name ends with.  A layer is taken from the timed loop where the
# workload calls it there, else from the probe.
SPAN_METRICS = [
    "tree.postorder_walk_ms",
    "tree.postorder_rank_us",
    "digest.build_ms",
    "digest.query_us",
    "scenario.window_update_ms",
    "serialize.encode_us",
    "serialize.decode_us",
    "wda.auth_us",
    "wda.verify_us",
    "commitment.commit_ms",
    "commitment.subtree_ms",
    "kvcqa.prove_ms",
    "kvcqa.prove_attack_ms",
    "kvcqa.verify_ms",
    "kvcqa.reject_ms",
    "kvcqa.proof_codec_us",
    "cli.build_ms",
    "cli.merge_ms",
    "cli.auth_ms",
    "cli.prove_ms",
    "cli.verify_ms",
    "cli.verify_accelerated_ms",
    "cli.verify_wda_ms",
]
# Per-layer counts: the mean of the values recorded under that name.
COUNT_METRICS = ["digest.buckets", "kvcqa.verify_insert_ops", "kvcqa.counted_buckets"]
_UNIT_FACTOR = {"ms": 1e3, "us": 1e6}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["kvc_query", "wda_stream", "cli_roundtrip"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used for the repeated set-ups)")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import qdigest_auth from this checkout's src, never from anywhere else."""
    package = SRC / "qdigest_auth"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {package}")
    sys.path.insert(0, str(SRC))
    import qdigest_auth

    if Path(qdigest_auth.__file__).resolve().parent != package:
        sys.exit(f"error: imported qdigest_auth from {qdigest_auth.__file__}, not {package}")


def time_setup(workload, tracer) -> float:
    total = 0.0
    for i, step in enumerate(workload.setup_steps()):
        tracer.op = (SETUP, i)
        _, elapsed, tracer.scale[tracer.op] = measure(step)
        total += elapsed * tracer.scale[tracer.op]
    return total


def fresh_setup_seconds(args) -> float:
    """Set-up time measured in a new process, so no cache of this one helps it."""
    argv = [sys.executable, "-B", __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Loop:
    """Repeats whole cycles of the workload's operations for at least `seconds`.

    The host's speed swings from one operation to the next, so each
    operation of the cycle is timed by the median of its repeats, and the
    rates and the median latency are computed from those medians.
    """

    def __init__(self):
        self.times: list[list[float]] = []  # scaled seconds of each repeat, per operation of the cycle
        self.completed: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.wire_bytes = 0
        self.errors: set[str] = set()

    def run(self, workload, tracer, seconds: float) -> None:
        ops = workload.cycle()
        self.times = [[] for _ in ops]
        self.completed = [True for _ in ops]
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                tracer.op = self.attempted
                self.attempted += 1
                try:
                    outcome, elapsed, tracer.scale[tracer.op] = measure(op)
                except Exception as exc:
                    # Only a verifier that raises on a bad proof is a failed operation,
                    # and the workload returns that as an outcome; anything else is wrong.
                    raise CheckFailed(f"operation {tracer.op} raised\n{traceback.format_exc()}") from exc
                self.times[i].append(elapsed * tracer.scale[tracer.op])
                self.wire_bytes += outcome.wire_bytes
                if outcome.failed:
                    self.failed += 1
                    self.completed[i] = False
                    self.errors.add(outcome.error)
                else:
                    outcome.check()
            if time.perf_counter() - start >= seconds:
                return

    def _medians(self) -> list[tuple[float, bool]]:
        """(median seconds, completed) of each operation of the cycle that ran."""
        return [(statistics.median(t), ok) for t, ok in zip(self.times, self.completed) if t]

    def any_completed(self) -> bool:
        return any(ok for _, ok in self._medians())

    def op_per_s(self) -> float:
        """Operations completed per second, failed ones' time included."""
        medians = self._medians()
        return sum(ok for _, ok in medians) / sum(m for m, _ in medians)

    def op_p50_ms(self) -> float:
        """Median latency over the completed operations of the cycle."""
        return statistics.median(m for m, ok in self._medians() if ok) * 1e3


def per_layer_metrics(tracer, loop: Loop) -> dict:
    def first_measured(name, values_in):
        for phase in (None, PROBE):
            values = values_in(phase)
            if values:
                return values
        raise RuntimeError(f"nothing measured for {name}")

    metrics = {}
    for name in SPAN_METRICS:
        stem, _, unit = name.rpartition("_")
        values = first_measured(name, lambda phase: tracer.durations(stem, phase))
        metrics[name] = (statistics.median(values) * _UNIT_FACTOR[unit], unit)
    for name in COUNT_METRICS:
        values = first_measured(name, lambda phase: tracer.recorded(name, phase))
        metrics[name] = (sum(values) / len(values), "count")
    metrics["commitment.sha256_setup"] = (tracer.sha256_in(SETUP), "count")
    metrics["commitment.sha256_per_op"] = (tracer.sha256_in(None) / loop.attempted, "count")
    metrics["trace.op_p50_ms"] = (loop.op_p50_ms(), "ms")
    metrics["trace.op_per_s"] = (loop.op_per_s(), "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        install_hash_counter(tracer)
    import_package()
    import workloads

    cls = {w.name: w for w in (workloads.KvcQuery, workloads.WdaStream, workloads.CliRoundtrip)}[args.workload]
    # Set-up is timed in this process and in SETUPS - 1 fresh ones; the
    # median is reported, so one slow start does not move it.
    setups = [] if args.trace or args.setup_only else [fresh_setup_seconds(args) for _ in range(cls.SETUPS - 1)]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"tmp-{args.workload}-") as workdir:
        workload = cls(args.seed, tracer, workdir)
        setups.append(time_setup(workload, tracer))
        if args.setup_only:
            print(setups[0])
            return 0
        loop = Loop()
        correct = True
        try:
            workload.check_setup()
            loop.run(workload, tracer, args.seconds)
            if args.trace:
                workloads.probe(tracer, cls.SIGMA, cls.K, workload.probe_freqs, workdir)
        except CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
    for error in sorted(loop.errors):
        print(f"failed operation: {error}", file=sys.stderr)

    if not loop.any_completed():
        print("no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(tracer, loop)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_per_s": (loop.op_per_s(), "1/s"),
            "op_p50_ms": (loop.op_p50_ms(), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "wire_bytes_per_op": (loop.wire_bytes / loop.attempted, "B"),
        }
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    line = json.dumps(result)
    stem.with_suffix(".result.json").write_text(line + "\n", encoding="ascii")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
