"""pshdiag benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload hull --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of an untraced run.
With ``--trace 1`` it sends a fixed number of rounds twice, untraced and
then traced, prints the per-layer metrics, and writes the spans to
``bench/out/``.  Every answer is checked against the golden results and
the oracles; the last line of output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

import corpus
import harness
from spans import Tracer

SETUP_REPEATS = 9
TRACE_ROUNDS = 2

# tiny requests that run each command once before timing starts
WARMUP = (
    ("diagram", {"input": {"dim": 2, "polys": ["(z1 + z2)^3 + z1*z2"]}}),
    ("newton-number", {"diagram": {"dim": 2, "generators": [["3", "0"], ["1", "1"], ["0", "2"]]}}),
    ("decompose", {"diagram": {"dim": 2, "generators": [["3", "0"], ["1", "1"], ["0", "2"]]}}),
    ("decompose", {"diagram": {"dim": 3, "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}),
    ("classify", {"input": {"dim": 2, "polys": ["z1^2 + z2^3"]}}),
    ("substitute", {"input": {"dim": 2, "polys": ["z1^2 + z2"]}, "matrix": [["1", "0"], ["1", "1"]]}),
)


def setup(workload: str, seed: int):
    """Import, corpus generation, golden load and warm-up, as one timed unit."""
    cli = harness.import_package()
    golden = corpus.load_golden(workload)
    rounds = corpus.corpus(workload, seed, golden)
    manifests = None
    warmup = list(WARMUP)
    if workload == "session":
        warm = {"jobs": 2, "requests": [{"id": str(i), "command": c, "payload": p} for i, (c, p) in enumerate(WARMUP)]}
        warmup = [("batch", warm)]
        manifests = harness.manifest_paths(rounds + [warmup], harness.OUT / f"manifests-{seed}")
    client = harness.Client(cli, manifests)
    for command, payload in warmup:
        client.send(command, payload)
    return rounds, golden, client


def check(measurement: harness.Measurement, golden: dict) -> tuple[int, list[str]]:
    checker = harness.Checker(golden, sys.modules["pshdiag"])
    failed = sum(checker.failures(o) for o in measurement.outcomes)
    return failed, checker.notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups, references = [], [harness.reference_loop()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds, golden, client = setup(workload, seed)
        setups.append(time.perf_counter() - start)
        references.append(harness.reference_loop())

    if not trace:
        # at least 100 latencies, so that ten or more lie above the p90
        min_rounds = math.ceil(100 / len(rounds[0]))
        m = harness.measure(client, rounds, seconds=seconds, min_rounds=min_rounds)
        failed, notes = check(m, golden)
        metrics = {
            "setup_s": (statistics.median(harness.scale_to_reference(setups, references)), "s"),
            "throughput_rps": (m.throughput, "1/s"),
            "latency_p50_ms": (harness.percentile(m.latencies, 50) * 1e3, "ms"),
            "latency_p90_ms": (harness.percentile(m.latencies, 90) * 1e3, "ms"),
            "ok_ratio": (1 - failed / m.requests, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain = harness.measure(client, rounds, seconds=0, min_rounds=TRACE_ROUNDS)
        tracer = Tracer()
        with tracer.installed():
            m = harness.measure(client, rounds, seconds=0, min_rounds=TRACE_ROUNDS,
                                on_request=lambda rid: setattr(tracer, "request", rid))
        harness.OUT.mkdir(exist_ok=True)
        tracer.write(harness.OUT / f"spans-{workload}-{seed}.jsonl")
        failed, notes = check(m, golden)
        metrics = tracer.layer_metrics()
        metrics["bench.trace.overhead_rps"] = (plain.throughput - m.throughput, "1/s")

    for note in notes:
        print(note, file=sys.stderr)
    print(f"reference loop: median {statistics.median(m.references) * 1e3:.3f} ms over {len(m.references)} loops"
          f" (timed metrics are scaled to {harness.REFERENCE_MS} ms)", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": m.requests,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pshdiag benchmark")
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (harness.MissingPackage, FileNotFoundError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
