"""Record the golden result of every request in every workload pool.

Run ``python3 bench/make_golden.py`` only at a commit whose outputs are
trusted: later commits are checked against this file, so regenerating it
elsewhere would hide a changed verdict or witness.  Every golden answer
must also pass the oracles.  Each entry also keeps the request's cost in
ms (the faster of two sends), which ``corpus.corpus`` uses to balance
rounds.  Batch outputs are stored as SHA-256 digests, of the whole output
and of each entry, to keep the file small.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import corpus
import harness


def timed_send(client, command, payload):
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        outcome = client.send(command, payload)
        elapsed = time.perf_counter() - t0
        if outcome.code is None:
            raise SystemExit(f"{command}: {outcome.output}")
        best = elapsed if best is None else min(best, elapsed)
    return outcome, round(best * 1e3, 2)


def main() -> int:
    cli = harness.import_package()
    pkg = sys.modules["pshdiag"]
    golden = {}
    for workload in corpus.WORKLOADS:
        pools = {name: [req for images in variants for req in images]
                 for name, variants in corpus.pools(workload).items()}
        client = harness.Client(cli, harness.manifest_paths(pools.values(), harness.OUT / "golden-manifests"))
        checker = harness.Checker({}, pkg)
        entries = {}
        for name, requests in pools.items():
            for command, payload in requests:
                outcome, ms = timed_send(client, command, payload)
                if command == "batch":
                    output = json.loads(outcome.output)["results"]
                    entry = {"code": outcome.code, "sha256": harness.sha256(outcome.output),
                             "entries": {rid: harness.sha256(harness.canonical(r)) for rid, r in output.items()}}
                    checked = [(e["command"], e["payload"], output[e["id"]]["result"]) for e in payload["requests"]]
                else:
                    entry = {"code": outcome.code, "result": outcome.output}
                    checked = [(command, payload, outcome.output)]
                for args in checked:
                    if not checker.oracles_hold(*args):
                        raise SystemExit(f"{workload}/{name}: {checker.notes[-1]}")
                entries[corpus.request_key(command, payload)] = {**entry, "ms": ms}
            costs = [entries[corpus.request_key(*req)]["ms"] for req in requests]
            print(f"{workload:8} {name:14} n={len(costs):3} median={statistics.median(costs):8.1f} ms "
                  f"max={max(costs):8.1f} ms", file=sys.stderr)
        golden[workload] = entries
    with open(corpus.GOLDEN, "w") as fh:
        json.dump({"pshdiag": pkg.__version__, "workloads": golden}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
