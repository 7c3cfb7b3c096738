"""Send corpus requests to pshdiag, time them and check every answer.

The package is imported from the checkout's own ``src/`` directory.  In
``hull`` and ``decide`` a request goes through ``pshdiag.cli.execute``; in
``session`` a request is one manifest entry and each manifest goes through
``pshdiag.cli.main(["batch", path])``.  One client sends the next request
only after the previous one returned (a closed loop).

Times are scaled to a reference speed of the host.  The machine is shared,
and how fast it runs pure-Python work drifts by a fifth or more within a
minute, far more than the program changes between commits.  So a fixed
loop of standard-library work (``reference_loop``) runs before every
request and after the last one, and each request's time is multiplied by
``REFERENCE_MS`` over the median time of the loops run around it.  A timed
metric then reads in milliseconds of a host on which the loop takes
``REFERENCE_MS``; the loop's own time is not counted.  The loop calls
nothing of pshdiag, so a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from corpus import request_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


class MissingPackage(RuntimeError):
    pass


def import_package():
    """A fresh import of pshdiag from this checkout, returning ``pshdiag.cli``."""
    if not (SRC / "pshdiag" / "__init__.py").is_file():
        raise MissingPackage(f"no pshdiag package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pshdiag" or n.startswith("pshdiag.")]:
        del sys.modules[name]
    cli = importlib.import_module("pshdiag.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise MissingPackage(f"pshdiag imported from {cli.__file__}, not from {SRC}")
    return cli


def manifest_paths(rounds, directory: Path) -> dict[int, Path]:
    """Write each batch manifest to a file, keyed by the payload's ``id()``.

    Keying by object identity keeps hashing out of the timed region; the
    rounds hold the payloads, so the identities stay valid.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for batch in rounds:
        for command, payload in batch:
            path = directory / f"{request_key(command, payload)[:16]}.json"
            path.write_text(json.dumps(payload))
            paths[id(payload)] = path
    return paths


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    command: str
    payload: dict
    code: int | None
    output: object  # result dict, batch stdout text, or the escaped exception


class Client:
    """Sends one request at a time, exactly as a user would."""

    def __init__(self, cli, manifests: dict[int, Path] | None = None):
        self.cli = cli
        self.manifests = manifests or {}

    def send(self, command: str, payload: dict) -> Outcome:
        try:
            if command == "batch":
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = self.cli.main(["batch", str(self.manifests[id(payload)])])
                return Outcome(command, payload, code, buf.getvalue())
            result, code = self.cli.execute(command, payload)
            return Outcome(command, payload, code, result)
        except Exception as exc:  # an escaped exception is a failed request
            return Outcome(command, payload, None, repr(exc))


# --- host speed ----------------------------------------------------------------

# time of one reference_loop on the host speed that timed metrics are scaled to;
# a round figure near its median on the 2-vCPU Intel Xeon VM the bounds were set on
REFERENCE_MS = 8.0
# a duration is scaled by the median of this many reference loops on either side
REFERENCE_WINDOW = 4


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: Fraction arithmetic
    and dict updates, the kind of work pshdiag spends its time on."""
    t0 = time.perf_counter()
    for _ in range(4):
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts: dict[tuple[int, int], int] = {}
        for i in range(1500):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0


def scale_to_reference(durations: list[float], references: list[float]) -> list[float]:
    """Each duration times REFERENCE_MS over the median reference loop around it.

    ``references[i]`` ran just before ``durations[i]`` and ``references[-1]``
    after the last one.
    """
    assert len(references) == len(durations) + 1
    w = REFERENCE_WINDOW
    return [
        d * REFERENCE_MS * 1e-3 / statistics.median(references[max(0, i - w + 1) : i + w + 1])
        for i, d in enumerate(durations)
    ]


@dataclass
class Measurement:
    raw: list[float] = field(default_factory=list)  # seconds per send(), as timed
    references: list[float] = field(default_factory=list)  # reference loops around the sends
    outcomes: list[Outcome] = field(default_factory=list)
    requests: int = 0  # (command, payload) pairs, counting batch entries

    @property
    def latencies(self) -> list[float]:
        """Seconds per send(), scaled to the reference speed."""
        return scale_to_reference(self.raw, self.references)

    @property
    def throughput(self) -> float:
        """Requests per second of scaled request time."""
        return self.requests / sum(self.latencies)


def requests_in(command: str, payload: dict) -> int:
    return len(payload["requests"]) if command == "batch" else 1


def measure(client: Client, rounds, *, seconds: float, min_rounds: int = 1, on_request=None) -> Measurement:
    """Send whole rounds, at least ``min_rounds``, while they fit in ``seconds``.

    Only complete rounds are measured, so every run sees the same mix of
    request classes.  Rounds cycle if a run outlasts the corpus.  A
    reference loop runs before every request and after the last one.
    """
    m = Measurement()
    r = 0
    start = time.perf_counter()
    while True:
        batch = rounds[r % len(rounds)]
        for i, (command, payload) in enumerate(batch):
            if on_request:
                on_request(f"{r}.{i}")
            m.references.append(reference_loop())
            t0 = time.perf_counter()
            outcome = client.send(command, payload)
            m.raw.append(time.perf_counter() - t0)
            m.outcomes.append(outcome)
            m.requests += requests_in(command, payload)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed * (r + 1) / r > seconds:
            m.references.append(reference_loop())
            return m


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


# --- correctness ---------------------------------------------------------------


class Checker:
    """Compares outcomes with the golden results and runs the oracles.

    Oracles: a 2-D Newton number must equal twice ``covolume_2d_oracle``,
    and every decomposable certificate must pass ``verify_decomposition``.
    Each distinct (request, answer) pair is checked once per run.
    """

    def __init__(self, golden: dict, pkg):
        self.golden = golden
        self.pkg = pkg
        self._memo: dict[tuple, int] = {}
        self.notes: list[str] = []

    def failures(self, outcome: Outcome) -> int:
        """Number of failed requests inside this outcome."""
        key = request_key(outcome.command, outcome.payload)
        memo_key = (key, outcome.code, json.dumps(outcome.output, sort_keys=True))
        if memo_key not in self._memo:
            self._memo[memo_key] = self._check(key, outcome)
        return self._memo[memo_key]

    def _fail(self, count: int, why: str) -> int:
        if len(self.notes) < 20:
            self.notes.append(why)
        return count

    def _check(self, key: str, outcome: Outcome) -> int:
        expected = self.golden.get(key)
        if outcome.command == "batch":
            return self._check_batch(key, outcome, expected)
        if outcome.code is None:
            return self._fail(1, f"{outcome.command}: exception escaped execute: {outcome.output}")
        if expected is None:
            return self._fail(1, f"{outcome.command}: no golden result for {key[:16]}")
        if outcome.code != expected["code"] or outcome.output != expected["result"]:
            return self._fail(1, f"{outcome.command}: result differs from golden {key[:16]}")
        return 0 if self.oracles_hold(outcome.command, outcome.payload, outcome.output) else 1

    def _check_batch(self, key: str, outcome: Outcome, expected) -> int:
        entries = outcome.payload["requests"]
        if outcome.code is None:
            return self._fail(len(entries), f"batch: exception escaped main: {outcome.output}")
        if expected is None:
            return self._fail(len(entries), f"batch: no golden result for {key[:16]}")
        try:
            results = json.loads(outcome.output)["results"]
        except (ValueError, KeyError, TypeError):
            return self._fail(len(entries), f"batch: unreadable output for {key[:16]}")
        failed = 0
        for entry in entries:
            got = results.get(entry["id"])
            if got is None or sha256(canonical(got)) != expected["entries"].get(entry["id"]):
                failed += self._fail(1, f"batch: entry {entry['id']} differs from golden")
            elif not self.oracles_hold(entry["command"], entry["payload"], got["result"]):
                failed += 1
        if not failed and (outcome.code != expected["code"] or sha256(outcome.output) != expected["sha256"]):
            failed = self._fail(1, f"batch: exit code or bytes differ from golden {key[:16]}")
        return failed

    def oracles_hold(self, command: str, payload: dict, result) -> bool:
        problem = self._oracle_problem(command, payload, result)
        if problem:
            self._fail(1, problem)
        return problem is None

    def _oracle_problem(self, command: str, payload: dict, result) -> str | None:
        pkg = self.pkg
        if not isinstance(result, dict):
            return None
        value = result.get("newton_number")
        if command == "newton-number" and value not in (None, "infinite") and payload["diagram"]["dim"] == 2:
            # corpus diagrams list their canonical vertices, which the oracle needs
            gens = payload["diagram"]["generators"]
            diagram = pkg.Diagram(2, tuple(tuple(Fraction(c) for c in p) for p in gens))
            if Fraction(value) != 2 * pkg.covolume_2d_oracle(diagram):
                return f"newton-number {value} disagrees with the 2-D oracle on {gens}"
        certificate = result.get("certificate")
        if certificate and certificate.get("verdict") == "decomposable":
            g = result["diagram"] if command == "classify" else payload["diagram"]
            parts = [pkg.diagram_from_json(d) for d in (g, certificate["left"], certificate["right"])]
            if not pkg.verify_decomposition(*parts):
                return f"certificate fails verify_decomposition on {g}"
        return None
