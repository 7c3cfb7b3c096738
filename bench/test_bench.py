"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import copy
import json

import pytest

import corpus
import harness
import run
from spans import Tracer


def first(workload: str, name: str, image: int = 0):
    return corpus.pools(workload)[name][0][image]


@pytest.fixture(scope="module")
def cli():
    return harness.import_package()


def test_same_seed_gives_same_corpus_digest(capsys):
    for workload in corpus.WORKLOADS:
        golden = corpus.load_golden(workload)
        digest = corpus.digest(corpus.corpus(workload, 7, golden))
        assert digest == corpus.digest(corpus.corpus(workload, 7, golden))
        assert digest != corpus.digest(corpus.corpus(workload, 8, golden))
    corpus.main(["--workload", "hull", "--seed", "7"])
    printed = json.loads(capsys.readouterr().out)
    assert printed["digest"] == corpus.digest(corpus.corpus("hull", 7, corpus.load_golden("hull")))


def test_every_pool_request_has_a_golden_result():
    for workload in corpus.WORKLOADS:
        golden = corpus.load_golden(workload)
        for variants in corpus.pools(workload).values():
            for images in variants:
                for command, payload in images:
                    assert corpus.request_key(command, payload) in golden


def test_mirrored_request_reverses_coordinates():
    command, payload = corpus.mirrored("substitute", {
        "input": {"dim": 2, "polys": ["z1^2 + 3*z2"]},
        "matrix": [["1", "0"], ["5", "1"]],
    })
    assert payload == {"input": {"dim": 2, "polys": ["z2^2 + 3*z1"]}, "matrix": [["1", "5"], ["0", "1"]]}


def test_tampered_golden_counts_in_fail_ratio(cli):
    chain = first("decide", "chain3")
    rounds = [[first("decide", "monomial"), chain, first("hull", "nn2d-8")]]
    golden = {**corpus.load_golden("decide"), **corpus.load_golden("hull")}
    m = harness.measure(harness.Client(cli), rounds, seconds=0)
    assert run.check(m, golden) == (0, [])

    tampered = copy.deepcopy(golden)
    tampered[corpus.request_key(*chain)]["result"]["certificate"]["method"] = "tampered"
    failed, notes = run.check(m, tampered)
    assert failed == 1 and "differs from golden" in notes[0]

    del tampered[corpus.request_key(*rounds[0][0])]
    assert run.check(m, tampered)[0] == 2


def test_tampered_batch_entry_counts_once(cli):
    manifest = first("session", "session")
    rounds = [[manifest]]
    client = harness.Client(cli, harness.manifest_paths(rounds, harness.OUT / "test-manifests"))
    m = harness.measure(client, rounds, seconds=0)
    assert m.requests == len(manifest[1]["requests"])
    tampered = copy.deepcopy(corpus.load_golden("session"))
    entries = tampered[corpus.request_key(*manifest)]["entries"]
    entries[manifest[1]["requests"][1]["id"]] = harness.sha256("tampered")
    assert run.check(m, tampered)[0] == 1


def test_escaped_exception_is_a_failure():
    class Broken:
        def execute(self, command, payload):
            raise RuntimeError("boom")

    m = harness.measure(harness.Client(Broken()), [[first("decide", "monomial")]], seconds=0)
    failed, notes = run.check(m, corpus.load_golden("decide"))
    assert failed == 1 and "boom" in notes[0]


def test_two_traced_runs_give_identical_counts(cli):
    rounds = [[first("session", "session"), first("hull", "dominated3d"), first("decide", "chain3")]]
    client = harness.Client(cli, harness.manifest_paths(rounds, harness.OUT / "test-manifests"))
    original = cli.execute
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert cli.execute is not original
            harness.measure(client, rounds, seconds=0, on_request=lambda rid: setattr(tracer, "request", rid))
        assert cli.execute is original
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.run_batch.calls"] == 1
    assert counts[0]["cli.execute.calls"] == len(rounds[0][0][1]["requests"]) + 2
    assert counts[0]["exactlp.solve_lp.calls"] > 0
    # batch entries run on pool threads but hang under the batch's span
    batch_span = next(s for s in tracer.spans if s[1] == "cli.run_batch")
    executes = [s for s in tracer.spans if s[1] == "cli.execute" and s[5] == "0.0"]
    assert executes and all(s[4] == batch_span[0] for s in executes)
    assert {s[5] for s in tracer.spans} == {"0.0", "0.1", "0.2"}


def test_times_are_scaled_to_the_reference_speed():
    ref = harness.REFERENCE_MS * 1e-3
    # a host at half the reference speed: times halve
    assert harness.scale_to_reference([0.4, 1.0], [2 * ref] * 3) == pytest.approx([0.2, 0.5])
    # one slow reference loop among its neighbours does not move the scale
    assert harness.scale_to_reference([0.4, 1.0, 0.3, 0.1], [ref, ref, 9 * ref, ref, ref]) == pytest.approx([0.4, 1.0, 0.3, 0.1])


def test_self_time_excludes_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        (1, "cli.run_batch", 0.0, 10.0, None, "0.0"),
        (2, "cli.execute", 1.0, 6.0, 1, "0.0"),
        (3, "cli.execute", 4.0, 8.0, 1, "0.0"),
        (4, "exactlp.solve_lp", 2.0, 3.0, 2, "0.0"),
    ]
    self_s = tracer.self_times()
    assert self_s["cli.run_batch"] == pytest.approx(3.0)
    assert self_s["cli.execute"] == pytest.approx(8.0)
    assert self_s["exactlp.solve_lp"] == pytest.approx(1.0)
