"""Every benchmark pool answers as its stored golden result.

``bench/corpus.py`` builds the benchmark's request pools and reads
``bench/golden.json``; it imports only the standard library, so this test
loads it by path, as ``test_bench_targets.py`` loads ``spans.py``, and
sends every ``hull`` and ``decide`` request, both images, through
``execute``, and every ``session`` manifest, one image each, through
``run_batch``.  A change that alters an answer, a verdict, a witness, an
exit code or a byte of batch output fails here, before any benchmark run.
"""

import functools
import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from pshdiag import volume
from pshdiag.cli import execute, run_batch

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


@functools.cache
def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["hull", "decide"])
def test_pool_answers_match_golden(workload, monkeypatch):
    corpus = load_corpus()
    golden = corpus.load_golden(workload)
    sent = 0
    # each diagram searches for its facets at most once, as canonicalize hands them on
    searches = []
    search = volume._cone_facets
    monkeypatch.setattr(volume, "_cone_facets", lambda gens: searches.append(1) or search(gens))
    for variants in corpus.pools(workload).values():
        for images in variants:
            for command, payload in images:
                want = golden[corpus.request_key(command, payload)]
                result, code = execute(command, payload)
                assert (code, result) == (want["code"], want["result"]), (command, payload)
                sent += 1
    assert sent == {"hull": 1200, "decide": 640}[workload]
    assert len(searches) <= {"hull": 288, "decide": 234}[workload]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_session_batches_match_golden():
    # the golden file keeps digests of a batch's printed output (``emit``
    # with --format json) and of each entry in compact sorted JSON
    corpus = load_corpus()
    golden = corpus.load_golden("session")
    sent = 0
    for variants in corpus.pools("session").values():
        # one image of each manifest, as given and mirrored in turn
        for i, images in enumerate(variants):
            command, manifest = images[i % 2]
            want = golden[corpus.request_key(command, manifest)]
            # main reads a manifest from its JSON text
            result, code = run_batch(json.loads(json.dumps(manifest)))
            entries = {
                rid: sha256(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                for rid, entry in result["results"].items()
            }
            assert entries == want["entries"], manifest["requests"][0]["id"]
            assert code == want["code"]
            assert sha256(json.dumps(result, indent=2, sort_keys=True) + "\n") == want["sha256"]
            sent += 1
    assert sent == 384
