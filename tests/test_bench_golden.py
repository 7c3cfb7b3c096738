"""Every single-request benchmark pool answers as its stored golden result.

``bench/corpus.py`` builds the benchmark's request pools and reads
``bench/golden.json``; it imports only the standard library, so this test
loads it by path, as ``test_bench_targets.py`` loads ``spans.py``, and
sends every ``hull`` and ``decide`` request, both images, through
``execute``.  A change that alters an answer, a verdict, a witness or an
exit code fails here, before any benchmark run.
"""

import functools
import importlib.util
import pathlib
import sys

import pytest

from pshdiag.cli import execute

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


@functools.cache
def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["hull", "decide"])
def test_pool_answers_match_golden(workload):
    corpus = load_corpus()
    golden = corpus.load_golden(workload)
    sent = 0
    for variants in corpus.pools(workload).values():
        for images in variants:
            for command, payload in images:
                want = golden[corpus.request_key(command, payload)]
                result, code = execute(command, payload)
                assert (code, result) == (want["code"], want["result"]), (command, payload)
                sent += 1
    assert sent == {"hull": 1200, "decide": 640}[workload]
