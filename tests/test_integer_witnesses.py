"""Witnesses on integer rows against their `Fraction` references.

``verify_decomposition`` reads the sum identity off G's facets on the
rows of ``Diagram.ints``, and the type space's rays become summand pairs
on int rows.  ``fraction_kernels`` keeps the versions that canonicalize
the pairwise sums and scale and test `Fraction`s; every answer here must
be theirs, every False included.
"""

import json
import pathlib
import random
from fractions import Fraction as F

import pytest

from pshdiag import decomposition, diagram, summand_system
from pshdiag.cli import EXIT_OK, execute
from pshdiag.diagram import Diagram, canonicalize, diagram_from_json, minkowski_sum, scale, translate
from pshdiag.errors import UnsupportedDimension

import fraction_kernels
from test_bench_golden import load_corpus
from test_type_space import cap, cloud, small_sum

ROOT = pathlib.Path(__file__).resolve().parent.parent


def both(g, k1, k2):
    """verify_decomposition's answer, once it equals the reference's."""
    got = decomposition.verify_decomposition(g, k1, k2)
    assert got == fraction_kernels.verify_decomposition(g, k1, k2), (g, k1, k2)
    return got


def mutations(pair, other):
    """Pairs near a candidate: K1 moved by e_k, K2 short of a vertex, K1
    doubled, and a pair of another diagram."""
    k1, k2 = pair
    n = k1.dim
    yield translate(k1, [int(j == len(k2.generators) % n) for j in range(n)]), k2
    if len(k2.generators) > 1:
        yield k1, Diagram(n, k2.generators[1:])
    yield scale(k1, 2), k2
    if other is not None:
        yield other


def test_decide_pool_candidates_and_answers_without_sums(monkeypatch):
    # every decide pool request answers as golden with the sum and the
    # hull refused once its input is read; then every candidate pair
    # weighed, not only the least, and the mutations of the first of each
    # diagram verify as the reference does
    corpus = load_corpus()
    golden = corpus.load_golden("decide")
    assert not hasattr(decomposition, "minkowski_sum") and not hasattr(decomposition, "canonicalize")
    weighed = []
    witness = decomposition._witness

    def recording(g, candidates, method):
        weighed.append((g, list(candidates)))
        return witness(g, weighed[-1][1], method)

    reads = []
    read = diagram.canonicalize

    def once(dim, points):
        if reads:
            raise AssertionError("a decision took a hull")
        reads.append(1)
        return read(dim, points)

    def refuse(*args):
        raise AssertionError("a decision formed a Minkowski sum")

    sent = 0
    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "_witness", recording)
        patch.setattr(diagram, "canonicalize", once)
        patch.setattr(diagram, "minkowski_sum", refuse)
        for variants in corpus.pools("decide").values():
            for images in variants:
                for command, payload in images:
                    reads.clear()
                    want = golden[corpus.request_key(command, payload)]
                    assert execute(command, payload) == (want["result"], want["code"]), payload
                    sent += 1
    assert sent == 640
    answers = {True: 0, False: 0}
    other = {}
    seen = set()
    for g, pairs in weighed:
        if g in seen:
            continue  # the other image of a variant, or the same diagram again
        seen.add(g)
        for pair in pairs:
            answers[both(g, *pair)] += 1
        for pair in mutations(pairs[0], other.get(g.dim)):
            answers[both(g, *pair)] += 1
        other[g.dim] = pairs[0]
    assert answers[True] >= 800 and answers[False] >= 700, answers


def families():
    """test_type_space's clouds and sums in 2-D to 4-D, every third one
    scaled by a rational."""
    rng = random.Random(29)
    for n in (2, 3, 4):
        for i, g in enumerate([cloud(n, s) for s in range(40)] + [small_sum(n, s) for s in range(15)]):
            yield g if i % 3 else scale(g, F(rng.randint(1, 5), rng.randint(2, 7)))


def test_families_verify_as_the_reference(monkeypatch):
    weighed = []
    witness = decomposition._witness
    monkeypatch.setattr(
        decomposition, "_witness", lambda g, c, m: weighed.append((g, list(c))) or witness(g, weighed[-1][1], m)
    )
    other = {}
    answers = {True: 0, False: 0}
    for g in families():
        decomposition.decide_decomposability(g)
        if not weighed or weighed[-1][0] is not g:
            continue
        pairs = weighed[-1][1]
        for pair in pairs:
            answers[both(g, *pair)] += 1
        for pair in mutations(pairs[0], other.get(g.dim)):
            answers[both(g, *pair)] += 1
        other[g.dim] = pairs[0]
    assert answers[True] >= 150 and answers[False] >= 150, answers


def test_generators_off_the_vertices_fail_as_before():
    # a diagram built directly with a generator that is no vertex is no
    # canonical sum, though its set may be one
    seg = canonicalize(2, [(1, 0), (0, 1)])
    assert not both(Diagram(2, ((2, 0), (1, 1), (0, 2))), seg, seg)
    # K1 + K2 has the pair sums (1, 2, 0) and (2, 1, 0) inside an edge
    k1 = canonicalize(3, [(1, 0, 0), (0, 1, 0)])
    k2 = canonicalize(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    g = canonicalize(3, [(3, 0, 0), (0, 3, 0), (1, 0, 1), (0, 1, 1)])
    assert both(g, k1, k2)
    for extra in [(1, 2, 0), (2, 1, 0), (1, 1, 1), (3, 0, 1), g.generators[0]]:
        assert not both(Diagram(3, g.generators + (extra,)), k1, k2), extra


def test_one_vertex_in_three_and_four_dimensions():
    for p in [(2, 1, 3), (1, 0, 2, F(1, 2)), (3, 3, 3, 3)]:
        n = len(p)
        g = canonicalize(n, [p])
        k = next(k for k, c in enumerate(p) if c)
        x = tuple(c if j == k else 0 for j, c in enumerate(p))
        rest = tuple(c - xc for c, xc in zip(p, x))
        cases = [
            (canonicalize(n, [x]), canonicalize(n, [rest])),
            (canonicalize(n, [rest]), canonicalize(n, [x])),
            (canonicalize(n, [x]), canonicalize(n, [p])),
            (canonicalize(n, [tuple(c + 1 for c in x)]), canonicalize(n, [rest])),
            (canonicalize(n, [x, rest]), canonicalize(n, [rest])),
            # a second generator above the first: the set of K1 is {x}
            (Diagram(n, (x, tuple(c + 1 for c in x))), canonicalize(n, [rest])),
        ]
        assert [both(g, *pair) for pair in cases] == [True, True, False, False, False, True], p


def test_ray_points_and_pairs_match_the_fraction_reference(monkeypatch):
    # every ray of the seeded 3-D and 4-D clouds and sums: the same point
    # and the same pair, whose ints are those of its generators
    rays = []
    ray_point = decomposition._ray_point

    def recording(vs, ds, steps, ts, scale, u0):
        rays.append((vs, ds, steps, list(ts), scale, list(u0)))
        return ray_point(vs, ds, steps, ts, scale, u0)

    monkeypatch.setattr(decomposition, "_ray_point", recording)
    count = 0
    for g in families():
        if g.dim == 2 or len(g.generators) == 1 or decomposition._is_axis_simplex(g):
            continue
        system = summand_system(g)
        rays.clear()
        decomposition._type_space_candidates(system)
        for vs, ds, steps, ts, s, u0 in rays:
            a, us, b, tt = ray_point(vs, ds, steps, ts, s, list(u0))
            want_us, want_ts = fraction_kernels.ray_point(vs, ds, steps, ts, s, list(u0))
            assert [tuple(F(c, a) for c in u) for u in us] == want_us
            assert [F(t, b) for t in tt] == want_ts
            pair = decomposition._summands(system, *system.check_rows(a, us, b, tt))
            assert pair == fraction_kernels.summands_of(system, want_us, want_ts)
            for k in pair:
                assert k.ints == Diagram(k.dim, k.generators).ints
                assert all(type(c) is F for p in k.generators for c in p)
            count += 1
    assert count >= 40


def test_sum_of_two_caps_answers_past_the_pair_budget():
    # G = P + Q, two lattice caps of 176 and 191 vertices that differ on
    # the x axis; G has 212 vertices (fixtures/two_caps.json).  Its
    # witness is (P, Q), whose 33,616 generator pairs minkowski_sum
    # refuses, so verification by the pairwise sum answered exit 3
    points = cap(330)
    p = canonicalize(3, points)
    q = canonicalize(3, points[:-3] + [[900, 0, 0], [0, 600, 0], [0, 0, 600]])
    with pytest.raises(UnsupportedDimension):
        minkowski_sum(p, q)
    g = json.loads((ROOT / "fixtures" / "two_caps.json").read_text())
    assert len(g["generators"]) == 212
    result, code = execute("decompose", {"diagram": g})
    assert code == EXIT_OK
    cert = result["certificate"]
    assert cert["verdict"] == "decomposable"
    assert {diagram_from_json(cert["left"]), diagram_from_json(cert["right"])} == {p, q}
