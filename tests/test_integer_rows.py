"""Diagrams stored as integer rows, against their `Fraction` references.

A ``Diagram`` holds ``ints`` = (s, rows) and builds its `Fraction`
generators only when they are read.  Sums, homothety tests, scaling,
translation, splits and JSON output run on the rows; ``fraction_kernels``
keeps the versions that run on the generators, and every answer here must
be theirs.
"""

import gc
import hashlib
import json
import random
import statistics
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernels
from pshdiag.cli import EXIT_OK, EXIT_SEMANTIC, execute
from pshdiag.diagram import (
    MAX_DIGITS,
    Diagram,
    canonicalize,
    diagram_to_json,
    is_homothetic_to,
    minkowski_sum,
    scale,
    translate,
)
from pshdiag.errors import UnsupportedDimension
from pshdiag.volume import diagram_facets
from test_decomposition import split

KINDS = ("lattice", "rational", "mixed")


def seeded_diagrams(dim, seed, count=12):
    """Canonical diagrams of seeded clouds: lattice, rational and mixed in
    turn, where a mixed cloud has int and `Fraction` points."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % 3]
        pts = []
        for _ in range(rng.randint(1, 7)):
            p = [rng.randint(0, 6) for _ in range(dim)]
            if kind == "rational" or (kind == "mixed" and rng.random() < 0.5):
                p = [F(c, rng.choice([1, 2, 3, 4, 6, 7])) for c in p]
            pts.append(p)
        out.append((kind, canonicalize(dim, pts)))
    return out


def assert_stored_form(g):
    """g's rows are its generators over the lcm of their denominators, and
    outside the plane any facets it holds are those of a fresh search."""
    fresh = Diagram(g.dim, g.generators)
    assert g.ints == fresh.ints and (g, hash(g), repr(g)) == (fresh, hash(fresh), repr(fresh))
    if g.dim > 2 and "facets" in vars(g):
        assert set(g.facets) == set(diagram_facets(fresh)), g


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sums_match_canonical_pairwise_fraction_sums(dim):
    cases = seeded_diagrams(dim, 60 + dim, 9 if dim == 4 else 12)
    kinds = set()
    for kind_a, a in cases:
        for kind_b, b in cases:
            got = minkowski_sum(a, b)
            assert got == fraction_kernels.minkowski_sum(a, b), (a, b)
            assert_stored_form(got)
            kinds.add((kind_a, kind_b))
    assert len(kinds) == 9


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_homothety_scale_and_translate_match_fraction_reference(dim):
    rng = random.Random(70 + dim)
    cases = seeded_diagrams(dim, 70 + dim)
    found = missed = 0
    for _, b in cases:
        images = [g for _, g in cases]
        for c in (1, 2, F(1, 3), F(5, 2)):
            x = [F(rng.randint(0, 4), rng.choice([1, 2, 5])) for _ in range(dim)]
            scaled = scale(b, c)
            assert scaled == fraction_kernels.scale(b, c), (b, c)
            moved = translate(scaled, x)
            assert moved == fraction_kernels.translate(scaled, x), (scaled, x)
            assert_stored_form(scaled)
            assert_stored_form(moved)
            images += [scaled, moved]
        for a in images:
            for first, second in [(a, b), (b, a)]:
                want = fraction_kernels.is_homothetic_to(first, second)
                assert is_homothetic_to(first, second) == want, (first, second)
                found += want is not None
                missed += want is None
    assert found >= 40 and missed >= 40


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_splits_match_fraction_reference(dim):
    rng = random.Random(80 + dim)
    checked = 0
    for _, g in seeded_diagrams(dim, 80 + dim):
        mins = [min(p[k] for p in g.generators) for k in range(dim)]
        shifts = [tuple(mins)] + [tuple(m * F(rng.randint(0, 4), 4) for m in mins) for _ in range(3)]
        shifts += [tuple(c if i == k else 0 for i, c in enumerate(mins)) for k in range(dim)]
        for x in shifts:
            got = split(g, x)
            assert got == fraction_kernels.split(g, x), (g, x)
            for side in got:
                assert_stored_form(side)
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_json_texts_match_fraction_reference(dim):
    cases = [g for _, g in seeded_diagrams(dim, 90 + dim)]
    cases += [minkowski_sum(a, b) for a, b in zip(cases, cases[1:])]
    rational = 0
    for g in cases:
        assert diagram_to_json(g) == fraction_kernels.diagram_to_json(g), g
        rational += g.ints[0] > 1
    assert rational >= 6
    # a part of over MAX_DIGITS digits is refused by both, in lowest terms
    big = 10**MAX_DIGITS
    for coords in [(F(1, big), 0), (F(big, 3), 1), (F(2 * big, 2 * big + 2), 0)]:
        g = Diagram(2, (coords, (0, 2)))
        for to_json in (diagram_to_json, fraction_kernels.diagram_to_json):
            with pytest.raises(UnsupportedDimension):
                to_json(g)
    g = Diagram(2, ((F(big - 1, 3), 0), (0, F(2, 4))))
    assert diagram_to_json(g) == fraction_kernels.diagram_to_json(g)


COORDS = st.one_of(st.integers(0, 5), st.fractions(min_value=0, max_value=5, max_denominator=6))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_equality_and_hash_follow_the_sorted_generators(data):
    n = data.draw(st.integers(1, 4))
    points = st.lists(st.lists(COORDS, min_size=n, max_size=n).map(tuple), min_size=1, max_size=5)
    first = data.draw(points)
    second = data.draw(st.one_of(st.just(first), st.permutations(first), points))
    if data.draw(st.booleans()):
        second = [tuple(F(c) for c in p) for p in second]
    g, h = Diagram(n, first), Diagram(n, second)
    want = tuple(sorted(tuple(map(F, p)) for p in first))
    assert g.generators == want and all(type(c) is F for p in g.generators for c in p)
    same = want == tuple(sorted(tuple(map(F, p)) for p in second))
    assert (g == h) == same
    if same:
        assert (hash(g), repr(g), str(g)) == (hash(h), repr(h), str(h))


def primes_from(low, count):
    """The first count primes from low on, by a sieve of Eratosthenes; past
    10^5 the gaps between primes average about 12."""
    top = low + 20 * count
    sieve = bytearray([1]) * top
    for k in range(2, int(top**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, top, k)))
    return [k for k in range(max(low, 2), top) if sieve[k]][:count]


def hostile_chain(m=3000):
    """The convex chain (i, (m - 1 - i)^2), each vertex moved by 1/p_i in
    both coordinates, p_i distinct 6-digit primes: the lcm of the
    denominators has about 15,000 digits, and no vertex is on an axis."""
    ps = primes_from(100_003, m)
    pts = [[F(i) + F(1, p), F((m - 1 - i) ** 2) + F(1, p)] for i, p in enumerate(ps)]
    return {"dim": 2, "generators": [[str(c) for c in p] for p in pts]}


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work, `Fraction`
    arithmetic and dict updates, as ``bench/harness.py`` times the host."""
    start = time.perf_counter()
    for _ in range(4):
        total = F(0)
        for i in range(1, 200):
            total += F(i, i + 7) * F(3, i + 1)
        counts = {}
        for i in range(1500):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


# Exit code, sha256 of the answer's JSON with sorted keys, and time bound
# for each command on the hostile chain, in units of ``reference_loop``
# (the median of 7 loops just before the command), so that a slower host
# scales the bound with it.  The answers are those the `Fraction`
# generators gave; there, over 8 runs each, the commands took 32-60 units
# (sum), 37-57 (homothetic), 47-70 (newton-number), 119-170 (decompose)
# and 59-79 (indicator), and each bound is twice the slowest of those
# runs (Python 3.11.7, 2-vCPU host, where a loop took 4-6 ms).
HOSTILE = {
    "sum": (EXIT_SEMANTIC, "98b2a1c333b9bac312647466f61ae6dc3b0d664d1b5833db056c4a94b449e539", 121),
    "homothetic": (EXIT_OK, "c6bfda2316634f4738d529c28737d2e3f0ecf4be5117f7aec649cec0cfc933a3", 115),
    "newton-number": (EXIT_SEMANTIC, "23376321848aa08552d1efba2962ee0ed24e28476c680dd31c60867561f71f4a", 140),
    "decompose": (EXIT_SEMANTIC, "27362f9a0d6edc45cff55277562ee97edd9e2f638b4eee837b035c0c16398f10", 341),
    "indicator": (EXIT_OK, "ba3fd389c0cbff9a7cd68b31407a0da91a87b5edac2d585a4c4ea883a5a7da8d", 158),
}


def test_hostile_chain_keeps_answers_and_time():
    # each command answers as before, and one of three runs is within its
    # bound, so that a pause of the host alone does not fail it; the
    # objects earlier tests left are frozen out of the collector's passes,
    # as the parent's times were taken in a fresh process
    gc.collect()
    gc.freeze()
    try:
        check_hostile_chain()
    finally:
        gc.unfreeze()


def check_hostile_chain():
    chain = hostile_chain()
    payloads = {
        "sum": {"a": chain, "b": chain},
        "homothetic": {"a": chain, "b": chain},
        "newton-number": {"diagram": chain},
        "decompose": {"diagram": chain},
        "indicator": {"diagram": chain, "t": ["-1", "-2"]},
    }
    for command, (code, digest, bound) in HOSTILE.items():
        units = []
        while len(units) < 3 and (not units or min(units) >= bound):
            unit = statistics.median(reference_loop() for _ in range(7))
            start = time.perf_counter()
            answer, got = execute(command, payloads[command])
            units.append((time.perf_counter() - start) / unit)
            text = json.dumps(answer, sort_keys=True)
            assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest), (command, text[:200])
        assert min(units) < bound, (command, units)
