"""Facets, membership, compact edges, Newton numbers and volumes against
slower reference algorithms and closed forms.

None of the references reads faces off facet incidences as the package
does: cone facets are found by trying every generator subset that can
span a facet, membership by one exact LP, compact edges by one exact LP
per vertex pair, and Newton numbers by clipping the diagram to a box and
triangulating the vertices of the clipped polytope.
"""

import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction as F

import pytest

import fraction_kernels
from pshdiag import (
    canonicalize,
    compact_graph,
    contains,
    minkowski_sum,
    newton_number,
    touches_all_axes,
)
from pshdiag import diagram, linalg, measures, volume
from pshdiag.cli import EXIT_OK, execute, run_batch
from pshdiag.diagram import Diagram, member_of_hull
from pshdiag.exactlp import solve_lp
from pshdiag.linalg import det, dot, nullspace
from pshdiag.volume import _cone_facets, diagram_facets, enumerate_vertices, polytope_volume
from test_canonicalize_oracle import CASES as CLOUD_CASES
from test_canonicalize_oracle import clouds, undominated
from test_cli import chain


def subset_cone_facets(gens):
    """Facets of the full-dimensional cone spanned by gens, each found once.

    Every d - 1 generators whose span is a hyperplane give a candidate
    normal; it is a facet normal when all generators lie on one side.
    """
    facets = {}
    for subset in itertools.combinations(range(len(gens)), len(gens[0]) - 1):
        basis = nullspace([list(gens[i]) for i in subset])
        if len(basis) != 1:
            continue
        normal = basis[0]
        vals = [dot(normal, v) for v in gens]
        if any(v < 0 for v in vals):
            if any(v > 0 for v in vals):
                continue
            normal = [-x for x in normal]
        tight = [i for i, v in enumerate(vals) if v == 0]
        facets.setdefault(tuple(tight), (normal, tight))
    return list(facets.values())


def homogenized(points, dim):
    """Generators (e_k, 0) of the orthant and (p, 1) of the points, as
    ``diagram_facets`` builds them."""
    gens = [tuple(F(int(j == k)) for j in range(dim + 1)) for k in range(dim)]
    return gens + [tuple(F(c) for c in p) + (F(1),) for p in points]


def assert_same_facets(gens):
    got = _cone_facets(gens)
    want = {tuple(tight): normal for normal, tight in subset_cone_facets(gens)}
    assert sorted(tuple(tight) for _, tight in got) == sorted(want), gens
    for normal, tight in got:
        ref = want[tuple(tight)]
        k = next(i for i, x in enumerate(ref) if x != 0)
        factor = normal[k] / ref[k]
        assert factor > 0 and [factor * x for x in ref] == list(normal), gens


def lp_compact_edges(g):
    """Pairs (i, j) for which some t < 0 makes exactly v_i, v_j maximal.

    By homogeneity the strict system <t, v_i> = <t, v_j> > <t, v_k> is
    feasible iff the closed one with margins of 1 is.
    """
    n = g.dim
    gens = g.generators
    edges = set()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            vi, vj = gens[i], gens[j]
            eq = [([vi[k] - vj[k] for k in range(n)], F(0))]
            ub = []
            for k in range(n):
                row = [F(0)] * n
                row[k] = F(1)
                ub.append((row, F(-1)))  # t_k <= -1
            for m, vm in enumerate(gens):
                if m not in (i, j):
                    ub.append(([vm[k] - vi[k] for k in range(n)], F(-1)))
            if solve_lp(n, eq=eq, ub=ub) is not None:
                edges.add((i, j))
    return edges


def box_newton_number(g):
    """n! * (M^n - Vol(diagram within [0, M]^n)), M the largest axis intercept."""
    n = g.dim
    if not touches_all_axes(g):
        return None
    if contains(g, (0,) * n):
        return F(0)
    m_box = max(
        p[k] for p in g.generators for k in range(n)
        if all(c == 0 for j, c in enumerate(p) if j != k)
    )
    for k in range(n):
        corner = [F(0)] * n
        corner[k] = m_box
        assert contains(g, corner)
    ineqs = [(a, b) for a, b, _ in diagram_facets(g)]
    for k in range(n):
        low = [F(0)] * n
        low[k] = F(1)
        ineqs.append((tuple(low), F(0)))
        high = [F(0)] * n
        high[k] = F(-1)
        ineqs.append((tuple(high), -m_box))
    inside = polytope_volume(enumerate_vertices(ineqs, n), n)
    return math.factorial(n) * (m_box**n - inside)


def random_diagrams(dim, count, seed):
    """Seeded diagrams from points near the simplex {sum x = total}.

    Even-numbered diagrams add a point on every axis (convenient); odd ones
    are shifted off the coordinate hyperplane x_1 = 0, so they miss the
    other axes.
    """
    rng = random.Random(seed)
    total = {1: 10, 2: 8, 3: 6, 4: 4}[dim]
    out = []
    for idx in range(count):
        pts = []
        for _ in range(rng.randint(2, 8 - dim)):
            cuts = sorted(rng.randint(0, total) for _ in range(dim - 1))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            c = F(rng.randint(3, 6), 4)
            pts.append(tuple(c * x for x in parts))
        if idx % 2 == 0:
            for k in range(dim):
                axis = [0] * dim
                axis[k] = F(rng.randint(3, 6), 4) * total
                pts.append(tuple(axis))
        else:
            pts = [(p[0] + 1, *p[1:]) for p in pts]
        out.append(canonicalize(dim, pts))
    return out


CASES = [(2, 50, 21), (3, 44, 22), (4, 6, 23)]


@pytest.mark.parametrize("dim,count,seed", CASES)
def test_compact_edges_match_pairwise_lp(dim, count, seed):
    for g in random_diagrams(dim, count, seed):
        got = {(i, j) for i, j, _ in compact_graph(g).edges}
        assert got == lp_compact_edges(g), g


def all_pairs_edges(g):
    """Compact edges as (i, j) pairs: every vertex pair whose least face holds nothing else."""
    tights = [t for _, _, t in diagram_facets(g)]
    m = len(g.generators)
    return [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if volume.least_face(tights, frozenset([i, j])) == {i, j}
    ]


@pytest.mark.parametrize("dim,seed", CLOUD_CASES)
def test_compact_edges_are_those_of_all_pairs_in_order(dim, seed):
    # compact_graph tests only the pairs that share n - 1 facets
    rng = random.Random(seed)
    diagrams = [canonicalize(dim, pts) for pts in clouds(dim, seed)]
    diagrams += [minkowski_sum(a, b) for a, b in zip(diagrams, rng.sample(diagrams, len(diagrams)))]
    if dim > 1:
        diagrams += random_diagrams(dim, 12, seed)
    for g in diagrams:
        assert [(i, j) for i, j, _ in compact_graph(g).edges] == all_pairs_edges(g), g


@pytest.mark.parametrize("dim,count,seed", CASES)
def test_compact_edges_connect_all_vertices(dim, count, seed):
    # the decision procedure propagates one edge scale along these edges
    for g in random_diagrams(dim, count, seed):
        graph = compact_graph(g)
        reached = {0}
        grew = True
        while grew:
            grew = False
            for i, j, _ in graph.edges:
                if (i in reached) != (j in reached):
                    reached |= {i, j}
                    grew = True
        assert reached == set(range(len(graph.vertices))), g


@pytest.mark.parametrize("dim,count,seed", CASES)
def test_newton_numbers_match_box_volume(dim, count, seed):
    diagrams = random_diagrams(dim, count, seed)
    assert any(touches_all_axes(g) for g in diagrams)
    assert not all(touches_all_axes(g) for g in diagrams)
    for g in diagrams:
        assert newton_number(g).value == box_newton_number(g), g


@pytest.mark.parametrize("dim,count,seed", CASES)
def test_cone_facets_match_subset_search(dim, count, seed):
    for g in random_diagrams(dim, count, seed):
        assert_same_facets(homogenized(g.generators, dim))
        # diagram_facets hands on the search's ints in every dimension
        assert all(type(x) is int for a, b, _ in diagram_facets(g) for x in (*a, b)), g


@pytest.mark.parametrize("dim,seed", CLOUD_CASES)
def test_cone_facets_match_subset_search_on_clouds(dim, seed):
    # coplanar, rational and single-point supports, not yet canonical
    for pts in clouds(dim, seed):
        assert_same_facets(homogenized(undominated(pts), dim))


def simplex_sums():
    """Seeded 3-D pairs of lattice simplices, each with the undominated
    pairwise sums of their vertices."""
    rng = random.Random(24)
    for size in (3, 4) * 6:
        a, b = (
            canonicalize(3, [[rng.randint(0, 6) for _ in range(3)] for _ in range(size)])
            for _ in range(2)
        )
        sums = [tuple(x + y for x, y in zip(p, q)) for p in a.generators for q in b.generators]
        yield a, b, undominated(sums)


# every lattice point of R^4_+ with coordinate sum 2: collinear generators,
# so two rays can share d - 2 tight generators and still not be adjacent
LATTICE_LAYER = [p for p in itertools.product(range(3), repeat=4) if sum(p) == 2]


def test_cone_facets_match_subset_search_on_simplex_sums():
    for a, b, sums in simplex_sums():
        assert_same_facets(homogenized(sums, 3))
        assert_same_facets(homogenized(minkowski_sum(a, b).generators, 3))


def test_cone_facets_match_subset_search_on_lattice_layer():
    assert_same_facets(homogenized(LATTICE_LAYER, 4))


def seeded_cones():
    """The homogenized cones of the seeded families above, as ``diagram_facets`` builds them."""
    for dim, count, seed in [(1, 20, 20), *CASES]:
        for g in random_diagrams(dim, count, seed):
            yield homogenized(g.generators, dim)
    for dim, seed in CLOUD_CASES:
        for pts in clouds(dim, seed):
            yield homogenized(undominated(pts), dim)
    for a, b, sums in simplex_sums():
        yield homogenized(sums, 3)
        yield homogenized(minkowski_sum(a, b).generators, 3)
    yield homogenized(LATTICE_LAYER, 4)


def reference_start(gens):
    """The first d independent generators by ``rref`` pivots of their
    transpose, and the columns of their `Fraction` inverse as primitive ints."""
    start = linalg.rref([list(col) for col in zip(*gens)])[1]
    inverse = fraction_kernels.inverse([list(gens[i]) for i in start])
    rays = []
    for col in zip(*inverse):
        scale = math.lcm(*(x.denominator for x in col))
        ints = [int(x * scale) for x in col]
        rays.append([x // math.gcd(*ints) for x in ints])
    return start, rays


def test_diagram_cones_start_in_closed_form():
    cones = list(seeded_cones())
    assert {len(gens[0]) for gens in cones} == {2, 3, 4, 5}
    for gens in cones:
        d = len(gens[0])
        start, rays = volume._start([linalg.reduced(linalg.integral(g)[1]) for g in gens])
        assert (start, rays) == reference_start(gens) and start == list(range(d)), gens
        assert all(type(x) is int for ray in rays for x in ray), gens


def test_diagram_cones_reach_no_rref(monkeypatch):
    def refuse(m):
        raise AssertionError("a diagram's cone reached rref")

    monkeypatch.setattr(volume, "rref", refuse)
    for dim, count, seed in [(1, 20, 20), *CASES[1:]]:
        for g in random_diagrams(dim, count, seed):
            direct = Diagram(g.dim, g.generators)
            assert set(diagram_facets(direct)) == set(g.facets), g
            assert newton_number(direct) == newton_number(g), g
    for dim, seed in CLOUD_CASES:
        if dim != 2:
            for pts in clouds(dim, seed):
                assert canonicalize(dim, pts).generators
    for a, b, sums in simplex_sums():
        assert canonicalize(3, sums) == minkowski_sum(a, b)
    # 4! times the volume of the simplex with vertices 0 and 2 e_k
    assert newton_number(canonicalize(4, LATTICE_LAYER)).value == 2**4


@pytest.mark.parametrize("dim,count,seed", CASES)
def test_contains_matches_lp(dim, count, seed):
    seventh = F(1, 7)
    for g in random_diagrams(dim, count, seed):
        graph = compact_graph(g)
        probes = [
            tuple((x + y) / 2 for x, y in zip(graph.vertices[i], graph.vertices[j]))
            for i, j, _ in graph.edges
        ]
        for v in g.generators:
            probes.append(v)
            probes.append(tuple(x - seventh for x in v))
            for k in range(dim):
                for step in (seventh, -seventh):
                    probes.append(tuple(x + step * (j == k) for j, x in enumerate(v)))
        answers = []
        for p in probes:
            answers.append(contains(g, p))
            assert answers[-1] == member_of_hull(p, list(g.generators)), (g, p)
        assert set(answers) == {True, False}, g


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polytope_volume_closed_forms(n):
    cube = [tuple(F(c) for c in p) for p in itertools.product((0, 1), repeat=n)]
    assert polytope_volume(cube, n) == 1  # its facets are not simplices
    assert polytope_volume(cube + [(F(1, 2),) * n], n) == 1
    cross = [tuple(F(s * (j == k)) for j in range(n)) for k in range(n) for s in (1, -1)]
    assert polytope_volume(cross, n) == F(2**n, math.factorial(n))
    # hulls of lower dimension, with more than n points from n = 3 on
    assert polytope_volume([p for p in cube if p[0] == 0], n) == 0
    assert polytope_volume([tuple(F(t * (k + 1), 2) for k in range(n)) for t in range(n + 3)], n) == 0
    rng = random.Random(n)
    for _ in range(5):
        simplex = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)) for _ in range(n + 1)]
        edges = [[q[k] - simplex[0][k] for k in range(n)] for q in simplex[1:]]
        assert polytope_volume(simplex, n) == abs(det(edges)) / math.factorial(n)


def test_singular_systems_have_no_unique_solution():
    # enumerate_vertices skips these: equations that agree (x + 2y = 1 twice) or not
    assert linalg.solve_unique([[1, 2], [2, 4]], [1, 2]) is None
    assert linalg.solve_unique([[1, 2], [2, 4]], [1, 3]) is None
    assert linalg.solve_unique([[1, 2], [2, 3]], [1, 3]) == [3, -1]


def test_one_dimensional_newton_number():
    assert newton_number(canonicalize(1, [[F(7, 3)], [5]])).value == F(7, 3)
    assert newton_number(canonicalize(1, [[0]])).value == 0


def counting_searches(monkeypatch):
    """The list that each ``volume._cone_facets`` call appends its generators to, from now on."""
    calls = []
    search = volume._cone_facets

    def counting(gens):
        calls.append(gens)
        return search(gens)

    monkeypatch.setattr(volume, "_cone_facets", counting)
    return calls


def test_one_facet_search_per_call(monkeypatch):
    # in the plane the facets are read off the chain: no search at all;
    # elsewhere canonicalize hands on the facets it found, and a diagram
    # built directly searches on its first read and never again
    diagrams = random_diagrams(2, 8, 21) + random_diagrams(3, 8, 22) + random_diagrams(4, 4, 23)
    cube = list(itertools.product((F(0), F(1)), repeat=4))
    calls = counting_searches(monkeypatch)
    for g in diagrams:
        direct = Diagram(g.dim, g.generators)
        calls.clear()
        newton_number(g)
        assert calls == [], g
        newton_number(direct)
        newton_number(direct)
        assert len(calls) == (g.dim != 2 and touches_all_axes(g)), g
    calls.clear()
    assert polytope_volume(cube, 4) == 1
    assert len(calls) == 1


def stored_facet_cases():
    """Canonical diagrams from seeded 1-D, 3-D and 4-D lattice and rational clouds."""
    for dim, seed in CLOUD_CASES:
        if dim != 2:
            for pts in clouds(dim, seed) + clouds(dim, seed + 100):
                if len(set(pts)) > 1:  # one distinct point is returned before any search
                    yield pts, canonicalize(dim, pts)


def test_stored_facets_match_a_fresh_search():
    cases = list(stored_facet_cases())
    assert len(cases) > 200
    # dominated points and non-vertices on a facet are dropped, so tight sets are cut
    assert sum(len(g.generators) < len(set(pts)) for pts, g in cases) > 100
    for _, g in cases:
        fresh = Diagram(g.dim, g.generators)
        assert "facets" in vars(g) and "facets" not in vars(fresh)
        assert set(g.facets) == set(diagram_facets(fresh)), g
        # the list held changes no comparison, hash or printed form
        assert (g, hash(g), repr(g)) == (fresh, hash(fresh), repr(fresh))
    assert [f.name for f in dataclasses.fields(Diagram)] == ["dim", "generators"]


def test_vertex_sets_keep_the_search_numbering():
    # every point of a diagram's vertex set is kept, so the tight sets come
    # unrenumbered from the search, the same facets as renumbered from a cloud
    kept = 0
    for _, g in stored_facet_cases():
        again = canonicalize(g.dim, g.generators)
        assert again == g
        if len(g.generators) > 1:
            assert "facets" in vars(again) and set(again.facets) == set(g.facets), g
            kept += 1
    assert kept > 100


def test_readers_search_only_diagrams_built_directly(monkeypatch):
    diagrams = random_diagrams(3, 8, 22) + random_diagrams(4, 4, 23)
    diagrams += [g for _, g in stored_facet_cases() if g.dim > 2][:40]
    calls = counting_searches(monkeypatch)
    for g in diagrams:
        for h, searches in [(g, 0), (Diagram(g.dim, g.generators), 1)]:
            calls.clear()
            contains(h, h.generators[0])
            compact_graph(h)
            newton_number(h)
            assert len(calls) == searches, h


def test_vertices_and_edges_need_no_rank(monkeypatch):
    assert not hasattr(diagram, "rank")

    def refuse(m):
        raise AssertionError("rank called")

    for module in [m for name, m in sys.modules.items() if name.startswith("pshdiag")]:
        if getattr(module, "rank", None) is linalg.rank:
            monkeypatch.setattr(module, "rank", refuse)
    for dim, seed in CLOUD_CASES:
        for pts in clouds(dim, seed):
            compact_graph(canonicalize(dim, pts))


def searched_facets(g):
    """The facets of g as the search finds them, in the form of ``diagram_facets``."""
    n = g.dim
    return {
        (tuple(normal[:n]), -normal[n], frozenset(i - n for i in tight if i >= n))
        for normal, tight in _cone_facets(homogenized(g.generators, n))
        if any(normal[:n])
    }


def plane_diagrams(seed):
    """Seeded lattice and rational chains, some missing one axis or both,
    single vertices with the origin among them, and the 701-vertex chain."""
    rng = random.Random(seed)
    out = random_diagrams(2, 40, seed)  # rational, half of them on both axes
    for idx in range(40):
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 12))]
        shift = [(0, 0), (3, 0), (0, 2), (1, 5)][idx % 4]
        out.append(canonicalize(2, [(x + shift[0], y + shift[1]) for x, y in pts]))
    for p in [(0, 0), (4, 0), (0, 7), (2, 3), (F(1, 3), F(5, 2))]:
        out.append(canonicalize(2, [p]))
    out.append(canonicalize(2, chain(700)["generators"]))
    return out


def test_plane_facets_match_search():
    diagrams = plane_diagrams(25)
    assert {touches_all_axes(g) for g in diagrams} == {True, False}
    assert any(g.generators[0][0] > 0 and g.generators[-1][1] > 0 for g in diagrams)
    assert len(diagrams[-1].generators) == 701
    for g in diagrams:
        facets = diagram_facets(g)
        assert len(facets) == len(g.generators) + 1, g
        assert set(facets) == searched_facets(g), g
        for a, b, _ in facets:
            entries = (*a, -b)
            assert all(type(x) is int for x in entries), g
            assert math.gcd(*entries) == 1, g


def refuse(*args):
    raise AssertionError("the plane needs no facet search and no triangulation")


def test_plane_commands_make_no_search_and_no_triangulation(monkeypatch):
    monkeypatch.setattr(volume, "_cone_facets", refuse)
    monkeypatch.setattr(measures, "triangulate_face", refuse)
    touching = {"dim": 2, "generators": [["0", "6"], ["1", "3"], ["3", "1"], ["7", "0"]]}
    shifted = {"dim": 2, "generators": [["2", "9/2"], ["3", "1"], ["6", "1/2"]]}
    point = {"dim": 2, "generators": [["2", "3"]]}
    text = {"dim": 2, "polys": ["z1^6 + 3*z1*z2^2 + z2^5", "z1^2*z2^2"]}
    requests = [
        ("newton-number", {"diagram": touching}),
        ("newton-number", {"diagram": shifted}),
        ("decompose", {"diagram": touching}),
        ("decompose", {"diagram": shifted}),
        ("decompose", {"diagram": point}),
        ("classify", {"input": text}),
        ("sum", {"a": touching, "b": shifted}),
        ("homothetic", {"a": shifted, "b": touching}),
        ("indicator", {"diagram": touching, "t": ["-1", "-2"]}),
        ("diagram", {"input": text}),
        ("lelong", {"input": text, "weight": ["1", "2"]}),
    ]
    # an infinite Newton number exits 3 with an answer, not an error
    for command, payload in requests:
        result, code = execute(command, payload)
        assert "error" not in result, (command, result)
    manifest = {"requests": [{"id": i, "command": c, "payload": p} for i, (c, p) in enumerate(requests)]}
    result, _ = run_batch(manifest)
    assert [e["result"] for e in result["results"].values() if "error" in e["result"]] == []
    assert len(result["results"]) == len(requests)


def test_single_point_makes_no_search(monkeypatch):
    monkeypatch.setattr(volume, "_cone_facets", refuse)
    assert canonicalize(3, [(1, 2, 3), (1, 2, 3)]).generators == ((1, 2, 3),)
    for p in (["1", "2", "3"], ["1", "0", "2", "1/2"]):
        result, code = execute("decompose", {"diagram": {"dim": len(p), "generators": [p]}})
        assert code == EXIT_OK and result["certificate"]["method"] == "point-split", result


def triangulated_newton_number(g):
    """The Newton number with every compact facet triangulated, simplices too."""
    facets = diagram_facets(g)
    tights = [t for _, _, t in facets]
    return sum(
        abs(det([list(g.generators[i]) for i in simplex]))
        for a, _, tight in facets
        if all(x > 0 for x in a)
        for simplex in volume.triangulate_face(tight, tights, g.generators)
    )


@pytest.mark.parametrize("dim,count,seed", CASES[1:])
def test_simplex_facets_need_no_triangulation(dim, count, seed):
    rng = random.Random(seed)
    diagrams = random_diagrams(dim, count, seed)
    diagrams += [minkowski_sum(a, b) for a, b in zip(diagrams, rng.sample(diagrams, len(diagrams)))]
    diagrams = [g for g in diagrams if touches_all_axes(g)]
    sizes = {len(t) for g in diagrams for a, _, t in diagram_facets(g) if all(x > 0 for x in a)}
    assert dim in sizes and max(sizes) > dim  # simplices and other facets
    for g in diagrams:
        assert newton_number(g).value == triangulated_newton_number(g), g
