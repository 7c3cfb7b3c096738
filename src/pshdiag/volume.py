"""Exact facets and volumes of polyhedra, by the double description method.

``diagram_facets`` is the one source of face data for diagrams: each facet
comes with the generators tight on it, and vertices, compact edges and the
triangulations behind Newton numbers and volumes are read off these
incidences.  Works entirely over rationals; intended for n <= 4.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension, VerificationFailure
from .linalg import det, dot, inverse, rank, rref, solve_unique

if TYPE_CHECKING:
    from .diagram import Diagram, Point

Inequality = tuple[tuple[Fraction, ...], Fraction]  # (a, b) meaning a.x >= b
Facet = tuple[tuple[Fraction, ...], Fraction, frozenset[int]]  # (a, b, tight)

# Most (+, -) ray pairs one facet search may test.  A test costs about a
# microsecond, so a search at the limit takes about a second; the largest
# search in the tests tests 593 pairs, and in the benchmark pools 135.
MAX_RAY_PAIRS = 1_000_000


def _cone_facets(gens: list[tuple[Fraction, ...]]) -> list[tuple[list[Fraction], list[int]]]:
    """Facets of the full-dimensional pointed cone spanned by gens, each once.

    Double description (Motzkin et al. 1953; Fukuda, Prodon 1996): the facet
    normals are the extreme rays of the dual cone {a : a.g >= 0}.  From the
    dual rays of d independent generators, each further generator keeps the
    rays on its nonnegative side and joins each adjacent (+, -) pair: rays
    tight on at least d - 2 common generators, no third ray tight on all.
    Joined rays are divided by their largest |entry| to keep the fractions
    small.  Facets come with the sorted indices of their tight generators.
    Raises ``UnsupportedDimension`` past ``MAX_RAY_PAIRS`` pairs.
    """
    d = len(gens[0])
    _, start = rref([list(col) for col in zip(*gens)])
    inv = inverse([list(gens[i]) for i in start])
    # a ray is a normal and the bit set of the generators cut so far tight on it
    tight = sum(1 << i for i in start)
    rays = [([row[j] for row in inv], tight ^ (1 << i)) for j, i in enumerate(start)]
    pairs = 0
    for k in sorted(set(range(len(gens))) - set(start)):
        vals = [dot(r, gens[k]) for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        pairs += len(pos) * len(neg)
        if pairs > MAX_RAY_PAIRS:
            raise UnsupportedDimension(f"facet search exceeds its {MAX_RAY_PAIRS} ray-pair budget")
        cut = [(r, z | (1 << k) if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        for i in pos:
            for j in neg:
                common = rays[i][1] & rays[j][1]
                if common.bit_count() >= d - 2 and sum(z & common == common for _, z in rays) == 2:
                    ray = [vals[i] * y - vals[j] * x for x, y in zip(rays[i][0], rays[j][0])]
                    top = max(abs(x) for x in ray)
                    cut.append(([x / top for x in ray], common | (1 << k)))
        rays = cut
    return [(r, [i for i in range(len(gens)) if z >> i & 1]) for r, z in rays]


def diagram_facets(g: Diagram) -> list[Facet]:
    """Facets (a, b, tight) of conv(generators) + R^n_+: a.x >= b with a >= 0.

    ``tight`` holds the indices of the generators on the facet.  The cone
    searched is spanned by (e_k, 0) for each recession direction, then
    (v, 1) for each generator.  A facet is compact exactly when a > 0.
    """
    n = g.dim
    gens = [tuple(Fraction(int(j == k)) for j in range(n + 1)) for k in range(n)]
    gens += [tuple(v) + (Fraction(1),) for v in g.generators]
    facets = []
    for normal, tight in _cone_facets(gens):
        c = tuple(normal[:n])  # normal is (c, -d): c.x - d >= 0 on the valid side
        if any(x != 0 for x in c):  # c = 0 is the face at infinity
            facets.append((c, -normal[n], frozenset(i - n for i in tight if i >= n)))
    return facets


def least_face(tights: list[frozenset[int]], members: frozenset[int]) -> frozenset[int] | None:
    """Generators of the least face holding the members, or None when no facet does.

    When the face's only generators are the members, it has no recession
    ray, or the members' own hull would be a smaller face: so one member is
    a vertex, and two span a compact edge.
    """
    faces = [t for t in tights if members <= t]
    return frozenset.intersection(*faces) if faces else None


def triangulate_face(
    face: frozenset[int], tights: list[frozenset[int]], points: Sequence[Point]
) -> list[tuple[int, ...]]:
    """Pulling triangulation of a bounded face, as tuples of indices into points.

    ``face`` and the polyhedron's facets ``tights`` are sets of indices into
    ``points``.  The facets of the face are its largest proper traces
    ``face & t``; cones from its least point over those that miss it
    triangulate it (De Loera, Rambau, Santos, Triangulations, 4.3).  The
    simplices of a k-face have k + 1 points, so ``VerificationFailure`` is
    raised when those of one face differ in size.
    """
    if len(face) == 1:
        return [tuple(face)]
    apex = min(face, key=points.__getitem__)
    traces = {face & t for t in tights} - {face}
    simplices = [
        (apex,) + s
        for f in traces
        if f and apex not in f and not any(f < h for h in traces)
        for s in triangulate_face(f, tights, points)
    ]
    if len({len(s) for s in simplices}) != 1:
        raise VerificationFailure(f"simplices of face {sorted(face)} differ in size")
    return simplices


def enumerate_vertices(ineqs: list[Inequality], n: int) -> list[Point]:
    """All vertices of {x : a.x >= b for each (a, b)} (assumed bounded)."""
    verts: set[Point] = set()
    for subset in itertools.combinations(range(len(ineqs)), n):
        rows = [list(ineqs[i][0]) for i in subset]
        rhs = [ineqs[i][1] for i in subset]
        x = solve_unique(rows, rhs)
        if x is None:
            continue
        if all(dot(a, x) >= b for a, b in ineqs):
            verts.add(tuple(x))
    return sorted(verts)


def polytope_volume(vertices: list[Point], n: int) -> Fraction:
    """Euclidean volume of the convex hull of the vertices in R^n.

    Assumes the hull is full-dimensional (returns 0 when it is not).
    """
    points = sorted(set(vertices))
    if len(points) <= n:
        return Fraction(0)
    if rank([[q[k] - points[0][k] for k in range(n)] for q in points[1:]]) < n:
        return Fraction(0)
    tights = [frozenset(t) for _, t in _cone_facets([tuple(p) + (Fraction(1),) for p in points])]
    total = Fraction(0)
    for simplex in triangulate_face(frozenset(range(len(points))), tights, points):
        p0 = points[simplex[0]]
        total += abs(det([[points[i][k] - p0[k] for k in range(n)] for i in simplex[1:]]))
    return total / math.factorial(n)
