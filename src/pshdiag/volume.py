"""Exact facets and volumes of polyhedra, by the double description method.

``diagram_facets`` is the one source of face data for diagrams: each facet
comes with the generators tight on it, and vertices, compact edges and the
triangulations behind Newton numbers and volumes are read off these
incidences.  Exact throughout, and intended for n <= 4: the facet search
runs on Python ints, each generator and ray a positive integer multiple of
its rational vector, which has the same signs, so every decision is that
of the search over `Fraction`s; normals come out primitive (integer
entries with gcd 1, as `Fraction`s).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension, VerificationFailure
from .linalg import det, dot, integral, rank, reduced, solve_unique

if TYPE_CHECKING:
    from .diagram import Diagram, Point

Inequality = tuple[tuple[Fraction, ...], Fraction]  # (a, b) meaning a.x >= b
Facet = tuple[tuple[Fraction, ...], Fraction, frozenset[int]]  # (a, b, tight)

# Most ray tests one facet search may make: a sign test of one ray against
# one generator, and a test of one (+, -) ray pair.  The sign tests bound
# the generators that cut off nothing: 400 points that build 800 facets
# and then 19,600 points above them all searched for 7.3 s when only the
# pairs counted.  On integer rays a test costs 0.3 to 0.45 microseconds
# (Python 3.11, 2-vCPU host), so a search stops at the limit within about
# 0.45 s; the largest search in the tests makes 55,849 tests, and in the
# benchmark pools 285.
MAX_RAY_TESTS = 1_000_000


def _dual_basis(gens: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The first d independent generators, in index order, and their dual rays.

    Fraction-free Gauss-Jordan on the rows [g | e_i] of the chosen
    generators: every row is kept reduced in the other rows' pivot columns
    and divided by its gcd, so it ends as [D_i e_c | m_i] where m_i times
    the chosen generators is D_i e_c.  Ray j, tight on every chosen
    generator but the j-th, is column j of their inverse, whose entry c is
    m_i[j] / D_i; a ratio that no nonzero row scaling changes, so the ray
    is read off exactly, times the lcm of the |D_i|.
    """
    d = len(gens[0])
    start: list[int] = []
    rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for k, g in enumerate(gens):
        row = g + [0] * d
        row[d + len(start)] = 1
        for c, r in rows:
            f = row[c]
            if f:
                row = reduced([r[c] * x - f * y for x, y in zip(row, r)])
        col = next((c for c in range(d) if row[c]), None)
        if col is None:
            continue  # g lies in the span of the generators chosen before it
        pv = row[col]
        rows = [
            (c, reduced([pv * x - r[col] * y for x, y in zip(r, row)]) if r[col] else r)
            for c, r in rows
        ]
        rows.append((col, row))
        start.append(k)
        if len(start) == d:
            break
    scale = math.lcm(*(r[c] for c, r in rows))
    rays = [[0] * d for _ in range(d)]
    for c, r in rows:
        for j in range(d):
            rays[j][c] = r[d + j] * (scale // r[c])
    return start, [reduced(ray) for ray in rays]


def _cone_facets(gens: list[tuple[Fraction, ...]]) -> list[tuple[list[Fraction], list[int]]]:
    """Facets of the full-dimensional pointed cone spanned by gens, each once.

    Double description (Motzkin et al. 1953; Fukuda, Prodon 1996): the facet
    normals are the extreme rays of the dual cone {a : a.g >= 0}.  From the
    dual rays of d independent generators, each further generator keeps the
    rays on its nonnegative side and joins each adjacent (+, -) pair: rays
    tight on at least d - 2 common generators, no third ray tight on all.

    The search runs on Python ints (fraction-free, as in Bareiss, Math.
    Comp. 22, 1968): each generator is replaced by its least positive
    integer multiple, and each ray is kept primitive, divided by the gcd of
    its entries.  A positive multiple spans the same cone and has the same
    signs against every ray, so the (+, -) split, adjacency, the test count
    and the order of the rays are those of the same search over the
    rationals.  Facets come with the sorted indices of their tight
    generators; each normal is the primitive integer vector, with
    ``Fraction`` entries.  Raises ``UnsupportedDimension`` past
    ``MAX_RAY_TESTS`` sign tests and pair tests together.
    """
    d = len(gens[0])
    ints = [reduced(integral(g)[1]) for g in gens]
    start, normals = _dual_basis(ints)
    # a ray is a normal and the bit set of the generators cut so far tight on it
    tight = sum(1 << i for i in start)
    rays = [(r, tight ^ (1 << i)) for r, i in zip(normals, start)]
    tests = 0
    for k in sorted(set(range(len(gens))) - set(start)):
        g = ints[k]
        vals = [sum(map(operator.mul, r, g)) for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        tests += len(rays) + len(pos) * len(neg)
        if tests > MAX_RAY_TESTS:
            raise UnsupportedDimension(f"facet search exceeds its budget of {MAX_RAY_TESTS} ray tests")
        cut = [(r, z | (1 << k) if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        for i in pos:
            for j in neg:
                common = rays[i][1] & rays[j][1]
                if common.bit_count() >= d - 2 and sum(z & common == common for _, z in rays) == 2:
                    ray = [vals[i] * y - vals[j] * x for x, y in zip(rays[i][0], rays[j][0])]
                    cut.append((reduced(ray), common | (1 << k)))
        rays = cut
    return [
        ([Fraction(x) for x in r], [i for i in range(len(gens)) if z >> i & 1]) for r, z in rays
    ]


def diagram_facets(g: Diagram) -> list[Facet]:
    """Facets (a, b, tight) of conv(generators) + R^n_+: a.x >= b with a >= 0.

    ``tight`` holds the indices of the generators on the facet.  The cone
    searched is spanned by (e_k, 0) for each recession direction, then
    (v, 1) for each generator.  A facet is compact exactly when a > 0.
    (a, -b) is primitive: integers with gcd 1, as `Fraction`s.
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
