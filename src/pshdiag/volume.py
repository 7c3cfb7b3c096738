"""Exact facets and volumes of polyhedra, by the double description method.

``diagram_facets`` is the one source of face data for diagrams, run once
per diagram for ``Diagram.facets``: each facet comes with the generators
tight on it, and vertices, compact edges and the triangulations behind
Newton numbers are read off these incidences.  In the plane the facets
are read off the canonical chain; the facet search serves every other
dimension and ``polytope_volume``.  It starts from the dual rays of a
diagram's cone in closed form, and only the cones of ``polytope_volume``
take their start from ``rref``.  Exact throughout, and intended for
n <= 4: the facet search runs on Python ints, each generator and ray a
positive integer multiple of its rational vector, which has the same
signs, so every decision is that of the search over `Fraction`s; normals
come out primitive, as the ints the search computes (entries with gcd 1).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension, VerificationFailure
from .linalg import det, dot, integral, rank, reduced, rref, solve_unique

if TYPE_CHECKING:
    from .diagram import Diagram, Point

Facet = tuple[tuple[int, ...], int, frozenset[int]]  # (a, b, tight), (a, -b) primitive

# Most ray tests one facet search may make: a sign test of one ray against
# one generator, and a test of one (+, -) ray pair.  The sign tests bound
# the generators that cut off nothing: 400 points that build 800 facets
# and then 19,600 points above them all searched for 7.3 s when only the
# pairs counted.  On integer rays a test costs 0.3 to 0.45 microseconds
# (Python 3.11, 2-vCPU host), so a search stops at the limit within about
# 0.45 s.  The largest search in the tests makes 492,800 tests, as the
# plane's reference on a 701-vertex chain; outside the plane 55,849, and
# in the benchmark pools 107.
MAX_RAY_TESTS = 1_000_000


def _start(ints: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The first d independent generators, in index order, and their dual rays.

    Ray j, tight on every start generator but the j-th, is column j of the
    inverse of their rows, as a primitive int vector.  A diagram's cone
    starts with the units (e_k, 0), k < d - 1, and a lifted point (V, D),
    D > 0; the inverse of [[I, 0], [V, D]] is [[I, 0], [-V / D, 1 / D]], so
    its rays are (D e_k, -V_k) and (0, ..., 0, 1).  Any other cone takes
    the pivots of its transposed generators and the inverse from ``rref``.
    """
    d = len(ints[0])
    *v, top = ints[d - 1]
    if top > 0 and all(ints[k] == [int(j == k) for j in range(d)] for k in range(d - 1)):
        rays = [reduced([top * (j == k) for j in range(d - 1)] + [-v[k]]) for k in range(d - 1)]
        return list(range(d)), rays + [[0] * (d - 1) + [1]]
    start = rref([list(col) for col in zip(*ints)])[1]
    inverse = rref([ints[i] + [int(r == j) for j in range(d)] for r, i in enumerate(start)])[0]
    return start, [reduced(integral([row[d + j] for row in inverse])[1]) for j in range(d)]


def _cone_facets(gens: list[tuple]) -> list[tuple[list[int], list[int]]]:
    """Facets of the full-dimensional pointed cone spanned by gens, each once.

    Double description (Motzkin et al. 1953; Fukuda, Prodon 1996): the facet
    normals are the extreme rays of the dual cone {a : a.g >= 0}.  From the
    dual rays of the first d independent generators (``_start``, in closed
    form on a diagram's cone), each further generator keeps the rays on its
    nonnegative side and joins each adjacent (+, -) pair: rays tight on at
    least d - 2 common generators, no third ray tight on all.

    The search runs on Python ints (fraction-free, as in Bareiss, Math.
    Comp. 22, 1968): each generator is replaced by its least positive
    integer multiple, and each ray is kept primitive, divided by the gcd of
    its entries.  A positive multiple spans the same cone and has the same
    signs against every ray, so the (+, -) split, adjacency, the test count
    and the order of the rays are those of the same search over the
    rationals.  Facets come with the sorted indices of their tight
    generators; each normal is the primitive integer vector, as a list of
    ints.  Raises ``UnsupportedDimension`` past
    ``MAX_RAY_TESTS`` sign tests and pair tests together.
    """
    d = len(gens[0])
    ints = [reduced(integral(g)[1]) for g in gens]
    start, normals = _start(ints)
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
    return [(r, _set_bits(z)) for r, z in rays]


def _set_bits(z: int) -> list[int]:
    """The indices of the set bits of z in ascending order, one step per set bit."""
    bits = []
    while z:
        low = z & -z
        bits.append(low.bit_length() - 1)
        z ^= low
    return bits


def diagram_facets(g: Diagram) -> list[Facet]:
    """Facets (a, b, tight) of conv(generators) + R^n_+: a.x >= b with a >= 0.

    ``tight`` holds the indices of the generators on the facet.  A facet is
    compact exactly when a > 0.  (a, -b) is primitive: ints with gcd 1.

    In the plane the facets are read off the chain, on the integer rows
    (X, Y) = s (x, y) of ``Diagram.ints``, which relies on the ``Diagram``
    invariant that the generators are its vertices in lex order (x rising,
    y falling): x >= x_0 tight on the first, the line through each
    consecutive pair tight on the two, and y >= y_last tight on the last.
    Each line has a primitive normal (a, b) >= 0 and reads a X + b Y >= c
    on a generator's row, so it is (s a, s b).x >= c with gcd(s a, s b, c)
    = gcd(s, c).  The normal is the edge over its gcd, which shares most of
    s when the denominators are large, so no step multiplies two numbers of
    the size of s.  Otherwise the cone searched is spanned by (e_k, 0) for
    each recession direction, then (v, 1) for each generator.
    """
    n = g.dim
    if n == 2:
        s, rows = g.ints
        last = len(rows) - 1
        # each line as a primitive normal and the generators on it
        lines = [((1, 0), (0,))]
        for i in range(last):
            (x0, y0), (x1, y1) = rows[i], rows[i + 1]
            d = math.gcd(y0 - y1, x1 - x0)
            lines.append((((y0 - y1) // d, (x1 - x0) // d), (i, i + 1)))
        lines.append(((0, 1), (last,)))
        facets = []
        for (a, b), tight in lines:
            x, y = rows[tight[0]]
            c = a * x + b * y
            h = math.gcd(s, c)
            facets.append(((s // h * a, s // h * b), c // h, frozenset(tight)))
        return facets
    gens = [tuple(int(j == k) for j in range(n + 1)) for k in range(n)]
    gens += [tuple(v) + (1,) for v in g.generators]
    facets = []
    for normal, tight in _cone_facets(gens):
        c = tuple(normal[:n])  # normal is (c, -d): c.x - d >= 0 on the valid side
        if any(x != 0 for x in c):  # c = 0 is the face at infinity
            facets.append((c, -normal[n], frozenset(i - n for i in tight if i >= n)))
    return facets


def least_face(tights: list[frozenset[int]], members: frozenset[int]) -> frozenset[int] | None:
    """Generators of the least face holding the members, or None when no facet does.

    ``tights`` may be any list of tight sets that holds every facet
    containing the members, such as the facets on one member: the others
    do not hold the members, so the face is the same.  When the face's
    only generators are the members, it has no recession ray, or the
    members' own hull would be a smaller face: so one member is a vertex,
    and two span a compact edge.
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


def enumerate_vertices(ineqs: list[tuple[tuple[Fraction, ...], Fraction]], n: int) -> list[Point]:
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

    0 when the hull is not full-dimensional: when the points lifted to
    (p, 1) span less than R^(n+1).
    """
    points = sorted(set(vertices))
    lifted = [tuple(p) + (1,) for p in points]
    if rank(lifted) <= n:
        return Fraction(0)
    tights = [frozenset(t) for _, t in _cone_facets(lifted)]
    total = Fraction(0)
    for simplex in triangulate_face(frozenset(range(len(points))), tights, points):
        p0 = points[simplex[0]]
        total += abs(det([[points[i][k] - p0[k] for k in range(n)] for i in simplex[1:]]))
    return total / math.factorial(n)
