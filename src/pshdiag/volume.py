"""Exact facets and volumes of polyhedra, by the double description method.

``diagram_facets`` is the one source of face data for diagrams: vertices,
membership, compact edges and Newton numbers are read off its facet list.
``polytope_volume`` triangulates a polytope over the facets of its hull.
Works entirely over rationals; intended for desk-scale dimensions (n <= 4).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension, VerificationFailure
from .linalg import det, dot, inverse, rank, rref, solve_unique

if TYPE_CHECKING:
    from .diagram import Diagram, Point

Inequality = tuple[tuple[Fraction, ...], Fraction]  # (a, b) meaning a.x >= b

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


def diagram_facets(g: Diagram) -> list[Inequality]:
    """Facet inequalities a.x >= b (a >= 0) of conv(generators) + R^n_+.

    Enumerated through the homogenization cone spanned by (v, 1) for each
    generator and (e_k, 0) for each recession direction.  A facet is
    compact exactly when a > 0 componentwise.
    """
    n = g.dim
    gens: list[tuple[Fraction, ...]] = [tuple(v) + (Fraction(1),) for v in g.generators]
    for k in range(n):
        ray = [Fraction(0)] * (n + 1)
        ray[k] = Fraction(1)
        gens.append(tuple(ray))
    facets = []
    for normal, _ in _cone_facets(gens):
        c = tuple(normal[:n])  # normal is (c, -d): c.x - d >= 0 on the valid side
        if any(x != 0 for x in c):  # c = 0 is the face at infinity
            facets.append((c, -normal[n]))
    return facets


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


def _affine_coords(points: list[Point]) -> tuple[list[Point], int]:
    """Exact coordinates of the points in their affine hull, and its dimension.

    Each point keeps the entries of its difference from the first point in
    the pivot columns of the differences' echelon form.  That projection
    maps the affine hull one-to-one onto its image, so faces are preserved.
    """
    p0 = points[0]
    diffs = [[q[k] - p0[k] for k in range(len(p0))] for q in points]
    _, pivots = rref(diffs)
    return [tuple(d[c] for c in pivots) for d in diffs], len(pivots)


def _triangulate(points: list[Point], d: int) -> list[tuple[int, ...]]:
    """Fan triangulation of the full-dimensional hull, as index tuples."""
    if d == 0:
        return [(0,)]
    if d == 1:
        order = sorted(range(len(points)), key=lambda i: points[i][0])
        return [(order[0], order[-1])]
    base = min(range(len(points)), key=lambda i: points[i])
    simplices: list[tuple[int, ...]] = []
    for _, facet in _cone_facets([tuple(p) + (Fraction(1),) for p in points]):
        if base in facet:
            continue
        coords, fd = _affine_coords([points[i] for i in facet])
        if fd != d - 1:
            raise VerificationFailure(f"facet of a {d}-polytope spans dimension {fd}")
        for sub in _triangulate(coords, fd):
            simplices.append((base,) + tuple(facet[i] for i in sub))
    return simplices


def polytope_volume(vertices: list[Point], n: int) -> Fraction:
    """Euclidean volume of the convex hull of the vertices in R^n.

    Assumes the hull is full-dimensional (returns 0 when it is not).
    """
    if len(vertices) <= n:
        return Fraction(0)
    if rank([[q[k] - vertices[0][k] for k in range(n)] for q in vertices[1:]]) < n:
        return Fraction(0)
    total = Fraction(0)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    for simplex in _triangulate(list(vertices), n):
        p0 = vertices[simplex[0]]
        mat = [[vertices[i][k] - p0[k] for k in range(n)] for i in simplex[1:]]
        total += abs(det(mat))
    return total / fact
