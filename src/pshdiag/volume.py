"""Exact facets and volumes of polyhedra, by cone-facet enumeration.

``diagram_facets`` is the one source of face data for diagrams: compact
edges and Newton numbers are read off its facet list.  ``polytope_volume``
triangulates a polytope over the facets of its hull.  Works entirely over
rationals; intended for desk-scale dimensions (n <= 4).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension, VerificationFailure
from .linalg import det, dot, nullspace, rank, rref, solve_unique

if TYPE_CHECKING:
    from .diagram import Diagram, Point

Inequality = tuple[tuple[Fraction, ...], Fraction]  # (a, b) meaning a.x >= b

# Most generator subsets one facet search may try.  Each costs about a
# millisecond, so a search at the limit takes seconds; the largest in the
# tests tries 5985 (a 4-D diagram with 17 vertices).
MAX_FACET_SUBSETS = 10_000


def _cone_facets(gens: list[tuple[Fraction, ...]]) -> list[tuple[list[Fraction], list[int]]]:
    """Facets of the full-dimensional cone spanned by gens, each found once.

    A facet is returned as an inward normal together with the indices of
    the generators tight on it; the tight set spans the facet's hyperplane,
    so it identifies the facet.  Raises ``UnsupportedDimension`` when the
    search would try more than ``MAX_FACET_SUBSETS`` subsets.
    """
    subsets = math.comb(len(gens), len(gens[0]) - 1)
    if subsets > MAX_FACET_SUBSETS:
        raise UnsupportedDimension(
            f"facet search over {subsets} generator subsets exceeds the budget "
            f"of {MAX_FACET_SUBSETS}"
        )
    facets: dict[tuple[int, ...], tuple[list[Fraction], list[int]]] = {}
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


def _facets_of_hull(points: list[Point]) -> list[list[int]]:
    """Facets of the full-dimensional hull of points in R^d, as index lists."""
    return [tight for _, tight in _cone_facets([tuple(p) + (Fraction(1),) for p in points])]


def _triangulate(points: list[Point], d: int) -> list[tuple[int, ...]]:
    """Fan triangulation of the full-dimensional hull, as index tuples."""
    if d == 0:
        return [(0,)]
    if d == 1:
        order = sorted(range(len(points)), key=lambda i: points[i][0])
        return [(order[0], order[-1])]
    base = min(range(len(points)), key=lambda i: points[i])
    simplices: list[tuple[int, ...]] = []
    for facet in _facets_of_hull(points):
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
