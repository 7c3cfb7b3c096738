"""Complete convex subsets of the nonnegative orthant.

A diagram is the set conv(generators) + R^n_+, stored by its minimal
(canonical) generator set in lexicographic order.  All operations are pure
and exact; a diagram is immutable after construction.

No operation runs an LP.  A diagram holds one facet list, ``facets``:
outside the plane ``canonicalize`` hands on those of its search, and any
other diagram reads ``volume.diagram_facets`` once, on first use.
``contains`` checks their inequalities, ``compact_graph`` and
``measures.newton_number`` read their tight sets, and in 2-D
``canonicalize`` is a monotone chain.  Everything else is arithmetic on
the generators.  A face is looked up among the tight sets on one of its
vertices: any list of tight sets that holds every facet containing the
members gives ``volume.least_face`` the same face.  ``member_of_hull``
is the tests' LP reference.

Generators are `Fraction`s, but ``canonicalize`` compares int and
`Fraction` coordinates as it is given them, so a lattice support is
sorted, deduplicated and searched on Python ints; only what it keeps
becomes `Fraction`.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlp
from .errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeCoordinate,
    NonpositiveScale,
    NonpositiveWeight,
    PolynomialSyntaxError,
    PositiveDirection,
    UnsupportedDimension,
)
from .linalg import dot, exact
from .reuse import once_per_batch
from .volume import Facet, diagram_facets, least_face

Point = tuple[Fraction, ...]

# Most generators a diagram read from JSON may list, and most generator
# pairs ``minkowski_sum`` may add, since every pair sum goes to
# ``canonicalize``.  20,000 random lattice generators take about 0.07 s
# through newton-number in 2-D and 0.5 s in 3-D, where all of them go to
# the facet search (Python 3.11, 2-vCPU host); inputs in the tests list up
# to 20,000 and in the benchmark pools 16.
MAX_GENERATORS = 20_000
# Largest dimension a polynomial text or a JSON diagram may have: the face
# code is meant for n <= 4, and without the bound newton-number of one
# 600-D point took 1.75 s, growing as n^3 (Python 3.11, 2-vCPU host).
MAX_DIM = 32
# Most digits the text of one number may hold.  Python converts no longer
# decimal string to an int (its int_max_str_digits default), and its error
# names an interpreter setting a caller of the CLI cannot reach, so longer
# text is refused before it is converted, and an answer holding a longer
# number before it is printed (``check_printable``).
MAX_DIGITS = 4_300
# least integer with more than MAX_DIGITS digits
_PRINT_LIMIT = 10**MAX_DIGITS
# the text of a rational in JSON: numerator, then an optional denominator
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def point(coords) -> Point:
    """The coordinates as `Fraction`s: a `Fraction` as it is, any other value through `Fraction`."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def point_text(coords) -> str:
    """A point as messages print it, such as (-1, 2) or (1/2, 0)."""
    return "(" + ", ".join(map(str, coords)) + ")"


@dataclass(frozen=True)
class Diagram:
    dim: int
    generators: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(sorted(self.generators)))

    def __str__(self):
        return "Diagram[" + ", ".join(map(point_text, self.generators)) + "]"

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """``volume.diagram_facets``, found on first read unless ``canonicalize`` kept them."""
        return tuple(diagram_facets(self))


@dataclass(frozen=True)
class HomothetyWitness:
    """Witness of the exact set identity A = c*B + x with c > 0, x >= 0."""

    c: Fraction
    x: Point


@dataclass(frozen=True)
class DiagramGraph:
    """Vertices and compact edges of a diagram.

    Edges are index pairs (i, j), i < j, into ``vertices`` together with the
    exact direction vector vertices[j] - vertices[i].
    """

    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int, Point], ...]


def _check_length(p: tuple, dim: int) -> tuple:
    if len(p) != dim:
        raise DimensionMismatch(f"point of length {len(p)}, expected {dim}")
    return p


def _check_point(p, dim: int) -> Point:
    return _check_length(point(p), dim)


def member_of_hull(p: Point, points: list[Point]) -> bool:
    """Exact LP test of p in conv(points) + R^n_+: the tests' reference for facets."""
    if not points:
        return False
    n = len(p)
    m = len(points)
    # variables: lambda_i >= 0, sum = 1, sum lambda_i q_i <= p componentwise
    eq = [([Fraction(1)] * m, Fraction(1))]
    ub = [([q[k] for q in points], p[k]) for k in range(n)]
    return exactlp.solve_lp(m, eq=eq, ub=ub, nonneg=True) is not None


def canonicalize(dim: int, raw_points) -> Diagram:
    """Minimal generator set (the vertices) of conv(raw_points) + R^n_+.

    Idempotent and independent of input order.  One point is its own
    vertex and is returned at once.  An int or `Fraction`
    coordinate is used as it is given and any other goes through
    `Fraction`; ints and Fractions compare and hash alike, so the sort, the
    deduplication, the 2-D chain and the facet search run on ints for a
    lattice support, and only the points kept become `Fraction`s.

    In 2-D a point with an earlier point <= it componentwise is never a
    vertex, the other points sorted by x have strictly decreasing y, and
    the vertices are exactly their lower convex chain between the two ends
    (Andrew's monotone chain), found in one pass.

    In other dimensions every point goes to ``volume.diagram_facets`` in
    sorted order, and a point is a vertex iff ``volume.least_face`` of it,
    sought among the facets on it, holds no other point.  Only a point on
    at least n facets can be a vertex of the full-dimensional diagram, so
    the others skip that test.  The result keeps the facets, with tight
    sets cut to its vertices and renumbered if a point was dropped.
    A point q >= p componentwise sorts after p and lies in the cone the
    search has built by then, so it costs one sign test per current ray and
    adds no ray; the search raises ``UnsupportedDimension`` past its
    budget, ``volume.MAX_RAY_TESTS``.
    """
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    pts = [_check_length(exact(p), dim) for p in raw_points]
    if not pts:
        raise EmptyInput("at least one generator is required")
    for p in pts:
        if any(c < 0 for c in p):
            raise NegativeCoordinate(f"negative coordinate in {point_text(p)}")
    pts = sorted(set(pts))
    if len(pts) == 1:
        return Diagram(dim, (point(pts[0]),))  # one point is its own vertex
    if dim == 2:
        keep: list[Point] = []
        for p in pts:
            if keep and p[1] >= keep[-1][1]:
                continue  # keep[-1] has the least y so far and x <= p[0]
            while len(keep) >= 2:
                (ax, ay), (bx, by) = keep[-2], keep[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                keep.pop()  # keep[-1] lies on or above the segment keep[-2] p
            keep.append(p)
        return Diagram(dim, tuple(map(point, keep)))
    facets = Diagram(dim, tuple(pts)).facets
    on = _incidence([t for _, _, t in facets], len(pts))
    keep = [i for i, f in enumerate(on) if len(f) >= dim and least_face(f, frozenset([i])) == {i}]
    g = Diagram(dim, tuple(point(pts[i]) for i in keep))
    if len(keep) < len(pts):  # renumber; when every point is a vertex the numbers stand
        index = {i: k for k, i in enumerate(keep)}  # each kept point's place among the vertices
        facets = tuple((a, b, frozenset(index[i] for i in t if i in index)) for a, b, t in facets)
    object.__setattr__(g, "facets", facets)
    return g


def _incidence(tights: list[frozenset[int]], m: int) -> list[list[frozenset[int]]]:
    """For each of m generators, the tight sets that hold it, in list order."""
    on: list[list[frozenset[int]]] = [[] for _ in range(m)]
    for t in tights:
        for i in t:
            on[i].append(t)
    return on


def contains(g: Diagram, p) -> bool:
    p = _check_point(p, g.dim)
    return all(dot(a, p) >= b for a, b, _ in g.facets)


def support_value(g: Diagram, t) -> Fraction:
    """Support function sup{<t, a> : a in the diagram} for t <= 0."""
    t = _check_point(t, g.dim)
    if any(c > 0 for c in t):
        raise PositiveDirection(f"direction {point_text(t)} has a positive component")
    return max(dot(t, gen) for gen in g.generators)


def weight(coords) -> tuple[Fraction, ...]:
    """The coordinates as `Fraction`s; ``NonpositiveWeight`` unless all are positive."""
    a = tuple(Fraction(c) for c in coords)
    if any(c <= 0 for c in a):
        raise NonpositiveWeight(f"weight {point_text(a)} must be strictly positive")
    return a


def lelong_directional(g: Diagram, a) -> Fraction:
    """min over generators of <a, gen>, for a strictly positive weight."""
    a = weight(_check_point(a, g.dim))
    return min(dot(a, gen) for gen in g.generators)


def minkowski_sum(g1: Diagram, g2: Diagram) -> Diagram:
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"{g1.dim} != {g2.dim}")
    pairs = len(g1.generators) * len(g2.generators)
    if pairs > MAX_GENERATORS:
        raise UnsupportedDimension(
            f"sum of {pairs} generator pairs exceeds the budget of {MAX_GENERATORS}"
        )
    sums = [tuple(x + y for x, y in zip(p, q)) for p in g1.generators for q in g2.generators]
    return canonicalize(g1.dim, sums)


def scale(g: Diagram, c) -> Diagram:
    c = Fraction(c)
    if c <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {c}")
    # positive scaling preserves both the vertex property and lex order
    return Diagram(g.dim, tuple(tuple(c * x for x in p) for p in g.generators))


def translate(g: Diagram, x) -> Diagram:
    x = _check_point(x, g.dim)
    if any(c < 0 for c in x):
        raise NegativeCoordinate(f"translation {point_text(x)} must be nonnegative")
    return Diagram(g.dim, tuple(tuple(a + b for a, b in zip(p, x)) for p in g.generators))


def is_homothetic_to(a: Diagram, b: Diagram) -> HomothetyWitness | None:
    """Witness for A = c*B + x with c > 0 and x >= 0, else None.

    The relation is directional: the translation must be nonnegative, so
    A homothetic to B does not imply B homothetic to A.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} != {b.dim}")
    va, vb = a.generators, b.generators
    if len(va) != len(vb):
        return None
    n = a.dim
    if len(va) == 1:
        pa, pb = va[0], vb[0]
        if all(c == 0 for c in pb):
            return HomothetyWitness(Fraction(1), pa)
        ratios = [Fraction(pa[k], pb[k]) for k in range(n) if pb[k] != 0]
        c = min(ratios)
        if c <= 0:
            return None
        x = tuple(pa[k] - c * pb[k] for k in range(n))
        return HomothetyWitness(c, x)
    # multi-vertex: scaling + nonnegative translation preserve lex order,
    # so canonical orders must correspond; c is forced by vertex differences
    da = tuple(va[1][k] - va[0][k] for k in range(n))
    db = tuple(vb[1][k] - vb[0][k] for k in range(n))
    k0 = next(k for k in range(n) if db[k] != 0)
    c = Fraction(da[k0], db[k0])
    if c <= 0:
        return None
    x = tuple(va[0][k] - c * vb[0][k] for k in range(n))
    if any(xi < 0 for xi in x):
        return None
    for pa, pb in zip(va, vb):
        if any(pa[k] != c * pb[k] + x[k] for k in range(n)):
            return None
    return HomothetyWitness(c, x)


def hull_union(g1: Diagram, g2: Diagram) -> Diagram:
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"{g1.dim} != {g2.dim}")
    return canonicalize(g1.dim, list(g1.generators) + list(g2.generators))


def touches_all_axes(g: Diagram) -> bool:
    """True iff every axis carries a generator (all other coordinates zero)."""
    for k in range(g.dim):
        if not any(
            all(c == 0 for j, c in enumerate(p) if j != k) for p in g.generators
        ):
            return False
    return True


def compact_graph(g: Diagram) -> DiagramGraph:
    """Vertices and compact 1-faces of the diagram, read off its facets.

    Two vertices span a compact edge iff ``volume.least_face`` of the pair
    holds no other vertex; it is sought among the facets on i, which
    include every facet on both.  An edge of the full-dimensional diagram
    lies on at least n - 1 facets, so only pairs that share that many
    tight sets are tested, in (i, j) order.
    """
    gens = g.generators
    tights = [t for _, _, t in g.facets]
    on = _incidence(tights, len(gens))
    shared = Counter(pair for t in tights for pair in itertools.combinations(sorted(t), 2))
    edges = []
    for (i, j), count in sorted(shared.items()):
        if count >= g.dim - 1 and least_face(on[i], frozenset([i, j])) == {i, j}:
            direction = tuple(b - a for a, b in zip(gens[i], gens[j]))
            edges.append((i, j, direction))
    return DiagramGraph(gens, tuple(edges))


# --- serialization ---------------------------------------------------------


def diagram_to_json(g: Diagram) -> dict:
    return {
        "dim": g.dim,
        "generators": [[rational_to_json(c) for c in p] for p in g.generators],
    }


def check_digits(text: str, position: int = 0) -> None:
    """Raise ``PolynomialSyntaxError`` at position when text holds over MAX_DIGITS digits."""
    if len(text) <= MAX_DIGITS:
        return
    digits = sum(c.isdigit() for c in text)
    if digits > MAX_DIGITS:
        raise PolynomialSyntaxError(
            f"number with {digits} digits exceeds the limit of {MAX_DIGITS} digits", position
        )


def check_printable(c) -> None:
    """Raise ``UnsupportedDimension`` when c has a part of over MAX_DIGITS digits.

    Python prints no longer int in decimal, and its error names an
    interpreter setting; an answer that large is refused by name instead.
    The part is c's numerator or its denominator.
    """
    if abs(c.numerator) >= _PRINT_LIMIT or c.denominator >= _PRINT_LIMIT:
        raise UnsupportedDimension(
            f"the answer holds a number of over {MAX_DIGITS} digits, the most one may print"
        )


def rational_to_json(c: Fraction) -> str:
    """A rational as JSON text, such as "3/4" or "3".

    Equal texts are one string (``sys.intern``): the small coordinates that
    fill a result repeat within it and across results, and a caller that
    keeps many results would otherwise hold a fresh copy of each.  An
    interned string is freed with its last reference, so nothing is kept
    beyond the results that use it.  See ``check_printable``.
    """
    check_printable(c)
    return sys.intern(str(c))


def rational_from_json(value) -> int | Fraction:
    """A rational given in JSON as an integer or as a string such as "3", "-3" or "3/4".

    Floats are refused: a binary float such as 0.1 is not the rational
    its decimal text shows.  A string is an optional minus sign, digits
    and an optional "/" with a positive denominator, as ``rational_to_json``
    prints; it holds at most ``MAX_DIGITS`` digits.  A JSON integer, and a
    string whose denominator is 1 or absent, comes back as an `int`, which
    ``canonicalize`` compares as it is; any other value as a `Fraction`.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"rationals must be strings or integers, got {value!r}")
    if isinstance(value, int):
        return value
    m = _RATIONAL.fullmatch(value)
    if m is not None:
        check_digits(value)
        num, den = int(m.group(1)), int(m.group(2) or 1)
        if den == 1:
            return num
        if den:
            return Fraction(num, den)
    raise PolynomialSyntaxError(
        'a rational must read like "3", "-3" or "3/4": digits, an optional leading "-" '
        'and an optional "/" with a positive denominator',
        0,
    )


def diagram_from_json(obj: dict) -> Diagram:
    if not isinstance(obj, dict) or "dim" not in obj or "generators" not in obj:
        raise EmptyInput("diagram JSON must have 'dim' and 'generators'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise DimensionMismatch("'dim' must be an integer")
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    gens = obj["generators"]
    if not isinstance(gens, list) or not all(isinstance(p, list) for p in gens):
        raise TypeError("'generators' must be a list of coordinate lists")
    if len(gens) > MAX_GENERATORS:
        raise UnsupportedDimension(
            f"{len(gens)} generators exceed the budget of {MAX_GENERATORS} per diagram"
        )
    return _canonical(dim, tuple(tuple(rational_from_json(c) for c in p) for p in gens))


@once_per_batch
def _canonical(dim: int, points: tuple[tuple, ...]) -> Diagram:
    """``canonicalize``, once per dimension and points within a batch.

    The points are keyed as ``rational_from_json`` reads them, not as JSON
    gives them: a float 1.0 or a true equals 1 as a key, yet is refused.
    """
    return canonicalize(dim, points)
