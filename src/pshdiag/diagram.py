"""Complete convex subsets of the nonnegative orthant.

A diagram is the set conv(generators) + R^n_+, stored by its minimal
(canonical) generator set in lexicographic order.  All operations are pure
and exact; a diagram is immutable after construction.

A diagram holds one integer form, ``ints`` = (s, rows): s is the lcm of
its generators' denominators, and each row is a generator times s, a
tuple of ints.  The rows are sorted, which is the generators' order, and
with the dimension they are all a diagram stores: equality and hashing
read them.  ``generators``, the `Fraction` points, is a view built on
first read, for the public API and messages; no kernel reads it to do
arithmetic.  Sums, homothety tests, translations, JSON output, Newton
numbers, the axis test, the plane's facets, the support and Lelong values,
the summand system and the test of a decomposition all run on the rows,
and each answer becomes a `Fraction` once, at the end.  ``canonicalize``
sorts and deduplicates its points as given, ints for a lattice support,
searches them each over its own denominator, and scales only the points
it keeps to the common one: a common denominator of many raw points with
large distinct denominators would make every chain test work on numbers
of their combined size.

No operation runs an LP.  A diagram holds one facet list, ``facets``:
outside the plane ``canonicalize`` hands on those of its search, and any
other diagram reads ``volume.diagram_facets`` once, on first use.
``contains`` checks their inequalities, ``compact_graph`` and
``measures.newton_number`` read their tight sets, and in 2-D
``canonicalize`` is a monotone chain.  A face is looked up among the
tight sets on one of its vertices: any list of tight sets that holds
every facet containing the members gives ``volume.least_face`` the same
face.  ``member_of_hull`` is the tests' LP reference.
"""

from __future__ import annotations

import itertools
import math
import operator
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
from .linalg import dot, exact, integral
from .reuse import once_per_batch
from .volume import Facet, diagram_facets, least_face, orthant_facets

Point = tuple[Fraction, ...]

# Most generators a diagram read from JSON may list, and most generator
# pairs ``minkowski_sum`` may add, since every pair sum goes to
# ``canonicalize``; ``verify_decomposition`` forms no sum, so it guards
# the ``sum`` command alone.  20,000 random lattice generators take about 0.07 s
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


def point_text(coords) -> str:
    """A point as messages print it, such as (-1, 2) or (1/2, 0)."""
    return "(" + ", ".join(map(str, coords)) + ")"


@dataclass(frozen=True, init=False, repr=False)
class Diagram:
    """conv(generators) + R^n_+, held as ``ints`` = (s, rows).

    s is the lcm of the generators' denominators and each row is a
    generator times s, as a tuple of ints; the rows are in lex order,
    which is the generators' order, since s > 0.  Equality and hashing
    read ``dim`` and ``ints``, which equal generators give.
    """

    dim: int
    ints: tuple[int, tuple[tuple[int, ...], ...]]

    def __init__(self, dim: int, generators):
        """The generators are read and checked as ``canonicalize`` reads
        them (``_points``), and kept as given, duplicates and non-vertices
        too."""
        s, rows = _integer_form(_points(dim, generators))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ints", (s, tuple(sorted(rows))))

    def __repr__(self):
        return f"Diagram(dim={self.dim!r}, generators={self.generators!r})"

    def __str__(self):
        return "Diagram[" + ", ".join(map(point_text, self.generators)) + "]"

    @cached_property
    def generators(self) -> tuple[Point, ...]:
        """The generators as `Fraction` points in lex order, each row over s: built on first read."""
        s, rows = self.ints
        return tuple(tuple(Fraction(c, s) for c in row) for row in rows)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """``volume.diagram_facets``, found on first read unless ``canonicalize`` kept them."""
        return tuple(diagram_facets(self))


def _integer_form(points) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(s, rows) of points of ints and `Fraction`s: s the lcm of their
    denominators, and each point times s, in the given order.

    s is the ``_lcm`` of the distinct denominators, and s over each of
    them is taken once.
    """
    dens = {c.denominator for p in points for c in p}
    s = _lcm(dens)
    over = {d: s // d for d in dens}
    return s, tuple(tuple(c.numerator * over[c.denominator] for c in p) for p in points)


def _lcm(values: set[int]) -> int:
    """The lcm of the distinct positive ints, in rounds of pairwise lcms: one
    pass, lcm(lcm(a, b), c) ..., would multiply each into the whole
    product so far."""
    top = list(values)
    while len(top) > 1:
        top = [math.lcm(*top[i : i + 2]) for i in range(0, len(top), 2)]
    return top[0] if top else 1


def _stored(dim: int, s: int, rows: tuple, facets=None) -> Diagram:
    """The diagram whose ``ints`` are (s, rows), taken as they are: the rows
    sorted and distinct, and s the lcm of the denominators of row / s."""
    g = object.__new__(Diagram)
    object.__setattr__(g, "dim", dim)
    object.__setattr__(g, "ints", (s, rows))
    if facets is not None:
        object.__setattr__(g, "facets", facets)
    return g


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


def _point(p, dim: int) -> tuple:
    """The coordinates read by ``linalg.exact``; ``DimensionMismatch`` unless there are dim."""
    p = exact(p)
    if len(p) != dim:
        raise DimensionMismatch(f"point of length {len(p)}, expected {dim}")
    return p


def _points(dim: int, raw_points) -> list[tuple]:
    """The points read by ``_point``, for a dimension dim >= 1: a typed
    error unless dim is an int, there is a point, and no coordinate is
    negative."""
    if type(dim) is not int:
        raise TypeError(f"the dimension must be an int, got {dim!r}")
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    pts = [_point(p, dim) for p in raw_points]
    if not pts:
        raise EmptyInput("at least one generator is required")
    for p in pts:
        if any(c < 0 for c in p):
            raise NegativeCoordinate(f"negative coordinate in {point_text(p)}")
    return pts


def member_of_hull(p: Point, points: list[Point]) -> bool:
    """Exact LP test of p in conv(points) + R^n_+: the tests' reference for facets."""
    if not points:
        return False
    n = len(p)
    m = len(points)
    # variables: lambda_i >= 0, sum = 1, sum lambda_i q_i <= p componentwise
    eq = [([1] * m, 1)]
    ub = [([q[k] for q in points], p[k]) for k in range(n)]
    return exactlp.solve_lp(m, eq=eq, ub=ub, nonneg=True) is not None


def canonicalize(dim: int, raw_points) -> Diagram:
    """Minimal generator set (the vertices) of conv(raw_points) + R^n_+.

    Idempotent and independent of input order.  The points are read and
    checked by ``_points``: each coordinate through ``linalg.exact``, so an
    int or `Fraction` is used as it is given, a rational string goes
    through `Fraction`, and a float or a bool raises ``TypeError``.  Ints
    and Fractions compare and hash alike, so the sort, the deduplication
    and the vertex search (``_vertex_set``) run on ints for a lattice
    support.  Only the points kept are scaled to the integer form:
    s, the lcm of their denominators, and each times s.  A common
    denominator of all the raw points is never taken, as many points with
    large distinct denominators would make every test work on numbers of
    their combined size.
    """
    keep, facets = _vertex_set(dim, sorted(set(_points(dim, raw_points))), 1)
    return _stored(dim, *_integer_form(keep), facets)


def _vertex_set(dim: int, pts: list, top) -> tuple[list, tuple[Facet, ...] | None]:
    """The vertices among the sorted distinct points pts / top, in order,
    and outside the plane the facets of the search.

    One point is its own vertex and is returned at once.  In 2-D a point
    with an earlier point <= it componentwise is never a vertex, the other
    points sorted by x have strictly decreasing y, and the vertices are
    exactly their lower convex chain between the two ends (Andrew's
    monotone chain), found in one pass.  The chain reads each point as
    ints (X, Y, D), the point times its own denominator D, 1 for ints, and
    tests the sign of a cross product times a positive product of the D:
    `Fraction` arithmetic there took 0.06 s, against 0.007 s, on a chain
    of 3,000 points over distinct 6-digit primes.

    In other dimensions every point goes to the facet search
    (``volume.orthant_facets``), lifted to (p, top), in sorted order, and
    a point is a vertex iff ``volume.least_face`` of it, sought among the
    facets on it, holds no other point.  Only a point on at least n facets
    can be a vertex of the full-dimensional diagram, so the others skip
    that test.  The facets are kept, with tight sets cut to the vertices
    and renumbered if a point was dropped.  A point q >= p componentwise
    sorts after p and lies in the cone the search has built by then, so it
    costs one sign test per current ray and adds no ray; the search raises
    ``UnsupportedDimension`` past its budget, ``volume.MAX_RAY_TESTS``.
    """
    if len(pts) == 1:
        return pts, None
    if dim == 2:
        keep: list = []  # the chain so far, each point as (X, Y, D, point)
        for p in pts:
            x, y = p
            if type(x) is int and type(y) is int:
                d = 1
            else:
                d = math.lcm(x.denominator, y.denominator)
                x, y = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
            if keep and y * keep[-1][2] >= keep[-1][1] * d:
                continue  # keep[-1] has the least y so far and x <= p[0]
            while len(keep) >= 2:
                (ax, ay, ad, _), (bx, by, bd, _) = keep[-2], keep[-1]
                # (b - a) x (p - a), times ad^2 bd d
                if (bx * ad - ax * bd) * (y * ad - ay * d) - (by * ad - ay * bd) * (x * ad - ax * d) > 0:
                    break
                keep.pop()  # keep[-1] lies on or above the segment keep[-2] p
            keep.append((x, y, d, p))
        return [k[3] for k in keep], None
    facets = tuple(orthant_facets(dim, [p + (top,) for p in pts]))
    kept = _vertices(dim, facets, len(pts))
    if len(kept) < len(pts):  # renumber; when every point is a vertex the numbers stand
        index = {i: k for k, i in enumerate(kept)}  # each kept point's place among the vertices
        facets = tuple((a, b, frozenset(index[i] for i in t if i in index)) for a, b, t in facets)
    return [pts[i] for i in kept], facets


def _vertices(dim: int, facets, m: int) -> list[int]:
    """The indices of the m generators that are vertices, by their facets.

    Only a generator on at least dim facets can be a vertex of the
    full-dimensional diagram, so the others skip ``volume.least_face``.
    """
    on = _incidence([t for _, _, t in facets], m)
    return [i for i, f in enumerate(on) if len(f) >= dim and least_face(f, frozenset([i])) == {i}]


def is_canonical(g: Diagram) -> bool:
    """True iff every generator of g is a vertex of its diagram, no two equal.

    One generator is its own vertex.  In the plane the rows of ``ints``
    must be the chain ``_vertex_set`` keeps of them; otherwise each
    generator must be a vertex by the facets (``_vertices``).
    """
    rows = g.ints[1]
    if len(rows) == 1:
        return True
    if g.dim == 2:
        return _vertex_set(2, list(rows), 1)[0] == list(rows)
    return len(_vertices(g.dim, g.facets, len(rows))) == len(rows)


def diagram_of_rows(dim: int, s: int, rows, facets=None) -> Diagram:
    """The diagram whose generators are the distinct int rows over s, which
    must be its vertices, as ``canonicalize`` would return them; outside
    the plane ``facets``, if given, are kept as its facets.

    s and the rows are divided by their gcd h, which leaves s the lcm of
    the generators' denominators.  h divides g = gcd(s, sum of the
    entries), most often 1; otherwise h is g over the ``_lcm`` of each
    g / gcd(c, g).  One gcd of s with all the entries in turn would
    divide numbers of s's size by partial gcds of half that size: that
    took 2.4 s on 3,000 rows over the lcm of 3,000 distinct 6-digit
    primes (Python 3.11, 2-vCPU host).
    """
    rows = sorted(rows)
    h = math.gcd(s, sum(itertools.chain.from_iterable(rows)))
    if h > 1:
        h //= _lcm({h // math.gcd(c, h) for row in rows for c in row})
        s //= h
        rows = [tuple(c // h for c in row) for row in rows]
    return _stored(dim, s, tuple(rows), facets)


def _hull_of_rows(dim: int, s: int, rows) -> Diagram:
    """``canonicalize`` of int rows over s: the vertex search reads them
    lifted to (row, s), and the vertices go to ``diagram_of_rows``."""
    return diagram_of_rows(dim, s, *_vertex_set(dim, sorted(set(rows)), s))


def _incidence(tights: list[frozenset[int]], m: int) -> list[list[frozenset[int]]]:
    """For each of m generators, the tight sets that hold it, in list order."""
    on: list[list[frozenset[int]]] = [[] for _ in range(m)]
    for t in tights:
        for i in t:
            on[i].append(t)
    return on


def contains(g: Diagram, p) -> bool:
    p = _point(p, g.dim)
    return all(dot(a, p) >= b for a, b, _ in g.facets)


def _extreme_dot(g: Diagram, a: Point, pick) -> Fraction:
    """pick (``max`` or ``min``) of <a, gen> over the generators, on the
    integer rows of ``ints`` and of a."""
    r, a = integral(a)
    s, rows = g.ints
    return Fraction(pick(sum(map(operator.mul, a, row)) for row in rows), r * s)


def support_value(g: Diagram, t) -> Fraction:
    """Support function sup{<t, a> : a in the diagram} for t <= 0."""
    t = _point(t, g.dim)
    if any(c > 0 for c in t):
        raise PositiveDirection(f"direction {point_text(t)} has a positive component")
    return _extreme_dot(g, t, max)


def weight(coords) -> tuple:
    """The coordinates read by ``linalg.exact``; ``NonpositiveWeight`` unless all are positive."""
    a = exact(coords)
    if any(c <= 0 for c in a):
        raise NonpositiveWeight(f"weight {point_text(a)} must be strictly positive")
    return a


def lelong_directional(g: Diagram, a) -> Fraction:
    """min over generators of <a, gen>, for a strictly positive weight."""
    return _extreme_dot(g, weight(_point(a, g.dim)), min)


def minkowski_sum(g1: Diagram, g2: Diagram) -> Diagram:
    """The canonical sum, from every pair sum P d/s1 + Q d/s2 of the rows
    over d = lcm(s1, s2).  ``MAX_GENERATORS`` bounds the pairs before any
    is formed."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"{g1.dim} != {g2.dim}")
    (s1, ps), (s2, qs) = g1.ints, g2.ints
    pairs = len(ps) * len(qs)
    if pairs > MAX_GENERATORS:
        raise UnsupportedDimension(
            f"sum of {pairs} generator pairs exceeds the budget of {MAX_GENERATORS}"
        )
    d = math.lcm(s1, s2)
    x, y = d // s1, d // s2
    return _hull_of_rows(g1.dim, d, [tuple(x * a + y * b for a, b in zip(p, q)) for p in ps for q in qs])


def scale(g: Diagram, c) -> Diagram:
    (c,) = exact([c])
    if c <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {c}")
    # positive scaling preserves both the vertex property and lex order
    s, rows = g.ints
    k = c.numerator
    return diagram_of_rows(g.dim, s * c.denominator, [tuple(k * x for x in row) for row in rows])


def translate(g: Diagram, x) -> Diagram:
    """G + x on the rows over d = lcm(s, r), r the lcm of x's denominators:
    a translation keeps the vertices and their order."""
    x = _point(x, g.dim)
    if any(c < 0 for c in x):
        raise NegativeCoordinate(f"translation {point_text(x)} must be nonnegative")
    s, rows = g.ints
    r, xs = integral(x)
    d = math.lcm(s, r)
    f, e = d // s, d // r
    return diagram_of_rows(g.dim, d, [tuple(f * c + e * xc for c, xc in zip(row, xs)) for row in rows])


def is_homothetic_to(a: Diagram, b: Diagram) -> HomothetyWitness | None:
    """Witness for A = c*B + x with c > 0 and x >= 0, else None.

    The relation is directional: the translation must be nonnegative, so
    A homothetic to B does not imply B homothetic to A.

    Read on the rows P = s_a A and Q = s_b B.  Scaling by c > 0 and a
    translation keep the lex order, so the canonical orders correspond,
    and the ratio p/q of the rows, c s_a / s_b, is forced: by the first
    vertex difference with Q's part nonzero, in lowest terms, or for one
    vertex by the least ratio of its coordinates.  Then x = (q P_0 -
    p Q_0) / (q s_a) and A = c*B + x reads q P_i - p Q_i = q P_0 - p Q_0
    on every vertex.  Reducing p/q keeps these products to the size of
    the rows: unreduced, a ratio of two rows over a common denominator of
    3,000 distinct 6-digit primes made one test take 12 s.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} != {b.dim}")
    (sa, va), (sb, vb) = a.ints, b.ints
    if len(va) != len(vb):
        return None
    pa, pb = va[0], vb[0]
    if len(va) == 1:
        if not any(pb):
            return HomothetyWitness(Fraction(1), tuple(Fraction(c, sa) for c in pa))
        p, q = 0, 0
        for u, w in zip(pa, pb):
            if w and (not q or u * q < p * w):
                p, q = u, w  # the least ratio so far, by cross-multiplying
        if p == 0:
            return None
    else:
        # Q_1 - Q_0 is positive at its first nonzero entry, as the rows are sorted
        da = [x - y for x, y in zip(va[1], pa)]
        db = [x - y for x, y in zip(vb[1], pb)]
        k0 = next(k for k, y in enumerate(db) if y)
        h = math.gcd(da[k0], db[k0])
        p, q = da[k0] // h, db[k0] // h
        if p <= 0:
            return None
    x = [q * u - p * w for u, w in zip(pa, pb)]
    if any(c < 0 for c in x):
        return None
    for ra, rb in zip(va[1:], vb[1:]):
        if [q * u - p * w for u, w in zip(ra, rb)] != x:
            return None
    return HomothetyWitness(Fraction(p * sb, q * sa), tuple(Fraction(c, q * sa) for c in x))


def hull_union(g1: Diagram, g2: Diagram) -> Diagram:
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"{g1.dim} != {g2.dim}")
    (s1, ps), (s2, qs) = g1.ints, g2.ints
    d = math.lcm(s1, s2)
    x, y = d // s1, d // s2
    return _hull_of_rows(g1.dim, d, [tuple(x * c for c in p) for p in ps] + [tuple(y * c for c in q) for q in qs])


def touches_all_axes(g: Diagram) -> bool:
    """True iff every axis carries a generator (all other coordinates zero).

    The origin lies on every axis.  Read on the rows of ``ints``.
    """
    axes = set()
    for row in g.ints[1]:
        support = [k for k, c in enumerate(row) if c]
        if len(support) <= 1:
            if not support:
                return True
            axes.add(support[0])
    return len(axes) == g.dim


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
    """The diagram as JSON: each coordinate is its row entry c over s, in
    lowest terms, printed as ``rational_to_json`` prints it."""
    s, rows = g.ints
    return {"dim": g.dim, "generators": [[_ratio_text(c, s) for c in row] for row in rows]}


def check_digits(text: str, position: int = 0) -> None:
    """Raise ``PolynomialSyntaxError`` at position when text holds over MAX_DIGITS digits."""
    if len(text) <= MAX_DIGITS:
        return
    digits = sum(c.isdigit() for c in text)
    if digits > MAX_DIGITS:
        raise PolynomialSyntaxError(
            f"number with {digits} digits exceeds the limit of {MAX_DIGITS} digits", position
        )


def check_printable(num: int, den: int) -> None:
    """Raise ``UnsupportedDimension`` when num or den has over MAX_DIGITS digits.

    Python prints no longer int in decimal, and its error names an
    interpreter setting; an answer that large is refused by name instead.
    num and den are the numerator and denominator of the value printed.
    """
    if abs(num) >= _PRINT_LIMIT or den >= _PRINT_LIMIT:
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
    return _ratio_text(c.numerator, c.denominator)


def _ratio_text(c: int, s: int) -> str:
    """c / s for s > 0, in lowest terms, as ``rational_to_json`` prints it."""
    h = math.gcd(c, s)
    c, s = c // h, s // h
    check_printable(c, s)
    return sys.intern(str(c) if s == 1 else f"{c}/{s}")


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


def dim_from_json(obj: dict, kind: str, field: str) -> int:
    """The 'dim' of a JSON object that must hold 'dim' and ``field``: an int from 1 to MAX_DIM."""
    if not isinstance(obj, dict) or "dim" not in obj or field not in obj:
        raise EmptyInput(f"{kind} JSON must have 'dim' and '{field}'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise DimensionMismatch("'dim' must be an integer")
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    return dim


def diagram_from_json(obj: dict) -> Diagram:
    dim = dim_from_json(obj, "diagram", "generators")
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
