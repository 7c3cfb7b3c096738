"""Minkowski decomposability modulo homothety, with verifiable certificates.

A summand of a diagram is parameterized by one displaced vertex u_i per
vertex v_i and one scale t_e per compact edge, subject to

    u_i - u_j = t_e (v_i - v_j)   for each compact edge (i, j),
    0 <= u_i <= v_i componentwise,  0 <= t_e <= 1.

Every genuine decomposition K1 + K2 = G induces such an assignment (faces
of a Minkowski sum split into faces of the summands), so the system is a
complete relaxation.  It is used in two rigorous directions:

* a feasible point with non-constant edge scales, whose summand pair passes
  ``verify_decomposition``, certifies decomposability;
* if all edge scales are forced equal over the whole feasible region, every
  summand is a homothet of G, which certifies indecomposability.

The second direction propagates one scale along the compact edges, which
always connect the vertices of a diagram: from a vertex that does not
minimise s(x) = x_1 + ... + x_n some edge decreases s, and it is compact
because the rays e_k all increase s; the face minimising s is a polytope,
whose graph is connected.

The first direction is complete: every point of S with unequal edge
scales gives a pair that passes ``verify_decomposition`` (Shephard,
Mathematika 10, 1963; McMullen, Geom. Dedicata 2, 1973; Smilansky, Geom.
Dedicata 24, 1987, for the unbounded case).  On the open orthant let
h(a) = a.u_i on the normal cone of v_i.  The walls between these cones
there are exactly the compact edges, and across the wall of edge (i, j)
h is continuous, since a.(u_i - u_j) = t_e a.(v_i - v_j) = 0 on it, and
concave, since t_e >= 0.  Concave across every wall on a convex domain,
h is concave, so h(a) = min_i a.u_i is the support function of
K1 = conv(u) + R^n_+.  The same holds for K2 from (v - u, 1 - t), a
point of S with (u, t), and the two support functions sum to G's, so
K1 + K2 = G.  K1 = c*G + x would force u_i = c v_i + x and every
t_e = c, so unequal scales rule out homothets on both sides.

The other two kinds of candidate verify as plainly.  A translation split
{x} + (G - x) of a diagram with two or more vertices sums to G, since
adding {x} is a translation; {x} has one vertex, so it is no homothet of
G, and G - x = c*G + y forces c = 1 and y = -x, a negative translation.
A point split {p_k e_k} + {p - p_k e_k} of a single vertex p off the axes
sums to {p}, and the least ratio c of either side to p is 0 (each side
vanishes at a coordinate where p does not), so neither is a homothet.
So every candidate verifies: the least one is verified once, and one
that fails is a bug and raises ``VerificationFailure`` (exit 4).

``verify_decomposition`` tests K1 + K2 = G without forming the sum, on
the integer rows of ``Diagram.ints``.  For a >= 0 the least of a.x over
a diagram is its least over the generators, and support functions add
(Schneider, Convex Bodies, 1.7): the least over K1 + K2 is the least
over K1 plus the least over K2.  A facet a.x >= b of G has a >= 0, so it
holds on K1 + K2 exactly when those two least values sum to at least b;
G is the intersection of its facets' half-spaces, so all of them hold
exactly when K1 + K2 lies in G.  If every vertex of G is p + q for
generators p of K1 and q of K2, then G = conv(vertices) + R^n_+ lies in
K1 + K2, which is convex and closed under adding R^n_+.  Conversely, if
K1 + K2 = G, each vertex v of G is the only point of G minimising some
a.x, the minimisers over K1 + K2 are the sums of those over K1 and over
K2, so both are single points, vertices and so generators, summing to
v.  The two tests together are thus K1 + K2 = G when the generators of
G are its vertices, as ``canonicalize`` returns them; a G built with a
generator that is no vertex is not the canonical sum and fails.  A
one-vertex G reads its n coordinate bounds as its facets.

The plane reads the summand pairs off an LP sweep over S: each pair of
edge scales pushed apart, both ways, by ``exactlp``.  From dimension 3 on
they come from the type space, by exact linear algebra (Shephard,
Mathematika 10, 1963; McMullen, Israel J. Math. 58, 1987).  Let L be the
solutions of the edge equations with u_ik = 0 wherever v_ik = 0.  Those
coordinates are pinned in S as well, and every other bound of S is strict
at (v/2, 1/2), so S has a point with unequal edge scales exactly when the
projection of L onto the scales has dimension over 1.  The three edges of
a compact 3-cycle have equal scales: its cycle equation reads
(t_1 - t_3) d_1 + (t_2 - t_3) d_2 = 0, and d_1, d_2 are independent, as
three vertices are never collinear; so the edges are first joined into
classes.  Along a spanning tree each u_i is u_0 plus scaled edges, each
edge off the tree gives n linear rows in the class scales and u_0, and
each v_ik = 0 one more; these rows pin u_0 on every axis where a vertex
is 0, so the projection's dimension is the number of unknowns less the
rank.  When it is 1, only homothets and translation splits remain.
Otherwise the type cone, the points of the projection with every scale
>= 0, is pointed and holds the homothety direction t = 1 inside, so each
extreme ray has a zero scale and a positive one.  Lifted to (u, t),
shifted to least 0 on every axis (a translation, a move along L) and
scaled by the largest lambda with lambda u <= v and lambda t <= 1, a ray
is a point of S with unequal scales, whose pair verifies by the argument
above.  So the verdict is the sweep's, and the witness is the least of
these pairs and the translation splits.  The method stays
``facet-pair-lp``, the name these certificates have always carried, so
the answers of the benchmark pools keep every byte.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import exactlp
from .diagram import (
    Diagram,
    DiagramGraph,
    compact_graph,
    diagram_of_rows,
    diagram_to_json,
    is_canonical,
    is_homothetic_to,
    point_text,
    touches_all_axes,
)
from .errors import (
    DimensionMismatch,
    InfeasibleAssignment,
    UnsupportedDimension,
    VerificationFailure,
)
from .linalg import exact, int_kernel, integral
from .polynomials import SingularityInput, diagram_of_input
from .reuse import once_per_batch
from .volume import _cone_facets

METHOD_SIMPLEX_FACET = "simplex-facet"
METHOD_TWO_DIM_CHAIN = "two-dim-chain"
METHOD_FACET_PAIR_LP = "facet-pair-lp"

# Most phase-1 tableau cells, summed over the objectives, that one
# edge-scale sweep may take on; the sweep decides the plane only.  The
# cells are counted in the full phase-1 layout, one artificial column per
# row, although exactlp stores none for the sweep's bounds, so the budget
# refuses the inputs it always refused.  A sweep over a 2-D chain takes
# 0.15-0.16 microseconds per cell (chains of 12 and 20 edges; Python 3.11
# on a 2-vCPU host), so one at the limit runs about 1.6 seconds.  The
# largest 2-D sweep in the tests takes on 34,720 cells and the largest in
# the benchmark pools 14,076.
MAX_SWEEP_CELLS = 10_000_000

# Most cells, rows by columns, that the type space's elimination may take
# on: n rows per compact edge off the spanning tree and one per zero
# coordinate, by one column per class of edge scales and one per axis
# where some vertex is 0, counted before any row is built.  The
# elimination is cubic: on sums of two 2-D chains in the planes z = 0 and
# x = 0 it took 0.42 s at 144,585 cells, 0.82 s at 196,712 and 4.4 s at
# 694,557 (Python 3.11 on a 2-vCPU host), so one at the limit runs about
# 1 second.  The largest in the tests takes on 5,600 cells, and the
# largest in the benchmark pools 63.
MAX_TYPE_SPACE_CELLS = 250_000


@dataclass(frozen=True)
class Decomposable:
    left: Diagram
    right: Diagram
    method: str

    verdict = "decomposable"


@dataclass(frozen=True)
class Indecomposable:
    method: str
    detail: str

    verdict = "indecomposable"


Certificate = Decomposable | Indecomposable


@dataclass(frozen=True)
class ExtremityReport:
    input: SingularityInput
    diagram: Diagram
    verdict: str  # "extreme" | "not-extreme"
    certificate: Certificate
    caveat: str


CAVEAT = (
    "The verdict applies to the homogeneous singularity determined by the "
    "indicator diagram; almost homogeneity of the given representative "
    "cannot be certified from support data alone."
)


@dataclass(frozen=True)
class SummandSystem:
    base: Diagram
    graph: DiagramGraph

    @property
    def num_vertices(self) -> int:
        return len(self.graph.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.graph.edges)

    def _lp_constraints(self):
        """(eq, ub) rows over nonnegative variables [u coords..., t...]."""
        n = self.base.dim
        m = self.num_vertices
        nvars = m * n + self.num_edges
        eq = []
        ub = []
        for e, (i, j, d) in enumerate(self.graph.edges):
            for k in range(n):
                row = [0] * nvars
                row[i * n + k] = 1
                row[j * n + k] = -1
                row[m * n + e] = d[k]  # d = v_j - v_i
                eq.append((row, 0))
        for i, v in enumerate(self.graph.vertices):
            for k in range(n):
                row = [0] * nvars
                row[i * n + k] = 1
                ub.append((row, v[k]))
        for e in range(self.num_edges):
            row = [0] * nvars
            row[m * n + e] = 1
            ub.append((row, 1))
        return eq, ub

    def check(self, us, ts) -> tuple[int, list[tuple[int, ...]]]:
        """Raise InfeasibleAssignment unless the assignment satisfies S;
        return (a, U), the displacements u = U/a over their common
        denominator.

        The values are ints and `Fraction`s, as ``summands_of`` passes
        them.  One ``integral`` of u and one of t give the integer form
        that ``check_rows`` tests.
        """
        a, flat = integral([x for u in us for x in u])
        b, tt = integral(ts)
        rest = iter(flat)
        return self.check_rows(a, [tuple(itertools.islice(rest, len(u))) for u in us], b, tt)

    def check_rows(self, a: int, us, b: int, ts) -> tuple[int, list[tuple[int, ...]]]:
        """``check`` of the point u = us/a, t = ts/b, given as int rows; returns (a, us).

        With v = V/c, the rows of ``Diagram.ints``, the bounds read
        0 <= U c <= V a and 0 <= T <= b, and each edge equation
        u_i - u_j = -t d, d = v_j - v_i, reads
        (U_i - U_j) b c = -T (V_j - V_i) a.  Messages print the values.
        """
        n = self.base.dim
        if len(us) != self.num_vertices or len(ts) != self.num_edges:
            raise InfeasibleAssignment("assignment shape mismatch")
        c, vv = self.base.ints
        for u, v, w in zip(us, vv, self.graph.vertices):
            if len(u) != n:
                raise InfeasibleAssignment("displacement dimension mismatch")
            if any(x < 0 or x * c > y * a for x, y in zip(u, v)):
                text = point_text(Fraction(x, a) for x in u)
                raise InfeasibleAssignment(f"displacement {text} outside [0, {point_text(w)}]")
        for t, (i, j, _) in zip(ts, self.graph.edges):
            if t < 0 or t > b:
                raise InfeasibleAssignment(f"edge scale {Fraction(t, b)} outside [0, 1]")
            for k in range(n):
                if (us[i][k] - us[j][k]) * b * c != -t * (vv[j][k] - vv[i][k]) * a:
                    raise InfeasibleAssignment(
                        f"edge ({i},{j}) constraint violated at coordinate {k}"
                    )
        return a, us


def summand_system(g: Diagram) -> SummandSystem:
    return SummandSystem(g, compact_graph(g))


def summands_of(system: SummandSystem, us, ts) -> tuple[Diagram, Diagram]:
    """The summand pair (K1, K2) of a point (u, t) of S, checked once.

    K1's vertices are the distinct u_i and K2's the distinct v_i - u_i, so
    no hull is computed.  For u in S each u_i minimises a.x over
    K1 = conv(u) + R^n_+ for every a in the open normal cone of v_i (the
    module docstring: h(a) = a.u_i there), an open set of directions.
    Faces of K1 of positive dimension have normal cones of lower dimension,
    so some a in that set exposes u_i alone, and u_i is a vertex of K1;
    K1 has no vertices other than the u_i.  Each condition of S holds for
    (v - u, 1 - t) exactly when it holds for (u, t), so one check covers
    K2 as well.  Both sides are built from the integer form ``check``
    returns (``_summands``).
    """
    return _summands(system, *system.check([exact(u) for u in us], exact(ts)))


def _summands(system: SummandSystem, a: int, us) -> tuple[Diagram, Diagram]:
    """``summands_of`` from the rows U of u = U/a: the distinct rows are
    collected as int tuples, V d/c - U d/a those of v - u over
    d = lcm(a, c), and each side becomes a `Fraction` diagram once, with
    its ``ints`` (``diagram_of_rows``)."""
    c, vs = system.base.ints
    d = math.lcm(a, c)
    x, y = d // a, d // c
    co = {tuple(y * vk - x * uk for vk, uk in zip(v, u)) for v, u in zip(vs, us)}
    n = system.base.dim
    return diagram_of_rows(n, a, set(us)), diagram_of_rows(n, d, co)


def verify_decomposition(g: Diagram, k1: Diagram, k2: Diagram) -> bool:
    """Soundness anchor: K1 + K2 = G, and neither summand a homothet of G.

    The sum identity is tested on the integer rows of ``Diagram.ints``,
    with no sum formed (``_sums_to``, proved in the module docstring):
    every facet of G holds on K1 + K2, and every vertex of G is a sum of
    generators of K1 and K2.  A G whose generators are not all vertices
    is no sum, as ``canonicalize`` would return it, so it fails.
    """
    if not (g.dim == k1.dim == k2.dim):
        raise DimensionMismatch("dimensions differ")
    if not _sums_to(g, k1, k2):
        return False
    if is_homothetic_to(k1, g) is not None:
        return False
    if is_homothetic_to(k2, g) is not None:
        return False
    return True


def _sums_to(g: Diagram, k1: Diagram, k2: Diagram) -> bool:
    """K1 + K2 = G, for G canonical, on the rows of each ``ints``.

    A facet a.x >= b of G holds on K1 + K2 when the least a.P over K1's
    rows P = s1 x and the least a.Q over K2's rows Q = s2 x have
    min a.P s2 + min a.Q s1 >= b s1 s2.  One vertex has its n coordinate
    bounds for facets, so it starts no search.  For the vertices, every
    row is scaled to d = lcm(s, s1, s2), and each vertex minus each row
    of K1 is looked up among K2's.
    """
    s, vs = g.ints
    if len(vs) == 1:
        facets = [(tuple(s * (j == k) for j in range(g.dim)), c, None) for k, c in enumerate(vs[0])]
    elif is_canonical(g):
        facets = g.facets
    else:
        return False
    (s1, ps), (s2, qs) = k1.ints, k2.ints
    for a, b, _ in facets:
        h1 = min(sum(map(operator.mul, a, p)) for p in ps)
        h2 = min(sum(map(operator.mul, a, q)) for q in qs)
        if h1 * s2 + h2 * s1 < b * s1 * s2:
            return False
    d = math.lcm(s, s1, s2)
    x, y, z = d // s, d // s1, d // s2
    second = {tuple(z * c for c in q) for q in qs}
    firsts = [tuple(y * c for c in p) for p in ps]
    return all(
        any(tuple(x * c - e for c, e in zip(v, p)) in second for p in firsts) for v in vs
    )


# --- decision procedure ----------------------------------------------------


def _is_lattice(g: Diagram) -> bool:
    return g.ints[0] == 1


def _witness_key(pair):
    k1, k2 = pair
    lattice = 0 if _is_lattice(k1) and _is_lattice(k2) else 1
    return (
        lattice,
        len(k1.generators) + len(k2.generators),
        k1.generators,
        k2.generators,
    )


def _ordered(k1: Diagram, k2: Diagram):
    return (k1, k2) if k1.generators <= k2.generators else (k2, k1)


def _witness(g: Diagram, candidates, method: str) -> Decomposable:
    """The least candidate pair by ``_witness_key``, once it passes verification.

    Every candidate verifies (see the module docstring), so one that fails
    is a bug and raises ``VerificationFailure`` naming the method.
    """
    k1, k2 = min(candidates, key=_witness_key)
    if not verify_decomposition(g, k1, k2):
        raise VerificationFailure(f"{method} witness failed verification")
    return Decomposable(k1, k2, method)


def _split(g: Diagram, x) -> tuple[Diagram, Diagram]:
    """The pair {x} + (G - x), in witness order, for x <= every vertex of G.

    Neither side needs ``canonicalize``: a point has one vertex, and
    translating by -x moves each vertex of G to a vertex of G - x.
    """
    rest = tuple(tuple(c - xc for c, xc in zip(p, x)) for p in g.generators)
    return _ordered(Diagram(g.dim, (tuple(x),)), Diagram(g.dim, rest))


def _single_vertex_certificate(g: Diagram) -> Certificate:
    p = g.generators[0]
    nz = [k for k, c in enumerate(p) if c > 0]
    if len(nz) < 2:
        # a monomial diagram on one axis (or the orthant itself) only
        # splits into a homothet plus an orthant translate
        return Indecomposable(
            METHOD_SIMPLEX_FACET,
            "single vertex supported on at most one axis",
        )
    # the point split {p_k e_k} + {p - p_k e_k} is the split of {p} by p_k e_k
    shifts = [tuple(c if i == k else Fraction(0) for i, c in enumerate(p)) for k in nz]
    return _witness(g, [_split(g, x) for x in shifts], "point-split")


def _is_axis_simplex(g: Diagram) -> bool:
    """One generator per axis, covering all axes (the weighted simplices)."""
    if len(g.generators) != g.dim or not touches_all_axes(g):
        return False
    return all(len(row) - row.count(0) == 1 for row in g.ints[1])


def _translation_candidates(g: Diagram):
    n = g.dim
    mins = [min(p[k] for p in g.generators) for k in range(n)]
    shifts = []
    for k, mk in enumerate(mins):
        if mk > 0:
            unit = tuple(Fraction(int(i == k)) for i in range(n))
            shifts.append(tuple(mk * c for c in unit))
            if mk > 1:
                shifts.append(unit)
    if sum(1 for mk in mins if mk > 0) >= 2:
        shifts.append(tuple(mins))
    return [_split(g, x) for x in shifts]


def _edge_scale_candidates(system: SummandSystem):
    """Summand pairs at LP optima with unequal edge scales.

    Each pair of edge scales is pushed apart in both directions, all in one
    LP call over S; one summand pair is built per distinct optimum.  An
    empty result means every pair of edge scales is provably equal over
    the whole feasible region.  Raises ``UnsupportedDimension`` when the
    sweep's phase-1 tableaux would exceed ``MAX_SWEEP_CELLS`` cells,
    before the constraint rows are built.
    """
    n = system.base.dim
    m = system.num_vertices
    edges = system.num_edges
    if edges < 2:
        return []  # no pair of edge scales to push apart
    nvars = m * n + edges
    # the rows of _lp_constraints: n equations per edge, then one bound
    # per variable (u <= v and t <= 1)
    n_ub = nvars
    rows = edges * n + n_ub
    # the full phase-1 tableau: constraint rows and the cost row, by
    # structural, slack and one artificial column per row and the
    # right-hand side
    cells = (rows + 1) * (nvars + n_ub + rows + 1)
    sweep = edges * (edges - 1) * cells
    if sweep > MAX_SWEEP_CELLS:
        raise UnsupportedDimension(
            f"edge-scale sweep over {sweep} tableau cells exceeds the budget "
            f"of {MAX_SWEEP_CELLS}"
        )
    eq, ub = system._lp_constraints()
    objectives = []
    for e, f in itertools.combinations(range(m * n, nvars), 2):
        for sgn in (1, -1):
            obj = [0] * nvars
            obj[e] = -sgn
            obj[f] = sgn
            objectives.append(obj)
    results = exactlp.solve_lp(nvars, objectives, eq=eq, ub=ub, nonneg=True)
    if results is None:
        # S is a nonempty bounded polytope (u = v/2, t = 1/2 fits)
        raise VerificationFailure("edge-scale LP over S is infeasible")
    optima = set()
    for res in results:
        if res.status != exactlp.OPTIMAL:
            raise VerificationFailure(f"edge-scale LP over S is {res.status}")
        if res.value < 0:
            optima.add(tuple(res.x))
    candidates = []
    for x in optima:
        us = [x[i * n : (i + 1) * n] for i in range(m)]
        try:
            candidates.append(_ordered(*summands_of(system, us, x[m * n :])))
        except InfeasibleAssignment as exc:
            raise VerificationFailure(f"edge-scale LP optimum outside S: {exc}") from exc
    return candidates


@once_per_batch
def decide_decomposability(g: Diagram) -> Certificate:
    """Exact decision of decomposability modulo homothety.

    Every Decomposable result has passed ``verify_decomposition``; an
    Indecomposable result names the exhaustive argument used.
    """
    if len(g.generators) == 1:
        return _single_vertex_certificate(g)
    if _is_axis_simplex(g):
        # forced-translation argument: every summand of a weighted simplex
        # lies on the same axes, so its edge scales are all equal
        return Indecomposable(
            METHOD_SIMPLEX_FACET, "single compact facet touching all axes"
        )
    return _decide_general(g)


def _decide_general(g: Diagram) -> Certificate:
    translations = _translation_candidates(g)
    if g.dim == 2:
        method, pairs = METHOD_TWO_DIM_CHAIN, _edge_scale_candidates(summand_system(g))
    else:
        method, pairs = METHOD_FACET_PAIR_LP, _type_space_candidates(summand_system(g))
    candidates = translations + pairs
    if candidates:
        return _witness(g, candidates, method)
    # constant edge scales propagate along the connected graph, so any
    # summand equals c*G + x; with no strictly positive coordinate column
    # the translation x is nonnegative, i.e. a homothet
    return Indecomposable(
        method,
        "edge scales constant over the summand polytope; "
        "all summands are homothets",
    )


def _scale_classes(graph: DiagramGraph) -> list[int]:
    """The class of each compact edge, numbered in edge order: the edges of
    every compact 3-cycle are joined by union-find, as their scales are equal."""
    parent = list(range(len(graph.edges)))

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    index = {(i, j): e for e, (i, j, _) in enumerate(graph.edges)}
    near = [set() for _ in graph.vertices]
    for i, j, _ in graph.edges:
        near[i].add(j)
        near[j].add(i)
    for (i, j), e in index.items():
        for k in near[i] & near[j]:
            if k > j:
                root = find(e)
                for f in (index[i, k], index[j, k]):
                    parent[find(f)] = root
    roots: dict[int, int] = {}
    return [roots.setdefault(find(e), len(roots)) for e in range(len(parent))]


def _type_space_candidates(system: SummandSystem):
    """Summand pairs at the extreme rays of the type cone; none when all
    edge scales are equal on L.

    The columns are the class scales (``_scale_classes``), then u_0 on
    each axis where some vertex is 0, all times the lcm of the vertices'
    denominators, the s of ``Diagram.ints``.  Along a BFS tree from
    vertex 0 each u_i is a form in the columns; each edge off the tree
    gives n rows, and each v_ik = 0 the row u_ik = 0.  The null space of the rows is L, one-to-one on the
    scales, as every u_0 column is pinned by an axis row.  Raises
    ``UnsupportedDimension`` when the rows by columns exceed
    ``MAX_TYPE_SPACE_CELLS``, before the rows are built.
    """
    graph = system.graph
    n, m = system.base.dim, system.num_vertices
    classes = _scale_classes(graph)
    width = max(classes, default=-1) + 1
    if width < 2:
        return []  # one scale for every edge
    scale, vs = system.base.ints
    axes = [k for k in range(n) if any(v[k] == 0 for v in vs)]
    cols = width + len(axes)
    cells = (n * (len(graph.edges) - m + 1) + sum(v.count(0) for v in vs)) * cols
    if cells > MAX_TYPE_SPACE_CELLS:
        raise UnsupportedDimension(
            f"type-space elimination over {cells} matrix cells exceeds the budget "
            f"of {MAX_TYPE_SPACE_CELLS}"
        )
    ds = [[b - a for a, b in zip(vs[i], vs[j])] for i, j, _ in graph.edges]
    near = [[] for _ in range(m)]
    for e, (i, j, _) in enumerate(graph.edges):
        near[i].append((j, e, 1))
        near[j].append((i, e, -1))
    forms = [None] * m
    forms[0] = [[0] * cols for _ in range(n)]
    for c, k in enumerate(axes, width):
        forms[0][k][c] = 1
    order = [0]
    steps = []  # the tree edges (j, i, e, sign) in BFS order: u_j = u_i + sign t_e d_e
    for i in order:
        for j, e, sign in near[i]:
            if forms[j] is None:
                forms[j] = [row[:] for row in forms[i]]
                for row, dk in zip(forms[j], ds[e]):
                    row[classes[e]] += sign * dk
                steps.append((j, i, e, sign))
                order.append(j)
    tree = {e for *_, e, _ in steps}
    rows = []
    for e, (i, j, _) in enumerate(graph.edges):
        if e not in tree:
            for a, b, dk in zip(forms[i], forms[j], ds[e]):
                row = [y - x for x, y in zip(a, b)]
                row[classes[e]] -= dk
                rows.append(row)
    rows += [form[k] for form, v in zip(forms, vs) for k in axes if v[k] == 0]
    _, basis = int_kernel(rows, cols)
    if len(basis) < 2:
        return []  # the homothety's ray alone
    gens = list(dict.fromkeys(tuple(v[c] for v in basis) for c in range(width)))
    candidates = []
    for z, _ in _cone_facets(gens):
        x = [sum(map(operator.mul, z, col)) for col in zip(*basis)]
        u0 = [0] * n
        for c, k in enumerate(axes, width):
            u0[k] = x[c]
        lifted = _ray_point(vs, ds, steps, [x[c] for c in classes], scale, u0)
        try:
            candidates.append(_ordered(*_summands(system, *system.check_rows(*lifted))))
        except InfeasibleAssignment as exc:
            raise VerificationFailure(f"type-space ray outside S: {exc}") from exc
    return candidates


def _ray_point(vs, ds, steps, ts, scale: int, u0):
    """The point (u, t) of S on a ray of L, edge scales ts and u_0 = u0, as
    int rows (a, U, b, T) with u = U/a and t = T/b.

    ``vs``, ``ds`` and the rows are the vertices, the edges and the
    displaced vertices times ``scale``; u runs from u_0 along the tree
    ``steps``.  Each axis of u is shifted to least 0, a move along L, and
    (u, t) is scaled by the largest lambda = p/q with lambda u <= v and
    lambda t <= 1: the least of the ratios v_ik / u_ik and 1 / t_e,
    compared by cross-multiplying.
    """
    us = [u0] + [None] * (len(vs) - 1)
    for j, i, e, sign in steps:
        step = sign * ts[e]
        us[j] = [a + step * d for a, d in zip(us[i], ds[e])]
    for k in range(len(u0)):
        low = min(u[k] for u in us)
        for u in us:
            u[k] -= low
    p, q = 1, 0  # lambda = p/q, infinite to start
    for u, v in zip(us, vs):
        for uk, vk in zip(u, v):
            if uk > 0 and vk * q < p * uk:
                p, q = vk, uk
    for t in ts:
        if t > 0 and q < p * t:
            p, q = 1, t
    return q * scale, [tuple(p * c for c in u) for u in us], q, [p * t for t in ts]


def classify_extreme(u: SingularityInput) -> ExtremityReport:
    """Extremity of the homogeneous singularity of log(sum |p_i|)."""
    diagram = diagram_of_input(u)
    cert = decide_decomposability(diagram)
    verdict = "extreme" if isinstance(cert, Indecomposable) else "not-extreme"
    return ExtremityReport(u, diagram, verdict, cert, CAVEAT)


# --- serialization ---------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, Decomposable):
        return {
            "verdict": "decomposable",
            "left": diagram_to_json(cert.left),
            "right": diagram_to_json(cert.right),
            "method": cert.method,
            "verified": True,
        }
    return {
        "verdict": "indecomposable",
        "method": cert.method,
        "detail": cert.detail,
        "verified": True,
    }
