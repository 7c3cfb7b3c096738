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

When edge scales vary but no summand pair verifies (possible only in
n >= 3), ``UnsupportedDimension`` is raised rather than guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import exactlp
from .diagram import (
    Diagram,
    DiagramGraph,
    Point,
    canonicalize,
    compact_graph,
    diagram_to_json,
    is_homothetic_to,
    minkowski_sum,
    touches_all_axes,
)
from .errors import (
    DimensionMismatch,
    InfeasibleAssignment,
    UnsupportedDimension,
    VerificationFailure,
)
from .polynomials import SingularityInput, diagram_of_input

METHOD_SIMPLEX_FACET = "simplex-facet"
METHOD_TWO_DIM_CHAIN = "two-dim-chain"
METHOD_FACET_PAIR_LP = "facet-pair-lp"


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
                row = [Fraction(0)] * nvars
                row[i * n + k] = Fraction(1)
                row[j * n + k] = Fraction(-1)
                row[m * n + e] = d[k]  # d = v_j - v_i
                eq.append((row, Fraction(0)))
        for i, v in enumerate(self.graph.vertices):
            for k in range(n):
                row = [Fraction(0)] * nvars
                row[i * n + k] = Fraction(1)
                ub.append((row, v[k]))
        for e in range(self.num_edges):
            row = [Fraction(0)] * nvars
            row[self.num_vertices * n + e] = Fraction(1)
            ub.append((row, Fraction(1)))
        return eq, ub

    def check(self, us, ts) -> None:
        """Raise InfeasibleAssignment unless the assignment satisfies S."""
        n = self.base.dim
        if len(us) != self.num_vertices or len(ts) != self.num_edges:
            raise InfeasibleAssignment("assignment shape mismatch")
        for u, v in zip(us, self.graph.vertices):
            if len(u) != n:
                raise InfeasibleAssignment("displacement dimension mismatch")
            if any(c < 0 for c in u) or any(c > vk for c, vk in zip(u, v)):
                raise InfeasibleAssignment(f"displacement {u} outside [0, {v}]")
        for t, (i, j, d) in zip(ts, self.graph.edges):
            if t < 0 or t > 1:
                raise InfeasibleAssignment(f"edge scale {t} outside [0, 1]")
            for k in range(n):
                if us[i][k] - us[j][k] != -t * d[k]:
                    raise InfeasibleAssignment(
                        f"edge ({i},{j}) constraint violated at coordinate {k}"
                    )


def summand_system(g: Diagram) -> SummandSystem:
    return SummandSystem(g, compact_graph(g))


def summand_of(system: SummandSystem, us, ts) -> Diagram:
    """Diagram generated by a feasible displacement assignment."""
    us = [tuple(Fraction(c) for c in u) for u in us]
    ts = [Fraction(t) for t in ts]
    system.check(us, ts)
    return canonicalize(system.base.dim, us)


def co_summand_of(system: SummandSystem, us, ts) -> Diagram:
    us2 = [
        tuple(vk - uk for vk, uk in zip(v, u))
        for v, u in zip(system.graph.vertices, us)
    ]
    ts2 = [1 - Fraction(t) for t in ts]
    return summand_of(system, us2, ts2)


def verify_decomposition(g: Diagram, k1: Diagram, k2: Diagram) -> bool:
    """Soundness anchor: exact sum identity plus both-sided non-homothety."""
    if not (g.dim == k1.dim == k2.dim):
        raise DimensionMismatch("dimensions differ")
    if minkowski_sum(k1, k2) != g:
        return False
    if is_homothetic_to(k1, g) is not None:
        return False
    if is_homothetic_to(k2, g) is not None:
        return False
    return True


# --- decision procedure ----------------------------------------------------


def _is_lattice(g: Diagram) -> bool:
    return all(c.denominator == 1 for p in g.generators for c in p)


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


def _first_verified(g: Diagram, candidates):
    """The least candidate pair by ``_witness_key`` that passes verification.

    The key orders distinct pairs totally, so walking the distinct pairs in
    key order and stopping at the first verified one verifies each at most
    once.  Returns None when no candidate verifies.
    """
    distinct = {_witness_key(c): c for c in candidates}
    for key in sorted(distinct):
        if verify_decomposition(g, *distinct[key]):
            return distinct[key]
    return None


def _single_vertex_certificate(g: Diagram) -> Certificate:
    p = g.generators[0]
    n = g.dim
    nz = [k for k, c in enumerate(p) if c > 0]
    if len(nz) < 2:
        # a monomial diagram on one axis (or the orthant itself) only
        # splits into a homothet plus an orthant translate
        return Indecomposable(
            METHOD_SIMPLEX_FACET,
            "single vertex supported on at most one axis",
        )
    candidates = []
    for k in nz:
        left = [Fraction(0)] * n
        left[k] = p[k]
        right = tuple(c if i != k else Fraction(0) for i, c in enumerate(p))
        candidates.append(
            _ordered(canonicalize(n, [left]), canonicalize(n, [right]))
        )
    best = _first_verified(g, candidates)
    if best is None:
        raise VerificationFailure("single-vertex split failed verification")
    return Decomposable(best[0], best[1], "point-split")


def _is_axis_simplex(g: Diagram) -> bool:
    """One generator per axis, covering all axes (the weighted simplices)."""
    if len(g.generators) != g.dim or not touches_all_axes(g):
        return False
    return all(
        sum(1 for c in p if c != 0) == 1 for p in g.generators
    )


def _translation_candidates(g: Diagram):
    n = g.dim
    gens = g.generators
    mins = [min(p[k] for p in gens) for k in range(n)]
    out = []

    def add(x):
        k2 = canonicalize(n, [tuple(c - xc for c, xc in zip(p, x)) for p in gens])
        out.append(_ordered(canonicalize(n, [tuple(x)]), k2))

    for k, mk in enumerate(mins):
        if mk > 0:
            x = [Fraction(0)] * n
            x[k] = mk
            add(x)
            if mk > 1:
                x = [Fraction(0)] * n
                x[k] = Fraction(1)
                add(x)
    if sum(1 for mk in mins if mk > 0) >= 2:
        add([Fraction(mk) for mk in mins])
    return out


def _edge_scale_candidates(g: Diagram, system: SummandSystem):
    """Summand pairs at LP optima with unequal edge scales.

    Each pair of edge scales is pushed apart in both directions, all in one
    LP call over S; one summand pair is built per distinct optimum.  An
    empty result means every pair of edge scales is provably equal over
    the whole feasible region.
    """
    n = g.dim
    m = system.num_vertices
    nvars = m * n + system.num_edges
    eq, ub = system._lp_constraints()
    objectives = []
    for e, f in itertools.combinations(range(m * n, nvars), 2):
        for sgn in (1, -1):
            obj = [Fraction(0)] * nvars
            obj[e] = Fraction(-sgn)
            obj[f] = Fraction(sgn)
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
        us = [tuple(x[i * n : (i + 1) * n]) for i in range(m)]
        ts = x[m * n :]
        candidates.append(_ordered(summand_of(system, us, ts), co_summand_of(system, us, ts)))
    return candidates


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
    system = summand_system(g)
    edge_candidates = _edge_scale_candidates(g, system)
    best = _first_verified(g, _translation_candidates(g) + edge_candidates)
    method = METHOD_TWO_DIM_CHAIN if g.dim == 2 else METHOD_FACET_PAIR_LP
    if best is not None:
        return Decomposable(best[0], best[1], method)
    if not edge_candidates:
        # constant edge scales propagate along the connected graph, so any
        # summand equals c*G + x; with no strictly positive coordinate
        # column the translation x is nonnegative, i.e. a homothet
        return Indecomposable(
            method,
            "edge scales constant over the summand polytope; "
            "all summands are homothets",
        )
    if g.dim == 2:
        raise VerificationFailure(
            "two-dimensional decision reached an impossible state"
        )
    raise UnsupportedDimension(
        "compact-face structure does not determine summands; cannot decide"
    )


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
