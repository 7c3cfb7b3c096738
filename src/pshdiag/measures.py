"""Numerical invariants of diagrams: Newton numbers, indicator values,
relative types for monomial weights, and the standard simplex families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    Diagram,
    canonicalize,
    lelong_directional,
    support_value,
    touches_all_axes,
)
from .errors import DimensionMismatch, Unbounded
from .linalg import int_det
from .polynomials import SingularityInput, diagram_of_input, weight
from .volume import triangulate_face


@dataclass(frozen=True)
class NewtonNumberResult:
    """Exact rational Newton number, or the infinite marker (value=None)."""

    value: Fraction | None

    @property
    def infinite(self) -> bool:
        return self.value is None

    def __str__(self):
        return "infinite" if self.infinite else str(self.value)


INFINITE = NewtonNumberResult(None)


def weighted_simplex(a) -> Diagram:
    """Diagram {x >= 0 : <x, a> >= 1}; generators e_k / a_k."""
    a = weight(a)
    n = len(a)
    gens = []
    for k in range(n):
        p = [Fraction(0)] * n
        p[k] = 1 / a[k]
        gens.append(tuple(p))
    return canonicalize(n, gens)


def intercept_simplex(b) -> Diagram:
    """Diagram with axis intercepts b_k; generators b_k * e_k."""
    b = weight(b)
    return weighted_simplex([1 / c for c in b])


def newton_number(g: Diagram) -> NewtonNumberResult:
    """n! * Vol(R^n_+ \\ diagram), or the infinite marker.

    For a diagram touching every axis the complement is the union of the
    pyramids with apex 0 over the compact facets (those with a strictly
    positive normal).  Over each simplex sigma of n generators that
    ``volume.triangulate_face`` cuts a facet into, n! * Vol = |det sigma|.
    A facet with exactly n generators is a simplex, its own triangulation,
    as is every compact facet in the plane; |det| ignores the row order.
    The determinants are taken by ``linalg.int_det`` on the rows of
    ``Diagram.ints``, the generators times s, so each is s^n times that of
    the generators, and the sum becomes one `Fraction`, over s^n.
    """
    if not touches_all_axes(g):
        return INFINITE
    s, rows = g.ints
    facets = g.facets
    tights = [t for _, _, t in facets]
    total = 0
    for a, _, tight in facets:
        if all(x > 0 for x in a):
            if len(tight) == g.dim:
                simplices = [tuple(tight)]
            else:
                simplices = triangulate_face(tight, tights, rows)
            for simplex in simplices:
                total += abs(int_det([list(rows[i]) for i in simplex]))
    return NewtonNumberResult(Fraction(total, s**g.dim))


def covolume_2d_oracle(g: Diagram) -> Fraction:
    """Independent 2-D check: shoelace area of the complement polygon."""
    if g.dim != 2:
        raise DimensionMismatch("oracle is two-dimensional only")
    if not touches_all_axes(g):
        raise Unbounded("diagram does not touch both axes")
    chain = sorted(g.generators, key=lambda p: (-p[0], p[1]))
    poly = [(Fraction(0), Fraction(0))] + chain
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def relative_type_monomial(u: SingularityInput, a) -> Fraction:
    """Directional Lelong number of log(sum |p_i|) along a monomial weight."""
    return lelong_directional(diagram_of_input(u), a)


def indicator_eval(g: Diagram, t) -> Fraction:
    """Indicator value at |z_k| = e^{t_k}, t <= 0; alias of the support value."""
    return support_value(g, t)
