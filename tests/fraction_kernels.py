"""Reference `Fraction` kernels, kept to check their fraction-free versions.

These are the facet search, the polynomial product and power, the
canonical generator set and the determinant the package ran before they
moved to Python ints, with the `Fraction` matrix inverse the facet search
started from.  ``pshdiag.volume._cone_facets`` must find the same tight
sets in the same order, with normals equal up to a positive factor;
``pshdiag.polynomials.poly_mul`` and ``poly_pow`` must return equal
polynomials; ``pshdiag.diagram.canonicalize``, which hands dominated
points to the facet search where this one filters them out first, must
return equal diagrams and raise the same errors; and ``pshdiag.linalg.det``
must return equal values.  Tests compare them.
"""

from __future__ import annotations

from fractions import Fraction

from pshdiag.diagram import Diagram, Point, point
from pshdiag.errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeCoordinate,
    NegativeExponent,
    UnsupportedDimension,
)
from pshdiag.linalg import Matrix, dot, rref
from pshdiag.polynomials import MAX_TERM_PAIRS, Polynomial, Terms, _const, polynomial
from pshdiag.volume import MAX_RAY_TESTS, diagram_facets, least_face

# Most point comparisons the dominance filter of ``canonicalize`` may make,
# the budget the package kept before its facet search took in dominated
# points.
MAX_DOMINANCE_TESTS = 300_000


def inverse(m: Matrix) -> Matrix | None:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def cone_facets(gens: list[tuple[Fraction, ...]]) -> list[tuple[list[Fraction], list[int]]]:
    """Facets of the full-dimensional pointed cone spanned by gens, each once.

    Double description (Motzkin et al. 1953; Fukuda, Prodon 1996): the facet
    normals are the extreme rays of the dual cone {a : a.g >= 0}.  From the
    dual rays of d independent generators, each further generator keeps the
    rays on its nonnegative side and joins each adjacent (+, -) pair: rays
    tight on at least d - 2 common generators, no third ray tight on all.
    Joined rays are divided by their largest |entry| to keep the fractions
    small.  Facets come with the sorted indices of their tight generators.
    Raises ``UnsupportedDimension`` past ``MAX_RAY_TESTS`` sign tests and
    pair tests together.
    """
    d = len(gens[0])
    _, start = rref([list(col) for col in zip(*gens)])
    inv = inverse([list(gens[i]) for i in start])
    # a ray is a normal and the bit set of the generators cut so far tight on it
    tight = sum(1 << i for i in start)
    rays = [([row[j] for row in inv], tight ^ (1 << i)) for j, i in enumerate(start)]
    tests = 0
    for k in sorted(set(range(len(gens))) - set(start)):
        vals = [dot(r, gens[k]) for r, _ in rays]
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
                    top = max(abs(x) for x in ray)
                    cut.append(([x / top for x in ray], common | (1 << k)))
        rays = cut
    return [(r, [i for i in range(len(gens)) if z >> i & 1]) for r, z in rays]


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    pairs = len(p.terms) * len(q.terms)
    if pairs > MAX_TERM_PAIRS:
        raise UnsupportedDimension(
            f"product of {pairs} term pairs exceeds the budget of {MAX_TERM_PAIRS}"
        )
    terms: Terms = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return polynomial(p.dim, terms)


def poly_pow(p: Polynomial, k: int) -> Polynomial:
    if k < 0:
        raise NegativeExponent("exponent must be nonnegative", 0)
    result = _const(p.dim, Fraction(1))
    while k:  # square and multiply: p^k from the binary digits of k
        if k & 1:
            result = poly_mul(result, p)
        k >>= 1
        if k:
            p = poly_mul(p, p)
    return result


def _check_point(p, dim: int) -> Point:
    p = point(p)
    if len(p) != dim:
        raise DimensionMismatch(f"point of length {len(p)}, expected {dim}")
    return p


def canonicalize(dim: int, raw_points) -> Diagram:
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    pts = [_check_point(p, dim) for p in raw_points]
    if not pts:
        raise EmptyInput("at least one generator is required")
    for p in pts:
        if any(c < 0 for c in p):
            raise NegativeCoordinate(f"negative coordinate in {p}")
    pts = sorted(set(pts))
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
        return Diagram(dim, tuple(keep))
    # only a lexicographically smaller point can be <= q componentwise, and
    # a dominated dominator has an undominated one below it
    undominated: list[Point] = []
    tests = 0
    for q in pts:
        tests += len(undominated)
        if tests > MAX_DOMINANCE_TESTS:
            raise UnsupportedDimension(
                f"dominance filter exceeds its budget of {MAX_DOMINANCE_TESTS} tests"
            )
        if not any(all(a <= b for a, b in zip(p, q)) for p in undominated):
            undominated.append(q)
    tights = [t for _, _, t in diagram_facets(Diagram(dim, tuple(undominated)))]
    keep = [p for i, p in enumerate(undominated) if least_face(tights, frozenset([i])) == {i}]
    return Diagram(dim, tuple(keep))


def det(m: Matrix) -> Fraction:
    a = [row[:] for row in m]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result
