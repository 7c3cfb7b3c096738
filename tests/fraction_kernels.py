"""Reference `Fraction` kernels, kept to check their fraction-free versions.

These are the facet search and the polynomial product and power the
package ran before they moved to Python ints, with the `Fraction` matrix
inverse the facet search started from.  ``pshdiag.volume._cone_facets``
must find the same tight sets in the same order, with normals equal up to
a positive factor, and ``pshdiag.polynomials.poly_mul`` and ``poly_pow``
must return equal polynomials; tests compare them.
"""

from __future__ import annotations

from fractions import Fraction

from pshdiag.errors import DimensionMismatch, NegativeExponent, UnsupportedDimension
from pshdiag.linalg import Matrix, dot, rref
from pshdiag.polynomials import MAX_TERM_PAIRS, Polynomial, Terms, _const, polynomial
from pshdiag.volume import MAX_RAY_PAIRS


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
