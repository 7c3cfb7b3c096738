"""Reference `Fraction` kernels, kept to check their fraction-free versions.

These are the facet search, the polynomial sum, product and power, the
substitution, the text parser, the canonical generator set and the
determinant the package ran before they moved to Python ints, with the
`Fraction` matrix inverse the facet search started from.
``pshdiag.volume._cone_facets`` must find the same tight sets in the same
order, with normals equal up to a positive factor;
``pshdiag.polynomials.poly_mul``, ``poly_pow``, ``substitute_linear`` and
the sum ``_add`` must return equal polynomials and raise the same
errors, under the same budgets, which these read from
``pshdiag.polynomials`` when they run;
``pshdiag.polynomials.parse_tree`` must return a tree equal to
``parse_tree`` here, and raise the same errors at the same positions;
``pshdiag.diagram.canonicalize``, which hands dominated points to the
facet search where this one filters them out first, must return equal
diagrams and raise the same errors; ``pshdiag.linalg.det`` must
return equal values; and ``pshdiag.measures.newton_number`` and
``pshdiag.diagram.touches_all_axes``, which read a diagram's integer rows
(``Diagram.ints``), must return the values of ``newton_number`` and
``touches_all_axes`` here, which read its `Fraction` generators.
``pshdiag.decomposition.verify_decomposition``, which reads the sum
identity off G's facets on integer rows, must give the answer of
``verify_decomposition`` here, which canonicalizes the pairwise sums;
and ``pshdiag.decomposition._ray_point`` with the pair built from its int
rows must give the point and pair of ``ray_point`` and ``summands_of``
here, which scale and test `Fraction`s.  ``pshdiag.diagram.minkowski_sum``,
``is_homothetic_to``, ``scale``, ``translate`` and ``diagram_to_json``,
and ``pshdiag.decomposition._pair`` of a split's point of S, which read a
diagram's stored integer rows, must give what ``minkowski_sum``,
``is_homothetic_to``, ``scale``, ``translate``, ``diagram_to_json`` and
``split`` here give on its `Fraction` generators.  Tests compare them.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from pshdiag import polynomials
from pshdiag.diagram import (
    MAX_DIGITS,
    MAX_GENERATORS,
    Diagram,
    HomothetyWitness,
    Point,
    check_digits,
    point_text,
)
from pshdiag.errors import (
    DimensionMismatch,
    EmptyInput,
    InfeasibleAssignment,
    NegativeCoordinate,
    NegativeExponent,
    NonpositiveScale,
    PolynomialSyntaxError,
    SingularMatrix,
    UnknownVariable,
    UnsupportedDimension,
)
from pshdiag.linalg import Matrix, dot, exact, frac_rows, rref
from pshdiag.polynomials import MAX_NESTING, Polynomial, Product, Terms, Tree, _const, polynomial
from pshdiag.volume import MAX_RAY_TESTS, diagram_facets, least_face, triangulate_face

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
    budget = polynomials.MAX_TERM_PAIRS
    if pairs > budget:
        raise UnsupportedDimension(f"product of {pairs} term pairs exceeds the budget of {budget}")
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


def size(p: Polynomial) -> int:
    size = 1
    for e, c in p.terms:
        size = max(size, sum(e), c.numerator.bit_length(), c.denominator.bit_length())
    return size


def power_fits(p: Polynomial, k: int) -> bool:
    return k <= 1 or k * size(p) <= polynomials.MAX_EXPONENT


def checked_pow(p: Polynomial, k: int) -> Polynomial:
    """``poly_pow`` under the power budget; p^1 is p."""
    if k == 1:
        return p
    if not power_fits(p, k):
        raise UnsupportedDimension(
            f"exponent times base size {size(p)} exceeds the budget of {polynomials.MAX_EXPONENT}"
        )
    return poly_pow(p, k)


def add(dim: int, terms) -> Polynomial:
    """The sum of the (negated, polynomial) terms, one `Fraction` addition per term."""
    sums: Terms = {}
    for negative, p in terms:
        for e, c in p.terms:
            sums[e] = sums.get(e, 0) + (-c if negative else c)
    return Polynomial(dim, tuple(sorted((e, c) for e, c in sums.items() if c)))


def expand(tree: Tree) -> Polynomial:
    if isinstance(tree, Polynomial):
        return tree
    return functools.reduce(poly_mul, (checked_pow(expand(t), k) for t, k in tree.factors))


def substitute_linear(p: Polynomial, m) -> Polynomial:
    """p(M*zeta), each term a constant times each power of a linear form."""
    rows = frac_rows(m)
    n = p.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    if det(rows) == 0:
        raise SingularMatrix("substitution matrix is singular")
    linear = [
        polynomial(n, {tuple(int(i == j) for i in range(n)): rows[v][j] for j in range(n)})
        for v in range(n)
    ]
    power = functools.cache(lambda v, k: checked_pow(linear[v], k))
    terms = []
    for e, c in p.terms:
        term = _const(n, c)
        for v, k in enumerate(e):
            if k:
                term = poly_mul(term, power(v, k))
        terms.append((False, term))
    return add(n, terms)


def monomial(tree: Tree) -> bool:
    return isinstance(tree, Polynomial) and len(tree.terms) <= 1


# the tokens of the text grammar, kept apart from the package's own pattern:
# a number, a variable, an operator or any other character, digits ASCII
TOKEN = re.compile(r"([0-9]+)|(z[0-9]+)|([+\-*^()/])|(\S)")
TOKEN_KINDS = (None, "int", "var", "op")  # by the number of the group that matched


class Parser:
    """The text grammar of ``pshdiag.polynomials``, a `Polynomial` per token."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens: list[tuple[str, str, int]] = []
        for m in TOKEN.finditer(text):
            group = m.lastindex
            val, pos = m.group(group), m.start(group)
            if group == 4:
                raise PolynomialSyntaxError(f"unexpected character {val!r}", pos)
            if group < 3:
                check_digits(val, pos)
            self.tokens.append((TOKEN_KINDS[group], val, pos))
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise PolynomialSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> Tree:
        tree = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)
        return tree

    def expr(self) -> Tree:
        terms: list[tuple[bool, Tree]] = []
        kind, val, _ = self.peek()
        negative = False
        if kind == "op" and val in "+-":
            self.take()
            negative = val == "-"
        while True:
            terms.append((negative, self.term()))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.take()
            negative = val == "-"
        if len(terms) == 1 and not negative:
            return terms[0][1]
        if len(terms) == 1 and not isinstance(terms[0][1], Polynomial):
            return Product(((_const(self.dim, Fraction(-1)), 1), (terms[0][1], 1)))
        return add(self.dim, [(negative, expand(t)) for negative, t in terms])

    def term(self) -> Tree:
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                return factors[0] if len(factors) == 1 else Product(tuple((f, 1) for f in factors))
            self.take()
            q = self.factor()
            p = factors[-1]
            if monomial(p) and monomial(q):
                e_c = [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e1, c1 in p.terms for e2, c2 in q.terms]
                factors[-1] = Polynomial(self.dim, tuple(e_c))
            else:
                factors.append(q)

    def factor(self) -> Tree:
        p = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise NegativeExponent("exponent must be a nonnegative integer", pos)
            k = int(val)
            if monomial(p) and power_fits(p, k):
                return checked_pow(p, k)
            return Product(((p, k),))
        return p

    def base(self) -> Tree:
        kind, val, pos = self.take()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, pos3 = self.take()
                if kind3 != "int" or int(val3) == 0:
                    raise PolynomialSyntaxError("expected positive integer denominator", pos3)
                return _const(self.dim, Fraction(num, int(val3)))
            return _const(self.dim, Fraction(num))
        if kind == "var":
            idx = int(val[1:])
            if idx < 1 or idx > self.dim:
                raise UnknownVariable(f"variable {val} out of range for dimension {self.dim}", pos)
            e = [0] * self.dim
            e[idx - 1] = 1
            return Polynomial(self.dim, ((tuple(e), Fraction(1)),))
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)


def parse_tree(text: str, dim: int) -> Tree:
    return Parser(text, dim).parse()


def point(coords) -> Point:
    """The coordinates, read by ``linalg.exact``, as `Fraction`s."""
    return tuple(map(Fraction, exact(coords)))


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
            raise NegativeCoordinate(f"negative coordinate in {point_text(p)}")
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


def touches_all_axes(g: Diagram) -> bool:
    """True iff every axis carries a generator (all other coordinates zero)."""
    for k in range(g.dim):
        if not any(all(c == 0 for j, c in enumerate(p) if j != k) for p in g.generators):
            return False
    return True


def newton_number(g: Diagram) -> Fraction | None:
    """n! * Vol(R^n_+ minus the diagram) as a sum of `Fraction` determinants
    over the triangulated compact facets, or None when it is infinite."""
    if not touches_all_axes(g):
        return None
    tights = [t for _, _, t in g.facets]
    total = Fraction(0)
    for a, _, tight in g.facets:
        if all(x > 0 for x in a):
            simplices = [tuple(tight)] if len(tight) == g.dim else triangulate_face(tight, tights, g.generators)
            for simplex in simplices:
                total += abs(det([list(g.generators[i]) for i in simplex]))
    return total


def check(system, us, ts) -> None:
    """``SummandSystem.check_rows`` over `Fraction`s: the same tests in the
    same order, with the same messages."""
    n = system.base.dim
    if len(us) != system.num_vertices or len(ts) != system.num_edges:
        raise InfeasibleAssignment("assignment shape mismatch")
    for u, v in zip(us, system.graph.vertices):
        if len(u) != n:
            raise InfeasibleAssignment("displacement dimension mismatch")
        if any(c < 0 for c in u) or any(c > vk for c, vk in zip(u, v)):
            raise InfeasibleAssignment(f"displacement {point_text(u)} outside [0, {point_text(v)}]")
    for t, (i, j, d) in zip(ts, system.graph.edges):
        if t < 0 or t > 1:
            raise InfeasibleAssignment(f"edge scale {t} outside [0, 1]")
        for k in range(n):
            if us[i][k] - us[j][k] != -t * d[k]:
                raise InfeasibleAssignment(f"edge ({i},{j}) constraint violated at coordinate {k}")


def summands_of(system, us, ts) -> tuple[Diagram, Diagram]:
    """The distinct u_i and v_i - u_i of a point of S, as `Fraction` diagrams."""
    us = [exact(u) for u in us]
    check(system, us, exact(ts))
    co = {tuple(vk - uk for vk, uk in zip(v, u)) for v, u in zip(system.graph.vertices, us)}
    n = system.base.dim
    return Diagram(n, tuple(map(point, set(us)))), Diagram(n, tuple(map(point, co)))


def ray_point(vs, ds, steps, ts, scale: int, u0):
    """``_ray_point`` scaled by a `Fraction` lambda: the point (u, t) as
    values, u run from u0 along the tree ``steps``."""
    us = [list(u0)] + [None] * (len(vs) - 1)
    for j, i, e, sign in steps:
        step = sign * ts[e]
        us[j] = [a + step * d for a, d in zip(us[i], ds[e])]
    for k in range(len(u0)):
        low = min(u[k] for u in us)
        for u in us:
            u[k] -= low
    lam = min(
        [Fraction(vk, uk) for u, v in zip(us, vs) for uk, vk in zip(u, v) if uk > 0]
        + [Fraction(1, t) for t in ts if t > 0]
    )
    q = lam / scale
    return [tuple(q * c for c in u) for u in us], [lam * t for t in ts]


def verify_decomposition(g: Diagram, k1: Diagram, k2: Diagram) -> bool:
    """The canonical pairwise sum equals G, and neither summand is a homothet of G."""
    if not (g.dim == k1.dim == k2.dim):
        raise DimensionMismatch("dimensions differ")
    if minkowski_sum(k1, k2) != g:
        return False
    return is_homothetic_to(k1, g) is None and is_homothetic_to(k2, g) is None


def minkowski_sum(g1: Diagram, g2: Diagram) -> Diagram:
    """``canonicalize`` here of every pairwise sum of `Fraction` generators."""
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
    return Diagram(g.dim, tuple(tuple(c * x for x in p) for p in g.generators))


def translate(g: Diagram, x) -> Diagram:
    x = _check_point(x, g.dim)
    if any(c < 0 for c in x):
        raise NegativeCoordinate(f"translation {point_text(x)} must be nonnegative")
    return Diagram(g.dim, tuple(tuple(a + b for a, b in zip(p, x)) for p in g.generators))


def split(g: Diagram, x) -> tuple[Diagram, Diagram]:
    """{x} and G - x on `Fraction` generators, the side with the lex-least generators first."""
    rest = Diagram(g.dim, tuple(tuple(c - xc for c, xc in zip(p, x)) for p in g.generators))
    point_side = Diagram(g.dim, (point(x),))
    return (point_side, rest) if point_side.generators <= rest.generators else (rest, point_side)


def is_homothetic_to(a: Diagram, b: Diagram) -> HomothetyWitness | None:
    """A = c*B + x with c > 0 and x >= 0, on `Fraction` generators: c is
    forced by the first vertex difference, or for one vertex is its least
    coordinate ratio."""
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
        c = min(Fraction(pa[k], pb[k]) for k in range(n) if pb[k] != 0)
        if c <= 0:
            return None
        return HomothetyWitness(c, tuple(pa[k] - c * pb[k] for k in range(n)))
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


def diagram_to_json(g: Diagram) -> dict:
    """Each `Fraction` generator coordinate printed by ``str``; a part of
    over MAX_DIGITS digits raises ``UnsupportedDimension``."""
    for p in g.generators:
        for c in p:
            if max(abs(c.numerator), c.denominator) >= 10**MAX_DIGITS:
                raise UnsupportedDimension(
                    f"the answer holds a number of over {MAX_DIGITS} digits, the most one may print"
                )
    return {"dim": g.dim, "generators": [[str(c) for c in p] for p in g.generators]}
