"""Polynomials with exact rational coefficients and their Newton data.

Grammar for the text form (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nonneg-integer)?
    base   := rational | variable | "(" expr ")"
    variable := "z" positive-integer
    rational := integer ("/" positive-integer)?

A leading sign on the first term is accepted as a convenience.  A number
or variable index has at most ``diagram.MAX_DIGITS`` digits.

The parser builds an expression tree (``Tree``): products of powers
over polynomials, a power being a product of one factor.  It multiplies
out every sum as it reads, because its terms can cancel, and every
product or power of one term.  The tree has two readers:

- ``expand`` multiplies every product out, under the budgets
  MAX_TERM_PAIRS and MAX_EXPONENT; ``parse_polynomial`` is
  ``expand(parse_tree(...))``.  The ``classify`` and ``substitute``
  commands use it, since their answers echo or transform the expanded
  polynomials.
- ``newton_support`` reads only the support: a product adds the
  vertices of its factors, each scaled by its exponent.  The ``diagram``
  and ``lelong`` commands use it through ``diagram_from_input_json``, so
  their budgets are the facet search's, a product's vertex pairs and the
  digits of an exponent, and those of the expansion only inside a sum.

Coefficients are `Fraction`s, but products multiply out on Python ints
(see ``poly_mul``).  Either way a parsed sum is validated once, constants
and variables are built as the valid terms they are, and a product or
power of one term is one term, c^k * z^(k*e), with no product at all.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    MAX_DIGITS,
    MAX_DIM,
    Diagram,
    Point,
    canonicalize,
    check_digits,
    check_printable,
    point,
    rational_from_json,
    weight,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeExponent,
    PolynomialSyntaxError,
    SingularMatrix,
    UnknownVariable,
    UnsupportedDimension,
    ZeroPolynomial,
)
from .linalg import det, frac_rows, integral
from .reuse import once_per_batch

Exponent = tuple[int, ...]
Terms = dict[Exponent, Fraction]


@dataclass(frozen=True)
class Polynomial:
    dim: int
    terms: tuple[tuple[Exponent, Fraction], ...]  # sorted by exponent, no zeros

    def as_dict(self) -> Terms:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return serialize_polynomial(self)


def polynomial(dim: int, terms: Terms) -> Polynomial:
    clean = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}
    for e in clean:
        if len(e) != dim:
            raise DimensionMismatch(f"exponent {e} has length {len(e)}, expected {dim}")
        if any(k < 0 for k in e):
            raise NegativeExponent(f"negative exponent in {e}", 0)
    return Polynomial(dim, tuple(sorted(clean.items())))


@dataclass(frozen=True)
class SingularityInput:
    """Data of u = log(|p_1| + ... + |p_m|)."""

    dim: int
    polys: tuple[Polynomial, ...]


def singularity_input(dim: int, polys) -> SingularityInput:
    polys = tuple(polys)
    if not polys:
        raise EmptyInput("at least one polynomial is required")
    for p in polys:
        if p.dim != dim:
            raise DimensionMismatch(f"polynomial dimension {p.dim}, expected {dim}")
        if p.is_zero():
            raise ZeroPolynomial("input polynomials must be nonzero")
    return SingularityInput(dim, polys)


# --- parser ----------------------------------------------------------------


@dataclass(frozen=True)
class Product:
    """The product of powers t^k of expression trees, as (t, k) in the order written.

    A power p^k is the product of one factor, ((p, k),); a factor of a
    product of two or more has k = 1.
    """

    factors: tuple[tuple[Tree, int], ...]


# An expression tree: a product of powers over Polynomial leaves.  A sum is
# multiplied out as it is read, because its terms can cancel, and so is
# what costs nothing: a constant, a variable, a product or power of one
# term within the power budget.
Tree = Polynomial | Product

_TOKEN = re.compile(r"\s*(?:(\d+)|(z\d+)|([+\-*^()/])|(\S))")
_TOKEN_KINDS = (None, "int", "var", "op")  # by the number of the group that matched

# deepest parenthesis nesting accepted; each level costs four stack frames
MAX_NESTING = 100
# most term pairs one product may multiply; on integer numerators a pair
# costs about a microsecond (0.9 to 1.2 on Python 3.11, 2-vCPU host), so a
# product at the limit takes about 0.3 s.  ``newton_support`` counts a
# product's vertex pairs against it too.  The largest product the tests
# multiply out has 66,049 pairs, and the benchmark pools 81 (``classify``
# and ``substitute`` in ``session``; ``diagram`` multiplies out no product).
MAX_TERM_PAIRS = 250_000
# largest exponent k > 1 of a power p^k, times the size of p (see _size),
# that ``poly_pow`` computes: a power written in the text and a power of a
# linear form in ``substitute_linear`` alike.  Nested powers multiply
# exponents, so a bound on k alone would let ((2*z1)^1000)^1000 through;
# weighted, every power has degree and coefficient bits of about this
# bound at most.  ``newton_support`` computes no power of a sum, and the
# parser builds a power of one term only within this budget.  Below the
# edge cases at the budget, the largest weighted power of a sum in the
# tests is 3 * 24 = 72, and in the benchmark pools 17 * 2 = 34 (a linear
# form in ``substitute``).
MAX_EXPONENT = 10_000
# least exponent of more than MAX_DIGITS digits: ``newton_support`` refuses
# a power that computes one, as the tokenizer refuses one written out, so
# nested powers cannot compound into numbers of millions of digits
_LONG_EXPONENT = 10**MAX_DIGITS


def _size(p: Polynomial) -> int:
    """The larger of p's total degree and its coefficients' bit length (1 for p = 0)."""
    size = 1
    for e, c in p.terms:
        size = max(size, sum(e), c.numerator.bit_length(), c.denominator.bit_length())
    return size


def _power_fits(p: Polynomial, k: int) -> bool:
    """Whether p^k is within the power budget (see MAX_EXPONENT)."""
    return k <= 1 or k * _size(p) <= MAX_EXPONENT


class _Parser:
    """The grammar above, read into an expression tree (see ``Tree``)."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            group = m.lastindex  # the one group that matched
            val, pos = m.group(group), m.start(group)
            if group == 4:
                raise PolynomialSyntaxError(f"unexpected character {val!r}", pos)
            if group < 3:
                check_digits(val, pos)
            self.tokens.append((_TOKEN_KINDS[group], val, pos))
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
            return Product(((_const(self.dim, Fraction(-1)), 1), (terms[0][1], 1)))  # a sign cancels nothing
        return _add(self.dim, [(negative, expand(t)) for negative, t in terms])

    def term(self) -> Tree:
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                return factors[0] if len(factors) == 1 else Product(tuple((f, 1) for f in factors))
            self.take()
            q = self.factor()
            p = factors[-1]
            if _monomial(p) and _monomial(q):
                e_c = [(tuple(map(operator.add, e1, e2)), c1 * c2) for e1, c1 in p.terms for e2, c2 in q.terms]
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
            if _monomial(p) and _power_fits(p, k):
                return poly_pow(p, k)
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
                raise PolynomialSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)


def _monomial(tree: Tree) -> bool:
    """Whether the tree is a polynomial of at most one term."""
    return isinstance(tree, Polynomial) and len(tree.terms) <= 1


@once_per_batch
def parse_tree(text: str, dim: int) -> Tree:
    """The expression tree of the text: products of powers are kept, sums multiplied out."""
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    return _Parser(text, dim).parse()


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """The polynomial of the text, every product and power multiplied out."""
    return expand(parse_tree(text, dim))


def expand(tree: Tree) -> Polynomial:
    """The polynomial of the tree, multiplied out under the budgets of the ring operations."""
    if isinstance(tree, Polynomial):
        return tree
    return functools.reduce(poly_mul, (poly_pow(expand(t), k) for t, k in tree.factors))


def serialize_polynomial(p: Polynomial) -> str:
    """Canonical text form; parse(serialize(p)) == p.  See ``diagram.check_printable``."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms, reverse=True):
        check_printable(c)
        factors = []
        if abs(c) != 1 or all(k == 0 for k in e):
            factors.append(str(abs(c)))
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"z{i + 1}")
            elif k > 1:
                factors.append(f"z{i + 1}^{k}")
        mono = "*".join(factors)
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


# --- ring operations -------------------------------------------------------


def _const(dim: int, c: Fraction) -> Polynomial:
    return Polynomial(dim, (((0,) * dim, c),) if c else ())


def _add(dim: int, terms) -> Polynomial:
    """The sum of the (negated, polynomial) terms, summed into one dict."""
    sums: Terms = {}
    for negative, p in terms:
        for e, c in p.terms:
            sums[e] = sums.get(e, 0) + (-c if negative else c)
    return Polynomial(dim, tuple(sorted((e, c) for e, c in sums.items() if c)))


def _check_pairs(pairs: int) -> None:
    if pairs > MAX_TERM_PAIRS:
        raise UnsupportedDimension(
            f"product of {pairs} term pairs exceeds the budget of {MAX_TERM_PAIRS}"
        )


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    return _add(p.dim, [(False, p), (False, q)])


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product, multiplied out on integer numerators.

    Each factor's coefficients are scaled by the lcm of their denominators,
    so a term pair costs one integer product, and each output term one
    ``Fraction``: its integer sum over the product of the two lcms.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    _check_pairs(len(p.terms) * len(q.terms))
    dp, nums_p = integral([c for _, c in p.terms])
    dq, nums_q = integral([c for _, c in q.terms])
    right = [(e, c) for (e, _), c in zip(q.terms, nums_q)]
    sums: dict[Exponent, int] = {}
    for (e1, _), a in zip(p.terms, nums_p):
        for e2, b in right:
            e = tuple(map(operator.add, e1, e2))
            sums[e] = sums.get(e, 0) + a * b
    den = dp * dq
    return Polynomial(p.dim, tuple(sorted((e, Fraction(c, den)) for e, c in sums.items() if c)))


def poly_pow(p: Polynomial, k: int) -> Polynomial:
    """p^k by repeated squaring; a single term c*z^e gives c^k * z^(k*e) directly.

    p^1 is p itself.  ``UnsupportedDimension`` past the power budget (see
    MAX_EXPONENT).
    """
    if k < 0:
        raise NegativeExponent("exponent must be nonnegative", 0)
    if k == 1:
        return p
    if not _power_fits(p, k):
        raise UnsupportedDimension(
            f"exponent times base size {_size(p)} exceeds the budget of {MAX_EXPONENT}"
        )
    if len(p.terms) == 1 or not p.terms and k:  # and 0^k = 0 for k > 0
        return Polynomial(p.dim, tuple((tuple(k * x for x in e), c**k) for e, c in p.terms))
    result = _const(p.dim, Fraction(1))
    while k:  # square and multiply: p^k from the binary digits of k
        if k & 1:
            result = poly_mul(result, p)
        k >>= 1
        if k:
            p = poly_mul(p, p)
    return result


def substitute_linear(p: Polynomial, m) -> Polynomial:
    """Expand p(M*zeta): row i of M gives z_i as a linear form in zeta.

    Each power of a linear form is computed once, however many terms use it.
    """
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
    power = functools.cache(lambda v, k: poly_pow(linear[v], k))
    terms = []
    for e, c in p.terms:
        term = _const(n, c)
        for v, k in enumerate(e):
            if k:
                term = poly_mul(term, power(v, k))
        terms.append((False, term))
    return _add(n, terms)


# --- Newton data -----------------------------------------------------------


def support_of(p: Polynomial) -> set[Point]:
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has empty support")
    return {point(e) for e, _ in p.terms}


def diagram_of_input(u: SingularityInput) -> Diagram:
    # the exponents as they are: canonicalize keeps integer points as given
    return canonicalize(u.dim, {e for p in u.polys for e, _ in p.terms})


def newton_support(tree: Tree, dim: int) -> list[Exponent]:
    """Exponents with the diagram of ``expand(tree)``, none for the zero polynomial.

    The parser has multiplied out every sum, whose terms can cancel.  A
    vertex coefficient of a product is the product of the factors' vertex
    coefficients, so it never cancels (Ostrowski 1921; see Gelfand,
    Kapranov, Zelevinsky, Discriminants, ch. 6): the diagram of p*q is the
    Minkowski sum of those of p and q, and that of p^k is k times that of
    p.  So a product starts from the origin and, factor by factor, stops
    at a zero factor, skips t^0 without reading t, and otherwise scales
    the points of t by k and adds them to its own pairwise, after
    ``canonicalize`` has cut both to their vertices.  Vertex pairs count
    against MAX_TERM_PAIRS: a factor has no more vertices than terms, so
    a product that ``expand`` multiplies out passes.  A power whose
    exponents would exceed MAX_DIGITS digits raises ``UnsupportedDimension``.
    """
    if isinstance(tree, Polynomial):
        return [e for e, _ in tree.terms]
    points = [(0,) * dim]
    for t, k in tree.factors:
        if not points:
            break
        if k == 0:
            continue
        other = [tuple(k * x for x in e) for e in newton_support(t, dim)]
        if any(x >= _LONG_EXPONENT for p in other for x in p):
            raise UnsupportedDimension(f"a power has an exponent of over {MAX_DIGITS} digits")
        if len(points) > 1 and len(other) > 1:
            points, other = _vertices(dim, points), _vertices(dim, other)
            _check_pairs(len(points) * len(other))
        points = [tuple(map(operator.add, p, q)) for p in points for q in other]
    return points


def _vertices(dim: int, points: list[Exponent]) -> list[Exponent]:
    return [tuple(map(int, v)) for v in canonicalize(dim, points).generators]


def index_of(p: Polynomial, a) -> Fraction:
    """Monomial valuation min{<a, J> : c_J != 0} for a strictly positive weight."""
    a = weight(a)
    if p.is_zero():
        raise ZeroPolynomial("index of the zero polynomial is undefined")
    if len(a) != p.dim:
        raise DimensionMismatch(f"weight of length {len(a)}, expected {p.dim}")
    return min(sum(ai * ei for ai, ei in zip(a, e)) for e, _ in p.terms)


# --- serialization ---------------------------------------------------------


def input_to_json(u: SingularityInput) -> dict:
    return {"dim": u.dim, "polys": [serialize_polynomial(p) for p in u.polys]}


def _read_input(obj: dict) -> tuple[int, list[Tree]]:
    if not isinstance(obj, dict) or "dim" not in obj or "polys" not in obj:
        raise EmptyInput("singularity JSON must have 'dim' and 'polys'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise DimensionMismatch("'dim' must be an integer")
    texts = obj["polys"]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise TypeError("'polys' must be a list of polynomial texts")
    return dim, [parse_tree(t, dim) for t in texts]


def input_from_json(obj: dict) -> SingularityInput:
    """A singularity input, every polynomial multiplied out (``expand``)."""
    dim, trees = _read_input(obj)
    return singularity_input(dim, map(expand, trees))


def diagram_from_input_json(obj: dict) -> Diagram:
    """The diagram of a singularity input, read off ``newton_support`` without expanding.

    The same diagram and errors as ``diagram_of_input(input_from_json(obj))``
    wherever that answers; its budgets on products and powers do not apply.
    """
    dim, trees = _read_input(obj)
    if not trees:
        raise EmptyInput("at least one polynomial is required")
    points: set[Exponent] = set()
    for tree in trees:
        support = newton_support(tree, dim)
        if not support:
            raise ZeroPolynomial("input polynomials must be nonzero")
        points.update(support)
    return canonicalize(dim, points)


def matrix_from_json(obj):
    """The rows of a JSON matrix; ``substitute_linear`` checks their shape."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise TypeError("matrix must be a list of rows")
    return [[rational_from_json(x) for x in row] for row in obj]
