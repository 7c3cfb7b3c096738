"""Polynomials with exact rational coefficients and their Newton data.

Grammar for the text form (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nonneg-integer)?
    base   := rational | variable | "(" expr ")"
    variable := "z" positive-integer
    rational := integer ("/" positive-integer)?

A leading sign on the first term is accepted as a convenience.  Digits
are the ASCII ``0``-``9``; a number or variable index has at most
``diagram.MAX_DIGITS`` of them.

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

Coefficients are `Fraction`s at every public boundary; inside, the ring
runs on integer term tables ({exponent: int}, all over one denominator).
One kernel, ``_mul_ints``, multiplies two tables, and ``_pow_ints``
powers one by repeated squaring on it.  ``poly_mul``, ``poly_pow``,
``substitute_linear`` and the sum ``_add`` scale their inputs to integers
once and build one `Fraction` per output term.  The parser reads a run of
monomial factors (a constant, a variable, a power of one within the power
budget, or a parenthesized polynomial of at most one term) as one
(exponent, coefficient) pair, so a monomial term such as ``3*z1^2*z3`` is
one term with no product at all.  A sum takes these pairs as they are, and
only a monomial that stays in the tree becomes a leaf with a `Fraction`
coefficient (``leaf``).  A parsed sum is validated once.

The budgets are checked where the work is done: MAX_TERM_PAIRS by
``_mul_ints`` before each product (and by ``newton_support`` on vertex
pairs), MAX_EXPONENT by ``poly_pow`` and by ``substitute_linear`` before
each power they build, and by the parser before it folds a power of one
term.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    MAX_DIGITS,
    MAX_DIM,
    Diagram,
    canonicalize,
    check_digits,
    check_printable,
    dim_from_json,
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
from .linalg import det, dot, exact, integral
from .reuse import once_per_batch

Exponent = tuple[int, ...]
Terms = dict[Exponent, Fraction]
IntTerms = dict[Exponent, int]


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
    """The polynomial of {exponent: coefficient}, each coefficient read by
    ``linalg.exact``; an exponent holds ints, as the grammar's do."""
    clean = {tuple(e): Fraction(c) for e, c in zip(terms, exact(terms.values())) if c != 0}
    for e in clean:
        if len(e) != dim:
            raise DimensionMismatch(f"exponent {e} has length {len(e)}, expected {dim}")
        if any(type(k) is not int for k in e):
            raise TypeError(f"exponent {e} must hold ints")
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
# A monomial as the parser reads it: (exponent, coefficient), the coefficient
# an int or a Fraction; zero is (0, ..., 0) with coefficient 0.
Monomial = tuple[Exponent, int | Fraction]

# one token per match, the whole match; ``finditer`` skips the whitespace
# between them, where no alternative matches
_TOKEN = re.compile(r"([0-9]+)|(z[0-9]+)|([+\-*^()/])|(\S)")

# deepest parenthesis nesting accepted; each level costs four stack frames
MAX_NESTING = 100
# most term pairs one product may multiply, checked by ``_mul_ints`` before
# it multiplies, so for every product of ``poly_mul``, of each step of a
# power and of each term of ``substitute_linear``; a pair costs about a
# microsecond (0.9 to 1.2 on Python 3.11, 2-vCPU host), so a product at the
# limit takes about 0.3 s.  ``newton_support`` counts a product's vertex
# pairs against it too.  The largest product the tests multiply out has
# 249,831 pairs (a power of a linear form at the budget), and the benchmark
# pools 81 (``classify`` and ``substitute`` in ``session``; ``diagram``
# multiplies out no product).
MAX_TERM_PAIRS = 250_000
# largest exponent k > 1 of a power p^k, times the size of p (see _size):
# checked before ``poly_pow`` computes a power written in the text, before
# ``substitute_linear`` builds a power of a linear form, and before the
# parser folds a power of one term.  Nested powers multiply
# exponents, so a bound on k alone would let ((2*z1)^1000)^1000 through;
# weighted, every power has degree and coefficient bits of about this
# bound at most.  ``newton_support`` computes no power of a sum, and the
# parser folds a power of one term only within this budget.  Below the
# edge cases at the budget, the largest weighted power of a sum in the
# tests is 3 * 24 = 72, and in the benchmark pools 17 * 2 = 34 (a linear
# form in ``substitute``).
MAX_EXPONENT = 10_000
# least exponent of more than MAX_DIGITS digits: ``newton_support`` refuses
# a power that computes one, as the tokenizer refuses one written out, so
# nested powers cannot compound into numbers of millions of digits
_LONG_EXPONENT = 10**MAX_DIGITS


def _size(terms) -> int:
    """The larger of the total degree and the coefficients' bit length of the
    (exponent, coefficient) terms (1 for none)."""
    size = 1
    for e, c in terms:
        size = max(size, sum(e), c.numerator.bit_length(), c.denominator.bit_length())
    return size


def _power_fits(terms, k: int) -> bool:
    """Whether the k-th power of the terms' polynomial is within the power budget (see MAX_EXPONENT)."""
    return k <= 1 or k * _size(terms) <= MAX_EXPONENT


def _check_power(terms, k: int) -> None:
    if not _power_fits(terms, k):
        raise UnsupportedDimension(
            f"exponent times base size {_size(terms)} exceeds the budget of {MAX_EXPONENT}"
        )


class _Parser:
    """The grammar above, read into an expression tree (see ``Tree``).

    The text is one list of tokens (key, text, position), ended by the
    sentinel (None, None, len(text)); the key is "#" for a number, "z"
    for a variable and the character itself for an operator.  The rules
    read ``tokens[i]`` and advance ``i`` past what they accept.
    """

    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens: list[tuple[str | None, str | None, int]] = []
        append = self.tokens.append
        for m in _TOKEN.finditer(text):
            group = m.lastindex  # the one group that matched
            if group == 4:
                raise PolynomialSyntaxError(f"unexpected character {m[0]!r}", m.start())
            val = m[0]
            if group < 3 and len(val) > MAX_DIGITS:
                check_digits(val, m.start())
            append(("#" if group == 1 else val[0], val, m.start()))
        append((None, None, len(text)))
        self.i = 0
        self.depth = 0
        self.zero = (0,) * dim
        self.units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]

    def parse(self) -> Tree:
        tree = self.expr()
        key, val, pos = self.tokens[self.i]
        if key is not None:
            raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)
        return self.leaf(tree) if type(tree) is tuple else tree

    def expr(self) -> Tree | Monomial:
        """A tree, or a monomial for one unsigned term that is one (see ``term``)."""
        terms: list[tuple[bool, Tree]] = []
        key = self.tokens[self.i][0]
        if key == "+" or key == "-":
            self.i += 1
        while True:
            terms.append((key == "-", self.term()))
            key = self.tokens[self.i][0]
            if key != "+" and key != "-":
                break
            self.i += 1
        if len(terms) == 1:
            negative, tree = terms[0]
            if not negative:
                return tree
            if type(tree) is Product:
                return Product(((_const(self.dim, Fraction(-1)), 1), (tree, 1)))  # a sign cancels nothing
        return _add(self.dim, [(negative, t if type(t) is tuple else expand(t)) for negative, t in terms])

    def term(self) -> Tree | Monomial:
        """Factors in the order written, each run of monomial factors folded
        into one; a term of monomial factors only is their monomial."""
        factors: list[Tree] = []
        mono = None  # the product of the monomial factors since the last other one
        while True:
            f = self.factor()
            if type(f) is tuple:
                mono = f if mono is None else (tuple(map(operator.add, mono[0], f[0])), mono[1] * f[1])
            else:
                if mono is not None:
                    factors.append(self.leaf(mono))
                    mono = None
                factors.append(f)
            if self.tokens[self.i][0] != "*":
                break
            self.i += 1
        if not factors:
            return mono
        if mono is not None:
            factors.append(self.leaf(mono))
        return factors[0] if len(factors) == 1 else Product(tuple((f, 1) for f in factors))

    def factor(self) -> Tree | Monomial:
        """A tree, or a monomial (see ``base``)."""
        p = self.base()
        if self.tokens[self.i][0] != "^":
            return p
        key, val, pos = self.tokens[self.i + 1]
        if key != "#":
            raise NegativeExponent("exponent must be a nonnegative integer", pos)
        self.i += 2
        k = int(val)
        if type(p) is not tuple:
            return Product(((p, k),))
        if not _power_fits((p,), k):
            return Product(((self.leaf(p), k),))
        return tuple(k * x for x in p[0]), p[1] ** k

    def base(self) -> Tree | Monomial:
        """A tree, or a monomial for a constant, a variable or a parenthesized
        polynomial of at most one term."""
        key, val, pos = self.tokens[self.i]
        self.i += 1
        if key == "#":
            if self.tokens[self.i][0] != "/":
                return self.zero, int(val)
            key, den, pos = self.tokens[self.i + 1]
            if key != "#" or int(den) == 0:
                raise PolynomialSyntaxError("expected positive integer denominator", pos)
            self.i += 2
            return self.zero, Fraction(int(val), int(den))
        if key == "z":
            idx = int(val[1:])
            if idx < 1 or idx > self.dim:
                raise UnknownVariable(f"variable {val} out of range for dimension {self.dim}", pos)
            return self.units[idx - 1], 1
        if key == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.depth += 1
            p = self.expr()
            key, _, pos = self.tokens[self.i]
            if key != ")":
                raise PolynomialSyntaxError("expected ')'", pos)
            self.i += 1
            self.depth -= 1
            if type(p) is tuple:
                return p if p[1] else (self.zero, 0)
            if isinstance(p, Polynomial) and len(p.terms) <= 1:
                return p.terms[0] if p.terms else (self.zero, 0)
            return p
        raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)

    def leaf(self, mono: Monomial) -> Polynomial:
        """The monomial as a tree leaf, its coefficient a `Fraction`."""
        e, c = mono
        return Polynomial(self.dim, ((e, Fraction(c)),) if c else ())


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
        num, den = c.numerator, c.denominator
        check_printable(num, den)
        size = abs(num)
        factors = []
        if size != den or not any(e):
            factors.append(str(size) if den == 1 else f"{size}/{den}")
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"z{i + 1}")
            elif k > 1:
                factors.append(f"z{i + 1}^{k}")
        mono = "*".join(factors)
        if not parts:
            parts.append(mono if num > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if num > 0 else f"- {mono}")
    return " ".join(parts)


# --- ring operations -------------------------------------------------------


def _const(dim: int, c: Fraction) -> Polynomial:
    return Polynomial(dim, (((0,) * dim, c),) if c else ())


def _add(dim: int, terms) -> Polynomial:
    """The sum of the (negated, polynomial or monomial) terms.

    A monomial comes as the parser reads it, its coefficient an int or a
    `Fraction`.  The sum is taken on one integer table over the lcm of the
    denominators, with one ``Fraction`` per output term (``_over``).
    """
    signed = [(negative, e, c) for negative, p in terms for e, c in ((p,) if type(p) is tuple else p.terms)]
    den = math.lcm(*(c.denominator for _, _, c in signed))
    sums: IntTerms = {}
    for negative, e, c in signed:
        x = c.numerator * (den // c.denominator)
        sums[e] = sums.get(e, 0) + (-x if negative else x)
    return _over(dim, {e: x for e, x in sums.items() if x}, den)


def _check_pairs(pairs: int) -> None:
    if pairs > MAX_TERM_PAIRS:
        raise UnsupportedDimension(
            f"product of {pairs} term pairs exceeds the budget of {MAX_TERM_PAIRS}"
        )


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    return _add(p.dim, [(False, p), (False, q)])


def _table(terms) -> tuple[int, IntTerms]:
    """The lcm d of the (exponent, coefficient) terms' denominators, and the terms times d."""
    den, nums = integral([c for _, c in terms])
    return den, {e: x for (e, _), x in zip(terms, nums)}


def _over(dim: int, table: IntTerms, den: int) -> Polynomial:
    """The polynomial of the integer terms over den, one ``Fraction`` per term."""
    return Polynomial(dim, tuple(sorted((e, Fraction(x, den)) for e, x in table.items())))


def _mul_ints(a: IntTerms, b: IntTerms) -> IntTerms:
    """The product of two integer term tables, under MAX_TERM_PAIRS; no zero terms."""
    _check_pairs(len(a) * len(b))
    sums: IntTerms = {}
    right = list(b.items())
    for e1, x in a.items():
        for e2, y in right:
            e = tuple(map(operator.add, e1, e2))
            sums[e] = sums.get(e, 0) + x * y
    return {e: x for e, x in sums.items() if x}


def _pow_ints(a: IntTerms, k: int, dim: int) -> IntTerms:
    """a^k for k >= 0 by repeated squaring; a single term c*z^e gives c^k * z^(k*e) directly."""
    if len(a) == 1 or not a and k:  # and 0^k = 0 for k > 0
        return {tuple(k * x for x in e): c**k for e, c in a.items()}
    result = {(0,) * dim: 1}
    while k:  # square and multiply: a^k from the binary digits of k
        if k & 1:
            result = _mul_ints(result, a)
        k >>= 1
        if k:
            a = _mul_ints(a, a)
    return result


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product, multiplied out on integer numerators (``_mul_ints``).

    Each factor's coefficients are scaled by the lcm of their denominators,
    so a term pair costs one integer product, and each output term one
    ``Fraction``: its integer sum over the product of the two lcms.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    dp, a = _table(p.terms)
    dq, b = _table(q.terms)
    return _over(p.dim, _mul_ints(a, b), dp * dq)


def poly_pow(p: Polynomial, k: int) -> Polynomial:
    """p^k on integer numerators (``_pow_ints``) over d^k, d the lcm of p's denominators.

    p^1 is p itself.  ``UnsupportedDimension`` past the power budget (see
    MAX_EXPONENT).
    """
    if k < 0:
        raise NegativeExponent("exponent must be nonnegative", 0)
    if k == 1:
        return p
    _check_power(p.terms, k)
    den, table = _table(p.terms)
    return _over(p.dim, _pow_ints(table, k, p.dim), den**k)


def substitute_linear(p: Polynomial, m) -> Polynomial:
    """Expand p(M*zeta): row i of M gives z_i as a linear form in zeta.

    One pass on integers.  Row v of M, read by ``linalg.exact`` and scaled
    by the lcm s_v of its denominators, is the linear form l_v as an
    integer table, and each power l_v^k that a term uses is built once
    (``_pow_ints``), under the budgets of ``poly_pow``.  A term c * z^e is the product of its powers
    in the order v = 0, ..., n-1, each under MAX_TERM_PAIRS, from c times
    the lcm of p's denominators.  Once every term is built, the terms are
    summed into one table over their common denominator, that lcm times
    s_v^t_v for each v, t_v the largest exponent of z_v in p, and each
    output coefficient is one ``Fraction``.
    """
    rows = [exact(row) for row in m]
    n = p.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    if det(rows) == 0:
        raise SingularMatrix("substitution matrix is singular")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    linear = [[(units[j], c) for j, c in enumerate(row) if c] for row in rows]
    scaled = [_table(form) for form in linear]  # (s_v, l_v times s_v)

    @functools.cache
    def power(v: int, k: int) -> IntTerms:
        _check_power(linear[v], k)
        return _pow_ints(scaled[v][1], k, n)

    den, table = _table(p.terms)
    terms = []
    for e, x in table.items():
        term = {(0,) * n: x}
        for v, k in enumerate(e):
            if k:
                term = _mul_ints(term, power(v, k))
        terms.append((e, term))
    # every power is built, so each t_v has passed the power budget of l_v
    top = [max((e[v] for e in table), default=0) for v in range(n)]
    sums: IntTerms = {}
    for e, term in terms:
        scale = math.prod(s ** (t - k) for (s, _), t, k in zip(scaled, top, e))
        for e2, y in term.items():
            sums[e2] = sums.get(e2, 0) + y * scale
    den *= math.prod(s**t for (s, _), t in zip(scaled, top))
    return _over(n, {e: x for e, x in sums.items() if x}, den)


# --- Newton data -----------------------------------------------------------


def support_of(p: Polynomial) -> set[Exponent]:
    """The exponents of p's terms, as they are."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has empty support")
    return {e for e, _ in p.terms}


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
    return list(canonicalize(dim, points).ints[1])  # the exponents are ints, so s is 1


def index_of(p: Polynomial, a) -> Fraction:
    """Monomial valuation min{<a, J> : c_J != 0} for a strictly positive weight."""
    a = weight(a)
    if p.is_zero():
        raise ZeroPolynomial("index of the zero polynomial is undefined")
    if len(a) != p.dim:
        raise DimensionMismatch(f"weight of length {len(a)}, expected {p.dim}")
    return min(dot(a, e) for e, _ in p.terms)


# --- serialization ---------------------------------------------------------


def input_to_json(u: SingularityInput) -> dict:
    return {"dim": u.dim, "polys": [serialize_polynomial(p) for p in u.polys]}


def _read_input(obj: dict) -> tuple[int, list[Tree]]:
    dim = dim_from_json(obj, "singularity", "polys")
    texts = obj["polys"]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise TypeError("'polys' must be a list of polynomial texts")
    if not texts:
        raise EmptyInput("at least one polynomial is required")
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
