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

Coefficients are `Fraction`s, but products multiply out on Python ints
(see ``poly_mul``).  A parsed sum is validated once, constants and
variables are built as the valid terms they are, and a power of a single
term is c^k * z^(k*e), with no product at all.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    Diagram,
    Point,
    canonicalize,
    check_digits,
    check_printable,
    point,
    rational_from_json,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeExponent,
    NonpositiveWeight,
    PolynomialSyntaxError,
    SingularMatrix,
    UnknownVariable,
    UnsupportedDimension,
    ZeroPolynomial,
)
from .linalg import det, frac_rows, integral

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


def zero(dim: int) -> Polynomial:
    return Polynomial(dim, ())


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


def weight(coords) -> tuple[Fraction, ...]:
    a = tuple(Fraction(c) for c in coords)
    if any(c <= 0 for c in a):
        raise NonpositiveWeight(f"weight {a} must be strictly positive")
    return a


# --- parser ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(z\d+)|([+\-*^()/])|(\S))")

# deepest parenthesis nesting accepted; each level costs four stack frames
MAX_NESTING = 100
# largest dimension accepted; every exponent tuple has this length, and the
# face code is meant for n <= 4
MAX_DIM = 32
# most term pairs one product may multiply; on integer numerators a pair
# costs about a microsecond (0.9 to 1.2 on Python 3.11, 2-vCPU host), so a
# product at the limit takes about 0.3 s.  The largest product in the tests
# multiplies 23,409 pairs and in the benchmark pools 272.
MAX_TERM_PAIRS = 250_000
# largest exponent k > 1 of a power p^k, times the size of p (see _size),
# that ``poly_pow`` computes: a power written in the text and a power of a
# linear form in ``substitute_linear`` alike.  Nested powers multiply
# exponents, so a bound on k alone would let ((2*z1)^1000)^1000 through;
# weighted, every power has degree and coefficient bits of about this
# bound at most.  The largest weighted power in the tests is (z1+z2)^300
# and in the benchmark pools 31 * 3 = 93.
MAX_EXPONENT = 10_000


def _size(p: Polynomial) -> int:
    """The larger of p's total degree and its coefficients' bit length (1 for p = 0)."""
    size = 1
    for e, c in p.terms:
        size = max(size, sum(e), c.numerator.bit_length(), c.denominator.bit_length())
    return size


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                break
            if m.group(1):
                check_digits(m.group(1), m.start(1))
                self.tokens.append(("int", m.group(1), m.start(1)))
            elif m.group(2):
                check_digits(m.group(2), m.start(2))
                self.tokens.append(("var", m.group(2), m.start(2)))
            elif m.group(3):
                self.tokens.append(("op", m.group(3), m.start(3)))
            else:
                raise PolynomialSyntaxError(f"unexpected character {m.group(4)!r}", m.start(4))
            pos = m.end()
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

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        # every term is summed into one dict, validated once at the end
        terms: Terms = {}
        kind, val, _ = self.peek()
        sign = "+"
        if kind == "op" and val in "+-":
            self.take()
            sign = val
        while True:
            for e, c in self.term().terms:
                terms[e] = terms.get(e, 0) + (c if sign == "+" else -c)
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return polynomial(self.dim, terms)
            self.take()
            sign = val

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = poly_mul(p, self.factor())
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise NegativeExponent("exponent must be a nonnegative integer", pos)
            p = poly_pow(p, int(val))
        return p

    def base(self) -> Polynomial:
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


def parse_polynomial(text: str, dim: int) -> Polynomial:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    return _Parser(text, dim).parse()


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


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    terms = p.as_dict()
    for e, c in q.terms:
        terms[e] = terms.get(e, Fraction(0)) + c
    return polynomial(p.dim, terms)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product, multiplied out on integer numerators.

    Each factor's coefficients are scaled by the lcm of their denominators,
    so a term pair costs one integer product, and each output term one
    ``Fraction``: its integer sum over the product of the two lcms.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} != {q.dim}")
    pairs = len(p.terms) * len(q.terms)
    if pairs > MAX_TERM_PAIRS:
        raise UnsupportedDimension(
            f"product of {pairs} term pairs exceeds the budget of {MAX_TERM_PAIRS}"
        )
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

    ``UnsupportedDimension`` past the power budget (see MAX_EXPONENT).
    """
    if k < 0:
        raise NegativeExponent("exponent must be nonnegative", 0)
    if k > 1 and k * _size(p) > MAX_EXPONENT:
        raise UnsupportedDimension(
            f"exponent times base size {_size(p)} exceeds the budget of {MAX_EXPONENT}"
        )
    if len(p.terms) == 1:
        ((e, c),) = p.terms
        return Polynomial(p.dim, ((tuple(k * x for x in e), c**k),))
    result = _const(p.dim, Fraction(1))
    while k:  # square and multiply: p^k from the binary digits of k
        if k & 1:
            result = poly_mul(result, p)
        k >>= 1
        if k:
            p = poly_mul(p, p)
    return result


def substitute_linear(p: Polynomial, m) -> Polynomial:
    """Expand p(M*zeta): row i of M gives z_i as a linear form in zeta."""
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
    result = zero(n)
    for e, c in p.terms:
        term = _const(n, c)
        for v, k in enumerate(e):
            if k:
                term = poly_mul(term, poly_pow(linear[v], k))
        result = poly_add(result, term)
    return result


# --- Newton data -----------------------------------------------------------


def support_of(p: Polynomial) -> set[Point]:
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has empty support")
    return {point(e) for e, _ in p.terms}


def diagram_of_input(u: SingularityInput) -> Diagram:
    # the exponents as they are: canonicalize keeps integer points as given
    return canonicalize(u.dim, {e for p in u.polys for e, _ in p.terms})


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


def input_from_json(obj: dict) -> SingularityInput:
    if not isinstance(obj, dict) or "dim" not in obj or "polys" not in obj:
        raise EmptyInput("singularity JSON must have 'dim' and 'polys'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise DimensionMismatch("'dim' must be an integer")
    return singularity_input(dim, [parse_polynomial(t, dim) for t in obj["polys"]])


def matrix_from_json(obj, dim: int):
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise TypeError("matrix must be a list of rows")
    rows = [[rational_from_json(x) for x in row] for row in obj]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise DimensionMismatch(f"matrix must be {dim}x{dim}")
    return rows
