"""Exact sparse Laurent polynomials in one variable u over the integers.

A LaurentPoly keeps its terms as a mapping from exponent to coefficient.
Canonical form means no zero coefficients are stored and there is at most
one term per exponent; the zero polynomial has no terms at all.  Exponents
may be negative and coefficients are plain Python ints, so every operation
is exact regardless of size.

MonicPoly is the normal form used for quotient rings: an ordinary
polynomial in u (constant term first), together with the power of u that
was factored out of the Laurent input and a flag recording whether the
leading coefficient could be scaled to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """An element of Z[u, u^-1] in canonical sparse form.

    >>> LaurentPoly({0: 1, -2: -1})
    1 - u^-2
    >>> LaurentPoly({3: 2}) * LaurentPoly({-3: 1, 0: 4})
    8u^3 + 2
    >>> LaurentPoly({})
    0
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[e] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @property
    def terms(self) -> dict[int, int]:
        """The underlying exponent-to-coefficient dict.  Treat as read-only."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._terms)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by u^k."""
        if k == 0:
            return self
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the int c (zero included), so it must hash as c
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.const(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items(), reverse=True))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self:
            body = _term_str(abs(c), e)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __repr__ = __str__


def _pack(p: LaurentPoly, lo: int, w: int) -> int:
    """The signed Kronecker int sum of c*2^(w*(e - lo)) over the terms c*u^e
    of p; lo must not exceed any exponent of p.

    >>> _pack(LaurentPoly({-1: 3, 1: -2}), -1, 4)
    -509
    """
    return sum(c << w * (e - lo) for e, c in p.terms.items())


def _unpack(v: int, lo: int, w: int, n: int) -> LaurentPoly:
    """Inverse of _pack for v with at most n digits, each of absolute
    value below 2^(w-1): digit k becomes the coefficient of u^(lo + k).

    Adding 2^(w-1) to every digit makes all of them lie in [0, 2^w), so
    each is read off with a shift and a mask.

    >>> _unpack(-509, -1, 4, 3)
    -2u + 3u^-1
    """
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    v += ((1 << w * n) - 1) // mask * half
    return LaurentPoly({lo + k: (v >> w * k & mask) - half for k in range(n)})


def _term_str(c: int, e: int) -> str:
    # c is the absolute coefficient, always >= 1 here
    if e == 0:
        return str(c)
    upart = "u" if e == 1 else f"u^{e}"
    return upart if c == 1 else f"{c}{upart}"


@dataclass(frozen=True)
class MonicPoly:
    """Normal form of a nonzero Laurent polynomial.

    coeffs lists the coefficients by degree 0..d after multiplying the
    input by u^shift and a sign; the sign is chosen so the leading
    coefficient is positive.  monic records whether it is exactly 1.
    """

    coeffs: tuple[int, ...]
    shift: int
    monic: bool

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("MonicPoly needs at least one coefficient")
        if self.coeffs[-1] < 1:
            raise ValueError("leading coefficient must be positive")
        if len(self.coeffs) > 1 and self.coeffs[0] == 0:
            raise ValueError("constant term must be nonzero")
        if self.monic != (self.coeffs[-1] == 1):
            raise ValueError("monic flag disagrees with leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    @cached_property
    def lower_terms(self) -> tuple[tuple[int, int], ...]:
        """(j, coeffs[j]) for the nonzero coefficients below the leading
        one: a division step touches only these.  u^b - 1 has one."""
        return tuple((j, c) for j, c in enumerate(self.coeffs[:-1]) if c)

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly({e: c for e, c in enumerate(self.coeffs)})

    def __str__(self) -> str:
        return str(self.as_laurent())


def euler_class(lam: int) -> LaurentPoly:
    """The class 1 - u^-lam of the weight-lam line; lam must be nonzero.

    >>> euler_class(4)
    1 - u^-4
    """
    if lam == 0:
        raise ValueError("weight 0 has no Euler class here")
    return LaurentPoly({0: 1, -lam: -1})


def normalize(g: LaurentPoly) -> MonicPoly:
    """Scale a nonzero g by a sign and a power of u into MonicPoly form.

    The shift clears the lowest exponent, so inputs with nonpositive
    minimum exponent (every kernel generator here) get shift >= 0.

    >>> normalize(euler_class(4))
    MonicPoly(coeffs=(-1, 0, 0, 0, 1), shift=4, monic=True)
    """
    if g.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    mn = g.min_exp
    d = g.max_exp - mn
    coeffs = [0] * (d + 1)
    for e, c in g.terms.items():
        coeffs[e - mn] = c
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return MonicPoly(tuple(coeffs), -mn, coeffs[-1] == 1)


def divmod_monic(x: LaurentPoly, g: MonicPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division x = q*g + r with deg r < deg g, exact over Z.

    x must be an ordinary polynomial (no negative exponents) and g monic.
    Each step subtracts c*u^(e-d)*g over g's nonzero lower terms only.

    >>> divmod_monic(parse_laurent("u^4"), normalize(euler_class(4)))
    (1, 1)
    """
    if not g.monic:
        raise ValueError("divisor must be monic")
    if x.is_zero:
        return LaurentPoly.zero(), LaurentPoly.zero()
    if x.min_exp < 0:
        raise ValueError(f"dividend has negative exponent {x.min_exp}")
    d = g.degree
    if d == 0:
        return x, LaurentPoly.zero()
    rem = [0] * (x.max_exp + 1)
    for e, c in x.terms.items():
        rem[e] = c
    q: dict[int, int] = {}
    lower = g.lower_terms
    for e in range(len(rem) - 1, d - 1, -1):
        c = rem[e]
        if c:
            q[e - d] = c
            # the leading term cancels rem[e], which is not read again
            for j, gj in lower:
                rem[e - d + j] -= c * gj
    r = {e: c for e, c in enumerate(rem[:d]) if c}
    return LaurentPoly(q), LaurentPoly(r)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse polynomial text into canonical form.

    Grammar: a sum of terms; each term is [sign] [integer] ["*"]
    ["u" ["^" signed-integer]].  Whitespace is insignificant, "u" alone
    means u^1, a bare integer is a constant, and like terms combine.

    >>> parse_laurent("1 - u^-2")
    1 - u^-2
    >>> parse_laurent("u^3 + 2u^3")
    3u^3
    >>> parse_laurent("0")
    0
    """
    n = len(text)
    i = _skip_ws(text, 0)
    if i == n:
        raise ParseError("empty input", i)
    terms: dict[int, int] = {}
    first = True
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = _skip_ws(text, i + 1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", i)
        coeff, exp, i = _parse_term(text, i)
        terms[exp] = terms.get(exp, 0) + sign * coeff
        first = False
        i = _skip_ws(text, i)
    return LaurentPoly(terms)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _is_digit(c: str) -> bool:
    # str.isdigit also takes '²', which int() rejects, and '١', which
    # int() reads as 1
    return "0" <= c <= "9"


def _parse_int(text: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(text) and _is_digit(text[j]):
        j += 1
    if j == i:
        raise ParseError("expected an integer", i)
    return int(text[i:j]), j


def _parse_term(text: str, i: int) -> tuple[int, int, int]:
    """Parse one unsigned term; return (coefficient, exponent, next index)."""
    n = len(text)
    coeff = None
    if i < n and _is_digit(text[i]):
        coeff, i = _parse_int(text, i)
        i = _skip_ws(text, i)
        if i < n and text[i] == "*":
            i = _skip_ws(text, i + 1)
            if i >= n or text[i] != "u":
                raise ParseError("expected 'u' after '*'", i)
    if i < n and text[i] == "u":
        i += 1
        exp = 1
        j = _skip_ws(text, i)
        if j < n and text[j] == "^":
            i = _skip_ws(text, j + 1)
            esign = 1
            if i < n and text[i] in "+-":
                esign = -1 if text[i] == "-" else 1
                i += 1
            mag, i = _parse_int(text, i)
            exp = esign * mag
        return (1 if coeff is None else coeff), exp, i
    if coeff is None:
        raise ParseError("expected a coefficient or 'u'", i)
    return coeff, 0, i
