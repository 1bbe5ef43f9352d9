"""Exact arithmetic kernels for q-combinatorics.

Every probability-carrying quantity in this package is a
:class:`fractions.Fraction`.  This module provides the q-integer and the
Gaussian binomials, plus :class:`QParam`, the deformation parameter
q > 0.  Operations that only make sense on one side of q = 1 compare q
with 1 and raise :class:`~qpascal.errors.RegimeError`.

Rationals serialize as canonical strings ("3/4", "2", "0") via
:func:`format_rational`, and every reader turns text or a JSON integer
back into a Fraction through :func:`as_fraction` alone, and a count
field into an int through :func:`as_count`; this is the wire format
used by every JSON and CSV surface of the package.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import RegimeError

# the exponent of a decimal literal as Fraction reads it, trailing space included
_EXPONENT = re.compile(r"([+-]?\d+(?:_\d+)*)\s*")


def as_fraction(value) -> Fraction:
    """Coerce ints and strings to Fraction, return a Fraction as it is;
    reject floats and bools.

    Floats are refused on exact surfaces because Fraction(0.1) silently
    captures the binary approximation, not the decimal the caller meant.
    A decimal exponent beyond the int-to-str digit limit, after a mantissa
    with a digit, is refused before 10**exponent is built: such a number
    could not be printed back.  Only an exponent that Fraction's grammar
    admits is read, so any other is Fraction's "Invalid literal".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            "exact interfaces take Fraction, int or string, not %r" % (value,)
        )
    if isinstance(value, str) and ("e" in value or "E" in value):
        mantissa, _, exponent = value.lower().partition("e")
        bound = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if bound and any(c.isdecimal() for c in mantissa):
            read = _EXPONENT.fullmatch(exponent)
            if read and abs(int(read[1])) > bound:
                exponent = read[1].replace("_", "")
                raise ValueError("decimal exponent %s exceeds %d in size" % (exponent, bound))
    try:
        if isinstance(value, str):
            # a plain [+-]digits[/digits] skips Fraction's regex; int() reads
            # the digit runs Fraction would, with the same limits and messages
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] in ("+", "-") else num
            if digits.isdecimal() and (den.isdecimal() or not slash):
                top = -int(digits) if num[0] == "-" else int(digits)
                return Fraction(top, int(den or 1))
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None


def as_count(value) -> int:
    """A count read from a file (a depth, a length, a field entry): a
    JSON integer only, never a bool, float, string or list."""
    if type(value) is not int:
        raise TypeError("a count must be an integer, not %r" % (value,))
    return value


def format_rational(x: Fraction) -> str:
    return str(as_fraction(x))


def parse_rational(text: str) -> Fraction:
    """The wire format's reader; the same rule as :func:`as_fraction`."""
    return as_fraction(text)


@dataclass(frozen=True)
class QParam:
    """The deformation parameter q > 0."""

    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        if self.q <= 0:
            raise ValueError("q must be positive, got %s" % self.q)

    @property
    def inverse(self) -> "QParam":
        return QParam(1 / self.q)

    def require_sub_unit(self, operation: str) -> None:
        if self.q >= 1:
            raise RegimeError(
                "%s requires 0 < q < 1, got q = %s" % (operation, self.q)
            )

    def __str__(self) -> str:
        return format_rational(self.q)


def q_integer(n: int, q: QParam) -> Fraction:
    """[n] = 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0, got %d" % n)
    return _q_integer(n, q.q)


def _q_integer(x, qq):
    """[x] = (1 - qq^x) / (1 - qq), and x at qq = 1, in the number type
    of qq: a Fraction, or a float in the urn's float mode."""
    return x * qq if qq == 1 else (1 - qq**x) / (1 - qq)


def q_binomial(n: int, k: int, q: QParam) -> Fraction:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n.  For q = a/b
    in lowest terms it is prod_i (b^(n-k+i) - a^(n-k+i)) / (b^i - a^i),
    i = 1..k, an integer, over b^(k(n-k))."""
    if n < 0 or k < 0 or k > n:
        return Fraction(0)
    a, b = q.q.numerator, q.q.denominator
    if a == b:
        return Fraction(math.comb(n, k))
    k = min(k, n - k)
    top = bottom = 1
    for i in range(1, k + 1):
        top *= b ** (n - k + i) - a ** (n - k + i)
        bottom *= b**i - a**i
    return _coprime(top // bottom, b ** (k * (n - k)))


def gaussian_rows(depth: int, q: QParam):
    """Rows n = 0..depth of the Gaussian binomials [n k]_q.  With q = a/b in
    lowest terms a cell is G / b^(k(n-k)), where the integer G(n, k) =
    b^(n-k) G(n-1, k-1) + a^k G(n-1, k) is a^(k(n-k)) mod b: coprime to b."""
    a, b = q.q.numerator, q.q.denominator
    a_pow = _powers(a, depth)
    b_pow = _powers(b, depth * depth // 4)
    row = [1]
    for n in range(depth + 1):
        if n:
            inner = (b_pow[n - k] * row[k - 1] + a_pow[k] * row[k] for k in range(1, n))
            row = [1, *inner, 1]
        yield [_coprime(g, b_pow[k * (n - k)]) for k, g in enumerate(row)]


def _over_lcm(values) -> tuple[int, list[int]]:
    """(D, [x * D for x in values]) for D the lcm of the denominators: the
    values as integers over one positive denominator, each with its sign.
    Denominators that divide the running D, as most do in a real row,
    cost one remainder and no gcd."""
    lcm = 1
    for x in values:
        d = x.denominator
        if lcm % d:
            lcm = lcm // math.gcd(lcm, d) * d
    return lcm, [x.numerator * (lcm // x.denominator) for x in values]


def _powers(base: int, top: int) -> list[int]:
    """[base**0, ..., base**top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _coprime(top: int, bottom: int) -> Fraction:
    """Fraction(top, bottom) for coprime top and bottom > 0, without a gcd."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = top, bottom
    return out
