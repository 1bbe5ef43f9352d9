"""Exact arithmetic kernels for q-combinatorics.

Every probability-carrying quantity in this package is a
:class:`fractions.Fraction`.  This module provides the q-integer,
q-binomial and q-Pochhammer building blocks, plus
:class:`QParam`, the deformation parameter q > 0.  Operations that only
make sense on one side of q = 1 compare q with 1 and raise
:class:`~qpascal.errors.RegimeError`.

Floating point enters in exactly one place: the value of the infinite
q-Pochhammer product, :func:`q_pochhammer_infinite`, which cannot be
evaluated in finitely many exact steps.  Its truncation error is
computed alongside the value, and :func:`q_pochhammer_bounds` gives a
certified *rational* enclosure for callers that need exact downstream
guarantees.  They truncate by different rules.  The float value stops
at the first N with |x| q^N < TRUNCATION_TARGET, or at
N = TRUNCATION_TERMS, and returns unless its tail estimate
|x| q^N / (1 - q) is 1 or more.  The enclosure stops at the first N
with both |x| q^N < TRUNCATION_TARGET and |x| q^N < (1 - q)/2, and
raises if it reaches TRUNCATION_TERMS factors first.

Rationals serialize as canonical strings ("3/4", "2", "0") via
:func:`format_rational`, and every reader turns text or a JSON integer
back into a Fraction through :func:`as_fraction` alone, and a count
field into an int through :func:`as_count`; this is the wire format
used by every JSON and CSV surface of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InfiniteProductOutsideSubUnit, RegimeError


def as_fraction(value) -> Fraction:
    """Coerce ints and strings to Fraction, return a Fraction as it is;
    reject floats and bools.

    Floats are refused on exact surfaces because Fraction(0.1) silently
    captures the binary approximation, not the decimal the caller meant.
    A decimal exponent beyond the int-to-str digit limit, after a mantissa
    with a digit, is refused before 10**exponent is built: such a number
    could not be printed back.
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
            exponent = exponent.replace("_", "").strip()
            if exponent.lstrip("+-").isdecimal() and abs(int(exponent)) > bound:
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


# truncation constants; the module docstring gives each product's rule
TRUNCATION_TERMS = 10_000
TRUNCATION_TARGET = Fraction(1, 10**12)


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
    a_pow = [a**k for k in range(depth + 1)]
    b_pow = [1]
    for _ in range(depth * depth // 4):
        b_pow.append(b_pow[-1] * b)
    row = [1]
    for n in range(depth + 1):
        if n:
            inner = (b_pow[n - k] * row[k - 1] + a_pow[k] * row[k] for k in range(1, n))
            row = [1, *inner, 1]
        yield [_coprime(g, b_pow[k * (n - k)]) for k, g in enumerate(row)]


def _coprime(top: int, bottom: int) -> Fraction:
    """Fraction(top, bottom) for coprime top and bottom > 0, without a gcd."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = top, bottom
    return out


def q_pochhammer(x: Fraction | int | str, q: QParam, k: int) -> Fraction:
    """(x, q)_k = prod_{i<k} (1 - x q^i), exactly; the infinite product
    is :func:`q_pochhammer_infinite`."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a natural number, got %r" % (k,))
    xf = as_fraction(x)
    qq = q.q
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        out *= 1 - xf * power
        if out == 0:
            break
        power *= qq
    return out


class InfiniteProduct(NamedTuple):
    """Truncated infinite product with a certified absolute error bound."""

    value: float
    error_bound: float
    terms: int


def q_pochhammer_infinite(
    x: Fraction | int | str | float, q: QParam
) -> InfiniteProduct:
    """(x, q)_inf for 0 < q < 1, in floating point.

    Stops once |x| q^i < TRUNCATION_TARGET (or at TRUNCATION_TERMS) and
    reports |true - value| <= error_bound, obtained from the elementary
    enclosure prod_{i>=N} (1 - x q^i) in [1 - s, 1/(1 - s)] where
    s = |x| q^N / (1 - q) < 1.
    """
    if q.q >= 1:
        raise InfiniteProductOutsideSubUnit(
            "infinite product diverges unless 0 < q < 1, got q = %s" % q.q
        )
    xf = float(x if isinstance(x, float) else as_fraction(x))
    qf = float(q.q)
    target = float(TRUNCATION_TARGET)
    value = 1.0
    term = abs(xf)
    n = 0
    while term >= target and n < TRUNCATION_TERMS:
        value *= 1.0 - xf * qf**n
        n += 1
        term *= qf
    s = term / (1.0 - qf)
    if s >= 1.0:
        raise ValueError(
            "tail estimate %.3g has not converged within TRUNCATION_TERMS = %d "
            "terms and TRUNCATION_TARGET = %s"
            % (s, TRUNCATION_TERMS, TRUNCATION_TARGET)
        )
    error = abs(value) * s / (1.0 - s)
    return InfiniteProduct(value=value, error_bound=error, terms=n)


def q_pochhammer_bounds(
    x: Fraction | int | str, q: QParam
) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure [lo, hi] of (x, q)_inf for x < 1.

    Used by the boundary-measure constructors so that truncation error
    stays an exact rational and normalizations can be bounded from the
    safe side.  Requires 0 < q < 1 and x < 1 (all factors positive).
    """
    if q.q >= 1:
        raise InfiniteProductOutsideSubUnit(
            "infinite product diverges unless 0 < q < 1, got q = %s" % q.q
        )
    xf = as_fraction(x)
    if xf >= 1:
        raise ValueError("rational enclosure implemented only for x < 1")
    qq = q.q
    partial = Fraction(1)
    power = Fraction(1)  # q^n
    n = 0
    # Also force |x| q^n / (1-q) < 1/2 so the tail enclosure is valid.
    while n < TRUNCATION_TERMS:
        term = abs(xf) * power
        if term < TRUNCATION_TARGET and term < (1 - qq) / 2:
            break
        partial *= 1 - xf * power
        power *= qq
        n += 1
    else:
        raise ValueError(
            "TRUNCATION_TERMS = %d reached before the tail bound converged"
            % TRUNCATION_TERMS
        )
    s = abs(xf) * power / (1 - qq)
    if xf >= 0:
        # factors in (0, 1]: the tail only shrinks the product
        return partial * (1 - s), partial
    # factors >= 1: the tail only grows it, by at most 1/(1-s)
    return partial, partial / (1 - s)
