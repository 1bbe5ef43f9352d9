import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpascal import (
    QParam,
    as_fraction,
    as_pair,
    format_rational,
    parse_rational,
    q_binomial,
)
from qpascal.exactq import gaussian_row

from oracles import (
    InfiniteProductOutsideSubUnit,
    q_binomial_product,
    q_factorial,
    q_integer,
    q_pochhammer,
    q_pochhammer_bounds,
    q_pochhammer_infinite,
)

HALF = QParam(F(1, 2))
TWO = QParam(F(2))
UNIT = QParam(F(1))

SMALL_QS = st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(2), F(5, 3), F(1)])


class TestQParam:
    def test_inverse(self):
        assert TWO.inverse == HALF
        assert HALF.inverse.q == F(2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QParam(F(0))
        with pytest.raises(ValueError):
            QParam(F(-1, 2))

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            QParam(0.5)

    def test_require_sub_unit(self):
        HALF.require_sub_unit("test")
        from qpascal import RegimeError

        with pytest.raises(RegimeError):
            TWO.require_sub_unit("test")
        with pytest.raises(RegimeError):
            UNIT.require_sub_unit("test")


class TestCoercion:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == F(3)
        assert as_fraction("3/4") == F(3, 4)
        assert as_fraction(F(1, 7)) == F(1, 7)

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            as_fraction(0.1)
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_fraction_is_not_copied(self):
        x = F(10, 7)
        assert as_fraction(x) is x

    def test_text_reader_follows_the_same_rule(self):
        assert parse_rational(" 3/4 ") == F(3, 4)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational(3) == F(3)
        with pytest.raises(TypeError):
            parse_rational(0.5)

    def test_wire_format_roundtrip(self):
        for x in (F(0), F(2), F(-3, 4), F(10, 7)):
            assert parse_rational(format_rational(x)) == x

    def test_writer_prints_what_str_prints(self):
        for x in (F(0), F(2), F(-3, 4), F(10, 7), F(-5), F(10**4299), F(-1, 10**4299)):
            assert format_rational(x) == str(x)
        assert (format_rational("6/8"), format_rational(-2)) == ("3/4", "-2")

    @pytest.mark.parametrize("x", [F(10**4300), F(-1, 10**4300), F(3, 10**4300 + 1)])
    def test_writer_refuses_what_str_refuses(self, x):
        with pytest.raises(ValueError) as want:
            str(x)
        with pytest.raises(ValueError) as got:
            format_rational(x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1E+5000", "2.5e5_000", "1e2000000"])
    def test_exponent_beyond_the_digit_limit_refused(self, text):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)

    def test_exponent_within_the_digit_limit_loads(self):
        assert as_fraction("1e4000") == 10**4000
        assert as_fraction("1e-4000") == F(1, 10**4000)
        assert as_fraction("-1e4300") == -(10**4300)
        assert format_rational(as_fraction("3e4000")) == "3" + "0" * 4000


class TestQIntegers:
    def test_q_integer_direct_sum(self):
        # 1 + 2 + 4 + 8
        assert q_integer(4, TWO) == 15
        assert q_integer(4, TWO) == (F(2) ** 4 - 1) / (F(2) - 1)

    def test_q_integer_edges(self):
        assert q_integer(0, HALF) == 0
        assert q_integer(1, HALF) == 1
        assert q_integer(3, UNIT) == 3

    def test_q_factorial(self):
        assert q_factorial(3, HALF) == F(21, 8)
        assert q_factorial(4, TWO) == 315
        assert q_factorial(0, HALF) == 1

    def test_q_binomial_values(self):
        assert q_binomial(4, 2, TWO) == 35
        assert q_binomial(3, 1, HALF) == q_integer(3, HALF)
        assert q_binomial(5, 0, HALF) == 1
        assert q_binomial(5, 5, HALF) == 1

    def test_q_binomial_outside_range(self):
        assert q_binomial(3, 4, HALF) == 0
        assert q_binomial(3, -1, HALF) == 0

    def test_q_binomial_unit_is_binomial(self):
        assert q_binomial(6, 2, UNIT) == 15

    def test_q_binomial_factorial_ratio(self):
        for n in range(7):
            for k in range(n + 1):
                assert q_binomial(n, k, HALF) == q_factorial(n, HALF) / (
                    q_factorial(k, HALF) * q_factorial(n - k, HALF)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=0, max_value=12),
        qq=SMALL_QS,
    )
    def test_pascal_recurrences(self, n, k, qq):
        q = QParam(qq)
        lhs = q_binomial(n, k, q)
        assert lhs == q_binomial(n - 1, k - 1, q) + qq**k * q_binomial(n - 1, k, q)
        assert lhs == qq ** (n - k) * q_binomial(n - 1, k - 1, q) + q_binomial(
            n - 1, k, q
        )
        assert lhs == q_binomial(n, n - k, q)


class TestGaussianRows:
    """The one Gaussian body, row by row and through q_binomial, against
    the q-integer product form, cell for cell and in lowest terms."""

    @pytest.mark.parametrize(
        "qq", [F(1, 2), F(2, 3), F(9, 10), F(1), F(2), F(3, 2), F(7, 3)], ids=str
    )
    def test_rows_and_cells_match_the_product_oracle(self, qq):
        q = QParam(qq)
        for n in range(25):
            row = list(gaussian_row(n, q))
            expected = [q_binomial_product(n, k, q) for k in range(n + 1)]
            assert row == expected
            assert [q_binomial(n, k, q) for k in range(n + 1)] == expected
            for k in (-3, -1, n + 1, n + 4):
                assert q_binomial(n, k, q) == q_binomial_product(n, k, q) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=40),
        b=st.integers(min_value=1, max_value=40),
        depth=st.integers(min_value=0, max_value=14),
    )
    def test_random_q_in_lowest_terms(self, a, b, depth):
        q = QParam(F(a, b))
        for n in range(depth + 1):
            for k, cell in enumerate(gaussian_row(n, q)):
                expected = q_binomial_product(n, k, q)
                for got in (cell, q_binomial(n, k, q)):
                    assert type(got) is F
                    assert (got.numerator, got.denominator) == (
                        expected.numerator, expected.denominator,
                    )

    @pytest.mark.parametrize("qq", [F(1, 2), F(9, 10), F(3, 2)], ids=str)
    def test_deep_row_matches_the_product_oracle(self, qq):
        q = QParam(qq)
        expected = [q_binomial_product(60, k, q) for k in range(61)]
        assert [(x.numerator, x.denominator) for x in gaussian_row(60, q)] == [
            (x.numerator, x.denominator) for x in expected
        ]

    def test_end_cells_build_no_power(self):
        # [n 0] comes before any power of q's numerator or denominator is
        # built, and [n n] is read as [n 0]: building b^n alone, a power
        # of 10^8 bits, would take longer than the budget
        start = time.perf_counter()
        assert q_binomial(10**8, 10**8, HALF) == q_binomial(10**8, 0, HALF) == 1
        assert time.perf_counter() - start < 0.1


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # the exception itself is the outcome
        return type(exc), str(exc)


# signs, ASCII and other decimal digits, a superscript two (a digit but no
# decimal), the separators Fraction reads, spaces, and runs of digits on
# both sides of the int-to-str limit
_DIGITS = st.text(alphabet="0123456789\u0663\uff15", min_size=1, max_size=5)
_READER_TOKENS = st.one_of(
    _DIGITS,
    st.sampled_from(["+", "-", "/", ".", "e", "E", "_", " ", "\t", "", "\u00b2", "1/0", "0"]),
    st.integers(min_value=4295, max_value=4305).map(lambda n: "7" * n),
)


def _digit_runs(text):
    """Digit runs joined by single underscores, as Fraction reads them."""
    return all(run.isdecimal() for run in text.split("_"))


def _exponent_of_decimal(text):
    """The exponent of ``text`` when all of it is a decimal literal with an
    exponent in Fraction's grammar: optional spaces and one sign, digits
    before or after a point, then e, one sign and digits.  Else None."""
    mantissa, e, exponent = text.strip().lower().partition("e")
    if mantissa[:1] in ("+", "-"):
        mantissa = mantissa[1:]
    whole, dot, part = mantissa.partition(".")
    if dot:
        digits = (whole or part) and (not whole or _digit_runs(whole)) and (
            not part or _digit_runs(part)
        )
    else:
        digits = whole and _digit_runs(whole)
    if exponent[:1] in ("+", "-"):
        exponent = exponent[1:]
    return exponent if e and digits and _digit_runs(exponent) else None


def _pair_by_isdecimal(text):
    """as_pair's plain-digits rule with ``str.isdecimal`` as its test: the
    unreduced pair of a plain [+-]digits[/digits], and None for any other
    text, which Fraction's reader reads."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (digits.isdecimal() and (den.isdecimal() or not slash)):
        return None
    top = -int(digits) if num[0] == "-" else int(digits)
    bottom = int(den or 1)
    if not bottom:
        raise ValueError("zero denominator in %r" % (text,))
    return top, bottom


def _reduced_pair(text):
    x = as_fraction(text)
    return x.numerator, x.denominator


# ASCII digits and the separators around them, with Arabic-Indic and
# fullwidth digits, which are decimal but not ASCII
_PLAIN_ALPHABET = "0123456789/+- _.eE\t\n\u0660\u0663\u0669\uff10\uff15\uff19"


class TestReader:
    @settings(max_examples=400, deadline=None)
    @given(text=st.text(alphabet=_PLAIN_ALPHABET, max_size=10)
           | st.lists(_READER_TOKENS, max_size=7).map("".join))
    @example("007/010")
    @example("-\u0663/\uff16")
    @example("\u0663/6")
    @example("+0/0")
    @example("12 ")
    @example("1\n")
    def test_plain_digits_keep_the_isdecimal_rule(self, text):
        # as_pair tests ASCII text by bytes.isdigit; the pairs, the texts
        # it hands to Fraction and every message stay the isdecimal rule's
        want = _outcome(_pair_by_isdecimal, text)
        if want is None:
            want = _outcome(_reduced_pair, text)
        assert _outcome(as_pair, text) == want

    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(_READER_TOKENS, max_size=7).map("".join))
    @example("-12/8")
    @example("007/010")
    @example("\u0663/\uff15")
    @example("-0/0")
    @example("+3/00")
    @example("-" + "7" * 4301)
    @example("e" + "7" * 4301)
    @example("0e++0")
    @example("1e--2")
    @example("1e 9999")
    @example("1e_9999")
    @example("1e+_9999")
    @example("1e9_999")
    @example("1e9999 ")
    @example("1 e9999")
    @example("1/2e9999")
    @example("1_e9999")
    @example("1__0e9999")
    @example(".5e9999")
    @example("5.e-9999")
    def test_strings_read_as_fraction_reads_them(self, text):
        got = _outcome(as_fraction, text)
        exponent = _exponent_of_decimal(text)
        if exponent is not None:
            # a decimal literal's exponent beyond the limit is refused
            # before Fraction would build 10**exponent; int() refuses one
            # too long to read
            digits = exponent.replace("_", "")
            limit = sys.get_int_max_str_digits()
            if len(digits) > limit:
                assert got[1].startswith("Exceeds the limit (%d digits)" % limit)
                return
            if int(digits) > limit:
                assert got[1].startswith("decimal exponent")
                return
        want = _outcome(F, text)
        if isinstance(want, tuple) and want[0] is ZeroDivisionError:
            want = ValueError, "zero denominator in %r" % (text,)
        assert got == want


class TestPochhammer:
    def test_finite_product(self):
        # (1 - (-1))(1 - (-1)/2)
        assert q_pochhammer(-1, HALF, 2) == 3
        assert q_pochhammer(F(1, 3), HALF, 0) == 1
        assert q_pochhammer(1, HALF, 3) == 0

    def test_finite_rejects_negative_k(self):
        with pytest.raises(ValueError):
            q_pochhammer(1, HALF, -1)

    def test_finite_is_the_only_kind(self):
        # the infinite product is q_pochhammer_infinite, not k = inf
        with pytest.raises(ValueError):
            q_pochhammer(F(1, 2), HALF, float("inf"))
        assert isinstance(q_pochhammer(F(1, 2), HALF, 3), F)

    def test_infinite_requires_sub_unit(self):
        for q in (UNIT, TWO):
            for product in (q_pochhammer_infinite, q_pochhammer_bounds):
                with pytest.raises(InfiniteProductOutsideSubUnit):
                    product(F(1, 3), q)

    def test_infinite_value_and_error(self):
        res = q_pochhammer_infinite(F(1, 2), HALF)
        # Euler: (1/2, 1/2)_inf = prod (1 - 2^-(i+1)) = 0.2887880950866...
        assert abs(res.value - 0.28878809508660242) < 1e-12
        assert res.error_bound < 1e-10

    def test_bounds_bracket_truth(self):
        for x in (F(1, 2), F(0), F(-1), F(-3)):
            lo, hi = q_pochhammer_bounds(x, HALF)
            assert lo <= hi
            ref = q_pochhammer(x, HALF, 60)  # tail beyond 60 is ~2^-60
            assert lo <= ref * F(101, 100)
            assert hi >= ref * F(99, 100)
            assert (hi - lo) <= abs(hi) / 10**11 or hi == lo

    def test_bounds_exact_for_zero(self):
        assert q_pochhammer_bounds(0, HALF) == (F(1), F(1))

    def test_bounds_reject_x_at_least_one(self):
        with pytest.raises(ValueError):
            q_pochhammer_bounds(F(3, 2), HALF)
