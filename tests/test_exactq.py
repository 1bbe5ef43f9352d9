import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpascal import (
    QParam,
    as_fraction,
    format_rational,
    parse_rational,
    q_binomial,
    q_integer,
)
from qpascal.exactq import gaussian_rows

from oracles import (
    InfiniteProductOutsideSubUnit,
    q_binomial_product,
    q_factorial,
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
    """The integer row recursion and the one-cell product against the
    q-integer product form, cell for cell and in lowest terms."""

    @pytest.mark.parametrize(
        "qq", [F(1, 2), F(2, 3), F(9, 10), F(1), F(2), F(3, 2), F(7, 3)], ids=str
    )
    def test_rows_and_cells_match_the_product_oracle(self, qq):
        q = QParam(qq)
        rows = list(gaussian_rows(24, q))
        assert len(rows) == 25
        for n, row in enumerate(rows):
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
        for n, row in enumerate(gaussian_rows(depth, q)):
            for k, cell in enumerate(row):
                expected = q_binomial_product(n, k, q)
                for got in (cell, q_binomial(n, k, q)):
                    assert type(got) is F
                    assert (got.numerator, got.denominator) == (
                        expected.numerator, expected.denominator,
                    )


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


class TestReader:
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
    def test_strings_read_as_fraction_reads_them(self, text):
        got = _outcome(as_fraction, text)
        mantissa, e, exponent = text.lower().partition("e")
        # Fraction's exponent: one optional sign, then digit runs joined by
        # single underscores, then optional trailing whitespace
        exponent = exponent.rstrip()
        if exponent[:1] in ("+", "-"):
            exponent = exponent[1:]
        runs = exponent.split("_")
        exponent = "".join(runs)
        if e and any(c.isdecimal() for c in mantissa) and all(r.isdecimal() for r in runs):
            # after a mantissa, a decimal exponent beyond the limit is refused
            # before Fraction would build 10**exponent; int() refuses one too
            # long to read
            limit = sys.get_int_max_str_digits()
            if len(exponent) > limit:
                assert got[1].startswith("Exceeds the limit (%d digits)" % limit)
                return
            if int(exponent) > limit:
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
