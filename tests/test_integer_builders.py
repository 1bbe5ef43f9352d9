"""The exact triangle, tilde and mixture builders run on integer pairs and
build each cell once, already reduced, without a gcd of their own.  Each
is held cell for cell to its Fraction body in ``oracles``, and every cell
they make is checked to be in lowest terms, since a cell that is not
would print other bytes."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpascal import InvalidArrayError, QParam, TildeArray, tilde_of_v
from qpascal.boundary import BoundaryMeasure, extreme_chain, mixture_array
from qpascal.laws import read_triangle
from qpascal.pascal_graph import flip_reduction
from qpascal.processes import PolyaParams, ThetaParams, polya_chain, theta_chain

from oracles import (
    check_levels_fractions,
    mixture_array_fractions,
    polya_chain_fractions,
    tilde_of_v_fractions,
    triangle_fractions,
)

QS = (F(1, 2), F(2, 3), F(9, 10), F(99, 100))
KAPPAS = tuple(range(10)) + (math.inf,)
THETAS = (F(0), F(1, 3), F(3, 2), math.inf)


def assert_normalised(rows):
    """Every cell a Fraction in lowest terms over a positive denominator,
    so zero is 0/1."""
    for row in rows:
        for x in row:
            assert type(x) is F
            assert x.denominator > 0
            assert math.gcd(x.numerator, x.denominator) == 1, x


def chains():
    """(chain, its oracle chain): the extreme and theta chains are their
    own oracle, as their p1 is not rebuilt here; the urn's oracle is its
    p1 in Fraction arithmetic."""
    q = st.sampled_from(QS).map(QParam)
    extreme = st.builds(extreme_chain, st.sampled_from(KAPPAS), q)
    theta = st.builds(lambda t, q: theta_chain(ThetaParams(t, q)), st.sampled_from(THETAS), q)
    urn = st.builds(
        PolyaParams,
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from((F(1),) + QS).map(QParam),
    ).map(lambda params: (polya_chain(params), polya_chain_fractions(params)))
    return st.one_of(extreme.map(lambda c: (c, c)), theta.map(lambda c: (c, c)), urn)


@st.composite
def measures(draw):
    """A boundary measure on up to three atoms among kappa <= 10, with or
    without mass at the zero point."""
    q = QParam(draw(st.sampled_from(QS)))
    kappas = draw(st.lists(st.integers(0, 10), max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(kappas), max_size=len(kappas)))
    zero = draw(st.integers(0, 3)) if kappas else 1
    total = sum(weights) + zero
    atoms = {k: F(w, total) for k, w in zip(kappas, weights)}
    return BoundaryMeasure.of(q, atoms, F(zero, total))


class TestAgainstFractionBodies:
    @settings(max_examples=80, deadline=None)
    @given(pair=chains(), depth=st.integers(0, 14))
    def test_triangle_and_tilde(self, pair, depth):
        chain, oracle = pair
        v = chain.triangle(depth)
        assert v.rows == triangle_fractions(oracle, depth).rows
        tv = tilde_of_v(v)
        assert tv.rows == tilde_of_v_fractions(v).rows
        assert_normalised(v.rows)
        assert_normalised(tv.rows)

    @settings(max_examples=60, deadline=None)
    @given(measure=measures(), depth=st.integers(0, 14))
    def test_mixture(self, measure, depth):
        v = mixture_array(measure, depth)
        assert v.rows == mixture_array_fractions(measure, depth).rows
        assert_normalised(v.rows)
        assert_normalised(tilde_of_v(v).rows)

    def test_mixture_with_zero_mass(self):
        measure = BoundaryMeasure.of(QParam(F(2, 3)), {0: F(1, 4), 3: F(1, 4)}, F(1, 2))
        v = mixture_array(measure, 9)
        assert v.rows == mixture_array_fractions(measure, 9).rows
        # past kappa = 3 ones, the diagonal holds only the zero point's mass
        assert v.rows[9][9] == F(1, 2)

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(1, 40), b=st.integers(1, 40), c=st.integers(1, 30),
           d=st.integers(1, 30), depth=st.integers(1, 24))
    def test_urn_p1_property(self, a, b, c, d, depth):
        params = PolyaParams(a, b, QParam(F(min(c, d), max(c, d))))
        chain, oracle = polya_chain(params), polya_chain_fractions(params)
        for n in range(depth):
            for k in range(n + 1):
                p = chain.p1(n, k)
                assert p == oracle.p1(n, k)
                assert_normalised([[p]])

    def test_urn_p1(self):
        for q in (F(1),) + QS:
            params = PolyaParams(3, 2, QParam(q))
            chain, oracle = polya_chain(params), polya_chain_fractions(params)
            for n in range(10):
                for k in range(n + 1):
                    p = chain.p1(n, k)
                    assert p == oracle.p1(n, k)
                    assert_normalised([[p]])


class TestNormalisedCells:
    """The builders set each cell's numerator and denominator directly,
    so a cell out of lowest terms would go unnoticed until it printed."""

    @pytest.mark.parametrize("q", QS)
    def test_every_builder(self, q):
        qp = QParam(q)
        chains = [extreme_chain(kappa, qp) for kappa in KAPPAS]
        chains += [theta_chain(ThetaParams(t, qp)) for t in THETAS]
        chains += [polya_chain(PolyaParams(a, b, qp)) for a, b in ((1, 1), (3, 2))]
        measure = BoundaryMeasure.of(qp, {1: F(1, 6), 4: F(1, 3), 9: F(1, 3)}, F(1, 6))
        arrays = [chain.triangle(20) for chain in chains] + [mixture_array(measure, 20)]
        for v in arrays:
            assert_normalised(v.rows)
            assert_normalised(tilde_of_v(v).rows)
            up = {"q": str(1 / q), "v": [[str(x) for x in row] for row in v.rows]}
            assert_normalised(flip_reduction(read_triangle(up))[0].rows)
        assert_normalised([chain.level(20) for chain in chains])


class TestLevelSumMessages:
    """The level-sum check compares integers over one lcm, and says what
    the Fraction sum said."""

    @pytest.mark.parametrize("rows, message", [
        ([[1], [F(1, 2), F(1, 2) - F(1, 10**9)]],
         "level 1 sums to 999999999/1000000000, not 1"),
        ([[1], [F(1, 3), F(2, 3)], [F(3, 2), F(1, 2), F(-1)]],
         "negative mass in level 2"),
    ])
    def test_same_text(self, rows, message):
        with pytest.raises(InvalidArrayError) as integer:
            TildeArray(QParam(F(1, 2)), rows)
        with pytest.raises(InvalidArrayError) as fractions:
            check_levels_fractions(rows)
        assert str(integer.value) == str(fractions.value) == message
