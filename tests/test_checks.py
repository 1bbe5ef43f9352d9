"""The integer checks return the Fraction oracles' exact ``Check``.

``check_recursion`` and ``is_q_completely_monotone`` compare integers over
per-row (or per-window) common denominators; ``check_recursion_fractions``
and ``is_q_completely_monotone_fractions`` in ``tests/oracles.py`` compare
normalised Fractions.  The verdict and the first witness must agree on
valid triangles of every law family, on copies with one moved, negated
or rescaled cell, and on random moment windows.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpascal import (
    BoundaryMeasure,
    MomentSequence,
    QParam,
    RegimeError,
    VArray,
    check_recursion,
    extreme_chain,
    is_q_completely_monotone,
    mixture_array,
)
from qpascal.processes import PolyaParams, ThetaParams, polya_chain, theta_chain

from oracles import check_recursion_fractions, is_q_completely_monotone_fractions

QS = (F(1, 2), F(2, 3), F(9, 10))
SHIFTS = (F(1, 3), F(1, 7), F(1, 1024), F(1, 10**9))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _coprime_triangle(q: QParam, numerators) -> VArray:
    """The valid triangle whose last row is numerators[k] / PRIMES[k] up to
    one factor, built backward by the recursion and scaled to v[0][0] = 1."""
    rows = [[F(top, p) for top, p in zip(numerators, PRIMES)]]
    for n in range(len(numerators) - 2, -1, -1):
        below = rows[0]
        rows.insert(0, [below[k] + q.q ** (n - k) * below[k + 1] for k in range(n + 1)])
    root = rows[0][0]
    return VArray(q, [[x / root for x in row] for row in rows])


def _superunit(array: VArray) -> VArray:
    """The q' = 1/q triangle V[n][j] = v[n][n-j] q^(j(n-j)), valid iff v is."""
    q = array.q.q
    rows = [
        [row[n - j] * q ** (j * (n - j)) for j in range(n + 1)]
        for n, row in enumerate(array.rows)
    ]
    return VArray(QParam(1 / q), rows)


@st.composite
def valid_triangles(draw) -> VArray:
    q = QParam(draw(st.sampled_from(QS)))
    depth = draw(st.integers(0, 14))
    law = draw(st.sampled_from(("extreme", "mixture", "theta", "polya", "coprime")))
    if law == "extreme":
        array = extreme_chain(draw(st.integers(0, 9)), q).triangle(depth)
    elif law == "mixture":
        kappas = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 6)) for _ in kappas]
        zero = draw(st.integers(0, 3))
        total = sum(weights) + zero
        atoms = {kappa: F(w, total) for kappa, w in zip(kappas, weights)}
        array = mixture_array(BoundaryMeasure.of(q, atoms, F(zero, total)), depth)
    elif law == "theta":
        theta = draw(st.sampled_from((F(1, 3), F(1, 2), F(1), F(3, 2), F(3))))
        array = theta_chain(ThetaParams(theta, q)).triangle(depth)
    elif law == "polya":
        params = PolyaParams(draw(st.integers(1, 4)), draw(st.integers(1, 4)), q)
        array = polya_chain(params).triangle(depth)
    else:
        numerators = draw(st.lists(st.integers(1, 9), min_size=depth + 1, max_size=depth + 1))
        array = _coprime_triangle(q, numerators)
    if draw(st.booleans()) and law != "coprime":
        array = _superunit(array)  # the same law read at q > 1
    return array


@st.composite
def cells(draw, array: VArray) -> tuple[int, int]:
    """A cell of the triangle, in its last row half of the time."""
    n = draw(st.one_of(st.just(array.depth), st.integers(0, array.depth)))
    return n, draw(st.integers(0, n))


def _with_cell(array: VArray, n: int, k: int, value) -> VArray:
    rows = [list(row) for row in array.rows]
    rows[n][k] = value
    return VArray(array.q, rows)


class TestRecursionMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(array=valid_triangles())
    def test_valid_triangles_pass(self, array):
        got = check_recursion(array)
        assert got == check_recursion_fractions(array)
        assert got.ok

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), array=valid_triangles())
    def test_one_moved_cell(self, data, array):
        n, k = data.draw(cells(array))
        shift = data.draw(st.sampled_from(SHIFTS)) * data.draw(st.sampled_from((1, -1)))
        bad = _with_cell(array, n, k, array.rows[n][k] + shift)
        got = check_recursion(bad)
        assert got == check_recursion_fractions(bad)
        assert not got.ok

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), array=valid_triangles())
    def test_negative_cell_and_root(self, data, array):
        n, k = data.draw(cells(array))
        shift = data.draw(st.sampled_from(SHIFTS))
        for bad in (
            _with_cell(array, n, k, -shift),
            _with_cell(array, n, k, -array.rows[n][k]),
            _with_cell(array, 0, 0, 1 + shift),
            _with_cell(array, 0, 0, 1 - shift),
        ):
            assert check_recursion(bad) == check_recursion_fractions(bad)

    def test_moved_cell_in_the_last_row_is_seen_above_it(self):
        array = theta_chain(ThetaParams(F(1, 3), QParam(F(9, 10)))).triangle(12)
        bad = _with_cell(array, 12, 5, array.rows[12][5] + F(1, 10**9))
        assert check_recursion(bad) == check_recursion_fractions(bad) == (False, (11, 4))


def _windows():
    values = st.fractions(min_value=-1, max_value=2, max_denominator=60)
    return st.lists(values, max_size=11).map(lambda tail: [F(1), *tail])


class TestMonotoneMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(q=st.sampled_from(QS), window=_windows())
    @example(q=F(2, 3), window=[F(1), F(1, 2), F(1, 3), F(1, 5)])
    def test_random_windows(self, q, window):
        u, q = MomentSequence(window), QParam(q)
        for depth in (None, *range(len(window))):
            got = is_q_completely_monotone(u, q, depth)
            assert got == is_q_completely_monotone_fractions(u, q, depth)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), array=valid_triangles())
    def test_moment_columns(self, data, array):
        if array.q.q >= 1:
            array = _superunit(array)
        column = [row[0] for row in array.rows]
        u = MomentSequence(column)
        assert is_q_completely_monotone(u, array.q).ok
        assert is_q_completely_monotone_fractions(u, array.q).ok
        if len(column) > 1:
            n = data.draw(st.integers(1, len(column) - 1))
            column[n] += data.draw(st.sampled_from(SHIFTS)) * data.draw(st.sampled_from((1, -1)))
            u = MomentSequence(column)
            depth = data.draw(st.one_of(st.none(), st.integers(0, len(column) - 1)))
            got = is_q_completely_monotone(u, array.q, depth)
            assert got == is_q_completely_monotone_fractions(u, array.q, depth)

    @pytest.mark.parametrize(
        "q, depth", [(F(1), None), (F(2), None), (F(1, 2), -1), (F(1, 2), 3)]
    )
    def test_same_refusals(self, q, depth):
        u = MomentSequence((F(1), F(1, 2), F(1, 4)))
        outcomes = []
        for check in (is_q_completely_monotone, is_q_completely_monotone_fractions):
            with pytest.raises((RegimeError, ValueError)) as refusal:
                check(u, QParam(q), depth)
            outcomes.append((refusal.type, str(refusal.value)))
        assert outcomes[0] == outcomes[1]
