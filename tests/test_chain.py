"""The forward chain against independent oracles.

Every triangle in production comes from one ForwardChain, so comparing
the samplers' decision-tree laws with those triangles (acceptance test
04) would check the chain against itself.  Here each chain triangle is
compared, exactly, with the closed form of its family: the theta
product formula, the urn's rising q-factorials, and the extreme kernel
Phi of the paper (summed over atoms for a mixture).
"""

import functools
import math
from fractions import Fraction as F

import pytest

from qpascal import (
    BoundaryMeasure,
    PolyaParams,
    QParam,
    SplitMix64,
    ThetaParams,
    ZERO_POINT,
    codim_word,
    extreme_array,
    extreme_chain,
    growth_q_param,
    make_field,
    mixture_array,
    polya_array,
    sample_growth,
    theta_array,
    tilde_of_v,
)
from qpascal import boundary, galois, processes
from qpascal.processes import polya_chain, theta_chain
from qpascal.rng import bernoulli_threshold

from oracles import (
    extreme_kernel,
    forward_level,
    polya_boundary_measure,
    polya_forward_probs,
    theta_boundary_measure,
)

DEPTH = 30
QS = [F(1, 2), F(2, 3), F(9, 10)]


def theta_closed(theta, qq, depth):
    """w[n][k] = theta^k q^(k(k-1)/2) / prod_{i<n}(1 + theta q^i)."""
    rows = []
    denom = F(1)
    for n in range(depth + 1):
        rows.append(
            tuple(theta**k * qq ** (k * (k - 1) // 2) / denom for k in range(n + 1))
        )
        denom *= 1 + theta * qq**n
    return tuple(rows)


def urn_closed(a, b, qq, depth):
    """v[n][k] = q^(bk) [a]_k [b]_(n-k) / [a+b]_n, rising q-factorials."""

    def qint(m):
        return F(m) if qq == 1 else (1 - qq**m) / (1 - qq)

    def rising(c, j):
        out = F(1)
        for i in range(j):
            out *= qint(c + i)
        return out

    return tuple(
        tuple(
            qq ** (b * k) * rising(a, k) * rising(b, n - k) / rising(a + b, n)
            for k in range(n + 1)
        )
        for n in range(depth + 1)
    )


def phi(n, k, x, q):
    return extreme_kernel(n, k, x, q)[0]


def kernel_x(kappa, qq):
    return F(0) if kappa == ZERO_POINT else qq**kappa


@pytest.mark.parametrize("qq", QS)
@pytest.mark.parametrize("theta", [F(1, 3), F(1), F(3, 2)])
def test_theta_triangle_matches_product_formula(qq, theta):
    arr = theta_array(ThetaParams(theta, QParam(qq)), DEPTH)
    assert arr.rows == theta_closed(theta, qq, DEPTH)


@pytest.mark.parametrize("qq", QS + [F(1)])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 1)])
def test_urn_triangle_matches_rising_factorials(qq, a, b):
    arr = polya_array(PolyaParams(a, b, QParam(qq)), DEPTH)
    assert arr.rows == urn_closed(a, b, qq, DEPTH)


@pytest.mark.parametrize("qq", QS)
def test_extreme_triangles_match_kernel(qq):
    q = QParam(qq)
    for kappa in list(range(9)) + [ZERO_POINT]:
        x = kernel_x(kappa, qq)
        expected = tuple(
            tuple(phi(n, k, x, q) for k in range(n + 1)) for n in range(DEPTH + 1)
        )
        assert extreme_array(kappa, q, DEPTH).rows == expected, kappa


@pytest.mark.parametrize("qq", QS)
def test_mixture_matches_kernel_sum(qq):
    q = QParam(qq)
    atoms = {0: F(1, 5), 2: F(1, 4), 5: F(1, 10), 11: F(1, 3)}
    measure = BoundaryMeasure.of(q, atoms, F(7, 60))
    expected = tuple(
        tuple(
            sum(m * phi(n, k, qq**kappa, q) for kappa, m in atoms.items())
            + (measure.zero_mass if k == n else 0)
            for k in range(n + 1)
        )
        for n in range(DEPTH + 1)
    )
    assert mixture_array(measure, DEPTH).rows == expected


@functools.cache
def measured_chain(params, kmax):
    """A theta or urn process's chain and its mixing measure up to kmax."""
    if isinstance(params, ThetaParams):
        return theta_chain(params), theta_boundary_measure(params, kmax)
    return polya_chain(params), polya_boundary_measure(params, kmax)


@pytest.mark.parametrize("kmax", [40, 60])
@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("qq", [F(1, 2), F(2, 3)])
@pytest.mark.parametrize(
    "family, args",
    [(ThetaParams, (F(1, 3),)), (ThetaParams, (F(2),)),
     (PolyaParams, (1, 2)), (PolyaParams, (3, 2))],
    ids=["theta-1/3", "theta-2", "urn-1-2", "urn-3-2"],
)
def test_level_law_is_the_mixture_of_extreme_levels(family, args, qq, n, kmax):
    """The paper's theorem for the theta and urn processes: the level law
    after n letters is the mixture of the extreme level laws under the
    process's mixing measure.  The measure keeps the mass it truncates in
    zero_mass, put here on the all-ones level, so the two laws differ by
    at most zero_mass in total variation.  The urn with a = 1 has a closed
    form measure, the one with a = 3 a certified bound."""
    q = QParam(qq)
    chain, measure = measured_chain(family(*args, q), kmax)
    assert measure.zero_mass < F(1, 10**9)
    mixed = [F(0)] * (n + 1)
    for kappa, mass in measure.atoms:
        for k, p in enumerate(extreme_chain(kappa, q).level(n)):
            mixed[k] += mass * p
    mixed[n] += measure.zero_mass
    tv = sum(abs(a - b) for a, b in zip(chain.level(n), mixed)) / 2
    assert tv <= measure.zero_mass


class TestPOneMemos:
    """Each chain's p_one, memoised by one index, is its closed form in
    every cell to DEPTH."""

    @staticmethod
    def cells(chain):
        chain.level(DEPTH)  # fills the index memos in level order first
        return [(n, k, chain.p1(n, k)) for n in range(DEPTH + 1) for k in range(n + 1)]

    @pytest.mark.parametrize("qq", [F(1, 2), F(9, 10), F(99, 100)])
    @pytest.mark.parametrize("a, b", [(F(1, 2), F(3, 2)), (2, 3), (1, 1)])
    def test_urn_is_its_forward_probability(self, qq, a, b):
        params = PolyaParams(a, b, QParam(qq))
        for n, k, p in self.cells(polya_chain(params)):
            want = polya_forward_probs(params, n, k)[1]
            if params.float_mode:
                assert p.hex() == want.hex(), (n, k)
            else:
                assert type(p) is F and p == want, (n, k)

    @pytest.mark.parametrize("qq", QS)
    @pytest.mark.parametrize("theta", [F(0), F(1, 3), F(1), F(3, 2), math.inf])
    def test_theta_is_its_closed_form(self, qq, theta):
        for n, k, p in self.cells(theta_chain(ThetaParams(theta, QParam(qq)))):
            t = theta * qq**n
            assert p == (1 if theta == math.inf else t / (1 + t)), (n, k)

    @pytest.mark.parametrize("qq", QS)
    @pytest.mark.parametrize("kappa", [0, 1, 7, DEPTH + 3, ZERO_POINT])
    def test_extreme_is_its_closed_form(self, qq, kappa):
        for n, k, p in self.cells(extreme_chain(kappa, QParam(qq))):
            assert p == (1 - qq ** (kappa - k) if k < kappa else 0), (n, k)


# the level oracle's chains, by family and parameter; "n+3" puts the
# extreme law's kappa just beyond the level length n
LEVEL_FAMILIES = (
    [("extreme", kappa) for kappa in (0, 1, 7, "n+3", ZERO_POINT)]
    + [("theta", theta) for theta in (F(0), F(1, 3), F(2), math.inf)]
    + [("urn", ab) for ab in ((1, 1), (4, 3))]
)


def level_chain(family, arg, q, n):
    if family == "extreme":
        return extreme_chain(n + 3 if arg == "n+3" else arg, q)
    if family == "theta":
        return theta_chain(ThetaParams(arg, q))
    return polya_chain(PolyaParams(*arg, q))


class TestLevelOracle:
    """The level law, a Gaussian row times canonical-word products,
    equals the oracle's forward pass over the same p1."""

    @pytest.mark.parametrize("qq", [F(1, 2), F(2, 3), F(9, 10), F(99, 100)])
    @pytest.mark.parametrize(
        "family, arg", LEVEL_FAMILIES, ids=["%s-%s" % f for f in LEVEL_FAMILIES]
    )
    def test_exact_level_is_the_forward_pass(self, family, arg, qq):
        for n in (0, 1, 5, 24):
            chain = level_chain(family, arg, QParam(qq), n)
            assert chain.level(n) == forward_level(chain.p1, n), n

    def test_deep_urn_level(self):
        chain = polya_chain(PolyaParams(1, 1, QParam(F(1, 2))))
        assert chain.level(120) == forward_level(chain.p1, 120)

    @pytest.mark.parametrize("qq", [F(1, 2), F(9, 10), F(99, 100)])
    @pytest.mark.parametrize("a, b", [(F(1, 2), F(3, 2)), (F(3, 2), F(5, 2))])
    def test_float_urn_level_is_the_forward_pass_bit_for_bit(self, a, b, qq):
        chain = polya_chain(PolyaParams(a, b, QParam(qq)))
        for n in (0, 1, 5, 24):
            got = [float(x).hex() for x in chain.level(n)]
            assert got == [float(x).hex() for x in forward_level(chain.p1, n)], n


class TestForwardChain:
    def test_level_is_tilde_row(self):
        chain = polya_chain(PolyaParams(2, 3, QParam(F(2, 3))))
        tv = tilde_of_v(chain.triangle(12))
        for n in (0, 1, 7, 12):
            assert chain.level(n) == list(tv.rows[n])

    def test_infinite_theta_level(self):
        chain = theta_chain(ThetaParams(math.inf, QParam(F(1, 2))))
        assert chain.level(4) == [0, 0, 0, 0, 1]

    def test_float_urn_level_sums_to_one(self):
        level = polya_chain(PolyaParams(F(3, 2), F(1, 2), QParam(F(9, 10)))).level(15)
        assert all(isinstance(x, float) for x in level)
        assert abs(sum(level) - 1) < 1e-12


# M(q), the largest m with q^m >= 2^-64
SATURATION = {F(1, 2): 64, F(1, 3): 40, F(2, 3): 109, F(9, 10): 421, F(999, 1000): 44339}


class FixedDraw:
    """A stream whose every draw is j."""

    def __init__(self, j):
        self.j = j

    def next_uint64(self):
        return self.j


class TestSaturation:
    """A gap kappa - k above M(q) gives the extreme chain's thresholds
    without the power q^gap.  At gaps M and M + 1, each threshold equals
    the one this test builds from the exact power."""

    @pytest.mark.parametrize("qq, m", SATURATION.items())
    def test_saturation_point(self, qq, m):
        assert qq**m >= F(1, 2**64) > qq ** (m + 1)
        assert boundary._saturation(qq) == m

    @pytest.mark.parametrize("qq, m", SATURATION.items())
    def test_thresholds_at_the_edge(self, monkeypatch, qq, m):
        q = QParam(qq)
        for kappa in (m, m + 1):  # the gap at the first letter, k = 0
            stay = qq**kappa
            # the forward sampler's one-letter threshold; the runs sampler's
            # first cutoff 2^64 - floor(stay 2^64) is the same integer
            one = bernoulli_threshold(1 - stay)
            zero = bernoulli_threshold(stay)  # growth's zero-letter threshold
            assert (one < 1 << 64) == (kappa == m)
            chain = extreme_chain(kappa, q)
            assert bernoulli_threshold(1 - chain.p1_drawn(0, 0)) == zero
            for sampler in (chain.sampler(), processes.extreme_runs_sampler(kappa, q)):
                # the first letter is a one iff its draw is below the threshold
                assert str(sampler(1, FixedDraw(one - 1))) == "1"
                if one < 1 << 64:
                    assert str(sampler(1, FixedDraw(one))) == "0"
            if qq.numerator == 1:  # growth over GF(2) and GF(3)
                field = make_field(qq.denominator)
                for j, word in ((zero - 1, "0"), (zero, "1")):
                    monkeypatch.setattr(galois, "SplitMix64", lambda seed: FixedDraw(j))
                    assert str(codim_word(sample_growth(chain, field, 1, 0))) == word


class TestProcessMemos:
    """The chain calls p1 in every pass; each process computes a factor
    once per index it depends on, over a triangle, a level law and a
    sampler walk of one chain."""

    N = 12

    def visit(self, chain):
        chain.triangle(self.N)
        chain.level(self.N)
        chain.sampler()(self.N, SplitMix64(1))

    @staticmethod
    def counted_stays(monkeypatch):
        calls = []
        stay = boundary.extreme_stay

        def counted(kappa, q, k):
            calls.append(k)
            return stay(kappa, q, k)

        monkeypatch.setattr(boundary, "extreme_stay", counted)
        return calls

    def test_extreme_stay_once_per_k(self, monkeypatch):
        calls = self.counted_stays(monkeypatch)
        self.visit(extreme_chain(3, QParam(F(1, 2))))
        assert sorted(calls) == list(range(self.N))

    def test_growth_and_runs_skip_saturated_stays(self, monkeypatch):
        # kappa = 66 at q = 1/2: k = 0 and 1 lie more than M(1/2) = 64 below
        # kappa, and a stay of at most 2^-55 makes each walk take a one at
        # every letter, so both walks pass k = 0, ..., N - 1, three times
        calls = self.counted_stays(monkeypatch)
        field = make_field(2)
        chain = extreme_chain(66, growth_q_param(field))
        for seed in range(3):
            assert str(codim_word(sample_growth(chain, field, self.N, seed))) == "1" * self.N
        assert sorted(calls) == list(range(2, self.N))
        calls.clear()
        runs = processes.extreme_runs_sampler(66, QParam(F(1, 2)))
        for seed in range(3):
            assert str(runs(self.N, SplitMix64(seed))) == "1" * self.N
        assert sorted(calls) == list(range(2, self.N))

    def test_urn_q_integer_once_per_argument(self, monkeypatch):
        calls = []
        q_integer = processes._q_integer

        def counted(x, qq):
            calls.append(x)
            return q_integer(x, qq)

        monkeypatch.setattr(processes, "_q_integer", counted)
        # the float urn; b > N keeps the arguments of [a+k] and [a+b+n] apart
        chain = polya_chain(PolyaParams(F(3, 2), F(2 * self.N + 1, 2), QParam(F(9, 10))))
        chain.level(self.N)
        chain.sampler()(self.N, SplitMix64(1))
        assert len(calls) == len(set(calls)) == 2 * self.N

    def test_exact_urn_powers_once_per_exponent(self, monkeypatch):
        calls = []

        def counted(base, exponent):
            calls.append((base, exponent))
            return base**exponent

        # the exact urn builds each c^e and d^e of q = c/d with pow
        monkeypatch.setattr(processes, "pow", counted, raising=False)
        self.visit(polya_chain(PolyaParams(2, 3, QParam(F(9, 10)))))
        assert {base for base, _ in calls} == {9, 10}
        assert len(calls) == len(set(calls))

    def test_urn_p1_misses_once_per_cell(self):
        chain = polya_chain(PolyaParams(2, 3, QParam(F(2, 3))))
        p1, cells = chain.p1, set()

        def seen(n, k):
            cells.add((n, k))
            return p1(n, k)

        chain.p1 = seen
        self.visit(chain)
        assert len(cells) == self.N * (self.N + 1) // 2
        assert p1.cache_info().misses == len(cells)
