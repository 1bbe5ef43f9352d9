import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpascal import (
    NonIntegerParamsInExactMode,
    PolyaParams,
    QParam,
    SplitMix64,
    ThetaParams,
    TooLargeError,
    ZERO_POINT,
    derive_seed,
    empirical_level_histogram,
    extreme_array,
    extreme_chain,
    extreme_runs_sampler,
    polya_array,
    polya_chain,
    mixture_array,
    theta_array,
    theta_chain,
    tilde_of_v,
)
from qpascal.rng import (
    GOLDEN,
    MASK64,
    bernoulli_threshold,
    geometric_sampler,
    mix64,
    uniform_below,
)

from oracles import (
    atom_mass,
    chain_law,
    geometric_scan,
    polya_boundary_measure,
    polya_forward_probs,
    runs_law,
    theta_boundary_measure,
    tv_distance,
    word_probability,
)

HALF = QParam(F(1, 2))


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published reference outputs for the SplitMix64 generator
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_frozen_vectors_seed_42(self):
        rng = SplitMix64(42)
        assert [rng.next_uint64() for _ in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    @given(st.integers(0, MASK64))
    @example(0)
    @example(MASK64)
    @example((1 << 64) - GOLDEN)  # the state wraps around to 0
    def test_draw_is_mix64_of_the_advanced_state(self, seed):
        rng = SplitMix64(seed)
        assert rng.next_uint64() == mix64((seed + GOLDEN) & MASK64)
        assert rng.state == (seed + GOLDEN) & MASK64

    def test_derive_seed_frozen(self):
        assert [derive_seed(12345, t) for t in range(3)] == [
            2454886589211414944,
            3778200017661327597,
            2205171434679333405,
        ]

    def test_derive_seed_distinct_trials(self):
        seeds = {derive_seed(0, t) for t in range(1000)}
        assert len(seeds) == 1000


class FixedDraws(SplitMix64):
    """A stream that returns the given draws in order."""

    __slots__ = ("draws",)

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def next_uint64(self) -> int:
        return next(self.draws)


class CountedDraws(SplitMix64):
    """SplitMix64 that counts its draws."""

    __slots__ = ("count",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.count = 0

    def next_uint64(self) -> int:
        self.count += 1
        return super().next_uint64()


class TestDrawPrimitives:
    def test_bernoulli_threshold_values(self):
        assert bernoulli_threshold(F(0)) == 0
        assert bernoulli_threshold(F(1)) == 1 << 64
        assert bernoulli_threshold(F(1, 4)) == 1 << 62
        assert bernoulli_threshold(F(1, 3)) == 6148914691236517206

    def test_geometric_frozen_stream(self):
        rng = SplitMix64(7)
        assert [geometric_sampler(F(1, 2))(rng) for _ in range(8)] == [
            0,
            0,
            3,
            1,
            0,
            0,
            0,
            0,
        ]

    def test_geometric_consumes_one_draw(self):
        a, b = SplitMix64(99), SplitMix64(99)
        geometric_sampler(F(1, 3))(a)
        b.next_uint64()
        assert a.next_uint64() == b.next_uint64()

    def test_geometric_zero_ratio(self):
        rng = SplitMix64(5)
        assert geometric_sampler(F(0))(rng) == 0

    def test_geometric_cutoffs_match_the_scan(self):
        draws = [0, 1, 1 << 63, (1 << 64) - 1]
        for ratio in (F(0), F(1, 2), F(99, 100), F(99, 100) ** 8):
            want = [geometric_scan(j, ratio) for j in draws]
            assert [geometric_sampler(ratio)(FixedDraws([j])) for j in draws] == want
            # one memo, grown by the largest draw first and by the smallest
            for order in (draws, draws[::-1]):
                draw = geometric_sampler(ratio)
                got = [draw(FixedDraws([j])) for j in order]
                assert got == [geometric_scan(j, ratio) for j in order]

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(0, 200),
        extra=st.integers(1, 200),
        draws=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=12),
    )
    def test_geometric_memo_property(self, num, extra, draws):
        ratio = F(num, num + extra)
        draw = geometric_sampler(ratio)
        assert [draw(FixedDraws([j])) for j in draws] == [
            geometric_scan(j, ratio) for j in draws
        ]

    def test_uniform_below_range(self):
        rng = SplitMix64(3)
        values = [uniform_below(rng, 5) for _ in range(200)]
        assert set(values) <= set(range(5))
        assert len(set(values)) == 5

    def test_uniform_below_one(self):
        rng = SplitMix64(3)
        assert uniform_below(rng, 1) == 0


class TestExtremeProcess:
    def test_first_bit_probability(self):
        from qpascal import BinaryWord

        law = chain_law(extreme_chain(1, HALF), 1)
        assert law.prob(BinaryWord.from_string("1")) == F(1, 2)

    def test_exact_law_matches_array(self):
        arr = extreme_array(2, HALF, 5)
        for law in (chain_law(extreme_chain(2, HALF), 5), runs_law(2, HALF, 5)):
            for word, p in law.probs.items():
                assert p == word_probability(arr, word)

    def test_mode_equivalence_across_kappa(self):
        for kappa in (0, 1, 3, ZERO_POINT):
            fwd = chain_law(extreme_chain(kappa, HALF), 5)
            runs = runs_law(kappa, HALF, 5)
            assert fwd == runs

    def test_sampler_determinism(self):
        for make in (extreme_chain(2, HALF).sampler, lambda: extreme_runs_sampler(2, HALF)):
            assert make()(12, SplitMix64(77)) == make()(12, SplitMix64(77))

    def test_kappa_edges(self):
        assert str(extreme_chain(0, HALF).sampler()(6, SplitMix64(5))) == "000000"
        assert str(extreme_chain(ZERO_POINT, HALF).sampler()(6, SplitMix64(5))) == "111111"
        assert str(extreme_runs_sampler(ZERO_POINT, HALF)(6, SplitMix64(5))) == "111111"

    def test_runs_law_guarded_before_the_walk(self):
        # the runs law enumerates every word; 2^40 words trip the guard
        # at once, as the forward chain's decision-tree walk does
        with pytest.raises(TooLargeError):
            chain_law(extreme_chain(2, HALF), 40)
        with pytest.raises(TooLargeError):
            runs_law(2, HALF, 40)


class TestThetaProcess:
    def test_params_validation(self):
        from qpascal import RegimeError

        with pytest.raises(ValueError):
            ThetaParams(F(-1), HALF)
        with pytest.raises(RegimeError):
            ThetaParams(F(1), QParam(F(2)))
        with pytest.raises(TypeError):
            ThetaParams(0.5, HALF)
        assert ThetaParams(math.inf, HALF).infinite

    def test_array_golden(self):
        arr = theta_array(ThetaParams(F(1), HALF), 4)
        assert arr.rows[1][1] == F(1, 2)
        tv = tilde_of_v(arr)
        assert sum(tv.rows[2]) == 1

    def test_exact_law_matches_array(self):
        tp = ThetaParams(F(1), HALF)
        arr = theta_array(tp, 5)
        law = chain_law(theta_chain(tp), 5)
        for word, p in law.probs.items():
            assert p == word_probability(arr, word)

    def test_infinite_theta_is_all_ones(self):
        tp = ThetaParams(math.inf, HALF)
        assert str(theta_chain(tp).sampler()(7, SplitMix64(1))) == "1111111"
        law = chain_law(theta_chain(tp), 4)
        assert law == chain_law(extreme_chain(ZERO_POINT, HALF), 4)

    def test_boundary_measure_normalizes(self):
        m = theta_boundary_measure(ThetaParams(F(1), HALF), kmax=80)
        assert 0 <= m.zero_mass < F(1, 10**10)

    def test_boundary_measure_rebuilds_array(self):
        tp = ThetaParams(F(1), HALF)
        m = theta_boundary_measure(tp, kmax=60)
        mix = mixture_array(m, 5)
        arr = theta_array(tp, 5)
        for n in range(6):
            for k in range(n + 1):
                assert abs(mix.rows[n][k] - arr.rows[n][k]) < F(1, 10**12)

    def test_theta_zero_is_point_mass(self):
        m = theta_boundary_measure(ThetaParams(F(0), HALF), kmax=10)
        assert atom_mass(m, 0) == 1
        assert m.zero_mass == 0


class TestPolyaProcess:
    def test_params_modes(self):
        assert not PolyaParams(1, 2, HALF).float_mode
        assert not PolyaParams(F(2), 1, HALF).float_mode  # integral Fraction
        assert PolyaParams(F(3, 2), 1, HALF).float_mode
        assert PolyaParams(1.5, 1, HALF).float_mode

    def test_params_validation(self):
        from qpascal import RegimeError

        with pytest.raises(ValueError):
            PolyaParams(0, 1, HALF)
        with pytest.raises(RegimeError):
            PolyaParams(1, 1, QParam(F(2)))
        PolyaParams(1, 1, QParam(F(1)))  # unit regime allowed

    def test_forward_probs_golden(self):
        p_zero, p_one = polya_forward_probs(PolyaParams(1, 1, HALF), 0, 0)
        assert (p_zero, p_one) == (F(2, 3), F(1, 3))

    def test_forward_probs_sum_to_one(self):
        pp = PolyaParams(2, 3, HALF)
        for n in range(6):
            for k in range(n + 1):
                p_zero, p_one = polya_forward_probs(pp, n, k)
                assert p_zero + p_one == 1

    def test_forward_probs_float_mode(self):
        pp = PolyaParams(F(3, 2), 1, HALF)
        p_zero, p_one = polya_forward_probs(pp, 2, 1)
        assert isinstance(p_zero, float)
        assert abs(p_zero + p_one - 1.0) < 1e-12

    def test_array_golden_level(self):
        tv = tilde_of_v(polya_array(PolyaParams(1, 1, HALF), 3))
        assert tv.rows[1] == (F(2, 3), F(1, 3))

    def test_unit_regime_recovers_classical_urn(self):
        tv = tilde_of_v(polya_array(PolyaParams(1, 1, QParam(F(1))), 3))
        assert tv.rows[3] == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_array_rejects_float_mode(self):
        with pytest.raises(NonIntegerParamsInExactMode):
            polya_array(PolyaParams(F(3, 2), 1, HALF), 3)

    def test_chain_rule_along_word(self):
        pp = PolyaParams(1, 1, HALF)
        arr = polya_array(pp, 2)
        _, p1 = polya_forward_probs(pp, 0, 0)
        p0_after, _ = polya_forward_probs(pp, 1, 1)
        from qpascal import BinaryWord

        assert p1 * p0_after == word_probability(arr, BinaryWord.from_string("10"))

    def test_exact_law_matches_array(self):
        pp = PolyaParams(2, 3, HALF)
        arr = polya_array(pp, 5)
        for word, p in chain_law(polya_chain(pp), 5).probs.items():
            assert p == word_probability(arr, word)

    def test_sampler_determinism_and_float_mode(self):
        pp = PolyaParams(1, 2, HALF)
        first, second = (polya_chain(pp).sampler()(10, SplitMix64(3)) for _ in range(2))
        assert first == second
        word = polya_chain(PolyaParams(F(3, 2), 1, HALF)).sampler()(10, SplitMix64(3))
        assert len(word) == 10

    def test_boundary_measure_geometric_head(self):
        m = polya_boundary_measure(PolyaParams(1, 2, HALF), kmax=20)
        assert atom_mass(m, 0) == F(3, 4)
        assert atom_mass(m, 1) == F(3, 16)
        assert m.zero_mass == F(1, 2) ** 42

    def test_boundary_measure_general_case(self):
        m = polya_boundary_measure(PolyaParams(2, 1, HALF), kmax=80)
        assert 0 <= m.zero_mass < F(1, 10**10)

    def test_boundary_measure_rebuilds_array(self):
        pp = PolyaParams(1, 1, HALF)
        m = polya_boundary_measure(pp, kmax=80)
        mix = mixture_array(m, 6)
        arr = polya_array(pp, 6)
        for n in range(7):
            for k in range(n + 1):
                assert abs(mix.rows[n][k] - arr.rows[n][k]) < F(1, 10**9)

    def test_boundary_measure_float_mode(self):
        m = polya_boundary_measure(PolyaParams(F(3, 2), 1, HALF), kmax=80)
        assert F(99, 100) < sum(dict(m.atoms).values()) <= 1

    def test_boundary_measure_rejects_unit_q(self):
        from qpascal import RegimeError

        with pytest.raises(RegimeError):
            polya_boundary_measure(PolyaParams(1, 1, QParam(F(1))))


class TestHistogram:
    def test_reproducible(self):
        sampler = theta_chain(ThetaParams(F(1), HALF)).sampler()
        h1 = empirical_level_histogram(sampler, 6, 500, seed=11)
        h2 = empirical_level_histogram(sampler, 6, 500, seed=11)
        assert h1 == h2
        assert sum(h1.values()) == 500
        assert set(h1) <= set(range(7))

    def test_theta_histogram_close_to_exact(self):
        tp = ThetaParams(F(1), HALF)
        counts = empirical_level_histogram(theta_chain(tp).sampler(), 8, 100_000, seed=6)
        exact = list(tilde_of_v(theta_array(tp, 8)).rows[8])
        assert tv_distance(counts, 100_000, exact) <= F(2, 100)

    def test_tv_distance_hand_value(self):
        counts = {0: 30, 1: 70}
        exact = [F(1, 2), F(1, 2)]
        assert tv_distance(counts, 100, exact) == F(1, 5)

    def test_tv_distance_counts_stray_keys(self):
        counts = {0: 50, 3: 50}
        exact = [F(1, 2), F(1, 2)]
        assert tv_distance(counts, 100, exact) == F(1, 2)


TWO_THIRDS = QParam(F(2, 3))
GOLDEN_SAMPLERS = {
    "extreme forward": lambda: extreme_chain(6, TWO_THIRDS).sampler(),
    "extreme runs": lambda: extreme_runs_sampler(6, TWO_THIRDS),
    "theta": lambda: theta_chain(ThetaParams(F(3, 2), TWO_THIRDS)).sampler(),
    "exact urn": lambda: polya_chain(PolyaParams(3, 1, TWO_THIRDS)).sampler(),
    "float urn": lambda: polya_chain(PolyaParams(F(7, 2), F(3, 2), TWO_THIRDS)).sampler(),
}
# level counts of 300 words of length 14 (seed 2024), the word of length
# 14 drawn from seed 2024 and the word of length 40 drawn from seed 2025
GOLDEN_BITS = {
    "extreme forward": (
        {5: 20, 6: 280},
        "11110110000000",
        "1011100000000010100000000000000000000000",
    ),
    "extreme runs": (
        {5: 18, 6: 282},
        "11110010100000",
        "1001110100100000000000000000000000000000",
    ),
    "theta": (
        {0: 8, 1: 43, 2: 77, 3: 86, 4: 57, 5: 21, 6: 7, 7: 1},
        "01110000000000",
        "1001000000000000000000000000000000000000",
    ),
    "exact urn": (
        {0: 36, 1: 47, 2: 45, 3: 44, 4: 39, 5: 20, 6: 20, 7: 14, 8: 8,
         9: 12, 10: 8, 11: 3, 12: 2, 13: 2},
        "01110010000000",
        "1001000000000000000000000000000000000000",
    ),
    "float urn": (
        {0: 57, 1: 69, 2: 45, 3: 45, 4: 37, 5: 14, 6: 15, 7: 7, 8: 4,
         9: 4, 10: 3},
        "01110010000000",
        "1001000000000000000000000000000000000000",
    ),
}


class TestGoldenBits:
    """Frozen outputs of every sampler: they pin the draw conventions of
    qpascal.rng, so a rewrite of a sampler must reproduce each bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_BITS))
    def test_sampled_bits(self, name):
        counts, word14, word40 = GOLDEN_BITS[name]
        sampler = GOLDEN_SAMPLERS[name]()
        assert empirical_level_histogram(sampler, 14, 300, seed=2024) == counts
        assert str(sampler(14, SplitMix64(2024))) == word14
        assert str(sampler(40, SplitMix64(2025))) == word40

    def test_sample_functions(self):
        theta, urn = ThetaParams(F(3, 2), TWO_THIRDS), PolyaParams(3, 1, TWO_THIRDS)
        runs = extreme_runs_sampler(6, TWO_THIRDS)
        assert str(runs(14, SplitMix64(2024))) == "11110010100000"
        assert str(theta_chain(theta).sampler()(14, SplitMix64(2024))) == "01110000000000"
        assert str(polya_chain(urn).sampler()(14, SplitMix64(2024))) == "01110010000000"


# each golden sampler's family, built from q and two small integers
SAMPLER_FAMILIES = {
    "extreme forward": lambda q, x, y: extreme_chain(
        x if y > 1 else ZERO_POINT, q
    ).sampler(),
    "extreme runs": lambda q, x, y: extreme_runs_sampler(x if y > 1 else ZERO_POINT, q),
    "theta": lambda q, x, y: theta_chain(ThetaParams(F(x, y), q)).sampler(),
    "exact urn": lambda q, x, y: polya_chain(PolyaParams(x + 1, y, q)).sampler(),
    "float urn": lambda q, x, y: polya_chain(
        PolyaParams(F(2 * x + 1, 2), F(2 * y + 1, 2), q)
    ).sampler(),
}


class TestOnesCounter:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(GOLDEN_SAMPLERS)),
        q=st.integers(1, 99).map(lambda m: QParam(F(m, 100))),
        x=st.integers(0, 8),
        y=st.integers(1, 4),
        n=st.integers(0, 30),
        seeds=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=5),
    )
    def test_counter_draws_what_the_word_sampler_draws(self, name, q, x, y, n, seeds):
        sampler = SAMPLER_FAMILIES[name](q, x, y)
        for seed in seeds:
            words, counts = CountedDraws(seed), CountedDraws(seed)
            word = sampler(n, words)
            assert len(word) == n
            assert sampler.ones(n, counts) == word.ones
            assert counts.count == words.count
            assert counts.state == words.state

    @pytest.mark.parametrize("name", ["extreme forward", "theta", "exact urn", "float urn"])
    def test_forward_walk_draws_once_per_letter(self, name):
        sampler = SAMPLER_FAMILIES[name](TWO_THIRDS, 3, 2)
        for n in (0, 1, 14, 40):
            rng = CountedDraws(n)
            sampler.ones(n, rng)
            assert rng.count == n
