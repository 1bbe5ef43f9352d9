import contextlib
import hashlib
import math
import types
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
    extreme_chain,
    extreme_runs_sampler,
    polya_chain,
    mixture_array,
    theta_chain,
    tilde_of_v,
)
from qpascal.rng import (
    _LANES,
    GOLDEN,
    MASK64,
    _draws,
    _trial_chunks,
    bernoulli_threshold,
    geometric_sampler,
    mix64,
    uniform_below,
    uniforms_below,
)

from oracles import (
    atom_mass,
    chain_law,
    geometric_by_log,
    geometric_scan,
    polya_boundary_measure,
    polya_forward_probs,
    runs_law,
    runs_word,
    theta_boundary_measure,
    tv_distance,
    uniform_scan,
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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, MASK64), min_size=1, max_size=4),
           st.sampled_from([0, 1, 2, 9, _LANES - 1, _LANES]))
    @example([0], 1)
    @example([MASK64], _LANES)
    @example([(1 << 64) - GOLDEN], _LANES)  # the first draw wraps to 0
    @example([0, MASK64, (1 << 64) - GOLDEN, 0], _LANES)
    def test_kernel_is_the_scalar_rule(self, states, count):
        # draws count, ..., 1 of each state's stream, state by state
        assert _draws(states, count).tolist() == [
            mix64((s + i * GOLDEN) & MASK64) for s in states for i in range(count, 0, -1)
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, MASK64), st.integers(0, 3 * _LANES))
    @example(0, 8)  # the first block taken whole
    @example((1 << 64) - GOLDEN, 9)  # one draw into the second block
    @example(MASK64, _LANES + 1)
    @example(MASK64, 2 * _LANES - 8)  # blocks of 8, 16, ..., _LANES taken whole
    @example(0, 2 * _LANES - 7)  # one draw into the second block at the cap
    @example(MASK64, 2 * _LANES + 5)
    def test_stream_and_state_part_way_through_a_block(self, seed, taken):
        rng = SplitMix64(seed)
        assert [rng.next_uint64() for _ in range(taken)] == [
            mix64((seed + i * GOLDEN) & MASK64) for i in range(1, taken + 1)
        ]
        assert rng.state == (seed + taken * GOLDEN) & MASK64
        assert len(rng._pending) < _LANES  # blocks stop doubling at the cap

    @pytest.mark.parametrize("fill", [0, 1, 3])
    def test_trial_sub_seeds_are_derive_seed(self, fill):
        # 3000 trials span three chunks of sub-seeds at fill 0 and 1, and
        # nine at fill 3; a chunk's stream hands out each trial's first
        # draws in trial order, and its state past the last trial's draws
        # is that trial's stream's
        seed, t, chunks = 0x0123456789ABCDEF, 0, 0
        for rng, size in _trial_chunks(seed, 3000, fill):
            for _ in range(size):
                plain = SplitMix64(derive_seed(seed, t))
                assert [rng.next_uint64() for _ in range(fill)] == [
                    plain.next_uint64() for _ in range(fill)]
                t += 1
            assert rng.state == plain.state
            assert not rng._pending
            chunks += 1
        assert (t, chunks) == (3000, {0: 3, 1: 3, 3: 9}[fill])

    @pytest.mark.parametrize("fill", [0, 1, 8, 13, _LANES + 3])
    def test_trial_streams_continue_past_their_pre_fill(self, fill):
        # each trial's draws are those of the stream seeded by its
        # sub-seed, and the chunk's last trial's go on, with its state,
        # before, at and past what the chunk holds
        seed, trials, t, held = 77, 3, 0, min(fill, _LANES)
        for rng, size in _trial_chunks(seed, trials, fill):
            for left in range(size - 1, -1, -1):
                plain = SplitMix64(derive_seed(seed, t))
                for _ in range(held if left else held + 20):
                    assert rng.next_uint64() == plain.next_uint64()
                    if not left:
                        assert rng.state == plain.state
                t += 1
        assert t == trials

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
        ] == [geometric_by_log(j, ratio) for j in draws]

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(0, 200),
        extra=st.integers(1, 200),
        draws=st.lists(st.tuples(st.integers(0, MASK64), st.integers(1, 40)),
                       min_size=1, max_size=12),
    )
    def test_geometric_cap_property(self, num, extra, draws):
        # capped and full draws share one memo; a capped draw is min(T, cap)
        ratio = F(num, num + extra)
        draw = geometric_sampler(ratio)
        for j, cap in draws:
            assert draw(FixedDraws([j]), cap) == min(geometric_scan(j, ratio), cap)
            assert draw(FixedDraws([j])) == geometric_scan(j, ratio)

    def test_uniform_below_range(self):
        rng = SplitMix64(3)
        values = [uniform_below(rng, 5) for _ in range(200)]
        assert set(values) <= set(range(5))
        assert len(set(values)) == 5

    def test_uniform_below_one(self):
        rng = SplitMix64(3)
        assert uniform_below(rng, 1) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 1031, 2**20 - 3])
    def test_vector_draw_is_scalar_draws_with_forced_rejections(self, m):
        # natural streams almost never reject (GF(3)'s cutoff is 2^64 - 1),
        # so draws at the cutoff's edges are put first, mid-vector and
        # last, and the first redraw is one of them too
        cutoff = m * (2**64 // m)
        edges = [j for j in (cutoff - 1, cutoff, 2**64 - 1) if j < 2**64]
        fill = SplitMix64(m)
        rejected = 0
        for count in range(13):
            for edge in edges:
                for at in sorted({0, count // 2, max(count - 1, 0)}):
                    draws = [fill.next_uint64() for _ in range(count + 4)]
                    draws[at] = draws[count] = edge
                    vector, scalar, scan = FixedDraws(draws), FixedDraws(draws), FixedDraws(draws)
                    got = uniforms_below(vector.next_uint64, m, count)
                    assert got == [uniform_below(scalar, m) for _ in range(count)]
                    assert got == [uniform_scan(scan, m) for _ in range(count)]
                    left = list(vector.draws)  # the same draws are consumed
                    assert left == list(scalar.draws) == list(scan.draws)
                    rejected += len(draws) - len(left) - (count if m > 1 else 0)
        assert (rejected > 0) == (cutoff < 2**64)

    def test_uniform_below_at_the_stream_width(self):
        # m = 2^64 takes a draw as it is; above it every draw would be
        # rejected, and the rule refuses m before it draws
        assert uniform_below(SplitMix64(0), 2**64) == 0xE220A8397B1DCDAF
        assert uniforms_below(SplitMix64(0).next_uint64, 2**64, 2) == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        for m in (0, 2**64 + 1, 2**65):
            rng = CountedDraws(0)
            with pytest.raises(ValueError):
                uniform_below(rng, m)
            with pytest.raises(ValueError):
                uniforms_below(rng.next_uint64, m, 3)
            assert rng.count == 0


class TestExtremeProcess:
    def test_first_bit_probability(self):
        from qpascal import BinaryWord

        law = chain_law(extreme_chain(1, HALF), 1)
        assert law.prob(BinaryWord.from_string("1")) == F(1, 2)

    def test_exact_law_matches_array(self):
        arr = extreme_chain(2, HALF).triangle(5)
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

    @pytest.mark.parametrize("qq, kappa, n", [
        (F(99, 100), 6, 22), (F(9999, 10000), 1, 5), (F(999, 1000), 3, 40)])
    def test_runs_capped_at_the_word_draw_what_full_runs_draw(self, qq, kappa, n):
        # a run reads no more than the letters left, so its sampler stops
        # at that cap; the words, draws and end states are those of runs
        # drawn at their full length
        q = QParam(qq)
        sampler = extreme_runs_sampler(kappa, q)
        for seed in range(200):
            capped, full = CountedDraws(seed), CountedDraws(seed)
            assert sampler(n, capped) == runs_word(kappa, q, n, full), seed
            assert (capped.count, capped.state) == (full.count, full.state)


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
        arr = theta_chain(ThetaParams(F(1), HALF)).triangle(4)
        assert arr.rows[1][1] == F(1, 2)
        tv = tilde_of_v(arr)
        assert sum(tv.rows[2]) == 1

    def test_exact_law_matches_array(self):
        tp = ThetaParams(F(1), HALF)
        arr = theta_chain(tp).triangle(5)
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
        arr = theta_chain(tp).triangle(5)
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
        tv = tilde_of_v(polya_chain(PolyaParams(1, 1, HALF)).triangle(3))
        assert tv.rows[1] == (F(2, 3), F(1, 3))

    def test_unit_regime_recovers_classical_urn(self):
        tv = tilde_of_v(polya_chain(PolyaParams(1, 1, QParam(F(1)))).triangle(3))
        assert tv.rows[3] == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_array_rejects_float_mode(self):
        chain = polya_chain(PolyaParams(F(3, 2), 1, HALF))
        for depth in (0, 3):
            with pytest.raises(NonIntegerParamsInExactMode) as exc:
                chain.triangle(depth)
            assert str(exc.value) == "triangle requires integer strengths, got a=3/2 b=1"

    @pytest.mark.parametrize("a, b, q, digest", [
        (F(3, 2), F(5, 2), F(9, 10),
         "6337bbc4dcaaef3cee82d3db8475aac78fbe0bfb4d793002b47a622a69d452d9"),
        (F(1, 2), 1, HALF.q,
         "019efe3d06485467bb101db7a939c92d017d3cbef95ace6b60c3252a5dd2840c"),
        (0.75, 2, F(1),
         "c1cde566e3298363095b97f1979ee998f25dac3dd648b7f5ca706fb86d7f2b50"),
    ])
    def test_float_chain_levels_pinned(self, a, b, q, digest):
        # the float levels of n = 1..22, to the bit, as the forward pass
        # printed them when ForwardChain.level held a float branch
        chain = polya_chain(PolyaParams(a, b, QParam(q)))
        levels = [chain.level(n) for n in range(1, 23)]
        assert all(type(x) is float for level in levels for x in level)
        assert hashlib.sha256(repr(levels).encode()).hexdigest() == digest
        assert repr(chain.level(0)) == "[1.0]"

    def test_chain_rule_along_word(self):
        pp = PolyaParams(1, 1, HALF)
        arr = polya_chain(pp).triangle(2)
        _, p1 = polya_forward_probs(pp, 0, 0)
        p0_after, _ = polya_forward_probs(pp, 1, 1)
        from qpascal import BinaryWord

        assert p1 * p0_after == word_probability(arr, BinaryWord.from_string("10"))

    def test_exact_law_matches_array(self):
        pp = PolyaParams(2, 3, HALF)
        arr = polya_chain(pp).triangle(5)
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
        arr = polya_chain(pp).triangle(6)
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
        exact = list(tilde_of_v(theta_chain(tp).triangle(8)).rows[8])
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
            assert counts.count == words.count <= sampler.max_draws(n)
            assert counts.state == words.state

    @pytest.mark.parametrize("name", ["extreme forward", "theta", "exact urn", "float urn"])
    def test_forward_walk_draws_once_per_letter(self, name):
        sampler = SAMPLER_FAMILIES[name](TWO_THIRDS, 3, 2)
        for n in (0, 1, 14, 40):
            rng = CountedDraws(n)
            sampler.ones(n, rng)
            assert rng.count == n == sampler.max_draws(n)


@contextlib.contextmanager
def counted_draws():
    """Counts ``next_uint64`` calls on every stream by wrapping the class
    method, as the benchmark's tracer does; yields a one-item list."""
    calls, plain = [0], SplitMix64.next_uint64

    def counted(self):
        calls[0] += 1
        return plain(self)

    SplitMix64.next_uint64 = counted
    try:
        yield calls
    finally:
        SplitMix64.next_uint64 = plain


def per_trial_histogram(sampler, n, trials, seed):
    """Trial t walks its own stream, seeded by derive_seed(seed, t)."""
    counts = {}
    for t in range(trials):
        k = sampler.ones(n, SplitMix64(derive_seed(seed, t)))
        counts[k] = counts.get(k, 0) + 1
    return counts


class TestChunkStream:
    """A histogram walks each chunk's trials off one stream that holds
    their first draws in trial order; it counts and draws what trials
    on their own streams would."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(SAMPLER_FAMILIES)),
        q=st.integers(1, 99).map(lambda m: QParam(F(m, 100))),
        x=st.integers(0, 8),
        y=st.integers(1, 4),
        n=st.one_of(st.integers(0, 30), st.sampled_from([_LANES // 2, _LANES + 1, 1500])),
        chunks=st.integers(1, 2),
        offset=st.integers(-1, 1),
        seed=st.integers(0, MASK64),
    )
    @example("extreme forward", TWO_THIRDS, 6, 2, 1500, 1, 0, 4)  # past the pre-fill
    @example("extreme runs", TWO_THIRDS, 0, 2, 22, 2, 1, 4)  # kappa 0: no draws
    @example("theta", TWO_THIRDS, 3, 2, 0, 2, 1, 4)  # n 0: no draws
    def test_histogram_is_the_per_trial_walk(self, name, q, x, y, n, chunks, offset, seed):
        sampler = SAMPLER_FAMILIES[name](q, x, y)
        chunk = _LANES // max(min(sampler.max_draws(n), _LANES), 1)
        trials = max(chunks * chunk + offset, 1)
        with counted_draws() as calls:
            got = empirical_level_histogram(sampler, n, trials, seed)
            drawn = calls[0]
            want = per_trial_histogram(sampler, n, trials, seed)
        assert got == want
        assert drawn == calls[0] - drawn

    # a forward walk takes n draws, one more than the mutant promises:
    # a trial before the chunk's last, the last, a promise of no draws,
    # and a last trial past the chunk's pre-fill
    @pytest.mark.parametrize("n, trials", [
        (5, 3), (5, 1), (1, 3), (1, 1), (_LANES + 2, 1), (_LANES + 2, 2)])
    def test_a_walk_past_its_promise_raises(self, n, trials):
        sampler = extreme_chain(6, TWO_THIRDS).sampler()
        mutant = types.SimpleNamespace(ones=sampler.ones, max_draws=lambda n: n - 1)
        assert empirical_level_histogram(sampler, n, trials, 3)
        with pytest.raises(RuntimeError, match="took more than"):
            empirical_level_histogram(mutant, n, trials, 3)
