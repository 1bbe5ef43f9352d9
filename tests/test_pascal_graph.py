import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpascal import (
    BinaryWord,
    NotSuperUnitError,
    QParam,
    TooLargeError,
    flip_reduction,
)
from qpascal.guards import ENV_VAR

from oracles import (
    ROOT,
    UnreachableError,
    Vertex,
    brute_force_weight_sum,
    endpoint,
    path_weight,
    segment_weight_sum,
)

HALF = QParam(F(1, 2))
TWO = QParam(F(2))


def all_paths(frm: Vertex, to: Vertex):
    """Every word tracing a lattice path between the two vertices."""
    dl, dk = to.l - frm.l, to.k - frm.k
    for ones in itertools.combinations(range(dl + dk), dk):
        yield BinaryWord(tuple(1 if i in ones else 0 for i in range(dl + dk)))


class TestVertex:
    def test_level(self):
        assert ROOT == Vertex(0, 0)
        assert Vertex(2, 1).level == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Vertex(-1, 0)
        with pytest.raises(ValueError):
            Vertex(0, -2)


class TestBinaryWord:
    def test_roundtrip(self):
        w = BinaryWord.from_string("0110")
        assert str(w) == "0110"
        assert len(w) == 4
        assert w.ones == 2 and endpoint(w).l == 2

    def test_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            BinaryWord.from_string("01x0")

    def test_bits_go_through_int(self):
        assert BinaryWord(("1", 0, True, 1.0, F(0))).bits == (1, 0, 1, 1, 0)
        assert BinaryWord([]).bits == ()
        for bad in ((0, 2), (-1,), ("x",), (None,)):
            with pytest.raises((ValueError, TypeError)):
                BinaryWord(bad)

    def test_endpoint(self):
        assert endpoint(BinaryWord.from_string("0110")) == Vertex(2, 2)
        assert endpoint(BinaryWord.from_string("1"), Vertex(3, 1)) == Vertex(3, 2)

    def test_inversions(self):
        # pairs (i < j) with a 0 before a 1
        assert BinaryWord.from_string("011").inversions() == 2
        assert BinaryWord.from_string("110").inversions() == 0
        assert BinaryWord.from_string("0101").inversions() == 3

    def test_flip_and_swap(self):
        w = BinaryWord.from_string("100")
        assert str(w.flipped()) == "011"
        assert str(w.swap_adjacent(0)) == "010"
        with pytest.raises(ValueError):
            w.swap_adjacent(2)


class TestPathWeight:
    def test_spec_values(self):
        assert path_weight(BinaryWord.from_string("110"), HALF) == 1
        assert path_weight(BinaryWord.from_string("011"), HALF) == F(1, 4)

    def test_start_offset(self):
        # single 1-step taken at l = 1
        assert path_weight(BinaryWord.from_string("1"), HALF, Vertex(1, 0)) == F(1, 2)

    def test_dual_counts_zero_steps(self):
        # dual: 0-step at height k; word 10 takes its 0-step at height 1
        assert path_weight(BinaryWord.from_string("10"), HALF, dual=True) == F(1, 2)
        assert path_weight(BinaryWord.from_string("01"), HALF, dual=True) == 1


class TestSegmentSum:
    def test_root_to_level3(self):
        # three paths 100, 010, 001 with weights 1, q, q^2
        for q in (HALF, TWO):
            expected = 1 + q.q + q.q**2
            assert segment_weight_sum(ROOT, Vertex(2, 1), q) == expected

    def test_single_path(self):
        assert segment_weight_sum(Vertex(1, 0), Vertex(1, 1), HALF) == F(1, 2)

    def test_unreachable_raises_both_ways(self):
        with pytest.raises(UnreachableError):
            segment_weight_sum(Vertex(2, 1), Vertex(1, 1), HALF)
        with pytest.raises(UnreachableError):
            brute_force_weight_sum(Vertex(0, 2), Vertex(3, 1), HALF)

    def test_matches_brute_force_small_sweep(self):
        for q in (HALF, QParam(F(1, 3))):
            for frm in (ROOT, Vertex(1, 1), Vertex(2, 0)):
                for dl in range(4):
                    for dk in range(4):
                        to = Vertex(frm.l + dl, frm.k + dk)
                        assert segment_weight_sum(frm, to, q) == (
                            brute_force_weight_sum(frm, to, q)
                        )

    def test_brute_force_equals_per_path_enumeration(self):
        frm, to = Vertex(1, 2), Vertex(4, 4)
        for dual in (False, True):
            direct = sum(
                path_weight(w, HALF, start=frm, dual=dual) for w in all_paths(frm, to)
            )
            assert brute_force_weight_sum(frm, to, HALF, dual=dual) == direct

    def test_step_guard(self):
        with pytest.raises(TooLargeError):
            brute_force_weight_sum(ROOT, Vertex(20, 20), HALF)

    def test_long_segment_with_few_paths(self):
        # 30 steps but only C(30, 2) = 435 paths: within the default guard
        assert brute_force_weight_sum(ROOT, Vertex(28, 2), HALF) == segment_weight_sum(
            ROOT, Vertex(28, 2), HALF
        )

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "100")
        # 24 steps but only C(24,1) = 24 paths: allowed under the override
        assert brute_force_weight_sum(ROOT, Vertex(23, 1), HALF) == segment_weight_sum(
            ROOT, Vertex(23, 1), HALF
        )
        with pytest.raises(TooLargeError):
            brute_force_weight_sum(ROOT, Vertex(20, 20), HALF)

    @settings(max_examples=60, deadline=None)
    @given(
        l0=st.integers(min_value=0, max_value=4),
        k0=st.integers(min_value=0, max_value=4),
        dl=st.integers(min_value=0, max_value=5),
        dk=st.integers(min_value=0, max_value=5),
        qq=st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(2)]),
    )
    def test_closed_form_property(self, l0, k0, dl, dk, qq):
        frm = Vertex(l0, k0)
        to = Vertex(l0 + dl, k0 + dk)
        q = QParam(qq)
        assert segment_weight_sum(frm, to, q) == brute_force_weight_sum(frm, to, q)


class TestFlipReduction:
    def test_word(self):
        word, q_new = flip_reduction(BinaryWord.from_string("1100"), TWO)
        assert str(word) == "0011"
        assert q_new == HALF

    def test_word_requires_super_unit(self):
        with pytest.raises(NotSuperUnitError):
            flip_reduction(BinaryWord.from_string("01"), HALF)
        with pytest.raises(NotSuperUnitError):
            flip_reduction(BinaryWord.from_string("01"), QParam(F(1)))

    def test_word_requires_q(self):
        with pytest.raises(ValueError):
            flip_reduction(BinaryWord.from_string("01"))

    def test_involution_on_words(self):
        w = BinaryWord.from_string("010011")
        once, q1 = flip_reduction(w, TWO)
        assert once.flipped() == w
        assert q1.inverse == TWO

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            flip_reduction("0101", TWO)
