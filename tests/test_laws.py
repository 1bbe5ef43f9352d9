from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpascal import (
    BinaryWord,
    FiniteLaw,
    InvalidArrayError,
    QParam,
    TildeArray,
    TooLargeError,
    VArray,
    check_q_exchangeable,
    check_recursion,
    extreme_chain,
    flip_reduction,
    tilde_of_v,
)
from qpascal.guards import ENV_VAR
from qpascal.processes import ThetaParams, theta_chain

from oracles import (
    RunEncoding,
    all_words,
    backward_kernel,
    first_column,
    law_of_array,
    law_to_jsonable,
    multistep_backward,
    q_integer,
    runs_to_word,
    v_of_tilde,
    varray_from_jsonable,
    word_probability,
    word_to_runs,
)

HALF = QParam(F(1, 2))
TWO = QParam(F(2))


def w(text: str) -> BinaryWord:
    return BinaryWord.from_string(text)


class TestVArray:
    def test_shape_validation(self):
        with pytest.raises(InvalidArrayError):
            VArray(HALF, ((F(1),), (F(1), F(0), F(0))))
        with pytest.raises(InvalidArrayError):
            VArray(HALF, ())

    def test_entry_and_depth(self):
        arr = extreme_chain(1, HALF).triangle(4)
        assert arr.depth == 4
        assert arr.rows[0][0] == 1
        assert arr.rows[2][1] == F(1, 2)

    def test_jsonable_roundtrip(self):
        arr = extreme_chain(2, HALF).triangle(5)
        again = varray_from_jsonable(arr.to_jsonable())
        assert again == arr

    def test_first_column(self):
        # all-zero prefixes of the extreme law: x^n at x = q^kappa
        arr = extreme_chain(1, HALF).triangle(3)
        assert first_column(arr) == (F(1), F(1, 2), F(1, 4), F(1, 8))


class TestRecursion:
    def test_extreme_passes(self):
        assert check_recursion(extreme_chain(1, HALF).triangle(6)).ok

    def test_perturbation_witnessed_at_root(self):
        arr = extreme_chain(1, HALF).triangle(6)
        rows = [list(r) for r in arr.rows]
        rows[1][0] += F(1, 100)
        bad = VArray(HALF, tuple(tuple(r) for r in rows))
        res = check_recursion(bad)
        assert not res.ok
        assert res.witness == (0, 0)

    def test_negative_entry_rejected(self):
        rows = ((F(1),), (F(3, 2), F(-1, 2)))
        res = check_recursion(VArray(HALF, rows))
        assert not res.ok


class TestTilde:
    def test_roundtrip(self):
        arr = extreme_chain(2, HALF).triangle(6)
        assert v_of_tilde(tilde_of_v(arr)) == arr

    def test_level_sums_enforced(self):
        with pytest.raises(InvalidArrayError):
            TildeArray(HALF, ((F(1),), (F(1, 2), F(1, 4))))

    def test_spec_level(self):
        tv = tilde_of_v(extreme_chain(1, HALF).triangle(2))
        assert tv.rows[1] == (F(1, 2), F(1, 2))
        assert tv.rows[2] == (F(1, 4), F(3, 4), F(0))


class TestBackwardKernel:
    def test_oracle_value(self):
        assert backward_kernel(2, 1, HALF) == (F(2, 3), F(1, 3))

    def test_rows_sum_to_one(self):
        for n in range(1, 8):
            for k in range(n + 1):
                assert sum(backward_kernel(n, k, HALF)) == 1

    def test_flip_identity(self):
        # the kernel at q and (n, k) mirrors the kernel at 1/q and (n, n-k)
        for n in range(1, 6):
            for k in range(n + 1):
                direct = backward_kernel(n, k, TWO)
                mirrored = backward_kernel(n, n - k, HALF)
                assert direct == (mirrored[1], mirrored[0])

    def test_closed_form(self):
        n, k = 5, 2
        total = q_integer(n, HALF)
        assert backward_kernel(n, k, HALF) == (
            q_integer(n - k, HALF) / total,
            HALF.q ** (n - k) * q_integer(k, HALF) / total,
        )


class TestMultistep:
    def test_spec_values(self):
        assert multistep_backward(1, 1, 2, 1, HALF) == F(2, 3)
        assert sum(multistep_backward(3, k, 6, 2, HALF) for k in range(4)) == 1

    def test_one_step_matches_kernel(self):
        for n in range(1, 6):
            for kappa in range(n + 1):
                kern = backward_kernel(n, kappa, HALF)
                if kappa < n:
                    assert multistep_backward(n - 1, kappa, n, kappa, HALF) == kern[0]
                if kappa:
                    assert (
                        multistep_backward(n - 1, kappa - 1, n, kappa, HALF) == kern[1]
                    )

    def test_matches_kernel_chain(self):
        # push mass down one level at a time and compare
        nu, kappa, n = 7, 3, 3
        mass = {kappa: F(1)}
        for level in range(nu, n, -1):
            nxt: dict[int, F] = {}
            for k, p in mass.items():
                stay, down = backward_kernel(level, k, HALF)
                nxt[k] = nxt.get(k, F(0)) + p * stay
                if k:
                    nxt[k - 1] = nxt.get(k - 1, F(0)) + p * down
            mass = nxt
        for k in range(n + 1):
            assert multistep_backward(n, k, nu, kappa, HALF) == mass.get(k, F(0))

    def test_unreachable_is_zero(self):
        assert multistep_backward(2, 0, 6, 5, HALF) == 0


class TestWordProbability:
    def test_swap_ratio(self):
        arr = extreme_chain(1, HALF).triangle(3)
        assert word_probability(arr, w("011")) == HALF.q**2 * word_probability(
            arr, w("110")
        )

    def test_level_marginals(self):
        arr = extreme_chain(2, HALF).triangle(5)
        law = law_of_array(arr, 5)
        tv = tilde_of_v(arr)
        for k in range(6):
            total = sum(p for word, p in law.probs.items() if word.ones == k)
            assert total == tv.rows[5][k]

    def test_too_long_word_rejected(self):
        with pytest.raises(ValueError):
            word_probability(extreme_chain(1, HALF).triangle(2), w("010"))


class TestFiniteLaw:
    def test_sum_must_be_one(self):
        with pytest.raises(InvalidArrayError):
            FiniteLaw(1, {"0": F(1, 2), "1": F(1, 3)})

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArrayError):
            FiniteLaw(2, {"01": F(1, 2), "1": F(1, 2)})

    def test_string_keys_coerced(self):
        law = FiniteLaw(1, {"0": F(1, 4), "1": F(3, 4)})
        assert law.prob(w("1")) == F(3, 4)

    def test_jsonable_roundtrip(self):
        law = law_of_array(extreme_chain(1, HALF).triangle(3), 3)
        assert FiniteLaw.from_jsonable(law_to_jsonable(law)) == law

    def test_huge_length_refused_before_two_to_the_n(self):
        # 2**n has 3 * 10**6 bits: building it and printing it in the
        # guard message would fail with Python's int-to-str ValueError
        with pytest.raises(TooLargeError):
            FiniteLaw(3 * 10**6, {})

    @pytest.mark.parametrize(
        "limit, n, refused",
        [(None, 20, False), (None, 21, True), (2**21 - 1, 21, True),
         (2**21, 21, False), (2**21, 22, True), (1, 0, False), (1, 1, True)],
    )
    def test_word_law_guard_is_exact_at_the_limit(self, monkeypatch, limit, n, refused):
        if limit is not None:
            monkeypatch.setenv(ENV_VAR, str(limit))
        if refused:
            with pytest.raises(TooLargeError):
                all_words(n)
            with pytest.raises(TooLargeError):
                FiniteLaw(n, {})
        else:
            all_words(n)
            with pytest.raises(InvalidArrayError):  # passes the guard, sums to 0
                FiniteLaw(n, {})


class TestExchangeability:
    def test_array_law_passes(self):
        law = law_of_array(extreme_chain(1, HALF).triangle(4), 4)
        assert check_q_exchangeable(law, HALF).ok

    def test_theta_law_passes(self):
        arr = theta_chain(ThetaParams(F(1), HALF)).triangle(4)
        assert check_q_exchangeable(law_of_array(arr, 4), HALF).ok

    def test_uniform_fails_with_valid_witness(self):
        uniform = FiniteLaw(2, {"00": F(1, 4), "01": F(1, 4), "10": F(1, 4), "11": F(1, 4)})
        res = check_q_exchangeable(uniform, HALF)
        assert not res.ok
        word, i = res.witness
        swapped = word.swap_adjacent(i)
        ratio = HALF.q ** (word.bits[i] - word.bits[i + 1])
        assert uniform.prob(swapped) != ratio * uniform.prob(word)


class TestRunEncoding:
    def test_all_zero_word(self):
        enc = word_to_runs(w("000"))
        assert enc == RunEncoding((), open_zeros=3)
        assert enc.trailing
        assert runs_to_word(enc) == w("000")

    def test_mixed_word(self):
        enc = word_to_runs(w("0010"))
        assert enc.runs == (2,)
        assert enc.open_zeros == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RunEncoding((2, -1))

    @settings(max_examples=80, deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=14))
    def test_roundtrip(self, bits):
        word = BinaryWord(tuple(bits))
        assert runs_to_word(word_to_runs(word)) == word


class TestArrayFlip:
    def test_flip_preserves_word_laws(self):
        base = extreme_chain(1, HALF).triangle(5)
        # build the super-unit pre-image by hand, then flip back
        rows = tuple(
            tuple(F(1, 2) ** (k * (n - k)) * base.rows[n][n - k] for k in range(n + 1))
            for n in range(6)
        )
        super_arr = VArray(TWO, rows)
        flipped, q_new = flip_reduction(super_arr)
        assert q_new == HALF
        assert flipped == base
        # flipping words matches flipping the array
        for text in ("0", "1", "01", "110", "0101"):
            word = w(text)
            assert word_probability(super_arr, word) == word_probability(
                base, word.flipped()
            )

    def test_flip_requires_super_unit_array(self):
        from qpascal import NotSuperUnitError

        with pytest.raises(NotSuperUnitError):
            flip_reduction(extreme_chain(1, HALF).triangle(3))
        with pytest.raises(NotSuperUnitError):
            flip_reduction(VArray(QParam(F(1)), ((F(1),), (F(1, 2), F(1, 2)))))
