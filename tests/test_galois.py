import hashlib
import itertools
import json
import math
import time
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpascal import (
    FieldConstructionError,
    FieldSpec,
    NotIrreducibleError,
    NotPrimeError,
    QParam,
    Subspace,
    TooLargeError,
    codim_word,
    derive_seed,
    enumerate_grassmannian,
    extreme_chain,
    growth_q_param,
    is_irreducible,
    is_prime,
    make_field,
    q_binomial,
    rref_canonicalize,
    sample_growth,
)
from qpascal import galois

from oracles import (
    all_words,
    exact_growth_law,
    list_extensions,
    path_weight,
    project_down,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(-2, 42):
            assert is_prime(n) == (n in primes)

    def test_large_composite_and_prime(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31 + 1)
        assert not is_prime(341)  # base-2 pseudoprime


class TestFieldConstruction:
    def test_default_moduli(self):
        assert F2.modulus == (0, 1)
        assert F3.modulus == (0, 1)
        assert F4.modulus == (1, 1, 1)  # the unique irreducible quadratic

    def test_f8_modulus_is_irreducible_cubic(self):
        f8 = make_field(2, 3)
        assert len(f8.modulus) == 4
        assert is_irreducible(f8.modulus, 2)
        assert f8.size == 8

    def test_rejects_composite_characteristic(self):
        with pytest.raises(NotPrimeError):
            make_field(6)

    @pytest.mark.parametrize("p, m, modulus", [(2, 1, (5, 1)), (2, 2, (1, 1, 3)),
                                                (3, 1, (-1, 1))])
    def test_rejects_coefficient_outside_the_prime_field(self, p, m, modulus):
        bad = next(c for c in modulus if not 0 <= c < p)
        with pytest.raises(FieldConstructionError,
                           match=r"coefficient %d is outside \[0, %d\)" % (bad, p)):
            FieldSpec(p, m, modulus)

    @pytest.mark.parametrize("p, modulus", [(2, (0.5, 1)), (3, ("2", 1)), (2, (True, 1))],
                             ids=["float", "string", "bool"])
    def test_modulus_entries_are_integers(self, p, modulus):
        # int() once read these as x over GF(2), x + 2 over GF(3) and x + 1
        with pytest.raises(TypeError, match="a count must be an integer"):
            make_field(p, 1, modulus)

    def test_rejects_bool_order(self):
        with pytest.raises(FieldConstructionError, match="extension degree"):
            FieldSpec(2, True, (0, 1))
        with pytest.raises(NotPrimeError):
            FieldSpec(True, 1, (0, 1))

    def test_rejects_reducible_modulus(self):
        with pytest.raises(NotIrreducibleError):
            FieldSpec(2, 2, (0, 0, 1))  # x^2 = x * x

    def test_rejects_oversized_field(self):
        with pytest.raises(TooLargeError):
            make_field(2, 25)

    def test_jsonable_roundtrip(self):
        assert FieldSpec.from_jsonable(F4.to_jsonable()) == F4


class TestFieldArithmetic:
    def test_f4_multiplication_facts(self):
        # elements: 0, 1, x -> 2, x+1 -> 3 with x^2 = x + 1
        assert F4.mul(2, 2) == 3
        assert F4.mul(2, 3) == 1
        assert F4.add(2, 3) == 1

    def test_inverses_all_fields(self):
        for field in (F2, F3, F4, make_field(5), make_field(3, 2)):
            for x in range(1, field.size):
                assert field.mul(x, field.inv(x)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            F4.inv(0)

    def test_encode_decode_roundtrip(self):
        for x in F4.elements():
            assert F4.encode(F4.decode(x)) == x

    def test_field_axioms_sampled(self):
        f9 = make_field(3, 2)
        for x, y, z in itertools.product((0, 1, 4, 7), repeat=3):
            assert f9.mul(x, f9.add(y, z)) == f9.add(f9.mul(x, y), f9.mul(x, z))
            assert f9.mul(x, y) == f9.mul(y, x)

    def test_element_range_checked(self):
        with pytest.raises(ValueError):
            F2.add(0, 2)


class TestTables:
    @pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 1)])
    def test_every_pair_matches_the_exact_arithmetic(self, p, m):
        field = make_field(p, m)
        tables = field._tables
        for x, y in itertools.product(field.elements(), repeat=2):
            assert tables.add[x][y] == field.add(x, y)
            assert tables.add[x][tables.neg[y]] == field.sub(x, y)
            assert tables.mul[x][y] == field.mul(x, y)
        for x in field.elements():
            assert tables.neg[x] == field.neg(x)
            if x:
                assert tables.inv[x] == field.inv(x)

    def test_built_on_first_row_reduction(self):
        field = make_field(3, 2)
        assert field.mul(2, 3) == 6 and "_tables" not in vars(field)
        Subspace.spanned(field, 2, [(1, 2)])
        assert "_tables" in vars(field)

    # chains of sample_growth(3, field, 12, seed=11), recorded before field
    # arithmetic went through tables: the two largest fields with tables
    # and two fields above TABLE_FIELD_SIZE, which must build none
    LARGE_FIELD_CHAINS = [
        (2, 10, "337aa9844292a7f7cda9eba0a0b8f6cc3a3a5b55980bcf26c6ab7c3181a60484"),
        (1021, 1, "50433c785fbfbca03fe680a90329de4840cff7e97f818468cffe5ca8f380745d"),
        (2, 20, "ac1ef5613a7db6c20afd31fa79444c51733ae3e3af3d004ccec04c10ddd0de6b"),
        (1048573, 1, "351ca7eb80b88eaf77ca5d26d7a2c996d8c00685d2e55b4c2309ab8133b2c030"),
    ]

    @pytest.mark.parametrize("p, m, digest", LARGE_FIELD_CHAINS,
                             ids=["GF2^10", "GF1021", "GF2^20", "GF1048573"])
    def test_large_field_growth(self, monkeypatch, p, m, digest):
        tabulated = p**m <= galois.TABLE_FIELD_SIZE
        if not tabulated:
            def refuse(field):
                raise AssertionError("tables built for a field of size %d" % field.size)

            monkeypatch.setattr(galois, "_tabulate", refuse)
        start = time.perf_counter()
        field = make_field(p, m)
        chain = sample_growth(3, field, 12, seed=11)
        elapsed = time.perf_counter() - start
        bases = json.dumps([[list(row) for row in s.basis] for s in chain])
        assert hashlib.sha256(bases.encode()).hexdigest() == digest
        assert str(codim_word(chain)) == "111000000000"
        assert isinstance(field._tables.mul, list) == tabulated
        assert elapsed < 2.0

    def test_size_guard_follows_the_field_limit(self):
        assert galois.TABLE_FIELD_SIZE ** 2 <= galois.MAX_FIELD_SIZE
        assert (galois.TABLE_FIELD_SIZE + 1) ** 2 > galois.MAX_FIELD_SIZE


class TestRref:
    def test_hand_example(self):
        rows = rref_canonicalize(F2, 3, [(1, 1, 0), (1, 0, 1)])
        assert rows == ((1, 0, 1), (0, 1, 1))

    def test_idempotent(self):
        rows = rref_canonicalize(F3, 4, [(1, 2, 0, 1), (2, 1, 1, 0), (0, 0, 1, 1)])
        assert rref_canonicalize(F3, 4, rows) == rows

    def test_zero_rows_dropped(self):
        assert rref_canonicalize(F2, 2, [(1, 1), (1, 1)]) == ((1, 1),)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_span_preserved(self, data):
        rows = rref_canonicalize(F3, 3, data)
        space = Subspace(F3, 3, rows)
        for vec in data:
            assert space.contains(tuple(v % 3 for v in vec))
        # basis vectors lie in the span of the input
        original = {v for v in Subspace.spanned(F3, 3, data).vectors()}
        for row in rows:
            assert row in original


class TestSubspace:
    def test_rejects_non_rref_basis(self):
        with pytest.raises(ValueError):
            Subspace(F2, 3, ((1, 1, 0), (1, 0, 1)))

    def test_from_jsonable_validates(self):
        data = Subspace.spanned(F3, 3, [(1, 0, 2)]).to_jsonable()
        for bad in ([[2, 0, 1]], [[1, 0, 3]], [[1, 0], [0, 1]]):
            with pytest.raises(ValueError):
                Subspace.from_jsonable(dict(data, basis=bad))

    @pytest.mark.parametrize("field, n, basis", [
        ({"p": 3, "m": 1, "modulus": [0, 1]}, 2.7, [[1, 0, 2]]),
        ({"p": 3, "m": 1, "modulus": [0, 1]}, 3, [[1, 0, 0.9]]),
        ({"p": 3, "m": 1, "modulus": [0, 1]}, 3, ["102"]),
        ({"p": 3, "m": 1, "modulus": [0, True]}, 3, [[1, 0, 2]]),
        ({"p": "3", "m": 1, "modulus": [0, 1]}, 3, [[1, 0, 2]]),
        ({"p": 3, "m": 1.0, "modulus": [0, 1]}, 3, [[1, 0, 2]]),
    ], ids=["float-n", "float-entry", "string-row", "bool-modulus", "string-p",
            "float-m"])
    def test_from_jsonable_takes_only_integers(self, field, n, basis):
        # int() would have read 2.7 as 2 and 0.9 as 0
        with pytest.raises(TypeError):
            Subspace.from_jsonable({"field": field, "n": n, "basis": basis})

    def test_from_jsonable_refuses_modulus_coefficients_outside_the_field(self):
        # [3, 1] once read as x over GF(3), reduced mod 3
        data = Subspace.spanned(F3, 3, [(1, 0, 2)]).to_jsonable()
        with pytest.raises(FieldConstructionError, match="coefficient 3"):
            Subspace.from_jsonable(dict(data, field={"p": 3, "m": 1, "modulus": [3, 1]}))

    def test_contains_checks_entries(self):
        space = Subspace.spanned(F2, 3, [(1, 1, 0)])
        with pytest.raises(ValueError):
            space.contains((0, 2, 0))

    def test_zero_and_full(self):
        assert Subspace.zero(F2, 3).dim == 0
        assert Subspace.full(F2, 3).dim == 3
        assert Subspace.zero(F2, 0).ambient_dim == 0

    def test_vectors_count(self):
        space = Subspace.spanned(F3, 3, [(1, 0, 2), (0, 1, 1)])
        assert len(list(space.vectors())) == 9

    def test_contains(self):
        space = Subspace.spanned(F2, 3, [(1, 1, 0)])
        assert space.contains((1, 1, 0))
        assert space.contains((0, 0, 0))
        assert not space.contains((1, 0, 0))

    def test_jsonable_roundtrip(self):
        space = Subspace.spanned(F4, 2, [(2, 3)])
        assert Subspace.from_jsonable(space.to_jsonable()) == space

    def test_codim(self):
        assert Subspace.spanned(F2, 4, [(1, 0, 0, 0)]).codim == 3


class TestProjection:
    def test_hand_example(self):
        line = Subspace.spanned(F2, 2, [(1, 1)])
        assert project_down(line) == Subspace.zero(F2, 1)

    def test_kills_only_last_coordinate_direction(self):
        space = Subspace.spanned(F2, 3, [(1, 0, 0), (0, 0, 1)])
        assert project_down(space) == Subspace.spanned(F2, 2, [(1, 0)])

    def test_rejects_empty_ambient(self):
        with pytest.raises(ValueError):
            project_down(Subspace.zero(F2, 0))


class TestExtensions:
    def test_full_line_has_two(self):
        exts = list_extensions(Subspace.full(F2, 1))
        assert len(exts) == 2

    def test_zero_in_f3_has_four(self):
        exts = list_extensions(Subspace.zero(F3, 1))
        assert len(exts) == 4

    def test_exhaustive_counts_and_projection_inverse(self):
        for field in (F2, F3):
            for n in range(4):
                for k in range(n + 1):
                    for space in enumerate_grassmannian(field, n, k):
                        exts = list_extensions(space)
                        assert len(exts) == field.size ** (n - k) + 1
                        assert len(set(exts)) == len(exts)
                        for ext in exts:
                            assert project_down(ext) == space


class TestGrassmannian:
    def test_counts(self):
        assert len(list(enumerate_grassmannian(F2, 4, 2))) == 35
        assert len(list(enumerate_grassmannian(F3, 3, 1))) == 13

    def test_count_matches_gaussian_binomial(self):
        for field in (F2, F3, F4):
            q = QParam(F(field.size))
            for n in range(4):
                for k in range(n + 1):
                    expected = int(q_binomial(n, k, q))
                    assert len(list(enumerate_grassmannian(field, n, k))) == expected

    def test_distinct_canonical_forms(self):
        seen = list(enumerate_grassmannian(F2, 4, 2))
        assert len(set(seen)) == len(seen)

    def test_guard(self):
        with pytest.raises(TooLargeError):
            list(enumerate_grassmannian(F2, 40, 20))

    def test_empty_outside_range(self):
        assert list(enumerate_grassmannian(F2, 2, 3)) == []

    def test_square_basis_costs_its_entries(self):
        # k = n leaves no free column; finding that must not cost k^2 n
        start = time.perf_counter()
        space = next(enumerate_grassmannian(F2, 1600, 1600))
        assert time.perf_counter() - start < 1
        identity = tuple(tuple(int(i == j) for j in range(1600)) for i in range(1600))
        assert space.basis == identity


def codim_word_law(field, n, ones):
    """path_weight(w, 1/|F|) normalised over the words with ``ones`` ones."""
    q = growth_q_param(field)
    weights = {w: path_weight(w, q) for w in all_words(n) if w.ones == ones}
    total = sum(weights.values())
    return {w: x / total for w, x in weights.items()}


class TestGrassmannianCounting:
    """The paper's Galois-field theorem by counting: projecting a uniform
    d-dimensional W of F^N down to F^0 and reversing the chain spells a
    codimension word distributed as the path weights at q = 1/|F|."""

    @pytest.mark.parametrize("field, n", [(F2, 6), (F3, 4), (F4, 4)], ids=["GF2", "GF3", "GF4"])
    def test_projected_chains_follow_path_weights(self, field, n):
        for d in range(n + 1):
            counts = defaultdict(int)
            for space in enumerate_grassmannian(field, n, d):
                chain = [space]
                while chain[-1].ambient_dim:
                    chain.append(project_down(chain[-1]))
                counts[codim_word(chain[::-1])] += 1
            total = sum(counts.values())
            empirical = {w: F(c, total) for w, c in counts.items()}
            assert empirical == codim_word_law(field, n, n - d)

    def test_sampled_growth_mixes_the_counting_laws(self):
        # sample_growth's words against the counting law of each
        # codimension, weighted by the exact extreme level law
        n, kappa, trials = 6, 2, 2000
        level = extreme_chain(kappa, growth_q_param(F4)).level(n)
        exact = {}
        for ones, mass in enumerate(level):
            for w, p in codim_word_law(F4, n, ones).items():
                exact[w] = mass * p
        counts = defaultdict(int)
        for t in range(trials):
            counts[codim_word(sample_growth(kappa, F4, n, seed=derive_seed(5, t)))] += 1
        assert set(counts) <= set(exact)
        tv = sum(abs(F(counts[w], trials) - p) for w, p in exact.items()) / 2
        assert tv <= F(1, 20)


class TestGrowth:
    def test_deterministic(self):
        c1 = sample_growth(1, F2, 6, seed=9)
        c2 = sample_growth(1, F2, 6, seed=9)
        assert c1 == c2

    def test_chain_shape(self):
        chain = sample_growth(2, F3, 5, seed=4)
        assert len(chain) == 6
        for n, space in enumerate(chain):
            assert space.ambient_dim == n
            assert space.codim <= 2

    def test_kappa_zero_grows_always(self):
        chain = sample_growth(0, F2, 5, seed=1)
        assert [s.dim for s in chain] == [0, 1, 2, 3, 4, 5]
        assert str(codim_word(chain)) == "00000"

    def test_kappa_infinite_never_grows(self):
        import math

        chain = sample_growth(math.inf, F2, 5, seed=1)
        assert [s.dim for s in chain] == [0] * 6
        assert str(codim_word(chain)) == "11111"

    def test_codim_word_hand_chain(self):
        chain = (
            Subspace.zero(F2, 0),
            Subspace.full(F2, 1),
            Subspace.spanned(F2, 2, [(1, 0)]),
            Subspace.spanned(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        )
        assert str(codim_word(chain)) == "010"

    def test_codim_word_rejects_non_chain(self):
        with pytest.raises(ValueError):
            codim_word((Subspace.zero(F2, 0), Subspace.zero(F2, 2)))

    def test_exact_law_total_and_marginal(self):
        law = exact_growth_law(1, F2, 3)
        assert sum(law.values()) == 1
        marginal = defaultdict(F)
        for chain, p in law.items():
            marginal[codim_word(chain)] += p
        extreme = extreme_chain(1, growth_q_param(F2)).law(3)
        assert dict(marginal) == {w: p for w, p in extreme.probs.items() if p > 0}

    def test_conditional_uniformity_over_grassmannian(self):
        law = exact_growth_law(1, F3, 3)
        endpoint = defaultdict(F)
        for chain, p in law.items():
            endpoint[chain[-1]] += p
        by_dim = defaultdict(dict)
        for space, p in endpoint.items():
            by_dim[space.dim][space] = p
        for d, masses in by_dim.items():
            assert set(masses) == set(enumerate_grassmannian(F3, 3, d))
            assert len(set(masses.values())) == 1

    def test_growth_q_param(self):
        assert growth_q_param(F3).q == F(1, 3)


def assert_canonical(space):
    assert isinstance(space.basis, tuple)
    assert all(isinstance(row, tuple) for row in space.basis)
    assert rref_canonicalize(space.field, space.ambient_dim, space.basis) == space.basis


class TestInternalBasesAreCanonical:
    """Bases built without re-validation are the RREF of themselves."""

    @pytest.mark.parametrize("field", [F2, F3, F4, make_field(2, 3), make_field(5)],
                             ids=lambda f: "GF%d" % f.size)
    def test_growth_chains_and_projections(self, field):
        for kappa, seed in itertools.product((0, 1, 2, 5, math.inf), range(4)):
            chain = sample_growth(kappa, field, 9, seed=seed)
            for prev, space in zip(chain, chain[1:]):
                assert_canonical(space)
                assert_canonical(project_down(space))
                assert project_down(space) == prev

    def test_grassmannians_extensions_and_projections(self):
        for field in (F2, F3, F4):
            for n in range(4):
                for k in range(n + 1):
                    for space in enumerate_grassmannian(field, n, k):
                        assert_canonical(space)
                        for ext in list_extensions(space):
                            assert_canonical(ext)
                            assert_canonical(project_down(ext))
