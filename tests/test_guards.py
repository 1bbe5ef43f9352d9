"""The one refusal rule of every enumeration guard.

``guards.check_count`` refuses at the first partial count above the
bound, so a refusal costs a few small steps however large the refused
count is, and the accept/refuse decision stays exact at the limit.
"""

import time
from fractions import Fraction as F

import pytest

from qpascal import (
    FiniteLaw,
    QParam,
    Subspace,
    TooLargeError,
    enumerate_grassmannian,
    make_field,
)
from qpascal import exactq, galois
from qpascal.guards import ENV_VAR, check_count

from oracles import (
    ROOT,
    Vertex,
    all_words,
    brute_force_weight_sum,
    exact_growth_law,
    list_extensions,
)

HALF = QParam(F(1, 2))
F2 = make_field(2)
F3 = make_field(3)


class TestCheckCount:
    def test_refuses_without_finishing_the_count(self):
        def counts():
            yield 1
            yield 100
            raise AssertionError("the refused count was finished")

        with pytest.raises(TooLargeError, match="^demo would enumerate more than 10 "):
            check_count(counts(), 10, "demo")

    def test_exact_count_at_the_bound_passes(self):
        check_count([1, 5, 10], 10, "demo")
        with pytest.raises(TooLargeError):
            check_count([1, 5, 11], 10, "demo")

    def test_env_var_replaces_the_bound(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, " 11 ")
        check_count([1, 11], 10, "demo")
        with pytest.raises(TooLargeError, match="more than 11 objects"):
            check_count([1, 12], 100, "demo")

    @pytest.mark.parametrize("raw, message", [
        ("many", "must be an integer"),
        ("0", "must be positive"),
        ("-3", "must be positive"),
    ])
    def test_malformed_env_var_is_refused(self, monkeypatch, raw, message):
        monkeypatch.setenv(ENV_VAR, raw)
        with pytest.raises(TooLargeError, match=ENV_VAR + " " + message):
            check_count([1], 10, "demo")


@pytest.mark.parametrize("refused", [
    # each took seconds or more when the guard finished the count (or
    # built the field size) first, and none may build a Gaussian binomial;
    # tests/test_cli.py times grassmann --p 2 --enumerate 4000 2000
    lambda: brute_force_weight_sum(ROOT, Vertex(500000, 500000), HALF),
    lambda: FiniteLaw(10**7, {}),
    lambda: all_words(10**9),
    lambda: list_extensions(Subspace.zero(F2, 40)),
    lambda: list_extensions(Subspace.zero(F2, 10**6)),
    lambda: next(enumerate_grassmannian(F2, 10**8, 1)),
    lambda: make_field(3, 10**8),
    lambda: make_field(2**11213 - 1),
], ids=["paths", "law", "words", "extensions", "long_extensions", "long_lines",
        "field_degree", "field_prime"])
def test_worst_case_refuses_at_once(refused, monkeypatch):
    calls = []
    original = exactq.q_binomial

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (exactq, galois):
        monkeypatch.setattr(module, "q_binomial", counted)
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        refused()
    assert time.perf_counter() - start < 1
    assert calls == []


class TestExactAtTheLimit:
    @pytest.mark.parametrize("limit, to, refused", [
        (None, Vertex(28, 2), False), (None, Vertex(11, 12), True),
        (10, Vertex(3, 2), False), (9, Vertex(3, 2), True),
        (10, Vertex(2, 3), False), (9, Vertex(2, 3), True),
        (4, Vertex(1, 3), False), (3, Vertex(1, 3), True),
        (1, Vertex(5, 0), False), (1, ROOT, False),
    ])
    def test_paths(self, monkeypatch, limit, to, refused):
        if limit is not None:
            monkeypatch.setenv(ENV_VAR, str(limit))
        if refused:
            with pytest.raises(TooLargeError):
                brute_force_weight_sum(ROOT, to, HALF)
        else:
            brute_force_weight_sum(ROOT, to, HALF)

    @pytest.mark.parametrize("limit, field, n, k, count", [
        (35, F2, 4, 2, 35), (15, F2, 4, 3, 15), (15, F2, 4, 1, 15),
        (13, F3, 3, 2, 13), (1, F2, 5, 0, 1), (1, F2, 5, 5, 1),
    ])
    def test_subspaces(self, monkeypatch, limit, field, n, k, count):
        monkeypatch.setenv(ENV_VAR, str(limit))
        assert len(list(enumerate_grassmannian(field, n, k))) == count
        if limit > 1:
            monkeypatch.setenv(ENV_VAR, str(limit - 1))
            with pytest.raises(TooLargeError):
                list(enumerate_grassmannian(field, n, k))

    def test_default_subspace_limit(self):
        # [18 choose 1]_2 = 2^18 - 1 is within 2^18, [19 choose 1]_2 is not;
        # the guard runs before the first subspace is yielded
        next(enumerate_grassmannian(F2, 18, 1))
        with pytest.raises(TooLargeError):
            next(enumerate_grassmannian(F2, 19, 1))

    @pytest.mark.parametrize("field, n, grown", [(F2, 3, 8), (F3, 2, 9), (F2, 0, 1)])
    def test_extensions(self, monkeypatch, field, n, grown):
        monkeypatch.setenv(ENV_VAR, str(grown))
        assert len(list_extensions(Subspace.zero(field, n))) == grown + 1
        if grown > 1:
            monkeypatch.setenv(ENV_VAR, str(grown - 1))
            with pytest.raises(TooLargeError):
                list_extensions(Subspace.zero(field, n))

    def test_growth_law_inherits_the_extension_guard(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        with pytest.raises(TooLargeError):
            exact_growth_law(1, F2, 3)
