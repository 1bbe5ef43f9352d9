"""Values of formulas that each had two homes, frozen before they were
merged into one: the urn's float-mode forward probabilities and mixing
measures, its exact measures, q-factorials, the extreme kernel and the
input check of a prime field's inverse.  Every value was recorded from
the code that still held both copies."""

import hashlib
import json
import sys
from fractions import Fraction as F

import pytest

from qpascal import (
    QParam,
    make_field,
    q_pochhammer_bounds,
    q_pochhammer_infinite,
)
from qpascal.processes import (
    PolyaParams,
    ThetaParams,
    polya_boundary_measure,
    polya_chain,
    theta_boundary_measure,
)

from oracles import extreme_kernel, polya_forward_probs, q_factorial


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def measure_json(a, b, q, kmax):
    measure = polya_boundary_measure(PolyaParams(a, b, QParam(q)), kmax=kmax)
    return json.dumps(measure.to_jsonable())


class TestUrnFloatMode:
    def test_forward_probs_bits(self):
        """The oracle's bits, which the production chain's p1 reproduces."""
        lines = []
        for q in (F(1, 2), F(9, 10), F(1)):
            for a in (F(1, 2), F(3, 2)):
                for b in (F(1, 2), F(3, 2)):
                    params = PolyaParams(a, b, QParam(q))
                    assert params.float_mode
                    chain = polya_chain(params)
                    for n in range(7):
                        for k in range(n + 1):
                            p0, p1 = polya_forward_probs(params, n, k)
                            assert chain.p1(n, k).hex() == p1.hex()
                            lines.append(
                                "%s %s %s %d %d %s %s" % (q, a, b, n, k, p0.hex(), p1.hex())
                            )
        assert lines[0] == "1/2 1/2 1/2 0 0 0x1.2bec333018866p-1 0x1.a827999fcef32p-2"
        assert lines[-1] == "1 3/2 3/2 6 6 0x1.5555555555555p-3 0x1.aaaaaaaaaaaabp-1"
        assert len(lines) == 336
        assert sha256("\n".join(lines)) == (
            "2e4c88ed7bbf99126de16a49efb3007981e6bb7b33062261edfcd5f957c4bbcf"
        )

    def test_measure_atoms(self):
        measure = polya_boundary_measure(
            PolyaParams(F(1, 2), F(3, 2), QParam(F(1, 2))), kmax=5
        )
        assert [(k, str(m)) for k, m in measure.atoms] == [
            (0, "6916300864189723/9007199254740992"),
            (1, "2864825619400141/18014398509481984"),
            (2, "3492083246786015/72057594037927936"),
            (3, "1161580193384043/72057594037927936"),
            (4, "3194719870068631/576460752303423488"),
            (5, "8915295331828813/4611686018427387904"),
        ]
        assert str(measure.zero_mass) == "4837102932552059/4611686018427387904"

    @pytest.mark.parametrize(
        "a, b, q, kmax, digest",
        [
            (F(1, 2), F(3, 2), F(9, 10), 40,
             "5d42ff9a796b6ea96aead0e6c023027a6eb9ebd52b7f036a4a202d12ad3afa61"),
            (F(5, 2), F(1, 3), F(19, 20), 60,
             "e208d1cdde1697c1b8fcb96363484d9e616239edd4eec27eb07dcbee1fb917a1"),
            # the float atoms overshoot 1 by about 4e-13 and are rescaled
            (F(1, 2), F(1, 2), F(1, 3), 120,
             "7cadbb9075d79fe23a283231790f25b96cc61efa980cebccd38b546a2df51857"),
        ],
    )
    def test_measure_digests(self, a, b, q, kmax, digest):
        assert sha256(measure_json(a, b, q, kmax)) == digest


class TestUrnExactMeasure:
    def test_a_equal_one(self):
        measure = polya_boundary_measure(PolyaParams(1, 2, QParam(F(1, 2))), kmax=5)
        assert [(k, str(m)) for k, m in measure.atoms] == [
            (0, "3/4"), (1, "3/16"), (2, "3/64"), (3, "3/256"), (4, "3/1024"), (5, "3/4096"),
        ]
        assert str(measure.zero_mass) == "1/4096"

    def test_a_other_than_one(self):
        measure = polya_boundary_measure(PolyaParams(2, 1, QParam(F(1, 2))), kmax=3)
        assert [(k, str(m)) for k, m in measure.atoms] == [
            (0, "1649267441661/4398046511104"),
            (1, "4947802324983/17592186044416"),
            (2, "11544872091627/70368744177664"),
            (3, "24739011624915/281474976710656"),
        ]
        assert str(measure.zero_mass) == "25838523253201/281474976710656"

    @pytest.mark.parametrize(
        "a, b, q, kmax, digest",
        [
            (3, 2, F(2, 3), 12,
             "c31a62bfa2ab1003a1a541bb03cc1f65cc8d192b8914695ac194c75b17ce9f39"),
            (1, 3, F(9, 10), 20,
             "211eff7d7dd9110cc28a98c274a351274f0ead5327ea0e455c2b41bc31dfb11c"),
        ],
    )
    def test_measure_digests(self, a, b, q, kmax, digest):
        assert sha256(measure_json(a, b, q, kmax)) == digest


@pytest.mark.parametrize(
    "q, values",
    [
        (F(1), ["1", "1", "2", "6", "24", "120", "720"]),
        (F(1, 2), ["1", "1", "3/2", "21/8", "315/64", "9765/1024", "615195/32768"]),
        (F(3), ["1", "1", "4", "52", "2080", "251680", "91611520"]),
    ],
)
def test_q_factorial(q, values):
    out = [q_factorial(n, QParam(q)) for n in range(7)]
    assert all(isinstance(x, F) for x in out)
    assert [str(x) for x in out] == values


TWO_THIRDS = QParam(F(2, 3))


@pytest.mark.parametrize(
    "x, row",
    [
        (F(0), [("0", "0"), ("0", "0"), ("0", "0"), ("0", "0"), ("1", "1")]),
        # x = q^kappa with kappa = 2: zero beyond k = 2
        (F(4, 9), [("256/6561", "256/6561"), ("40/243", "2600/6561"),
                   ("5/27", "1235/2187"), ("0", "0"), ("0", "0")]),
        (F(1, 3), [("1/81", "1/81"), ("1/12", "65/324"), ("3/16", "247/432"),
                   ("3/32", "65/288"), ("-1/96", "-1/96")]),
        (F(1), [("1", "1"), ("0", "0"), ("0", "0"), ("0", "0"), ("0", "0")]),
    ],
)
def test_extreme_kernel_row(x, row):
    got = [extreme_kernel(4, k, x, TWO_THIRDS) for k in range(5)]
    assert [(str(v), str(w)) for v, w in got] == row


def test_prime_field_inverse_checks_its_input():
    # over GF(2) the exponent p - 2 is 0, so no multiplication checks x
    with pytest.raises(ValueError):
        make_field(2).inv(5)
    with pytest.raises(ValueError):
        make_field(3).inv(3)
    with pytest.raises(ZeroDivisionError):
        make_field(2).inv(0)


# The truncation rule of the infinite q-Pochhammer products (10,000
# terms at most, stop below 1/10^12), recorded while it was still a
# policy object that every caller passed as its default.


@pytest.fixture
def long_integers():
    """Lift the 4300-digit limit on int-to-str conversion: theta
    measures at q = 9/10 carry denominators of about 33,000 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "theta, q, digest",
    [
        (F(1, 2), F(1, 2),
         "5052009b5841d38e5ee3cce050dd9571ccecd2fef9bfa5984a4bcf76f33e7dde"),
        (F(1, 2), F(9, 10),
         "2c488a657f2cd5ff5e00b84b8ff671eebf30d105be2f5c3f7e8d390c8a2ee6ee"),
        (F(3), F(1, 2),
         "e773bddd4035fd14852b21f5ad69f64ba2d5d79cff0c46000b9901e576a55eb6"),
        (F(3), F(9, 10),
         "9b371cdd1c2358a043a2ed92f1b2e6afd4e0806b92b1df7b33213ff9250278de"),
    ],
)
def test_theta_measure_digest(long_integers, theta, q, digest):
    measure = theta_boundary_measure(ThetaParams(theta, QParam(q)), kmax=40)
    assert sha256(json.dumps(measure.to_jsonable())) == digest


@pytest.mark.parametrize(
    "x, q, value, error_bound, terms",
    [
        (F(1, 2), F(1, 2), "0x1.27b810ff7e4ffp-2", "0x1.27b810ff809f6p-41", 39),
        (F(1, 3), F(1, 2), "0x1.df37b044fb119p-2", "0x1.3f7a758353b5bp-41", 39),
        (F(-1, 2), F(1, 3), "0x1.e61db93493b7ep+0", "0x1.d91e47f6a1970p-40", 25),
        (F(-3), F(9, 10), "0x1.7ac9d5ac721adp+27", "0x1.f74e8f3acdcc2p-10", 273),
        (F(1, 3), F(99, 100), "0x1.19b88feffb41fp-53", "0x1.e3c2fe339f3bap-87", 2640),
        (F(0), F(1, 2), "0x1.0000000000000p+0", "0x0.0p+0", 0),
    ],
)
def test_infinite_product(x, q, value, error_bound, terms):
    res = q_pochhammer_infinite(x, QParam(q))
    assert (res.value.hex(), res.error_bound.hex(), res.terms) == (
        value, error_bound, terms
    )


def test_bounds_strings():
    lo, hi = q_pochhammer_bounds(F(1, 2), QParam(F(1, 10)))
    assert str(lo) == (
        "3482633825770823785646260494915584632304430969366916552879993961554429569418621781"
        "/7372800000000000000000000000000000000000000000000000000000000000000000000000000000"
    )
    assert str(hi) == (
        "1934796569873754767897852360935268047036314576341084926364630581378219"
        "/4096000000000000000000000000000000000000000000000000000000000000000000"
    )
    lo, hi = q_pochhammer_bounds(F(-2), QParam(F(1, 10)))
    assert str(lo) == (
        "449238482484989433206810846855524780101107145930356360688719107337122474959"
        "/122070312500000000000000000000000000000000000000000000000000000000000000000"
    )
    assert str(hi) == (
        "577592334623557842694471088814246145844280616196172463742638852290586039233"
        "/156947544642822265625000000000000000000000000000000000000000000000000000000"
    )


@pytest.mark.parametrize(
    "x, q, digest",
    [
        (F(1, 2), F(1, 2),
         "622ebf1e0615b4ad6412ea0f9391c20035546d4c82c93f8d2af4dcb536d6f944"),
        (F(-1), F(1, 2),
         "ff57d425a53953cc8464c5b75bb73f107ac760a1fb1c1c49a21bd52ec2c9f5ec"),
        (F(-3), F(1, 2),
         "97f98154e3a69e01d59fdb733e151bfa5a9d3f91d01b36f272f72807ba6f90f8"),
        (F(1, 3), F(2, 3),
         "2b3836d572c097b07c5518c386048deb3a74052eb8022fc2e285f1932cf327e7"),
    ],
)
def test_bounds_digest(x, q, digest):
    lo, hi = q_pochhammer_bounds(x, QParam(q))
    assert sha256("%s %s" % (lo, hi)) == digest
