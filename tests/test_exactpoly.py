import cmath
import math

import pytest
from hypothesis import given, strategies as st

from qknot.exactpoly import (
    CyclotomicInt,
    LaurentPoly,
    Q_UNIT,
    cyclotomic_coeffs,
    cyclotomic_reduce,
    embed_complex,
    format_univariate,
    laurent_divmod,
    parse_univariate,
    q_int_binom,
    q_pochhammer,
)

coeffs = st.integers(min_value=-99, max_value=99)
quarter_exps = st.integers(min_value=-48, max_value=48)
q_exps = st.integers(min_value=-50, max_value=50)
z_exps = st.integers(min_value=-4, max_value=4)


def poly_from(triples):
    p = LaurentPoly.zero()
    for c, quarters, ze in triples:
        p = p + LaurentPoly.term(c, quarters, ze)
    return p


polys = st.lists(st.tuples(coeffs, quarter_exps, z_exps), max_size=6).map(poly_from)

q_polys = st.lists(st.tuples(coeffs, q_exps), max_size=6).map(
    lambda ts: poly_from((c, Q_UNIT * e, 0) for c, e in ts)
)

z_polys = st.lists(st.tuples(coeffs, z_exps), max_size=6).map(
    lambda ts: poly_from((c, 0, e) for c, e in ts)
)


def test_constructors_and_accessors():
    p = LaurentPoly.term(3, Q_UNIT * 2, 1)
    assert p == LaurentPoly.const(3) * LaurentPoly.q_power(2) * LaurentPoly.z_power(1)
    assert p.shift(-Q_UNIT * 2, -1) == LaurentPoly.const(3)
    assert LaurentPoly.const(7).as_int() == 7
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.q_power(2).is_univariate_q()
    assert LaurentPoly.z_power(2).is_univariate_z()
    assert not LaurentPoly.term(1, 2).has_integer_q_powers()
    with pytest.raises(ValueError):
        LaurentPoly.term(1, 2).q_terms()
    with pytest.raises(ValueError):
        LaurentPoly.q_power(1).as_int()


@given(polys)
def test_subtraction_of_self_is_zero(p):
    assert (p - p).is_zero()


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a
    assert (a * LaurentPoly.zero()).is_zero()


@given(q_polys, st.integers(min_value=1, max_value=24))
def test_cyclotomic_embedding_matches_direct_evaluation(p, N):
    zeta = cmath.exp(2j * math.pi / N)
    direct = sum(c * zeta**e for e, c in p.q_terms().items())
    embedded = embed_complex(cyclotomic_reduce(p, N))
    assert abs(embedded - direct) <= 1e-9 * (1 + abs(direct))


@given(
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-2, max_value=2),
)
def test_pochhammer_q_inverse_symmetry(base, step, d, z_degree):
    p = q_pochhammer(Q_UNIT * base, step, d, z_degree)
    q = q_pochhammer(-Q_UNIT * base, -step, d, z_degree)
    assert p.subst_q_inverse() == q


def test_pochhammer_small_cases():
    assert q_pochhammer(Q_UNIT * 3, 1, 0, 1) == LaurentPoly.one()
    expected = LaurentPoly.one() - LaurentPoly.q_power(3) * LaurentPoly.z_power(2)
    assert q_pochhammer(Q_UNIT * 3, 1, 1, 2) == expected
    assert q_pochhammer(0, 1, 2, 0).is_zero()


def test_gauss_binomial_known_values():
    assert q_int_binom(4, 2, -1) == parse_univariate("1 + q + 2*q^2 + q^3 + q^4", "q")
    assert q_int_binom(5, 0, -1) == LaurentPoly.one()
    assert q_int_binom(5, 5, 1) == LaurentPoly.one()
    assert q_int_binom(3, 5, -1).is_zero()
    assert q_int_binom(3, -1, 1).is_zero()


def test_gauss_binomial_pascal_recurrence():
    for n in range(1, 9):
        for l in range(1, n):
            lhs = q_int_binom(n, l, -1)
            rhs = q_int_binom(n - 1, l - 1, -1) + LaurentPoly.q_power(l) * q_int_binom(n - 1, l, -1)
            assert lhs == rhs


def test_gauss_binomial_sign_conventions_differ_by_power():
    for n in range(7):
        for l in range(n + 1):
            shift = LaurentPoly.q_power(-l * (n - l))
            assert q_int_binom(n, l, 1) == q_int_binom(n, l, -1) * shift
            assert q_int_binom(n, l, -1) == q_int_binom(n, n - l, -1)


@given(q_polys, q_polys)
def test_divmod_reconstructs_dividend(p, d):
    for lead in (LaurentPoly.q_power(51), -LaurentPoly.q_power(51)):
        quot, rem = laurent_divmod(p, d + lead)
        assert quot * (d + lead) + rem == p


@given(q_polys, q_polys)
def test_divmod_of_exact_multiple_has_zero_remainder(p, d):
    d = d + LaurentPoly.q_power(51)
    quot, rem = laurent_divmod(p * d, d)
    assert rem.is_zero()
    assert quot == p


def test_divmod_rejects_bad_divisors():
    with pytest.raises(ZeroDivisionError):
        laurent_divmod(LaurentPoly.one(), LaurentPoly.zero())
    with pytest.raises(ValueError):
        laurent_divmod(LaurentPoly.one(), LaurentPoly.const(2) * LaurentPoly.q_power(1) + LaurentPoly.one())


def test_cyclotomic_coeffs_frozen_table():
    table = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
        24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
    }
    for N, want in table.items():
        assert tuple(cyclotomic_coeffs(N)) == want


def test_cyclotomic_polynomials_vanish_at_primitive_root():
    for N in range(1, 25):
        zeta = cmath.exp(2j * math.pi / N)
        value = sum(c * zeta**k for k, c in enumerate(cyclotomic_coeffs(N)))
        assert abs(value) < 1e-8


def test_cyclotomic_degrees_sum_to_N():
    for N in range(1, 25):
        divisor_degrees = sum(len(cyclotomic_coeffs(d)) - 1 for d in range(1, N + 1) if N % d == 0)
        assert divisor_degrees == N


def test_cyclotomic_integer_roundtrip_and_units():
    for N in (1, 2, 3, 5, 8, 12):
        assert CyclotomicInt.from_int(N, 7).as_int() == 7
        assert CyclotomicInt.from_int(N, 0).is_zero()
        assert CyclotomicInt.from_int(N, 7).is_rational_int()
        for e in range(N):
            product = LaurentPoly.q_power(e) * LaurentPoly.q_power(N - e)
            assert cyclotomic_reduce(product, N) == CyclotomicInt.from_int(N, 1)


def test_primitive_root_power_sum_vanishes():
    for N in (5, 7, 11):
        p = poly_from((1, Q_UNIT * e, 0) for e in range(N))
        assert cyclotomic_reduce(p, N).is_zero()


def test_embedding_of_power_is_root_of_unity():
    for N in (3, 8, 12):
        value = embed_complex(CyclotomicInt.q_power(N, 1))
        assert abs(value - cmath.exp(2j * math.pi / N)) < 1e-12


@given(q_polys)
def test_format_parse_roundtrip_q(p):
    assert parse_univariate(format_univariate(p, "q"), "q") == p


@given(z_polys)
def test_format_parse_roundtrip_z(p):
    assert parse_univariate(format_univariate(p, "z"), "z") == p


def test_format_is_ascending_with_explicit_signs():
    p = parse_univariate("q^-1 - 1 + q", "q")
    assert format_univariate(p, "q") == "q^-1 - 1 + q"
    assert format_univariate(LaurentPoly.zero(), "q") == "0"
    assert format_univariate(LaurentPoly.const(-3) * LaurentPoly.z_power(2), "z") == "-3*z^2"
