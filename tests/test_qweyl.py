import pytest
from hypothesis import given, settings, strategies as st

from qknot.exactpoly import LaurentPoly, Q_UNIT, laurent_divmod, q_pochhammer
from qknot.qweyl import (
    AlgebraElement,
    NormalMonomial,
    StrandSigns,
    eval_E,
    normal_order_product,
    reorder_exponent,
)

from oracles import operator_action_oracle

signs2 = st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])).map(StrandSigns)
exps = st.integers(min_value=0, max_value=2)
triples = st.tuples(exps, exps, exps)
monomials2 = st.tuples(triples, triples).map(
    lambda ts: NormalMonomial.from_map({j + 1: t for j, t in enumerate(ts) if t != (0, 0, 0)})
)


def test_strand_signs_validation():
    s = StrandSigns((1, -1))
    assert s.sign(1) == 1
    assert s.sign(2) == -1
    with pytest.raises(ValueError):
        StrandSigns((1, 0))


def test_monomial_accessors():
    m = NormalMonomial.from_map({2: (1, 2, 3)})
    assert m.entries == ((2, 1, 2, 3),)
    assert m.max_index() == 2
    assert NormalMonomial.unit().entries == ()
    assert NormalMonomial.generator("a", 1).entries == ((1, 0, 0, 1),)


def test_reorder_exponents_match_hand_computation():
    # moving left (s1,r1,d1) past right (s2,r2,d2) across the same index
    for r1, d1, s2, r2 in [(0, 1, 0, 1), (1, 0, 1, 0), (2, 1, 1, 2), (0, 3, 2, 0)]:
        assert reorder_exponent(1, r1, d1, s2, r2) == d1 * r2 - 2 * r1 * s2
        assert reorder_exponent(-1, r1, d1, s2, r2) == 2 * d1 * s2 + 2 * r1 * s2 - d1 * r2


def test_product_examples():
    a1 = AlgebraElement.generator("a", 1)
    b1 = AlgebraElement.generator("b", 1)
    c1 = AlgebraElement.generator("c", 1)
    b2 = AlgebraElement.generator("b", 2)
    plus = StrandSigns((1, 1))
    minus = StrandSigns((-1, -1))

    ca = NormalMonomial.from_map({1: (0, 1, 1)})
    assert normal_order_product(a1, c1, plus).terms == {ca: LaurentPoly.q_power(1)}

    cross = NormalMonomial.from_map({1: (0, 0, 1), 2: (1, 0, 0)})
    assert normal_order_product(a1, b2, plus).terms == {cross: LaurentPoly.one()}
    assert normal_order_product(a1, b2, minus).terms == {cross: LaurentPoly.one()}

    ba = NormalMonomial.from_map({1: (1, 0, 1)})
    assert normal_order_product(a1, b1, minus).terms == {ba: LaurentPoly.q_power(2)}


@given(monomials2, monomials2, monomials2, signs2)
@settings(max_examples=40)
def test_product_associativity(x, y, z, signs):
    ex = AlgebraElement.monomial(x)
    ey = AlgebraElement.monomial(y)
    ez = AlgebraElement.monomial(z)
    left = normal_order_product(normal_order_product(ex, ey, signs), ez, signs)
    right = normal_order_product(ex, normal_order_product(ey, ez, signs), signs)
    assert left == right


def test_eval_examples():
    plus = StrandSigns((1,))
    minus = StrandSigns((-1,))
    a1 = AlgebraElement.generator("a", 1)
    c1 = AlgebraElement.generator("c", 1)
    assert eval_E(a1, plus) == LaurentPoly.one() - LaurentPoly.z_power(1)
    assert eval_E(c1, plus) == LaurentPoly.z_power(1)
    assert eval_E(c1, minus) == LaurentPoly.z_power(-1)
    # E_N: z = q^{N-1}
    assert eval_E(a1, plus).subst_z_to_qpower(0).is_zero()
    assert eval_E(a1, plus).subst_z_to_qpower(-1) == LaurentPoly.one() - LaurentPoly.q_power(-1)
    ca = AlgebraElement.monomial(NormalMonomial.from_map({1: (0, 1, 1)}))
    assert eval_E(ca, plus).subst_z_to_qpower(1).is_zero()


def test_oracle_agreement_exhaustive_small_exponents():
    for eps in (1, -1):
        signs = StrandSigns((eps,))
        for s in range(5):
            for r in range(5):
                for d in range(5):
                    mono = NormalMonomial.from_map({1: (s, r, d)})
                    got = eval_E(AlgebraElement.monomial(mono), signs)
                    want = operator_action_oracle(mono, signs)
                    assert got == want, (eps, s, r, d)


@given(monomials2, signs2)
@settings(max_examples=30)
def test_oracle_agreement_two_indices(mono, signs):
    got = eval_E(AlgebraElement.monomial(mono), signs)
    assert got == operator_action_oracle(mono, signs)


@given(triples, triples, signs2)
@settings(max_examples=30)
def test_separated_indices_evaluate_multiplicatively(t1, t2, signs):
    x = AlgebraElement.monomial(NormalMonomial.from_map({1: t1}))
    y = AlgebraElement.monomial(NormalMonomial.from_map({2: t2}))
    product = normal_order_product(x, y, signs)
    assert eval_E(product, signs) == eval_E(x, signs) * eval_E(y, signs)


def test_eval_EN_divisible_by_pochhammer_of_a_degree():
    signs_plus = StrandSigns((1,))
    signs_minus = StrandSigns((-1,))
    for signs in (signs_plus, signs_minus):
        for d in range(1, 7):
            for (s, r) in ((0, 0), (1, 2), (2, 1)):
                mono = NormalMonomial.from_map({1: (s, r, d)})
                value = eval_E(AlgebraElement.monomial(mono), signs).subst_z_to_qpower(6)
                divisor = q_pochhammer(Q_UNIT, 1, d, 0)
                if value.is_zero():
                    continue
                _, rem = laurent_divmod(value, divisor)
                assert rem.is_zero(), (signs.sign(1), s, r, d)


def test_algebra_element_ring_smoke():
    x = AlgebraElement.generator("a", 1)
    assert normal_order_product(AlgebraElement.one(), x, StrandSigns((1,))) == x
    assert (x + AlgebraElement.zero()) == x
    assert x.scale(LaurentPoly.zero()) == AlgebraElement.zero()
    assert x.scale(LaurentPoly.const(2)) + x.scale(LaurentPoly.const(-2)) == AlgebraElement.zero()
