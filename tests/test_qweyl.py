from hypothesis import given, settings, strategies as st

from qknot.exactpoly import LaurentPoly, Q_UNIT, laurent_divmod, q_pochhammer
from qknot.qweyl import AlgebraElement, eval_E, normal_order_product, reorder_exponent

from oracles import mono, operator_action_oracle

signs2 = st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1]))
exps = st.integers(min_value=0, max_value=2)
triples = st.tuples(exps, exps, exps)
monomials2 = st.tuples(triples, triples).map(lambda ts: mono({j + 1: t for j, t in enumerate(ts)}))


def test_monomial_accessors():
    # a monomial is keyed by its entry tuple ((j, s, r, d), …), the unit by ()
    one = LaurentPoly.one()
    assert AlgebraElement.generator("a", 1).terms == {((1, 0, 0, 1),): one}
    assert AlgebraElement.generator("b", 2).terms == {((2, 1, 0, 0),): one}
    assert AlgebraElement.generator("c", 3).terms == {((3, 0, 1, 0),): one}
    assert AlgebraElement.one().terms == {(): one}
    assert mono({3: (1, 2, 3), 1: (0, 0, 0), 2: (0, 1, 0)}) == ((2, 0, 1, 0), (3, 1, 2, 3))
    assert mono({}) == ()


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
    plus = (1, 1)
    minus = (-1, -1)

    ca = mono({1: (0, 1, 1)})
    assert normal_order_product(a1, c1, plus).terms == {ca: LaurentPoly.q_power(1)}

    cross = mono({1: (0, 0, 1), 2: (1, 0, 0)})
    assert normal_order_product(a1, b2, plus).terms == {cross: LaurentPoly.one()}
    assert normal_order_product(a1, b2, minus).terms == {cross: LaurentPoly.one()}

    ba = mono({1: (1, 0, 1)})
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
    plus = (1,)
    minus = (-1,)
    a1 = AlgebraElement.generator("a", 1)
    c1 = AlgebraElement.generator("c", 1)
    assert eval_E(a1, plus) == LaurentPoly.one() - LaurentPoly.z_power(1)
    assert eval_E(c1, plus) == LaurentPoly.z_power(1)
    assert eval_E(c1, minus) == LaurentPoly.z_power(-1)
    # E_N: z = q^{N-1}
    assert eval_E(a1, plus).subst_z_to_qpower(0).is_zero()
    assert eval_E(a1, plus).subst_z_to_qpower(-1) == LaurentPoly.one() - LaurentPoly.q_power(-1)
    ca = AlgebraElement.monomial(mono({1: (0, 1, 1)}))
    assert eval_E(ca, plus).subst_z_to_qpower(1).is_zero()


def test_oracle_agreement_exhaustive_small_exponents():
    for eps in (1, -1):
        signs = (eps,)
        for s in range(5):
            for r in range(5):
                for d in range(5):
                    m = mono({1: (s, r, d)})
                    got = eval_E(AlgebraElement.monomial(m), signs)
                    want = operator_action_oracle(m, signs)
                    assert got == want, (eps, s, r, d)


@given(monomials2, signs2)
@settings(max_examples=30)
def test_oracle_agreement_two_indices(m, signs):
    got = eval_E(AlgebraElement.monomial(m), signs)
    assert got == operator_action_oracle(m, signs)


@given(triples, triples, signs2)
@settings(max_examples=30)
def test_separated_indices_evaluate_multiplicatively(t1, t2, signs):
    x = AlgebraElement.monomial(mono({1: t1}))
    y = AlgebraElement.monomial(mono({2: t2}))
    product = normal_order_product(x, y, signs)
    assert eval_E(product, signs) == eval_E(x, signs) * eval_E(y, signs)


def test_eval_EN_divisible_by_pochhammer_of_a_degree():
    for signs in ((1,), (-1,)):
        for d in range(1, 7):
            for (s, r) in ((0, 0), (1, 2), (2, 1)):
                value = eval_E(AlgebraElement.monomial(mono({1: (s, r, d)})), signs).subst_z_to_qpower(6)
                divisor = q_pochhammer(Q_UNIT, 1, d, 0)
                if value.is_zero():
                    continue
                _, rem = laurent_divmod(value, divisor)
                assert rem.is_zero(), (signs, s, r, d)


def test_algebra_element_ring_smoke():
    x = AlgebraElement.generator("a", 1)
    assert normal_order_product(AlgebraElement.one(), x, (1,)) == x
    assert (x + AlgebraElement.zero()) == x
    assert x.scale(LaurentPoly.zero()) == AlgebraElement.zero()
    assert x.scale(LaurentPoly.const(2)) + x.scale(LaurentPoly.const(-2)) == AlgebraElement.zero()
