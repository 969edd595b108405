import functools

import pytest
from hypothesis import given, strategies as st

from qknot.braid import BraidWord, parse_braid
from qknot.deformed_burau import (
    QuantumMatrix,
    check_right_quantum,
    classical_specialization,
    rho,
    rho_prime,
    s_matrix,
)
from qknot.exactpoly import LaurentPoly, poly_mat_identity
from qknot.qweyl import AlgebraElement, StrandSigns, normal_order_product


def poly_mat_mul(a, b):
    """Product of two matrices of LaurentPoly entries."""
    return [[sum((x * y for x, y in zip(row, col)), LaurentPoly.zero()) for col in zip(*b)] for row in a]


def letters_of(b):
    return [parse_braid(str(i if s > 0 else -i), strands=b.strands) for (i, s) in b.word]


def dense_rho(b):
    """ρ(γ) as the dense product of the block matrices I ⊕ S ⊕ I: the
    reference for `rho`'s column updates."""
    signs = StrandSigns(b.signs)
    m = b.strands
    one, zero = AlgebraElement.one(), AlgebraElement.zero()

    def identity():
        return [[one if i == j else zero for j in range(m)] for i in range(m)]

    result = identity()
    for j, (i, eps) in enumerate(b.word, start=1):
        block = identity()
        S = s_matrix(eps, j, signs).entries
        for di in range(2):
            for dj in range(2):
                block[i - 1 + di][i - 1 + dj] = S[di][dj]
        product = identity()
        for r in range(m):
            for c in range(m):
                acc = AlgebraElement.zero()
                for t in range(m):
                    x, y = result[r][t], block[t][c]
                    if x and y:
                        acc = acc + normal_order_product(x, y, signs)
                product[r][c] = acc
        result = product
    return QuantumMatrix.from_rows(result, signs)


@st.composite
def braid_words(draw):
    """Braids of 1 to 4 strands and up to 8 letters."""
    m = draw(st.integers(1, 4))
    letter = st.tuples(st.integers(1, max(m - 1, 1)), st.sampled_from([1, -1]))
    return BraidWord(m, tuple(draw(st.lists(letter, max_size=8 if m > 1 else 0))))


def _assert_column_updates_match_dense_product(b):
    M = rho(b)
    assert M == dense_rho(b), b.to_text()
    assert check_right_quantum(M) == [], b.to_text()


def test_rho_matches_dense_product_on_benchmark_rotations_and_corpus(benchmark_rotations, corpus_braids):
    braids = [parse_braid(w) for w in benchmark_rotations] + list(corpus_braids.values())
    for b in braids:
        _assert_column_updates_match_dense_product(b)


@given(braid_words())
def test_rho_matches_dense_product_on_random_braids(b):
    _assert_column_updates_match_dense_product(b)


def test_single_crossing_blocks_are_right_quantum():
    for sign in (1, -1):
        assert check_right_quantum(s_matrix(sign, 1, StrandSigns((sign,)))) == []


def test_rho_of_corpus_braids_is_right_quantum(corpus_braids):
    for b in corpus_braids.values():
        assert check_right_quantum(rho(b)) == []


def test_rho_dimensions_and_identity(corpus_braids):
    for b in corpus_braids.values():
        M = rho(b)
        assert M.dim == b.strands
        assert rho_prime(M).dim == b.strands - 1
    empty = parse_braid("", strands=3)
    identity = rho(empty)
    assert identity.dim == 3
    assert classical_specialization(identity) == poly_mat_identity(3)


def test_rho_prime_of_the_one_strand_unknot_is_empty():
    P = rho_prime(rho(parse_braid("", strands=1)))
    assert P.dim == 0 and P.entries == ()


def test_rho_prime_removes_first_row_and_column(corpus_braids):
    # entry(i, j) is 1-based
    M = rho(corpus_braids["5_2"])
    P = rho_prime(M)
    for i in range(1, P.dim + 1):
        for j in range(1, P.dim + 1):
            assert P.entry(i, j) == M.entry(i + 1, j + 1)


def test_trefoil_rho_prime_is_the_expected_single_entry():
    from qknot.qweyl import NormalMonomial

    P = rho_prime(rho(parse_braid("1 1 1")))
    assert P.dim == 1
    # one crossing index per letter: c_1 a_2 b_3 with coefficient 1
    expected = NormalMonomial.from_map({1: (0, 1, 0), 2: (0, 0, 1), 3: (1, 0, 0)})
    assert P.entry(1, 1).terms == {expected: LaurentPoly.one()}


def test_classical_specialization_of_single_crossings():
    plus = classical_specialization(s_matrix(1, 1, StrandSigns((1,))))
    minus = classical_specialization(s_matrix(-1, 1, StrandSigns((-1,))))
    z = LaurentPoly.z_power(1)
    one = LaurentPoly.one()
    assert plus == [[one - z, one], [z, LaurentPoly.zero()]]
    assert minus == [[LaurentPoly.zero(), z.subst_z_inverse()], [one, one - z.subst_z_inverse()]]
    assert poly_mat_mul(plus, minus) == poly_mat_identity(2)


def test_classical_specialization_is_multiplicative_over_letters(corpus_braids):
    for b in corpus_braids.values():
        if b.length == 0:
            continue
        factors = [classical_specialization(rho(l)) for l in letters_of(b)]
        product = functools.reduce(poly_mat_mul, factors)
        assert product == classical_specialization(rho(b))


def test_scaling_by_central_q_preserves_right_quantum(corpus_braids):
    q = LaurentPoly.q_power(1)
    for name in ("trefoil", "figure_eight", "5_2"):
        M = rho(corpus_braids[name])
        assert check_right_quantum(M.scale(q)) == []


def test_right_quantum_violations_are_reported():
    signs = StrandSigns((1,))
    a = AlgebraElement.generator("a", 1)
    b = AlgebraElement.generator("b", 1)
    bad = QuantumMatrix(
        dim=2,
        entries=((a, b), (b, a)),
        signs=signs,
    )
    assert check_right_quantum(bad) != []


def test_quantum_matrix_shape_validation():
    signs = StrandSigns((1,))
    with pytest.raises(ValueError):
        QuantumMatrix(dim=2, entries=((AlgebraElement.one(),),), signs=signs)
