import random

from hypothesis import given, strategies as st

from qknot import foxburau
from qknot.braid import parse_braid
from qknot.deformed_burau import classical_specialization, rho
from qknot.exactpoly import LaurentPoly
from qknot.foxburau import FreeWord, abelianize_check, apply_artin, artin_action, fox_derivative
from qknot.mcmahon import alexander

letters = st.integers(min_value=-4, max_value=4).filter(lambda i: i != 0)
word_lists = st.lists(letters, max_size=10)


def relators(b):
    """r_i = β(z_i)·z_i^{-1}: the knot-group relators of the closure."""
    return [artin_action(b, i) * FreeWord.generator(i, -1) for i in range(1, b.strands + 1)]


def word_of(ls):
    w = FreeWord.identity()
    for i in ls:
        w = w * FreeWord.generator(abs(i), 1 if i > 0 else -1)
    return w


def fundamental_identity_holds(w, m):
    """Σ_j ∂w/∂z_j·(z − 1) = z^{ε(w)} − 1, Fox's fundamental formula
    abelianized, with ε(w) the exponent sum of w."""
    total = LaurentPoly.zero()
    for j in range(1, m + 1):
        total = total + fox_derivative(w, j) * (LaurentPoly.z_power(1) - LaurentPoly.one())
    return total == LaurentPoly.z_power(w.total_exponent()) - LaurentPoly.one()


def checked_braids(corpus_braids, benchmark_rotations):
    """The corpus, every benchmark rotation and a 4-strand word of 11
    crossings."""
    texts = [*benchmark_rotations, "-1 3 2 -1 3 3 -1 2 -1 2 -1"]
    return {**corpus_braids, **{text: parse_braid(text) for text in texts}}


@given(word_lists)
def test_free_words_reduce(ls):
    w = word_of(ls)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()
    assert w.total_exponent() == sum(1 if i > 0 else -1 for i in ls)


def test_fox_derivative_of_generators():
    # abelianized: ∂z_1/∂z_1 = 1, ∂z_1/∂z_2 = 0 and ∂z_1^{-1}/∂z_1 = −z^{-1}
    x = FreeWord.generator(1, 1)
    assert fox_derivative(x, 1) == LaurentPoly.one()
    assert fox_derivative(x, 2) == LaurentPoly.zero()
    assert fox_derivative(FreeWord.generator(1, -1), 1) == -LaurentPoly.z_power(-1)


@given(word_lists, word_lists, st.integers(min_value=1, max_value=4))
def test_fox_product_rule(ls_u, ls_v, j):
    # ∂(uv) = ∂u + u·∂v, with u abelianized to z^{ε(u)}
    u = word_of(ls_u)
    v = word_of(ls_v)
    lhs = fox_derivative(u * v, j)
    rhs = fox_derivative(u, j) + LaurentPoly.z_power(u.total_exponent()) * fox_derivative(v, j)
    assert lhs == rhs


def test_fundamental_identity_on_seeded_random_words():
    rng = random.Random(20260814)
    for _ in range(100):
        m = rng.randint(1, 4)
        length = rng.randint(0, 12)
        ls = [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(length)]
        assert fundamental_identity_holds(word_of(ls), m)


def test_artin_action_preserves_exponent_sum(corpus_braids):
    for b in corpus_braids.values():
        for i in range(1, b.strands + 1):
            assert artin_action(b, i).total_exponent() == 1


def test_artin_action_is_a_word_map(corpus_braids):
    b = corpus_braids["figure_eight"]
    u = word_of([1, 2, -1])
    v = word_of([3, 3])
    assert apply_artin(b, u * v) == apply_artin(b, u) * apply_artin(b, v)
    assert apply_artin(b, FreeWord.identity()).is_identity()


def test_relators_satisfy_fundamental_identity(corpus_braids):
    for b in corpus_braids.values():
        for r in relators(b):
            assert fundamental_identity_holds(r, b.strands)


def test_relators_have_zero_exponent_sum(corpus_braids):
    # beta(z_i) is a conjugate of a single generator, so beta(z_i) z_i^{-1} sums to 0
    for b in corpus_braids.values():
        for r in relators(b):
            assert r.total_exponent() == 0


def test_abelianized_jacobian_is_reversed_transposed_burau(corpus_braids, benchmark_rotations):
    for name, b in checked_braids(corpus_braids, benchmark_rotations).items():
        ab = abelianize_check(b)[0]
        m = b.strands
        classical = classical_specialization(rho(b.reversed_word()))
        transposed = [[classical[j][i] for j in range(m)] for i in range(m)]
        assert ab == transposed, name


def test_both_alexander_pipelines_agree(corpus, corpus_braids, benchmark_rotations):
    from qknot.exactpoly import parse_univariate

    for entry in corpus:
        fox_delta = abelianize_check(corpus_braids[entry.name])[1]
        assert fox_delta == parse_univariate(entry.alexander, "z")
    for name, b in checked_braids(corpus_braids, benchmark_rotations).items():
        assert abelianize_check(b)[1] == alexander(b), name


def test_fox_route_imports_only_braid_and_exactpoly_from_the_package(package_imports):
    # the Fox route checks the operator-algebra Alexander route, so the two
    # may share exactpoly (the determinant and its normalization) and no more
    local = package_imports(foxburau.__file__)
    assert local <= {"braid", "exactpoly"}, local
