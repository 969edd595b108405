"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single summary line with the measured numbers and wall time.
"""

import math
import random
import time

from qknot.braid import markov_moves, parse_braid
from qknot.exactpoly import (
    CyclotomicInt,
    LaurentPoly,
    Q_UNIT,
    cyclotomic_reduce,
    laurent_divmod,
    parse_univariate,
    q_pochhammer,
)
from qknot.deformed_burau import check_right_quantum, rho
from qknot.foxburau import FreeWord, abelianize_check, fox_derivative
from qknot.kashaev import (
    kashaev_series,
    kashaev_value,
    kz_series,
    lobachevsky,
    mahler_measure,
    volume_sequence,
)
from qknot.mcmahon import alexander, colored_jones
from qknot.qweyl import AlgebraElement, eval_E
from qknot.verma_oracle import state_sum_jones

from oracles import braid_relation_holds, braiding_inverse_holds, mono, operator_action_oracle


def test_criterion_01_trefoil_closed_form():
    start = time.perf_counter()
    b = parse_braid("1 1 1")
    for N in range(1, 7):
        closed = LaurentPoly.zero()
        for n in range(N):
            term = LaurentPoly.q_power(n * N)
            for j in range(1, n + 1):
                term = term * (LaurentPoly.one() - LaurentPoly.q_power(N - j))
            closed = closed + term
        closed = LaurentPoly.q_power(N - 1) * closed
        assert colored_jones(b, N, mode="bosonic") == closed
        assert colored_jones(b, N, mode="fermionic") == closed
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1 PASS: trefoil closed form exact for N=1..6 ({elapsed:.2f}s)")


def test_criterion_02_cross_engine_equality(corpus_braids):
    start = time.perf_counter()
    checked = 0
    for name, b in corpus_braids.items():
        for N in (1, 2, 3):
            bosonic = colored_jones(b, N, mode="bosonic")
            assert colored_jones(b, N, mode="fermionic") == bosonic, (name, N)
            assert state_sum_jones(b, N) == bosonic, (name, N)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2 PASS: both engines and both modes agree on {checked} cases ({elapsed:.2f}s)")


def test_criterion_03_normalization_and_invariance(corpus_braids):
    start = time.perf_counter()
    unknot = parse_braid("1")
    for N in range(1, 6):
        assert colored_jones(unknot, N) == LaurentPoly.one()
    moved = 0
    for name, b in corpus_braids.items():
        variants = [
            markov_moves(b, "conjugate", 1),
            markov_moves(b, "stabilize_positive"),
            markov_moves(b, "stabilize_negative"),
        ]
        base_alexander = alexander(b)
        base_jones = {N: colored_jones(b, N) for N in (1, 2, 3)}
        base_kashaev = {N: kashaev_value(b, N).exact for N in range(1, 6)}
        for v in variants:
            assert alexander(v) == base_alexander, name
            for N in (1, 2, 3):
                assert colored_jones(v, N) == base_jones[N], (name, N)
            for N in range(1, 6):
                assert kashaev_value(v, N).exact == base_kashaev[N], (name, N)
            moved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        "criterion 3 PASS: unknot normalized, invariants stable under "
        f"{moved} Markov variants ({elapsed:.2f}s)"
    )


def test_criterion_04_alexander_via_both_pipelines(corpus, corpus_braids):
    start = time.perf_counter()
    stored = {
        "trefoil": "z^-1 - 1 + z",
        "figure_eight": "-z^-1 + 3 - z",
        "5_1": "z^-2 - z^-1 + 1 - z + z^2",
    }
    for entry in corpus:
        b = corpus_braids[entry.name]
        delta = alexander(b)
        assert delta == abelianize_check(b)[1], entry.name
        assert delta == parse_univariate(entry.alexander, "z"), entry.name
        if entry.name in stored:
            assert delta == parse_univariate(stored[entry.name], "z")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 4 PASS: determinant and Fox pipelines match stored values ({elapsed:.2f}s)")


def test_criterion_05_root_of_unity_evaluation(corpus_braids):
    start = time.perf_counter()
    for name, b in corpus_braids.items():
        for N in range(1, 9):
            want = cyclotomic_reduce(colored_jones(b, N), N)
            assert kashaev_value(b, N).exact == want, (name, N)
    left = parse_braid("-1 -1 -1")
    for N in range(1, 11):
        assert kz_series(N).exact == kashaev_value(left, N).exact, N
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 5 PASS: exact values reduce correctly for N=1..8, series N=1..10 ({elapsed:.2f}s)")


def test_criterion_06_series_term_divisibility(corpus_braids):
    start = time.perf_counter()
    for name, b in corpus_braids.items():
        k = max(b.length, 1)
        series = kashaev_series(b, 3 * k)
        for n, term in enumerate(series.terms):
            d = n // k
            if d == 0 or term.is_zero():
                continue
            divisor = q_pochhammer(Q_UNIT, 1, d, 0)
            _, rem = laurent_divmod(term, divisor)
            assert rem.is_zero(), (name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 6 PASS: series terms divisible through n = 3k on the corpus ({elapsed:.2f}s)")


def test_criterion_07_determinant_values():
    start = time.perf_counter()
    trefoil = kashaev_value(parse_braid("1 1 1"), 2).exact
    fig8 = kashaev_value(parse_braid("1 -2 1 -2"), 2).exact
    assert trefoil == CyclotomicInt.from_int(2, -3)
    assert fig8 == CyclotomicInt.from_int(2, 5)
    assert abs(trefoil.as_int()) == 3
    assert abs(fig8.as_int()) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 7 PASS: |<3_1>_2| = 3 and |<4_1>_2| = 5 exactly ({elapsed:.2f}s)")


def test_criterion_08_volume_trend():
    start = time.perf_counter()
    fig8 = parse_braid("1 -2 1 -2")
    orders = list(range(10, 101, 10))
    rows = volume_sequence(fig8, orders)
    rates = [rate for _, _, rate in rows]
    # Kashaev's closed form |<4_1>_N| = sum_{n<N} prod_{j<=n} |1 - zeta^j|^2, with
    # |1 - zeta^j|^2 = 4 sin^2(pi j / N); every summand is positive, so double
    # precision holds it to ~1e-15 at N = 100, where the float state sum does not
    closed_rates = []
    for N in orders:
        total, product = 0.0, 1.0
        for n in range(N):
            if n:
                product *= 4 * math.sin(math.pi * n / N) ** 2
            total += product
        closed_rates.append(2 * math.pi * math.log(total) / N)
    reference = 6 * lobachevsky(math.pi / 3)
    trefoil_rows = volume_sequence(parse_braid("1 1 1"), [100])
    trefoil_rate = trefoil_rows[0][2]
    elapsed = time.perf_counter() - start
    print(
        "criterion 8: figure-eight rates "
        + ", ".join(f"{r:.6f}" for r in rates)
        + "; closed form "
        + ", ".join(f"{r:.6f}" for r in closed_rates)
        + f"; reference {reference:.6f}; trefoil v_100 {trefoil_rate:.6f} ({elapsed:.2f}s)"
    )
    assert elapsed < 600.0
    assert 1.6 <= rates[-1] <= 2.6
    assert 1.6 <= reference <= 2.6
    assert trefoil_rate < 0.5
    # |<4_1>_N| ~ 3^(-1/4) N^(3/2) exp(N V / 2 pi) (Andersen-Hansen 2006, from
    # Kashaev 1997's closed form), so v_N = V + 2 pi (3/2 ln N - 1/4 ln 3) / N
    # + O(N^-2): the rates decrease strictly and approach V from above
    for sequence in (rates, closed_rates):
        assert all(a > b for a, b in zip(sequence, sequence[1:])), sequence
        assert all(rate > reference for rate in sequence), sequence


def test_criterion_09_structural_checks(corpus_braids):
    start = time.perf_counter()
    for name, b in corpus_braids.items():
        assert check_right_quantum(rho(b)) == [], name
    for N in range(1, 5):
        assert braid_relation_holds(N)
        assert braiding_inverse_holds(N)
    for eps in (1, -1):
        signs = (eps,)
        for s in range(5):
            for r in range(5):
                for d in range(5):
                    m = mono({1: (s, r, d)})
                    got = eval_E(AlgebraElement.monomial(m), signs)
                    assert got == operator_action_oracle(m, signs), (eps, s, r, d)
    rng = random.Random(20260814)
    z, one = LaurentPoly.z_power(1), LaurentPoly.one()
    for _ in range(100):
        m = rng.randint(1, 4)
        w = FreeWord.identity()
        for _ in range(rng.randint(0, 12)):
            w = w * FreeWord.generator(rng.randint(1, m), rng.choice([1, -1]))
        total = LaurentPoly.zero()
        for j in range(1, m + 1):
            total = total + fox_derivative(w, j) * (z - one)
        assert total == LaurentPoly.z_power(w.total_exponent()) - one
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 9 PASS: structural identities hold across all four layers ({elapsed:.2f}s)")


def test_criterion_10_mahler_measure(corpus_braids):
    start = time.perf_counter()
    trefoil_measure = mahler_measure(alexander(corpus_braids["trefoil"]))
    fig8_measure = mahler_measure(alexander(corpus_braids["figure_eight"]))
    # largest root of z^2 - 3z + 1 by the quadratic formula
    quadratic_root = (3 + math.sqrt(5)) / 2
    assert abs(trefoil_measure - 1.0) < 1e-6
    assert abs(fig8_measure - 2.618034) < 1e-6
    assert abs(fig8_measure - quadratic_root) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 10 PASS: Mahler measures {trefoil_measure:.6f} and {fig8_measure:.6f} ({elapsed:.2f}s)"
    )
