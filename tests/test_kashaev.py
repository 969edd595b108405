import cmath
import logging
import math

import pytest

from qknot import kashaev, mcmahon, verma_oracle
from qknot.braid import cyclic_rotations, markov_moves, parse_braid
from qknot.exactpoly import (
    CyclotomicInt,
    LaurentPoly,
    Q_UNIT,
    cyclotomic_reduce,
    embed_complex,
    parse_univariate,
)
from qknot.kashaev import (
    _poly_from_whole_powers,
    _prefactor_exponent,
    bloch_wigner,
    kashaev_series,
    kashaev_value,
    kz_series,
    lobachevsky,
    mahler_measure,
    reference_volumes,
    volume_sequence,
)
from qknot.mcmahon import (
    alexander,
    braid_c_sum,
    _rotation_classes,
    colored_jones,
    folded_series_sum,
    series_word,
)
from qknot.verma_oracle import _NumericTables, numeric_state_sum, state_sum_jones, state_sum_word


def test_exact_value_is_reduced_colored_jones(corpus_braids):
    for name, b in corpus_braids.items():
        for N in range(1, 9):
            got = kashaev_value(b, N).exact
            want = cyclotomic_reduce(colored_jones(b, N), N)
            assert got == want, (name, N)


def test_folded_series_is_state_sum_mod_q_N_minus_1(corpus_braids):
    # residue by residue, which is stronger than agreeing mod Φ_N: shifted
    # by the prefactor, the folded series is J_N mod (q^N − 1)
    cases = [(name, b, N) for name, b in corpus_braids.items() for N in range(1, 8)]
    cases += [("5_2", corpus_braids["5_2"], N) for N in (8, 9)]
    cases += [("6_1", parse_braid("1 1 2 -1 -3 2 -3"), N) for N in range(1, 7)]
    for name, word in (("6_2", "1 1 1 -2 1 -2"), ("6_3", "1 1 -2 1 -2 -2")):
        cases += [(name, parse_braid(word), N) for N in range(1, 9)]
    for name, b, N in cases:
        folded = folded_series_sum(braid_c_sum(b), b.signs, N)
        shift = _prefactor_exponent(b)
        want = [0] * N
        for e, c in state_sum_jones(b, N).q_terms().items():
            want[e % N] += c
        assert [folded[(e - shift) % N] for e in range(N)] == want, (name, N)


def _value_on_word(b, N):
    """The exact value of b's closure from the folded series on b itself."""
    total = folded_series_sum(braid_c_sum(b), b.signs, N)
    poly = _poly_from_whole_powers(dict(enumerate(total))).shift(Q_UNIT * _prefactor_exponent(b))
    return cyclotomic_reduce(poly, N)


@pytest.mark.parametrize("word,rotation,classes", [
    ("1 1 1 2 -1 2", "1 1 2 -1 2 1", 4),
    ("1 1 2 -1 -3 2 -3", "1 2 -1 -3 2 -3 1", 3),
])
def test_exact_value_sums_on_the_cheapest_rotation(word, rotation, classes):
    b, cheap = parse_braid(word), parse_braid(rotation)
    assert (series_word(b), len(_rotation_classes(b))) == (cheap, classes)
    assert kashaev_value(b, 4).exact == _value_on_word(cheap, 4) == _value_on_word(b, 4)


@pytest.mark.parametrize("word,classes", [("1 -2 1 -2", 1), ("1 1 1 1 1", 1), ("1 1 1 -2 1 -2", 4)])
def test_ties_keep_the_given_word(word, classes):
    # 4_1's two rotations have one C, crossings aside, and 5_1 has one
    # rotation; two of 6_2's other classes have more monomials, one as many
    b = parse_braid(word)
    assert (series_word(b), len(_rotation_classes(b))) == (b, classes)


def test_summed_word_is_planned_by_monomial_counts_alone(benchmark_rotations, monkeypatch):
    # the plan reads no clock: it is the first class with the fewest
    # C-monomials, and the exact value sums that word's C at every N
    summed = []
    monkeypatch.setattr(kashaev, "folded_series_sum",
                        lambda C, signs, N: summed.append((C, signs)) or folded_series_sum(C, signs, N))
    for text in benchmark_rotations:
        b = parse_braid(text)
        classes = _rotation_classes(b)
        counts = [len(braid_c_sum(w).terms) for w in classes]
        want = classes[counts.index(min(counts))]
        assert series_word(b) == want, text
        for N in (2, 5, 10):
            summed.clear()
            kashaev_value(b, N)
            assert summed == [(braid_c_sum(want), want.signs)], (text, N)


def test_chosen_rotation_steps_the_fewest_kernel_rows(monkeypatch):
    # the prediction reads only C, so hold it to the kernel's own count of
    # rows stepped, not to a timing
    rows = []
    step = mcmahon._folded_step

    def counted(R, D, B, V, mono, N):
        rows.append(len(V))
        return step(R, D, B, V, mono, N)

    monkeypatch.setattr(mcmahon, "_folded_step", counted)
    N = 7
    for word in ("1 1 1 2 -1 2", "1 1 2 -1 -3 2 -3", "1 1 1 -2 1 -2", "1 1 -2 1 -2 -2"):
        stepped = {}
        for w in cyclic_rotations(parse_braid(word)):
            rows.clear()
            folded_series_sum(braid_c_sum(w), w.signs, N)
            stepped[w] = sum(rows)
        assert len(set(stepped.values())) > 1, word
        for w in stepped:
            rows.clear()
            kashaev_value(w, N)
            chosen = series_word(w)
            assert sum(rows) == stepped[chosen] <= stepped[w], w.to_text()
            # C's monomials tie five of 6_3's rotations, which step 1,246
            # or 2,478 rows; the count alone keeps the given word there
            if word != "1 1 -2 1 -2 -2":
                assert stepped[chosen] == min(stepped.values()), w.to_text()


@pytest.mark.parametrize("route", ["_folded_step", "braid_c_sum"])
def test_kernel_runs_on_every_rotation(monkeypatch, benchmark_rotations, route):
    # the value on the word summed on is the value on the given word; a
    # wrapper round either callable the plan goes through is called, and
    # changes neither the value nor the word summed on
    cases = [(parse_braid(w), N) for w in benchmark_rotations for N in (2, 3, 5)]
    cases.append((parse_braid("1 1 1 2 -1 2"), 13 if route == "_folded_step" else 7))
    planned = {b: series_word(b) for b, _ in cases}
    calls = [0]
    real = getattr(mcmahon, route)

    def wrapped(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(mcmahon, route, wrapped)
    for b, N in cases:
        calls[0] = 0
        value = kashaev_value(b, N).exact
        assert calls[0] > 0, (b.to_text(), N)
        assert series_word(b) == planned[b], (b.to_text(), N)
        assert value == _value_on_word(b, N), (b.to_text(), N)


def test_exact_value_logs_the_word_it_sums_on(caplog):
    b = parse_braid("1 1 1 2 -1 2")
    with caplog.at_level(logging.DEBUG, logger="qknot.kashaev"):
        kashaev_value(b, 5)
        kashaev_value(b, 5, mode="float")
    records = [rec for rec in caplog.records if rec.name == "qknot.kashaev"]
    assert [rec.levelno for rec in records] == [logging.DEBUG]
    # C of 1 1 1 2 -1 2 has 6 monomials; its rotations 1 and 2 have 3 each,
    # and the first of them is chosen
    assert records[0].args == (5, "1 1 2 -1 2 1", "1 1 1 2 -1 2", 6, 3)
    assert records[0].getMessage().startswith("kashaev N = 5: series on '1 1 2 -1 2 1' of ")


def test_universal_series_evaluates_to_left_trefoil_values():
    left = parse_braid("-1 -1 -1")
    magnitudes = {1: 1.0, 2: 3.0, 3: 5.567764, 6: 15.394804, 10: 31.778665}
    for N in range(1, 11):
        series_value = kz_series(N)
        direct = kashaev_value(left, N)
        assert series_value.exact == direct.exact, N
        if N in magnitudes:
            assert abs(abs(series_value.approx) - magnitudes[N]) < 1e-5


def test_determinant_magnitudes_in_the_cyclotomic_ring():
    trefoil = parse_braid("1 1 1")
    fig8 = parse_braid("1 -2 1 -2")
    assert kashaev_value(trefoil, 2).exact == CyclotomicInt.from_int(2, -3)
    assert kashaev_value(fig8, 2).exact == CyclotomicInt.from_int(2, 5)
    assert abs(kashaev_value(trefoil, 2).approx) == 3.0
    assert abs(kashaev_value(fig8, 2).approx) == 5.0


def test_figure_eight_matches_classical_factorial_sum():
    # |<4_1>_N| = sum_n prod_{j<=n} |1 - zeta^j|^2, an independent closed form
    fig8 = parse_braid("1 -2 1 -2")
    # N = 60 stays on int64 rows of up to 50 bits; N = 80 leaves int64
    for N in (2, 3, 5, 7, 9, 20, 40, 60, 80):
        zeta = cmath.exp(2j * math.pi / N)
        total = 0.0
        for n in range(N):
            product = 1.0
            for j in range(1, n + 1):
                product *= abs(1 - zeta**j) ** 2
            total += product
        got = abs(embed_complex(kashaev_value(fig8, N).exact))
        assert abs(got - total) <= 1e-9 * total


def test_frozen_figure_eight_value():
    fig8 = parse_braid("1 -2 1 -2")
    assert kashaev_value(fig8, 5).exact.coeffs == (44, 0, -4, -4)


def test_markov_moves_leave_kashaev_unchanged(corpus_braids):
    for name in ("trefoil", "figure_eight"):
        b = corpus_braids[name]
        variants = [
            markov_moves(b, "conjugate", 1),
            markov_moves(b, "stabilize_positive"),
            markov_moves(b, "stabilize_negative"),
        ]
        for N in (2, 5):
            base = kashaev_value(b, N).exact
            for v in variants:
                assert kashaev_value(v, N).exact == base, (name, N)


def test_float_mode_tracks_exact_mode(corpus_braids):
    for name, b in corpus_braids.items():
        for N in (2, 3, 5, 7):
            exact = embed_complex(kashaev_value(b, N).exact)
            approx = kashaev_value(b, N, mode="float").approx
            assert abs(approx - exact) <= 1e-9 * (1 + abs(exact)), (name, N)


def test_mirror_word_conjugates_the_value(corpus_braids):
    for name in ("trefoil", "5_2", "figure_eight_conjugated"):
        b = corpus_braids[name]
        for N in (3, 7):
            value = kashaev_value(b, N, mode="float").approx
            mirrored = kashaev_value(b.mirror(), N, mode="float").approx
            assert abs(mirrored - value.conjugate()) <= 1e-9 * (1 + abs(value))


def test_series_truncation_shape():
    trefoil = parse_braid("1 1 1")
    series = kashaev_series(trefoil, 9)
    assert len(series.terms) == 10
    assert series.prefactor_exponent == -1
    assert series.terms[0] == LaurentPoly.one()


def test_rejects_bad_orders():
    trefoil = parse_braid("1 1 1")
    with pytest.raises(ValueError):
        kashaev_value(trefoil, 0)
    with pytest.raises(ValueError):
        kashaev_value(parse_braid("1 1"), 3)
    with pytest.raises(ValueError):
        volume_sequence(trefoil, [1, 5])
    assert volume_sequence(trefoil, []) == []


def test_volume_sequence_rows_and_rate_formula():
    fig8 = parse_braid("1 -2 1 -2")
    rows = volume_sequence(fig8, [5, 7, 9])
    assert [N for N, _, _ in rows] == [5, 7, 9]
    for N, abs_value, rate in rows:
        assert abs_value > 0
        assert rate == pytest.approx(2 * math.pi * math.log(abs_value) / N, rel=1e-12)


def test_volume_sequence_logs_each_order_with_its_seconds(caplog):
    fig8 = parse_braid("1 -2 1 -2")
    with caplog.at_level(logging.DEBUG, logger="qknot.kashaev"):
        rows = volume_sequence(fig8, [9, 5, 7])
    records = [rec for rec in caplog.records if rec.name == "qknot.kashaev"]
    assert len(records) == len(rows)
    for rec, (N, mag, _) in zip(records, rows):
        assert rec.levelno == logging.DEBUG
        assert rec.args[:2] == (N, mag) and rec.args[2] >= 0
        assert rec.getMessage().startswith(f"volume N = {N}: ") and rec.getMessage().endswith(" s")


def test_volume_sequence_follows_request_order():
    fig8 = parse_braid("1 -2 1 -2")
    orders = [9, 5, 7, 5]
    rows = volume_sequence(fig8, orders)
    want = []
    for N in orders:
        mag = abs(numeric_state_sum(fig8, N))
        want.append((N, mag, 2 * math.pi * math.log(mag) / N))
    assert rows == want


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_float_values_are_the_sum_on_the_planned_word(benchmark_rotations):
    for word in benchmark_rotations:
        b = parse_braid(word)
        rows = volume_sequence(b, [5, 10])
        for N, mag, _ in rows:
            want = numeric_state_sum(state_sum_word(b, N, _NumericTables), N)
            assert _bits(kashaev_value(b, N, mode="float").approx) == _bits(want), (word, N)
            assert mag == abs(want), (word, N)


def test_volume_sequence_probes_each_rotation_once(monkeypatch):
    probed = []
    entries = verma_oracle.state_sum_entries

    def counted(w, N):
        probed.append(w.to_text())
        return entries(w, N)

    monkeypatch.setattr(verma_oracle, "state_sum_entries", counted)
    verma_oracle._probe.cache_clear()
    b = parse_braid("1 1 1 2 -1 2")
    volume_sequence(b, [10, 15, 10, 3])
    assert sorted(probed) == sorted(w.to_text() for w in cyclic_rotations(b))


@pytest.mark.parametrize("word,N,tolerance", [
    ("1 1 1 2 -1 2", 25, 1e-10),
    ("1 1 1 2 -1 2", 30, 1e-10),
    ("1 1 2 -1 -3 2 -3", 10, 1e-12),
])
def test_float_value_from_every_rotation_is_near_the_exact_value(word, N, tolerance):
    # observed, not certified (no error bound covers the float sum): summed
    # on its given word, rotation 0 of 5_2 is off by 6.8e-4 at N = 25 and by
    # 105% at N = 30; the planned rotation was within 4e-14 on every one
    b = parse_braid(word)
    exact = kashaev_value(b, N).approx
    for w in cyclic_rotations(b):
        approx = kashaev_value(w, N, mode="float").approx
        assert abs(approx - exact) <= tolerance * abs(exact), (w.to_text(), N)


def test_mahler_measure_reference_values(corpus_braids):
    golden_ratio = (1 + math.sqrt(5)) / 2
    assert mahler_measure(alexander(corpus_braids["trefoil"])) == pytest.approx(1.0, abs=1e-9)
    assert mahler_measure(alexander(corpus_braids["figure_eight"])) == pytest.approx(
        golden_ratio**2, abs=1e-9
    )
    assert mahler_measure(alexander(corpus_braids["5_2"])) == pytest.approx(2.0, abs=1e-9)
    # 5_1: every root lies on the unit circle
    assert mahler_measure(alexander(corpus_braids["5_1"])) == pytest.approx(1.0, abs=1e-9)
    # 6_1: Δ ∝ (2z − 1)(z − 2), leading coefficient 2 and one root at 2
    six_one = alexander(parse_braid("1 1 2 -1 -3 2 -3"))
    assert mahler_measure(six_one) == pytest.approx(4.0, abs=1e-9)
    # repeated roots: the granny knot's Δ = (z² − z + 1)², and 3(z − 2)³(z² + z + 1)²,
    # whose measure 3·2³ counts the root at 2 three times
    assert mahler_measure(alexander(parse_braid("1 1 1 2 2 2"))) == pytest.approx(1.0, abs=1e-9)
    cubed = parse_univariate("-24 - 12*z - 18*z^2 + 27*z^3 + 9*z^5 - 12*z^6 + 3*z^7", "z")
    assert mahler_measure(cubed) == pytest.approx(24.0, abs=1e-9)
    assert mahler_measure(LaurentPoly.const(5)) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        mahler_measure(LaurentPoly.zero())


def test_lobachevsky_function_identities():
    for theta in (0.3, 0.7, 1.1):
        assert lobachevsky(2 * theta) == pytest.approx(
            2 * lobachevsky(theta) + 2 * lobachevsky(theta + math.pi / 2), abs=1e-12
        )
        assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-12)
        assert lobachevsky(theta + math.pi) == pytest.approx(lobachevsky(theta), abs=1e-12)
    assert lobachevsky(0.0) == pytest.approx(0.0, abs=1e-12)
    assert lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_bloch_wigner_reference_points():
    catalan = 0.915965594177219015054603514932
    assert bloch_wigner(1j) == pytest.approx(catalan, abs=1e-12)
    assert bloch_wigner(0.5 + 0j) == pytest.approx(0.0, abs=1e-12)
    z = 0.3 + 0.8j
    assert bloch_wigner(z.conjugate()) == pytest.approx(-bloch_wigner(z), abs=1e-12)


def test_reference_volumes_match_stored_corpus(corpus):
    refs = reference_volumes()
    assert refs["figure_eight"] == pytest.approx(2.029883212819308, abs=1e-12)
    assert refs["5_2"] == pytest.approx(2.828122088330783, abs=1e-12)
    stored = {e.name: e.volume for e in corpus if e.volume is not None}
    for name, vol in refs.items():
        assert stored[name] == pytest.approx(vol, abs=1e-12)
    assert refs["figure_eight"] == pytest.approx(6 * lobachevsky(math.pi / 3), abs=1e-12)
