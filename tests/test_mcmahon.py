import importlib.util
import logging
import math
import operator
import time
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qknot import exactpoly, mcmahon
from qknot.braid import BraidWord, cyclic_rotations, parse_braid
from qknot.deformed_burau import QuantumMatrix, rho
from qknot.exactpoly import LaurentPoly, Q_UNIT, parse_univariate, q_pochhammer, row_norms
from qknot.kashaev import kashaev_series, kashaev_value
from qknot.mcmahon import (
    _apply_mono,
    _dadd,
    _dconv,
    _efactor_items,
    _eval_folded,
    _eval_population,
    _fermionic_series,
    _folded_step,
    _groups,
    _mono_terms,
    _rotation_classes,
    alexander,
    braid_c_arrays,
    braid_c_sum,
    braid_entry_terms,
    braid_graded_arrays,
    braid_setup,
    c_parts,
    colored_jones,
    fermionic_terms,
    folded_series_sum,
    series_word,
)
from qknot.qweyl import AlgebraElement, normal_order_product
from qknot.verma_oracle import state_sum_jones

from oracles import mono, qdet, series_jones_on_word, state_sum_jones_on_word, ungraded_fermionic_jones
from test_deformed_burau import braid_words


def trefoil_closed_form(N):
    total = LaurentPoly.zero()
    for n in range(N):
        term = LaurentPoly.q_power(n * N)
        for j in range(1, n + 1):
            term = term * (LaurentPoly.one() - LaurentPoly.q_power(N - j))
        total = total + term
    return LaurentPoly.q_power(N - 1) * total


def test_trefoil_matches_closed_form_summation():
    b = parse_braid("1 1 1")
    for N in range(1, 7):
        want = trefoil_closed_form(N)
        assert colored_jones(b, N, mode="bosonic") == want
        assert colored_jones(b, N, mode="fermionic") == want


def test_fermionic_and_bosonic_modes_agree_on_corpus(corpus_braids):
    for b in corpus_braids.values():
        for N in (1, 2, 3):
            assert colored_jones(b, N, mode="fermionic") == colored_jones(b, N, mode="bosonic")


def test_unknot_normalization():
    b = parse_braid("1")
    for N in range(1, 6):
        assert colored_jones(b, N) == LaurentPoly.one()


def test_one_strand_unknot_is_one_on_every_route():
    b = parse_braid("", strands=1)
    one = LaurentPoly.one()
    for N in range(1, 5):
        assert colored_jones(b, N, mode="bosonic") == one
        assert colored_jones(b, N, mode="fermionic") == one
        assert state_sum_jones(b, N) == one
        assert kashaev_value(b, N).exact.to_poly() == one
        assert kashaev_value(b, N).approx == 1
        assert kashaev_value(b, N, mode="float").approx == 1
    assert alexander(b) == one


# each route and order that reads the per-braid setup
SETUP_READERS = {
    "bosonic N=2": lambda b: colored_jones(b, 2, mode="bosonic"),
    "bosonic N=3": lambda b: colored_jones(b, 3, mode="bosonic"),
    "bosonic N=4": lambda b: colored_jones(b, 4, mode="bosonic"),
    "fermionic N=2": lambda b: colored_jones(b, 2, mode="fermionic"),
    "alexander": alexander,
    "kashaev N=5": lambda b: kashaev_value(b, 5),
    "kashaev series": lambda b: kashaev_series(b, 6),
}


PER_BRAID = (braid_setup, braid_c_sum, c_parts, braid_c_arrays, braid_graded_arrays, braid_entry_terms)


def _clear_setup():
    for cache in PER_BRAID:
        cache.cache_clear()


def test_one_setup_serves_every_route_and_order(monkeypatch):
    calls = []
    real_rho = mcmahon.rho
    monkeypatch.setattr(mcmahon, "rho", lambda b: calls.append(b) or real_rho(b))
    b = parse_braid("1 -2 1 -2")
    _clear_setup()
    shared = {name: route(b) for name, route in SETUP_READERS.items()}
    assert calls == [b]
    for name, route in SETUP_READERS.items():
        _clear_setup()
        assert route(b) == shared[name], name
    assert len(calls) == 1 + len(SETUP_READERS)
    # a braid and its mirror are different keys
    trefoil = parse_braid("1 1 1")
    _clear_setup()
    calls.clear()
    assert colored_jones(trefoil, 2) != colored_jones(trefoil.mirror(), 2)
    assert colored_jones(trefoil.mirror(), 3) == colored_jones(trefoil, 3).subst_q_inverse()
    assert calls == [trefoil, trefoil.mirror()]


def test_benchmark_cache_reset_empties_the_setup_caches():
    # perfbench/run.py imports tracer.py from its own directory, not as a package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    b = parse_braid("1 1 1")
    kashaev_value(b, 3)
    colored_jones(b, 2, mode="fermionic")
    colored_jones(b, 2, mode="bosonic")
    caches = (*PER_BRAID, exactpoly._unit_roots)
    assert all(cache.cache_info().currsize for cache in caches)
    tracer.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def test_minors_are_built_once_per_braid(monkeypatch):
    # the graded fermionic route and C's sum read the same parts, whichever
    # asks first.  The plan reads C of each of 6_1's three rotation classes:
    # the routes make the products of one build of each class's minors, and
    # a repeat call makes none
    calls = []
    real_product = mcmahon.normal_order_product
    monkeypatch.setattr(mcmahon, "normal_order_product", lambda *args: calls.append(1) or real_product(*args))
    b = parse_braid("1 1 2 -1 -3 2 -3")
    assert len(_rotation_classes(b)) == 3
    _clear_setup()
    for w in _rotation_classes(b):
        c_parts(braid_setup(w)[1])
    once = len(calls)
    _clear_setup()
    calls.clear()
    colored_jones(b, 2, mode="fermionic")
    kashaev_series(b, 3)
    colored_jones(b, 3, mode="fermionic")
    assert len(calls) == once > 0
    calls.clear()
    colored_jones(b, 2, mode="fermionic")
    colored_jones(b, 4, mode="bosonic")
    kashaev_series(b, 3)
    kashaev_value(b, 3)
    assert calls == []
    # nor does a repeat kashaev_series build C's monomial arrays; a cold one
    # builds them once
    arrays = []
    real_arrays = mcmahon._mono_arrays
    monkeypatch.setattr(mcmahon, "_mono_arrays", lambda *args: arrays.append(1) or real_arrays(*args))
    kashaev_series(b, 5)
    assert arrays == []
    braid_c_arrays.cache_clear()
    kashaev_series(b, 5)
    kashaev_series(b, 2)
    assert len(arrays) == 1
    _, Mq = braid_setup(b)
    assert braid_c_sum(b) == sum((part for _, part in c_parts(Mq)), AlgebraElement.zero())
    assert [J for J, _ in c_parts(Mq)] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _assert_parts_are_permutation_sums(b):
    for M in braid_setup(b):
        parts = c_parts(M)
        assert [J for J, _ in parts] == [J for n in range(1, M.dim + 1) for J in combinations(range(M.dim), n)]
        for J, part in parts:
            minor = QuantumMatrix.from_rows([[M.entries[i][j] for j in J] for i in J], M.signs)
            assert part == (qdet(minor) if len(J) % 2 else -qdet(minor)), (b.to_text(), J)


@settings(max_examples=60)
@given(braid_words())
def test_c_parts_are_the_permutation_sum_minors_on_random_braids(b):
    _assert_parts_are_permutation_sums(b)


def test_c_parts_are_the_permutation_sum_minors(corpus_braids, benchmark_rotations):
    braids = [*corpus_braids.values(), *map(parse_braid, benchmark_rotations)]
    for b in braids + [parse_braid("-1 3 2 -1 3 3 -1 2 -1 2 -1")]:
        _assert_parts_are_permutation_sums(b)


def _assert_keys_are_entry_tuples(elem, k, where):
    """Every key of elem is ((j, s, r, d), …) with 1 ≤ j ≤ k strictly
    increasing, no all-zero (s, r, d) and no negative exponent."""
    for key in elem.terms:
        assert type(key) is tuple and all(type(e) is tuple and len(e) == 4 for e in key), (where, key)
        js = [e[0] for e in key]
        assert js == sorted(set(js)) and all(1 <= j <= k for j in js), (where, key)
        assert all(min(e[1:]) >= 0 and any(e[1:]) for e in key), (where, key)


def _assert_algebra_keys_are_entry_tuples(b, pairs=()):
    """On ρ, ρ′, q·ρ′, every c_parts entry, and the products of `pairs` and
    of every two entries of q·ρ′."""
    P, Q = braid_setup(b)
    for name, M in (("rho", rho(b)), ("rho'", P), ("q rho'", Q)):
        for e in (e for row in M.entries for e in row):
            _assert_keys_are_entry_tuples(e, b.length, (b.to_text(), name))
    for name, M in (("rho'", P), ("q rho'", Q)):
        for J, part in c_parts(M):
            _assert_keys_are_entry_tuples(part, b.length, (b.to_text(), name, J))
    entries = [e for row in Q.entries for e in row]
    for x, y in [*pairs, *((x, y) for x in entries for y in entries)]:
        _assert_keys_are_entry_tuples(normal_order_product(x, y, b.signs), b.length, (b.to_text(), x, y))


def elements(k):
    """Sums of up to 4 monomials on crossings 1..k, exponents at most 2."""
    triple = st.tuples(*[st.integers(0, 2)] * 3)
    monos = st.dictionaries(st.integers(1, k), triple, max_size=3) if k else st.just({})
    return st.lists(st.tuples(monos, st.integers(-2, 2)), max_size=4).map(
        lambda ts: sum((AlgebraElement.monomial(mono(m), c) for m, c in ts), AlgebraElement.zero()))


@settings(max_examples=60)
@given(braid_words(), st.data())
def test_algebra_keys_are_entry_tuples_on_random_braids(b, data):
    x, y = data.draw(elements(b.length)), data.draw(elements(b.length))
    entries = [e for row in rho(b).entries for e in row]
    pairs = [(x, y), (y, x), *((x, e) for e in entries), *((e, x) for e in entries)]
    _assert_algebra_keys_are_entry_tuples(b, pairs)


def test_algebra_keys_are_entry_tuples(corpus_braids, benchmark_rotations):
    braids = [*corpus_braids.values(), *map(parse_braid, benchmark_rotations)]
    for b in braids + [parse_braid("-1 3 2 -1 3 3 -1 2 -1 2 -1")]:
        _assert_algebra_keys_are_entry_tuples(b)


def _relabelled(C, k):
    """C with crossing j renamed j − 1, and crossing 1 renamed k."""
    return AlgebraElement({tuple(sorted((j - 1 or k, s, r, d) for j, s, r, d in m)): c for m, c in C.terms.items()})


@settings(max_examples=40)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=7))
def test_moving_a_letter_off_strand_one_relabels_c(ls):
    # what lets the exact Kashaev route read one rotation per class
    b = parse_braid(" ".join(map(str, ls)))
    k = b.length
    rotations = [BraidWord(b.strands, b.word[r:] + b.word[:r]) for r in range(k)]
    for r, w in enumerate(rotations):
        if w.word[0][0] != 1:
            assert braid_c_sum(rotations[(r + 1) % k]) == _relabelled(braid_c_sum(w), k), r
    classes = _rotation_classes(b)
    assert classes[0] == b and len(set(classes)) == len(classes) and set(classes) <= set(rotations)
    assert {len(braid_c_sum(w).terms) for w in classes} == {len(braid_c_sum(w).terms) for w in rotations}


def test_rotation_classes_split_at_the_letters_on_strand_one():
    def texts(word):
        return [w.to_text() for w in _rotation_classes(parse_braid(word))]

    assert texts("1 -2 1 -2") == ["1 -2 1 -2"]
    assert texts("1 1 1 1 1") == ["1 1 1 1 1"]
    assert texts("1 1 2 -1 -3 2 -3") == ["1 1 2 -1 -3 2 -3", "1 2 -1 -3 2 -3 1", "2 -1 -3 2 -3 1 1"]
    assert texts("-1 2 1 1 1 2") == ["-1 2 1 1 1 2", "2 1 1 1 2 -1", "1 1 2 -1 2 1", "1 2 -1 2 1 1"]


def test_color_one_is_trivial(corpus_braids):
    for b in corpus_braids.values():
        assert colored_jones(b, 1) == LaurentPoly.one()


def test_frozen_jones_values(corpus_braids):
    frozen = {
        "trefoil": (2, "q + q^3 - q^4"),
        "trefoil_left": (2, "-q^-4 + q^-3 + q^-1"),
        "5_1": (2, "q^2 + q^4 - q^5 + q^6 - q^7"),
        "5_2": (2, "q - q^2 + 2*q^3 - q^4 + q^5 - q^6"),
        "figure_eight": (
            3,
            "q^-6 - q^-5 - q^-4 + 2*q^-3 - q^-2 - q^-1 + 3"
            " - q - q^2 + 2*q^3 - q^4 - q^5 + q^6",
        ),
    }
    for name, (N, text) in frozen.items():
        assert colored_jones(corpus_braids[name], N) == parse_univariate(text, "q")


def test_jones_lands_on_integer_q_powers(corpus_braids):
    for b in corpus_braids.values():
        for N in (2, 3):
            assert colored_jones(b, N).has_integer_q_powers()


def test_mirror_image_inverts_q(corpus_braids):
    for name in ("trefoil", "figure_eight", "5_2"):
        b = corpus_braids[name]
        for N in (2, 3):
            assert colored_jones(b.mirror(), N) == colored_jones(b, N).subst_q_inverse()


def test_markov_moves_leave_jones_and_alexander_unchanged(corpus_braids):
    from qknot.braid import markov_moves

    for name in ("trefoil", "figure_eight", "5_2"):
        b = corpus_braids[name]
        variants = [
            markov_moves(b, "conjugate", 1),
            markov_moves(b, "conjugate", -(b.strands - 1)),
            markov_moves(b, "stabilize_positive"),
            markov_moves(b, "stabilize_negative"),
        ]
        base_alex = alexander(b)
        for N in (1, 2, 3):
            base = colored_jones(b, N)
            for v in variants:
                assert colored_jones(v, N) == base
        for v in variants:
            assert alexander(v) == base_alex


def test_alexander_matches_stored_corpus_values(corpus, corpus_braids):
    for entry in corpus:
        want = parse_univariate(entry.alexander, "z")
        assert alexander(corpus_braids[entry.name]) == want


def test_alexander_symmetry_and_determinant_normalization(corpus_braids):
    for b in corpus_braids.values():
        delta = alexander(b)
        assert delta == delta.subst_z_inverse()
        assert sum(delta.z_terms().values()) == 1


def test_rejects_non_knot_closures_and_bad_color():
    link = parse_braid("1 1")
    with pytest.raises(ValueError):
        colored_jones(link, 2)
    with pytest.raises(ValueError):
        alexander(link)
    with pytest.raises(ValueError):
        colored_jones(parse_braid("1 1 1"), 0)
    with pytest.raises(ValueError):
        colored_jones(parse_braid("1 1 1"), 2, mode="adiabatic")


def test_factor_items_zero_exponent_kills_the_product():
    # (r,d)=(2,2) at z_pow=2 hits 1 - q^0 = 0, so the whole factor vanishes
    assert _efactor_items(1, 2, 2, 2) == ()
    assert dict(_efactor_items(1, 0, 1, 2)) == {0: 1, 2: -1}


def key_groups(order, starts, n):
    """`_groups`' (order, starts) as a set of groups of row indices."""
    return {frozenset(order[a:b].tolist()) for a, b in zip(starts, [*starts[1:], n])}


def dict_key_groups(rows):
    want = {}
    for i, row in enumerate(rows):
        want.setdefault(tuple(row), set()).add(i)
    return set(map(frozenset, want.values()))


@st.composite
def wide_key_columns(draw):
    """Key columns whose sizes need several int64 words: either 2 or 3 of
    them hold sizes ≥ 2^31, and no two of those share a word, or the sizes'
    product lies just below or just above 2^62, the edge between one word
    and two.  Rows repeat a few distinct keys, so that groups have several
    members."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=3))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(2, 3))):
            sizes.insert(draw(st.integers(0, len(sizes))), draw(st.integers(2**31, 2**61)))
    else:
        edge = 2**62 // math.prod(sizes) + draw(st.integers(-1, 1))
        sizes.insert(draw(st.integers(0, len(sizes))), edge)
    column = [st.integers(0, size - 1) | st.sampled_from([0, size - 1]) for size in sizes]
    pool = draw(st.lists(st.tuples(*column), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), max_size=30))
    return sizes, rows


@given(wide_key_columns())
@example(([3, 4, 5], [(1, 2, 0), (0, 3, 4), (1, 2, 0)]))  # one word
@example(([2**40, 3, 2**40], [(1, 2, 5), (7, 0, 5), (1, 2, 5)]))  # two words
@settings(max_examples=80)
def test_groups_on_several_words_match_dict_grouping(columns):
    sizes, rows = columns
    cols = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(len(sizes))]
    before = [c.copy() for c in cols]
    order, starts = _groups(iter(cols), sizes, len(rows))
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert key_groups(order, starts, len(rows)) == dict_key_groups(rows)
    # the columns are read, never written, whether they pack into one word or several
    assert all(np.array_equal(c, b) for c, b in zip(cols, before))


@st.composite
def folded_keys(draw):
    """Folded state keys (R, D) with entries in [0, N), for N at the edge of
    the one-word key, N^{2k} just below or just above 2^62, or small.  The
    keys include one with R and D swapped, which a key that mixes up the
    R and D columns would not tell apart."""
    k = draw(st.integers(1, 4))
    edge = math.ceil(2 ** (31 / k)) - 1  # the largest N with N^{2k} < 2^62
    N = draw(st.sampled_from([edge, edge + 1]) | st.integers(1, 6))
    entry = st.integers(0, N - 1) | st.sampled_from([0, N - 1])
    pool = draw(st.lists(st.lists(entry, min_size=2 * k, max_size=2 * k), min_size=1, max_size=5))
    pool.append(pool[0][k:] + pool[0][:k])
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)), dtype=np.int64)
    return N, rows[:, :k], rows[:, k:]


@given(folded_keys())
@settings(max_examples=60)
def test_packed_state_key_groups_as_the_key_columns(keys):
    N, R, D = keys
    k, n = R.shape[1], len(R)
    with mock.patch.object(mcmahon, "_groups", wraps=_groups) as spy:
        order, starts = mcmahon._state_groups(R, D, N)
    # one packed word below the edge, the 2k columns from it on
    assert len(spy.call_args.args[0]) == (1 if N ** (2 * k) < 2**62 else 2 * k)
    columns = _groups([*R.T, *D.T], [N] * 2 * k, n)
    assert key_groups(order, starts, n) == key_groups(*columns, n) == dict_key_groups(np.hstack([R, D]).tolist())


def naive_population_eval(P, signs_t, z_pow, fold):
    """Σ over states of coeff · ∏_j E-factor(state_j), one state at a time;
    with fold = N > 0 every exponent is reduced mod N (q^N = 1)."""

    def conv(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % fold if fold else e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for key, cd in P.items():
        term = conv(cd, {0: 1})  # reduces the exponents of cd when folding
        for j, eps in enumerate(signs_t):
            factor = dict(_efactor_items(eps, key[2 * j], key[2 * j + 1], z_pow))
            term = conv(term, factor)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


population_states = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
            min_size=2,
            max_size=2,
        ),
        st.dictionaries(
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-9, max_value=9).filter(bool),
            max_size=3,
            min_size=1,
        ),
    ),
    min_size=1,
    max_size=8,
)


def population_arrays(P, k, dtype=np.int64):
    """The generic kernel's (R, D, O, V) layout of a {key: {exponent: coeff}}
    population: row i holds the coefficients of q^{O_i}.. of state i."""
    keys = list(P)
    lows = [min(P[key]) for key in keys]
    W = max(max(P[key]) - lo + 1 for key, lo in zip(keys, lows))
    V = np.zeros((len(keys), W), dtype=dtype)
    for i, (key, lo) in enumerate(zip(keys, lows)):
        for e, c in P[key].items():
            V[i, e - lo] = c
    R = np.array([key[0::2] for key in keys], dtype=np.int64).reshape(len(keys), k)
    D = np.array([key[1::2] for key in keys], dtype=np.int64).reshape(len(keys), k)
    return R, D, np.array(lows, dtype=np.int64), V


@given(
    population_states,
    st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    st.sampled_from([-1, 0, 2, 4]),
    st.sampled_from(["int64", "huge", "object"]),
)
@settings(max_examples=80)
def test_population_evaluation_matches_per_state_expansion(states, signs_t, z_pow, rows):
    # "huge" rows come near or past the int64 bound, so most sums must trip
    # it; "object" lowers the bound so that every sum runs on Python ints
    scale = 2**60 if rows == "huge" else 1
    P = {}
    for key_pairs, cd in states:
        key = tuple(x for pair in key_pairs for x in pair)
        merged = P.setdefault(key, {})
        for e, c in cd.items():
            merged[e] = merged.get(e, 0) + c * scale
    P = {key: cd for key, cd in P.items() if any(cd.values())}
    if not P:
        return
    arrays = population_arrays(P, 2, object if rows == "huge" else np.int64)
    with mock.patch.object(exactpoly, "INT64_SAFE", 1.0 if rows == "object" else exactpoly.INT64_SAFE):
        got = _eval_population(*arrays, signs_t, z_pow)
    assert got == naive_population_eval(P, signs_t, z_pow, 0)


def dict_populations(C, signs_t, count):
    """Reference populations for fermionic_terms: the states of Cⁿ for
    n < count as {key: {exponent: coefficient}} dicts, built by the dict step
    that the kernel replaced.  It stops early once a population passes 2,000
    states, where evaluating one state at a time starts to take minutes."""
    k = len(signs_t)
    terms = _mono_terms(C, k)
    P = {(0,) * (2 * k): {0: 1}}
    out = []
    while len(out) < count and len(P) <= 2000:
        out.append(P)
        newP = {}
        for key, cd in P.items():
            for triples, mcd in terms:
                nk, shift = _apply_mono(key, triples, signs_t)
                _dadd(newP.setdefault(nk, {}), _dconv(cd, mcd, shift))
        P = {key: cd for key, cd in newP.items() if cd}
    return out


@lru_cache(maxsize=None)
def generic_dict_reference(elem, signs_t):
    """{z_pow: the evaluated `dict_populations` of elem at z = q^{z_pow}} for
    z_pow = −1, 0, 1 and 3, built once for both row kinds of
    `test_generic_series_matches_dict_reference`."""
    pops = dict_populations(elem, signs_t, 2 * len(signs_t) + 2)
    return {z_pow: [naive_population_eval(P, signs_t, z_pow, 0) for P in pops] for z_pow in (-1, 0, 1, 3)}


@pytest.mark.parametrize("rows", ["int64", "object"])
def test_generic_series_matches_dict_reference(corpus_braids, monkeypatch, caplog, rows):
    caplog.set_level(logging.DEBUG, logger="qknot.mcmahon")
    if rows == "object":
        # every sum's bound passes the threshold, so every row leaves int64
        monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    for name, b in corpus_braids.items():
        signs_t, C = b.signs, braid_c_sum(b)
        # corpus C-monomials carry single-term coefficients ±q^a; the
        # multiple covers the kernel's several-term monomials
        several = C.scale(LaurentPoly.const(2) - LaurentPoly.q_power(3))
        for elem in (C, several):
            mono_arrays = mcmahon._mono_arrays([((), elem)], signs_t)
            for z_pow, want in generic_dict_reference(elem, signs_t).items():
                got = list(fermionic_terms(mono_arrays, signs_t, z_pow, len(want) - 1))
                assert got + [{}] * (len(want) - len(got)) == want, (name, z_pow)
    assert bool(caplog.records) == (rows == "object")


def test_both_modes_are_state_sum_on_every_benchmark_rotation(benchmark_rotations):
    # the benchmark's bosonic jobs, 6_1 on 4 strands among them, term for
    # term, and the fermionic mode on the orders the benchmark skips; each
    # kernel runs on the word given, not on a planned rotation
    for word in benchmark_rotations:
        b = parse_braid(word)
        for N in (2, 3, 4):
            want = state_sum_jones_on_word(b, N)
            assert series_jones_on_word(b, N, "bosonic") == want, (word, N)
            assert series_jones_on_word(b, N, "fermionic") == want, (word, N)


def test_colored_jones_routes_are_their_kernels_on_the_given_word(benchmark_rotations):
    # a plan picks the word summed on, never the value
    for word in benchmark_rotations:
        b = parse_braid(word)
        for N in (1, 2, 3, 4):
            for mode in ("bosonic", "fermionic"):
                assert colored_jones(b, N, mode=mode) == series_jones_on_word(b, N, mode), (word, N, mode)
            assert state_sum_jones(b, N) == state_sum_jones_on_word(b, N), (word, N)


def test_series_routes_are_planned_by_monomial_counts_alone(benchmark_rotations, caplog, monkeypatch):
    # both modes sum on the first class with the fewest C-monomials, the
    # same word at every N, and their kernels get that word
    summed = []
    for name in ("_bosonic_series", "_fermionic_series"):
        real = getattr(mcmahon, name)
        monkeypatch.setattr(mcmahon, name, lambda w, *args, real=real: summed.append(w) or real(w, *args))
    planned = {}
    with caplog.at_level(logging.DEBUG, logger="qknot.mcmahon"):
        for text in benchmark_rotations:
            b = parse_braid(text)
            classes = _rotation_classes(b)
            counts = [len(braid_c_sum(w).terms) for w in classes]
            want = classes[counts.index(min(counts))]
            assert series_word(b) == want, text
            for N in (1, 2, 3, 4):
                for mode in ("bosonic", "fermionic"):
                    caplog.clear()
                    summed.clear()
                    colored_jones(b, N, mode=mode)
                    (record,) = [rec for rec in caplog.records if rec.name == "qknot.mcmahon"]
                    assert record.args == (mode, N, want.to_text(), text, counts[0], min(counts)), (text, N)
                    assert summed == [want], (text, N, mode)
            planned[text] = want.to_text()
    # every rotation of 6_1 onto its 3-monomial class; every rotation of 5_2
    # onto 1 1 2 -1 2 1, except its other 3-monomial class, which keeps itself
    for w in cyclic_rotations(parse_braid("1 1 2 -1 -3 2 -3")):
        assert len(braid_c_sum(parse_braid(planned[w.to_text()])).terms) == 3, w.to_text()
    for w in cyclic_rotations(parse_braid("1 1 1 2 -1 2")):
        want = "1 2 -1 2 1 1" if w.to_text() == "1 2 -1 2 1 1" else "1 1 2 -1 2 1"
        assert planned[w.to_text()] == want, w.to_text()


def test_colored_jones_logs_the_word_it_sums_on(caplog):
    b = parse_braid("1 1 1 2 -1 2")
    with caplog.at_level(logging.DEBUG, logger="qknot.mcmahon"):
        colored_jones(b, 3, mode="bosonic")
        colored_jones(b, 3, mode="fermionic")
    records = [rec for rec in caplog.records if rec.name == "qknot.mcmahon"]
    assert [rec.levelno for rec in records] == [logging.DEBUG] * 2
    # C of 1 1 1 2 -1 2 has 6 monomials, and its rotation 1 1 2 -1 2 1 has 3
    assert [rec.args for rec in records] == [
        (mode, 3, "1 1 2 -1 2 1", "1 1 1 2 -1 2", 6, 3) for mode in ("bosonic", "fermionic")]
    assert records[0].getMessage() == ("bosonic N = 3: series on '1 1 2 -1 2 1' of '1 1 1 2 -1 2'; "
                                       "C-monomials 6 of the given word, 3 of the word summed on")


def test_bad_mode_builds_nothing(monkeypatch):
    # N, the closure and the mode are checked before the plan reads C
    def unreachable(*args):
        raise AssertionError("built ρ′ or C of a call that is refused")

    for name in ("braid_setup", "braid_c_sum", "rho"):
        monkeypatch.setattr(mcmahon, name, unreachable)
    for args, match in (((parse_braid("1 1 1"), 2, "adiabatic"), "unknown mode"),
                        ((parse_braid("1 1 1"), 0, "bosonic"), "positive"),
                        ((parse_braid("1 1"), 2, "fermionic"), "not a knot")):
        with pytest.raises(ValueError, match=match):
            colored_jones(*args)


def test_graded_fermionic_series_ends_within_the_box(corpus_braids, benchmark_rotations, monkeypatch):
    # every step raises the grades' sum by at least 1 and no grade may reach
    # N, so at most dim·(N−1) + 1 populations are nonempty and the step after
    # the last leaves none; a step past that fails at once, so a series that
    # does not end fails here instead of running on.  The merged populations
    # are evaluated once.
    calls = {"_generic_step": 0, "_eval_population": 0}
    steps = mcmahon._generic_step
    evaluate = mcmahon._eval_population

    def step(*args):
        calls["_generic_step"] += 1
        assert calls["_generic_step"] <= bound, "the graded series did not end"
        return steps(*args)

    def evaluated(*args):
        calls["_eval_population"] += 1
        return evaluate(*args)

    monkeypatch.setattr(mcmahon, "_generic_step", step)
    monkeypatch.setattr(mcmahon, "_eval_population", evaluated)
    braids = list(corpus_braids.values()) + [parse_braid(w) for w in benchmark_rotations]
    for b in braids:
        for N in range(1, 7 if b.strands <= 3 else 5):
            bound = (b.strands - 1) * (N - 1) + 1
            calls.update(_generic_step=0, _eval_population=0)
            _fermionic_series(b, N)
            assert calls["_eval_population"] == 1, (b.to_text(), N)


@pytest.mark.parametrize("series", ["fermionic", "folded"])
def test_groups_of_populations_give_the_same_value(series, corpus_braids, benchmark_rotations, monkeypatch):
    # E is linear, so both series may sum their populations in any grouping:
    # at _GROUP_CELLS = 1 each nonempty population is its own group, and at
    # 64 cells and at the default a group holds one or more; each group is
    # evaluated once, on int64 rows and with every row on Python ints.  Each
    # nonempty population is stepped once, and the step after the last
    # leaves none
    if series == "fermionic":
        braids = list(corpus_braids.values()) + [parse_braid(w) for w in benchmark_rotations]
        cases = [(b, N) for b in braids if b.strands <= 3 for N in (2, 3, 4)]
        want = [state_sum_jones_on_word(b, N) for b, N in cases]
        run = series_jones_on_word
        step, evaluate = "_generic_step", "_eval_population"
    else:
        cases = [(b, N) for b in corpus_braids.values() for N in (3, 5, 8)]
        want = [folded_dict_series(braid_c_sum(b), b.signs, N, len(b.signs) * N) for b, N in cases]
        run = lambda b, N, _: folded(braid_c_sum(b), b.signs, N)
        step, evaluate = "_folded_step", "_eval_folded"
    calls = {step: 0, evaluate: 0}

    def counted(name):
        fn = getattr(mcmahon, name)

        def count(*args):
            calls[name] += 1
            return fn(*args)

        return count

    for name in calls:
        monkeypatch.setattr(mcmahon, name, counted(name))
    grouped = False
    for cells in (1, 64, mcmahon._GROUP_CELLS):
        for safe in (exactpoly.INT64_SAFE, 1.0):
            with monkeypatch.context() as m:
                m.setattr(mcmahon, "_GROUP_CELLS", cells)
                m.setattr(exactpoly, "INT64_SAFE", safe)
                for (b, N), value in zip(cases, want):
                    calls.update({step: 0, evaluate: 0})
                    assert run(b, N, series) == value, (b.to_text(), N, cells, safe)
                    if cells == 1:
                        assert calls[evaluate] == calls[step], (b.to_text(), N)
                    else:
                        assert 1 <= calls[evaluate] <= calls[step], (b.to_text(), N, cells)
                        grouped |= 1 < calls[evaluate] < calls[step]
    assert grouped


def test_graded_fermionic_sum_is_the_ungraded_sum_on_the_corpus(corpus_braids):
    # the series on the ungraded C, stopped after max(k, m) zero terms,
    # gives the same polynomial where it has been run
    for name, b in corpus_braids.items():
        for N in range(1, 5):
            assert colored_jones(b, N, mode="fermionic") == ungraded_fermionic_jones(b, N), (name, N)


def test_graded_fermionic_merge_on_object_rows_is_exact(monkeypatch, caplog):
    # past the int64 bound every row of the graded series and of its merge
    # leaves int64, and the polynomial stays the same
    cases = [(parse_braid(w), N) for w in ("1 1 1 2 -1 2", "1 1 2 -1 -3 2 -3") for N in (3, 4)]
    want = [colored_jones(b, N, mode="fermionic") for b, N in cases]
    monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    with caplog.at_level(logging.DEBUG, logger="qknot.mcmahon"):
        assert [colored_jones(b, N, mode="fermionic") for b, N in cases] == want
    assert caplog.records


def test_generic_rows_leaving_int64_partway_evaluate_each_population_once(monkeypatch, caplog):
    # at 2^8 the rows of 5_2's series leave int64 in some steps and inside
    # some evaluations; each population is still evaluated once, not first
    # on int64 and then again on Python ints
    b = parse_braid("1 1 1 2 -1 2")
    want = list(fermionic_terms(braid_c_arrays(b), b.signs, 3, 8))
    calls = {"_eval_population": 0, "_eval_population_np": 0}
    entered = []

    def counted(name):
        fn = getattr(mcmahon, name)

        def run(*args):
            calls[name] += 1
            entered.append(args[3].dtype)
            return fn(*args)

        return run

    for name in calls:
        monkeypatch.setattr(mcmahon, name, counted(name))
    monkeypatch.setattr(exactpoly, "INT64_SAFE", 2.0**8)
    with caplog.at_level(logging.DEBUG, logger="qknot.mcmahon"):
        got = list(fermionic_terms(braid_c_arrays(b), b.signs, 3, 8))
    assert got == want
    assert calls == {"_eval_population": 9, "_eval_population_np": 9}
    # some populations enter the evaluation on int64 rows, and rows leave it
    assert np.dtype(np.int64) in entered and object in entered
    assert caplog.records


def test_folded_step_refuses_past_the_cell_limit(monkeypatch):
    # the S×M×k products' d_j are the step's first array; at the limit the
    # step runs, one cell past it the step is refused with N and the cells
    b = parse_braid("1 1 2 -1 2 1")
    C, mono_arrays = braid_c_sum(b), braid_c_arrays(b)
    k, N = b.length, 5
    R = D = np.zeros((3, k), dtype=np.int64)
    population = (R, D, np.ones(3), np.eye(3, N, dtype=np.int64))
    cells = 3 * len(C.terms) * k
    monkeypatch.setattr(mcmahon, "CELL_LIMIT", cells)
    _folded_step(*population, mono_arrays, N)
    monkeypatch.setattr(mcmahon, "CELL_LIMIT", cells - 1)
    with pytest.raises(ValueError, match=f"N = 5 would hold {cells} cells in one step"):
        _folded_step(*population, mono_arrays, N)
    # and the exact Kashaev value of a corpus knot is refused past a lowered limit
    # (its steps reach 40 cells at N = 5)
    monkeypatch.setattr(mcmahon, "CELL_LIMIT", 39)
    with pytest.raises(ValueError, match="folded series at N = 5"):
        kashaev_value(parse_braid("1 -2 1 -2"), 5)


def test_generic_step_refuses_past_the_cell_limit(monkeypatch):
    # the merged population of 5_2's series reaches more cells at each
    # depth; past a lowered limit kashaev_series and the graded series refuse it
    b = parse_braid("1 1 1 2 -1 2")
    monkeypatch.setattr(mcmahon, "CELL_LIMIT", 200)
    with pytest.raises(ValueError, match=r"generic-q series would hold \d+ cells in one step, over 200"):
        kashaev_series(b, 12)
    with pytest.raises(ValueError, match="generic-q series would hold"):
        _fermionic_series(b, 4)
    monkeypatch.setattr(mcmahon, "CELL_LIMIT", exactpoly.CELL_LIMIT)
    assert len(kashaev_series(b, 12).terms) == 13


def test_exact_kashaev_value_of_a_large_4_strand_braid_is_refused_at_once():
    # 47 C-monomials on 11 crossings: at N = 5 a step's products would take
    # gigabytes, and the step is refused before they are allocated
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"folded series at N = 5 would hold \d+ cells"):
        kashaev_value(parse_braid("-1 3 2 -1 3 3 -1 2 -1 2 -1"), 5)
    assert time.perf_counter() - start < 10


def test_int64_escalation_is_logged(caplog, monkeypatch):
    # the one bound of exactpoly's int64 row rule, for all three kernels
    monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    b = parse_braid("1 -2 1 -2")
    counts = []
    with caplog.at_level(logging.DEBUG):
        list(fermionic_terms(braid_c_arrays(b), b.signs, -1, 3))
        counts.append(len(caplog.records))
        folded(braid_c_sum(b), b.signs, 5)
        counts.append(len(caplog.records))
        state_sum_jones(b, 3)
        counts.append(len(caplog.records))
    assert 0 < counts[0] < counts[1] < counts[2]
    assert all("leave int64" in rec.getMessage() for rec in caplog.records)
    loggers = [rec.name for rec in caplog.records]
    assert set(loggers[: counts[1]]) == {"qknot.mcmahon"}
    assert set(loggers[counts[1] :]) == {"qknot.verma_oracle"}


@pytest.mark.parametrize(
    "word,N,records",
    [
        pytest.param("1 -2 1 -2", 60, [], id="4_1-60"),
        pytest.param("1 -2 1 -2", 80, ["693 rows leave int64: a group sum may reach 8.8e+18 ≥ 2^62",
                                       "144 rows leave int64: a group sum may reach 5.53e+18 ≥ 2^62"], id="4_1-80"),
        pytest.param("1 1 1 1 1", 40, ["1552 rows leave int64: a group sum may reach 1.13e+19 ≥ 2^62"], id="5_1-40"),
    ],
)
def test_folded_int64_switch_stays_where_measured_rows_need_it(caplog, word, N, records):
    # carried bounds only decide when rows are measured, and only the
    # measured check moves them, so the rows leave int64 exactly where a
    # kernel that measures before every step, binomial and merge moves them.
    # Bounding each E-factor by ‖row‖∞·‖factor‖₁ instead would send the
    # figure-eight's rows at N = 60 to Python ints
    with caplog.at_level(logging.DEBUG, logger="qknot.mcmahon"):
        kashaev_value(parse_braid(word), N)
    assert [rec.getMessage() for rec in caplog.records] == records


def folded(C, signs_t, N):
    """`folded_series_sum` of an algebra element C."""
    return folded_series_sum(mcmahon._mono_arrays([((), C)], signs_t), signs_t, N)


def folded_dict_series(C, signs_t, N, max_n):
    """Reference for folded_series_sum: Σ_{n ≤ max_n} E(Cⁿ) at z = q^{-1} mod
    q^N − 1 on {exponent: coefficient} dicts, one population per n, keys
    reduced mod N and states with some d_j ≥ N pruned."""
    k = len(signs_t)
    terms = _mono_terms(C, k)
    P = {(0,) * (2 * k): {0: 1}}
    total = {}
    for _ in range(max_n + 1):
        for e, c in naive_population_eval(P, signs_t, -1, N).items():
            total[e] = total.get(e, 0) + c
        newP = {}
        for key, cd in P.items():
            for triples, mcd in terms:
                nk, shift = _apply_mono(key, triples, signs_t)
                if any(nk[2 * j + 1] >= N for j in range(k)):
                    continue
                acc = newP.setdefault(tuple(x % N if i % 2 == 0 else x for i, x in enumerate(nk)), {})
                for e, c in _dconv(cd, mcd, shift).items():
                    acc[e % N] = acc.get(e % N, 0) + c
        P = {key: live for key, cd in newP.items() if (live := {e: c for e, c in cd.items() if c})}
        if not P:
            break
    return [total.get(e, 0) for e in range(N)]


def bound_checked(kernel):
    """`_folded_step` or `_merge`, asserting that every int64 row it returns
    is within the bound it carries."""

    def run(*args):
        out = kernel(*args)
        if out[-1].dtype != object:
            assert (row_norms(out[-1]) <= out[-2]).all(), kernel.__name__
        return out

    return run


@st.composite
def folded_populations(draw):
    N = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=3))
    keys = st.tuples(
        *[st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)) for _ in range(k)]
    )
    rows = st.lists(st.integers(-9, 9), min_size=N, max_size=N)
    states = draw(st.lists(st.tuples(keys, rows), min_size=1, max_size=10))
    signs_t = tuple(draw(st.sampled_from([1, -1])) for _ in range(k))
    return N, signs_t, states


@given(folded_populations(), st.sampled_from(["int64", "huge", "object"]))
@example((8, (-1,), [(((0, 2),), [9, 0, 0, 0, 0, 9, -9, -9])]), "huge")
@example((2, (1,), [(((0, 0),), [5, 0]), (((1, 0),), [0, 5])]), "int64")
@example((8, (-1,), [(((0, 1),), [5, 0, 0, 0, 0, 0, 0, 0]), (((0, 3),), [1, 0, 0, 0, 0, 0, 0, 0])]), "huge")
@example((8, (-1,), [(((1, 6),), [1, 1, 1, -1, -1, -1, -1, 1])]), "huge")
@example((8, (-1,), [(((1, 6),), [4, 4, 4, -4, -4, -4, -4, 4])]), "huge")
@settings(max_examples=80)
def test_folded_evaluation_matches_folded_dict_reference(population, rows):
    # "huge" rows come near the int64 bound, so most sums must trip it;
    # "object" lowers the bound so that every sum runs on Python ints.  In
    # the first explicit example, (1 − q)(1 − q²) lines up with the row and
    # takes its peak to 4·9·2^58 > 2^63 unless a binomial is checked before
    # it runs; in the second, q^{-1} lines the two rows up, so their merged
    # row reaches the sum of their bounds.  In the third, the crossing's
    # largest bound, 5·2^58, sits on the row with d_j = 1: it trips the
    # crossing's scalar check at the second binomial, where only the d_j = 3
    # row, far from 2^62, is checked.  In the fourth, (1 − q²)(1 − q³)(1 − q⁴)
    # lines up with the row, so its bound first reaches 2^62 after its third
    # binomial, and the measured row, 8·2^58, leaves int64 there; its carried
    # bound, brought up to date only then, must still bound the merged row.
    # The fifth, that row times 4, would reach 2^63 at its third binomial
    # unless the scalar doubles at each binomial and trips at the second
    N, signs_t, states = population
    scale = 2**58 if rows == "huge" else 1
    R = np.array([[r for r, _ in key] for key, _ in states], dtype=np.int64)
    D = np.array([[d for _, d in key] for key, _ in states], dtype=np.int64)
    V = np.array([[c * scale for c in row] for _, row in states], dtype=np.int64)
    P = {}
    for key, row in states:
        flat = tuple(x for pair in key for x in pair)
        cd = P.setdefault(flat, {})
        for e, c in enumerate(row):
            cd[e] = cd.get(e, 0) + c * scale
    safe = 1.0 if rows == "object" else exactpoly.INT64_SAFE
    with mock.patch.object(exactpoly, "INT64_SAFE", safe):
        with mock.patch.object(mcmahon, "_merge", bound_checked(mcmahon._merge)):
            got = _eval_folded(R, D, V, signs_t, N)
    want = naive_population_eval(P, signs_t, -1, N)
    assert [int(c) for c in got] == [want.get(e, 0) for e in range(N)]
    if rows == "object" and any(got):
        assert got.dtype == object


@pytest.mark.parametrize("rows", ["int64", "object"])
def test_folded_series_matches_folded_dict_reference(corpus_braids, monkeypatch, caplog, rows):
    caplog.set_level(logging.DEBUG, logger="qknot.mcmahon")
    if rows == "object":
        # every sum's bound passes the threshold, so every row leaves int64
        monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    for name, b in corpus_braids.items():
        signs_t, C = b.signs, braid_c_sum(b)
        k = len(signs_t)
        for N in (1, 2, 3, 5, 8):
            want = folded_dict_series(C, signs_t, N, k * N)
            assert folded(C, signs_t, N) == want, (name, N)
        # corpus C-monomials carry single-term coefficients ±q^a; give them
        # several terms to cover the kernel's general case
        several = C.scale(LaurentPoly.const(2) - LaurentPoly.q_power(3))
        for N in (2, 3):
            want = folded_dict_series(several, signs_t, N, k * N)
            assert folded(several, signs_t, N) == want, (name, N)
    assert bool(caplog.records) == (rows == "object")


def test_folded_series_steps_leave_int64_where_sums_pass_2_63(corpus_braids, monkeypatch):
    # C·2^40 takes the rows past 2^63 within a few steps: a carried bound
    # that a step does not multiply by ℓ₁ lets int64 wrap
    step_dtypes = []

    def step(*args):
        out = _folded_step(*args)
        step_dtypes.append(out[-1].dtype)
        return out

    monkeypatch.setattr(mcmahon, "_folded_step", step)
    for name, b in corpus_braids.items():
        signs_t, C = b.signs, braid_c_sum(b)
        big = C.scale(LaurentPoly.const(2**40))
        for N in (2, 3):
            want = folded_dict_series(big, signs_t, N, len(signs_t) * N)
            assert folded(big, signs_t, N) == want, (name, N)
    assert object in step_dtypes
    # each group's row fits int64 but their sum does not: the groups' rows
    # are added as Python ints
    groups = []

    def evaluated(R, D, V, signs_t, N):
        groups.append(len(V))
        return np.full(N, 2**62, dtype=np.int64)

    monkeypatch.setattr(mcmahon, "_eval_folded", evaluated)
    monkeypatch.setattr(mcmahon, "_GROUP_CELLS", 1)
    b = corpus_braids["figure_eight"]
    assert folded(braid_c_sum(b), b.signs, 3) == [len(groups) * 2**62] * 3
    assert len(groups) > 1


def test_folded_carried_bounds_bound_the_rows(corpus_braids, monkeypatch):
    # several-term coefficients make ℓ₁ > 1; the binomials of `_eval_folded`
    # precede its merges
    monkeypatch.setattr(mcmahon, "_folded_step", bound_checked(_folded_step))
    monkeypatch.setattr(mcmahon, "_merge", bound_checked(mcmahon._merge))
    for b in corpus_braids.values():
        signs_t, C = b.signs, braid_c_sum(b)
        several = C.scale(LaurentPoly.const(2) - LaurentPoly.q_power(3))
        for elem in (C, several):
            for N in (3, 5, 8):
                folded(elem, signs_t, N)


def test_pairwise_dict_convolution_matches_polynomials():
    # the second factor as (exponent, coefficient) pairs
    a = {0: 1, 3: -2}
    b = ((-1, 4), (2, 5))
    got = _dconv(a, b, 0)
    want = {}
    for e1, c1 in a.items():
        for e2, c2 in b:
            want[e1 + e2] = want.get(e1 + e2, 0) + c1 * c2
    assert {e: c for e, c in got.items() if c} == {e: c for e, c in want.items() if c}
    shifted = _dconv(a, b, 2)
    assert {e: c for e, c in shifted.items() if c} == {e + 2: c for e, c in want.items() if c}


def test_cached_entry_terms_cannot_be_assigned_to(corpus_braids, benchmark_rotations):
    # the bosonic series reads q·ρ′'s entries from a per-braid cache: nested
    # tuples of per-crossing triples and (exponent, coefficient) pairs
    def frozen(x):
        return type(x) is int or (type(x) is tuple and all(map(frozen, x)))

    for b in [*corpus_braids.values(), *map(parse_braid, benchmark_rotations)]:
        terms = braid_entry_terms(b)
        assert frozen(terms), b.to_text()
        for entry in (e for row in terms for e in row if e):
            with pytest.raises(TypeError):
                entry[0][1][0] = (0, 0)


def test_cached_algebra_values_are_read_only(corpus_braids):
    # C, an entry of q·ρ′ and a part of C are cached per braid; neither their
    # terms nor their coefficients' terms can be changed, even through dict's
    # own methods, so no caller can corrupt a later value
    b = corpus_braids["figure_eight"]
    before = kashaev_value(b, 3)
    entry = next(e for row in braid_setup(b)[1].entries for e in row if e)
    part = next(part for _, part in c_parts(braid_setup(b)[1]) if part)
    for elem in (braid_c_sum(b), entry, part):
        key, coeff = next(iter(elem.terms.items()))
        for terms, k in ((elem.terms, key), (coeff.terms, next(iter(coeff.terms)))):
            for change, *args in ((dict.pop, k), (dict.clear,), (operator.setitem, k, terms[k]),
                                  (operator.delitem, k)):
                with pytest.raises(TypeError):
                    change(terms, *args)
            assert not any(hasattr(terms, name) for name in ("pop", "clear", "update", "setdefault"))
    braid_c_arrays.cache_clear()
    assert kashaev_value(b, 3) == before


def test_habiro_style_divisibility_of_light_series_terms(corpus_braids):
    from qknot.kashaev import kashaev_series
    from qknot.exactpoly import laurent_divmod

    for name in ("trefoil", "figure_eight"):
        b = corpus_braids[name]
        k = b.length
        series = kashaev_series(b, 3 * k)
        for n, term in enumerate(series.terms):
            d = n // k
            if d == 0 or term.is_zero():
                continue
            divisor = q_pochhammer(Q_UNIT, 1, d, 0)
            _, rem = laurent_divmod(term, divisor)
            assert rem.is_zero(), (name, n)
