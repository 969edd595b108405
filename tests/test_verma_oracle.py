import logging
import os
import random
import re
import subprocess
import sys
import time
from functools import lru_cache
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qknot import exactpoly, verma_oracle
from qknot.braid import BraidWord, closure_is_knot, cyclic_rotations, parse_braid
from qknot.exactpoly import LaurentPoly, q_int_binom
from qknot.mcmahon import colored_jones
from qknot.qweyl import AlgebraElement, normal_order_product
from qknot.verma_oracle import (
    _ExactRows,
    _NumericTables,
    apply_braiding,
    braiding_coeff,
    numeric_state_sum,
    state_sum_entries,
    state_sum_jones,
    state_sum_word,
)

from oracles import (
    braid_relation_holds,
    braiding_inverse_holds,
    expand_then_filter,
    mono,
    state_sum_jones_on_word,
    table_coefficients,
)


def float_sum_word(b, N):
    """The rotation the float state sum is planned onto."""
    return state_sum_word(b, N, _NumericTables)


def test_braiding_identity_coefficient_is_pure_half_power():
    for N in (2, 3, 4, 5):
        half = (N - 1) ** 2
        assert braiding_coeff(1, 0, 0, 0, N) == LaurentPoly.term(1, -half)
        assert braiding_coeff(-1, 0, 0, 0, N) == LaurentPoly.term(1, half)


def test_braiding_coefficients_vanish_outside_finite_module():
    # transitions out of W_N x W_N carry coefficient zero of their own accord
    for N in (3, 4):
        for n1 in range(N):
            for n2 in range(N):
                for l in range(n1 + 1):
                    if l > N - 1 - n2:
                        assert braiding_coeff(1, n1, n2, l, N).is_zero(), (n1, n2, l)
                for l in range(n2 + 1):
                    if l > N - 1 - n1:
                        assert braiding_coeff(-1, n1, n2, l, N).is_zero(), (n1, n2, l)


def test_braid_relation_and_inverse_on_truncated_modules():
    # on the integer tables that state_sum_jones multiplies, and the walk
    # reference's braiding_coeff equal to them coefficient by coefficient
    for N in range(1, 5):
        assert braid_relation_holds(N), N
        assert braiding_inverse_holds(N), N
        for sign in (1, -1):
            for (n1, n2, l), c in table_coefficients(N, sign).items():
                assert braiding_coeff(sign, n1, n2, l, N) == c, (N, sign, n1, n2, l)


def test_gauss_binomial_identity_in_the_operator_algebra():
    # (X+Y)^n = sum_l binom(n,l)_q X^l Y^(n-l) for YX = qXY, with X=c_1, Y=a_1
    signs = (1,)
    x_plus_y = AlgebraElement.generator("c", 1) + AlgebraElement.generator("a", 1)
    power = AlgebraElement.one()
    for n in range(1, 7):
        power = normal_order_product(power, x_plus_y, signs)
        seen = dict(power.terms)
        for l in range(n + 1):
            assert seen.pop(mono({1: (0, l, n - l)})) == q_int_binom(n, l, -1), (n, l)
        assert seen == {}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [1, verma_oracle._ENTRY_BUDGET])
def test_state_sum_matches_series_engine_on_corpus(corpus_braids, monkeypatch, budget):
    # budget 1 runs one initial state per batch; the default packs many
    monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", budget)
    cases = [(name, b, N) for name, b in corpus_braids.items() for N in (1, 2, 3)]
    cases.append(("6_1", parse_braid("1 1 2 -1 -3 2 -3"), 4))
    for name, b, N in cases:
        assert state_sum_jones(b, N) == colored_jones(b, N), (name, N)


@lru_cache(maxsize=None)
def _exact_walk_state_sum(word: str, N: int) -> LaurentPoly:
    """state_sum_jones as a walk over one initial state at a time, applying
    apply_braiding to a dict of live states: the reference the integer rows
    must match."""
    b = parse_braid(word)
    m = b.strands
    steps, last = verma_oracle._last_touch(b)
    total = LaurentPoly.zero()
    for initial in product(range(N), repeat=m - 1):
        full0 = (0,) + initial
        states = {full0: LaurentPoly.term(1, 2 * ((m - 1) * (1 - N) + 2 * sum(initial)))}
        for step, (i, eps) in enumerate(steps):
            states = apply_braiding(states, i - 1, eps, N)
            frozen = [p for p in range(m) if last[p] == step]
            states = {s: c for s, c in states.items() if all(s[p] == full0[p] for p in frozen)}
        total = total + states.get(full0, LaurentPoly.zero())
    return total.shift(b.writhe * (N * N - 1))


def _mid_sum_splits(monkeypatch, ring) -> list[bool]:
    """Wrap ring's merge and take; the list gets one flag per take, true
    when it splits the values of the last merge, that is a batch in mid-sum."""
    merge, take = ring.merge, ring.take
    last = {}
    splits = []

    def merged(self, *args):
        first, last["val"] = merge(self, *args)
        return first, last["val"]

    def taken(val, rows):
        splits.append(val is last.get("val"))
        return take(val, rows)

    monkeypatch.setattr(ring, "merge", merged)
    monkeypatch.setattr(ring, "take", staticmethod(taken))
    return splits


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", ["int64", "object", "one state per batch", "split in mid-sum"])
def test_exact_state_sum_matches_apply_braiding_walk(monkeypatch, caplog, benchmark_rotations, rows):
    if rows == "object":
        # every product's bound passes the threshold, so every row leaves int64
        monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    if rows == "one state per batch":
        monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", 1)
        monkeypatch.setattr(verma_oracle, "_CELLS_PER_ENTRY", 1)
    if rows == "split in mid-sum":
        # 37 × 32 row cells: batches of several initial states outgrow it
        monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", 37)
    splits = _mid_sum_splits(monkeypatch, verma_oracle._ExactRows)
    # the exact ring summed on each word given, not on a planned rotation
    cases = [(w, N) for w in benchmark_rotations for N in (1, 2, 3, 4)]
    cases.append(("1 1 2 -1 -3 2 -3", 5))
    with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
        for word, N in cases:
            assert state_sum_jones_on_word(parse_braid(word), N) == _exact_walk_state_sum(word, N), (word, N)
    records = [rec for rec in caplog.records if "leave int64" in rec.getMessage()]
    assert bool(records) == (rows == "object")
    if rows == "split in mid-sum":
        assert any(splits)


def test_coefficient_rows_leaving_int64_are_logged(monkeypatch, caplog):
    # the braiding coefficients are the seventh int64 site, and log as the others
    monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    rows = verma_oracle._ExactRows(4)
    n1, n2, l = np.array([2, 3, 1]), np.array([0, 1, 2]), np.array([1, 2, 1])
    with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
        C, _, _ = rows.coeff(1, n1, n2, l)
    assert C.dtype == object
    assert len(caplog.records) == 1
    # the wording of exactpoly.int64_fits, shared by every int64 site
    assert re.fullmatch(r"3 rows leave int64: a group sum may reach \S+ ≥ 2\^62", caplog.records[0].getMessage())


class _MpCmath:
    """Stands in for the cmath module with mpmath numbers, as
    perfbench/make_refs.py does for its references."""

    pi = mpmath.pi
    exp = staticmethod(mpmath.exp)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("word,N", [("1 1 1", 5), ("1 -2 1 -2", 7), ("1 1 1 2 -1 2", 6)])
def test_float_state_sum_runs_at_high_precision_on_a_cmath_stand_in(monkeypatch, word, N):
    # the split parts and group sums run on object arrays of mpf values
    b = parse_braid(word)
    want = numeric_state_sum(b, N)
    monkeypatch.setattr(verma_oracle, "cmath", _MpCmath)
    with mpmath.workdps(30):
        got = numeric_state_sum(b, N)
    assert isinstance(got, mpmath.mpc)
    assert abs(complex(got) - want) <= 1e-12 * abs(want), (word, N)


def test_exact_state_sum_refuses_oversized_work_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer cells"):
        state_sum_jones(parse_braid("1 1 1"), 400)
    assert time.perf_counter() - start < 1.0


def test_float_state_sum_refuses_oversized_tables_before_any_probe(monkeypatch):
    # the largest admitted order is the one the README states
    cells = verma_oracle._NumericTables.table_cells
    assert cells(1547) <= verma_oracle.CELL_LIMIT < cells(1548)

    def probe(w):
        raise AssertionError("probed a rotation of an order the state sum refuses")

    monkeypatch.setattr(verma_oracle, "_probe", probe)
    start = time.perf_counter()
    for state_sum in (numeric_state_sum, float_sum_word):
        with pytest.raises(ValueError, match="the float state sum at N = 1548 would hold over 16777216 complex cells"):
            state_sum(parse_braid("1 1 1 2 -1 2"), 1548)
    assert time.perf_counter() - start < 1.0


def test_exact_state_sum_refuses_oversized_tables_before_any_probe(monkeypatch):
    # the exact plan checks the exact ring's tables, and names the ring
    cells = _ExactRows.table_cells
    assert cells(69) <= verma_oracle.CELL_LIMIT < cells(70)

    def probe(w):
        raise AssertionError("probed a rotation of an order the state sum refuses")

    monkeypatch.setattr(verma_oracle, "_probe", probe)
    start = time.perf_counter()
    for state_sum in (state_sum_jones, lambda b, N: state_sum_word(b, N, _ExactRows)):
        with pytest.raises(ValueError, match="the exact state sum at N = 70 would hold over 16777216 integer cells"):
            state_sum(parse_braid("1 1 1 2 -1 2"), 70)
    assert time.perf_counter() - start < 1.0


def test_exact_state_sum_runs_past_the_old_size_prediction():
    # N^m entries per initial state refused the figure-eight from N = 21
    b = parse_braid("1 -2 1 -2")
    assert state_sum_jones(b, 21) == colored_jones(b, 21, mode="fermionic")


def test_exact_step_refuses_past_the_cell_limit(monkeypatch):
    # raise a lowered limit to the cells each refused step names, until the
    # sum runs: at the largest step's cells it runs, one cell below it that
    # step is refused with N and its cells
    b, N = parse_braid("1 1 1 2 -1 2"), 6
    want = state_sum_jones(b, N)
    limit = verma_oracle._ExactRows.table_cells(N)
    refusals = 0
    while True:
        monkeypatch.setattr(verma_oracle, "CELL_LIMIT", limit)
        try:
            got = state_sum_jones(b, N)
            break
        except ValueError as err:
            limit = int(re.fullmatch(rf"the exact state sum at N = {N} would hold (\d+) cells in one step, "
                                     rf"over {limit}", str(err)).group(1))
            refusals += 1
    assert refusals and got == want
    monkeypatch.setattr(verma_oracle, "CELL_LIMIT", limit - 1)
    with pytest.raises(ValueError, match=f"N = {N} would hold {limit} cells in one step, over {limit - 1}"):
        state_sum_jones(b, N)


def test_exact_state_sum_emits_nothing():
    # nothing on stdout or stderr, also at interpreter exit, with warnings as errors
    code = (
        "from qknot import parse_braid, state_sum_jones\n"
        "for word in ('1 1 1', '1 -2 1 -2', '1 1 2 -1 -3 2 -3'):\n"
        "    state_sum_jones(parse_braid(word), 4)\n"
    )
    src = str(Path(verma_oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_state_sum_imports_only_braid_and_exactpoly_from_the_package(package_imports):
    # the state sum checks the series engine, so the two exact routes may
    # share exactpoly (the int64 row rule among it) and nothing else
    local = package_imports(verma_oracle.__file__)
    assert local <= {"braid", "exactpoly"}, local


def test_state_sum_unknot_normalization():
    b = parse_braid("1")
    for N in range(1, 6):
        assert state_sum_jones(b, N) == LaurentPoly.one()


def test_state_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        state_sum_jones(parse_braid("1 1"), 2)
    with pytest.raises(ValueError):
        state_sum_jones(parse_braid("1 1 1"), 0)


def _dict_walk_state_sum(b, N: int) -> complex:
    """numeric_state_sum as a walk over one initial state at a time, with a
    dict of live states and CPython complex arithmetic: the reference the
    batched kernel must match bit for bit."""
    m = b.strands
    t = verma_oracle._NumericTables(N)
    steps, last = verma_oracle._last_touch(b)

    def coeff(sign, n1, n2, l):
        if sign == 1:
            e, poch = -l * (n1 - l) + n2 * (l - n1) + n2 * (N - 1), t.poch_plus[n2][l]
            return t.phase(-((N - 1) ** 2)) * t.gauss[n1][l] * t.qpow[e % N] * poch
        e, poch = n1 * (n2 - l) - n1 * (N - 1), t.poch_minus[n1][l]
        return t.phase((N - 1) ** 2) * t.gauss[n2][l] * t.qpow[e % N] * poch

    total = 0j
    for initial in product(range(N), repeat=m - 1):
        full0 = (0,) + initial
        states = {full0: t.phase(2 * ((m - 1) * (1 - N) + 2 * sum(initial)))}
        for step, (i, eps) in enumerate(steps):
            pos = i - 1
            out = {}
            for state, c0 in states.items():
                n1, n2 = state[pos], state[pos + 1]
                lmax = min(n1, N - 1 - n2) if eps == 1 else min(n2, N - 1 - n1)
                for l in range(lmax + 1):
                    pair = (n2 + l, n1 - l) if eps == 1 else (n2 - l, n1 + l)
                    new = state[:pos] + pair + state[pos + 2 :]
                    out[new] = out.get(new, 0j) + c0 * coeff(eps, n1, n2, l)
            frozen = [p for p in range(m) if last[p] == step]
            states = {s: c for s, c in out.items() if all(s[p] == full0[p] for p in frozen)}
        total += states.get(full0, 0j)
    return t.phase(b.writhe * (N * N - 1)) * total


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("budget", [1, 37, verma_oracle._ENTRY_BUDGET, 8**5])
def test_float_state_sum_matches_dict_walk_bit_for_bit(corpus_braids, monkeypatch, budget):
    # budget 1 keeps one initial state per batch; 37 splits batches in
    # mid-sum; the default packs many; 8^5 starts each case with all
    # N^(m−1) initial states (m ≤ 3 at N ≤ 8, and m = 4 at N = 4) in one batch
    monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", budget)
    batches = []  # initial states per batch: `phases` runs once per batch
    phases = verma_oracle._NumericTables.phases

    def counted(self, units):
        batches.append(len(units))
        return phases(self, units)

    monkeypatch.setattr(verma_oracle._NumericTables, "phases", counted)
    splits = _mid_sum_splits(monkeypatch, verma_oracle._NumericTables)
    cases = [(b, N) for b in corpus_braids.values() for N in (1, 2, 3, 5, 8)]
    cases.append((parse_braid("1 1 2 -1 -3 2 -3"), 4))
    cases = [(b, N) for b, N in cases if closure_is_knot(b)]
    for b, N in cases:
        assert _bits(numeric_state_sum(b, N)) == _bits(_dict_walk_state_sum(b, N)), (b, N)
    if budget == 8**5:
        assert batches == [N ** (b.strands - 1) for b, N in cases]
    if budget == 37:
        assert any(splits)


def test_closing_step_builds_the_entries_expand_then_filter_keeps(corpus_braids, monkeypatch):
    # the entries each step hands to merge, in number and order, for both rings;
    # the rotations of 6_1 close factors 0 and 1 together while factor 2 or 3
    # is still open, so the two closing digits can ask for different l
    step_entries = verma_oracle._step_entries
    kinds = set()
    order = {}

    def checked(reps, n1, n2, eps, close_lo, close_hi):
        N = order["N"]
        src, l = step_entries(reps, n1, n2, eps, close_lo, close_hi)
        want = expand_then_filter(n1, n2, eps, N, close_lo, close_hi)
        assert (int(reps.sum()), src.tolist(), l.tolist()) == want, (eps, N, close_lo, close_hi)
        kinds.add((close_lo is not None, close_hi is not None))
        return src, l

    monkeypatch.setattr(verma_oracle, "_step_entries", checked)
    cases = [(b, N) for b in corpus_braids.values() for N in range(1, 7)]
    cases += [(b, N) for b in cyclic_rotations(parse_braid("1 1 2 -1 -3 2 -3")) for N in range(1, 5)]
    for b, N in cases:
        order["N"] = N
        numeric_state_sum(b, N)
        verma_oracle._state_sum(b, N, _ExactRows)
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}


def test_float_state_sum_rejects_oversized_code_space():
    # the guard sits in the traversal the rings share, and the planner checks
    # it before probing, for either ring
    for state_sum in (numeric_state_sum, state_sum_jones, float_sum_word,
                      lambda b, N: state_sum_word(b, N, _ExactRows)):
        with pytest.raises(ValueError):
            state_sum(parse_braid("1 2 3 4 5 6 7 8 9"), 50)


# float.hex of (real, imag) of numeric_state_sum, recorded from the
# per-initial-state dict walk that the batched kernel replaced
FLOAT_STATE_SUM_BITS = [
    ("1 -2 1 -2", 30, "0x1.f7160b720d389p+20", "0x1.85e1d1db00000p-20"),
    ("1 2 -1 2 1 1", 15, "0x1.0a7f900977427p+15", "0x1.f68c2b78017f0p+10"),
    ("1 1 1 1 1", 25, "-0x1.5c29d23ffa429p+4", "0x1.58621c8389a90p+3"),
    ("1 1 2 -1 -3 2 -3", 6, "-0x1.73ffffffffbb0p+6", "0x1.5a6900584f1f1p+6"),
    # recorded from the batched kernel before its closing steps built only
    # the kept entries, which lets these sums run in fewer, larger batches
    ("1 -2 1 -2", 60, "0x1.5bfb98cb8c15fp+36", "-0x1.893cfbdf6a384p+12"),
    ("1 -2 1 -2", 100, "0x1.35b7925dc7117p+56", "-0x1.b751aa512363ep+54"),
    ("1 2 -1 2 1 1", 30, "0x1.e67037e0b2821p+25", "-0x1.7991bbb7f6a26p+25"),
]


@pytest.mark.parametrize("word,N,real,imag", FLOAT_STATE_SUM_BITS)
def test_float_state_sum_is_pinned_bit_for_bit(word, N, real, imag):
    assert _bits(numeric_state_sum(parse_braid(word), N)) == (real, imag)


def test_float_state_sum_refuses_a_value_that_is_not_finite(overflowing_float_sum):
    # the RuntimeWarnings stay inside the sum (warnings are errors here)
    with pytest.raises(ValueError, match="N = 5"):
        numeric_state_sum(parse_braid("1 1 1"), 5)


def test_probe_ring_counts_the_entries_the_float_ring_builds(corpus_braids, benchmark_rotations, monkeypatch):
    built = []
    merge = verma_oracle._NumericTables.merge

    def counted(self, val, src, sign, n1, n2, l, key):
        built.append(len(key))
        return merge(self, val, src, sign, n1, n2, l, key)

    monkeypatch.setattr(verma_oracle._NumericTables, "merge", counted)
    words = [b for b in corpus_braids.values() if closure_is_knot(b)]
    words += [parse_braid(w) for w in benchmark_rotations]
    for b in words:
        for N in range(1, 6):
            built.clear()
            numeric_state_sum(b, N)
            assert state_sum_entries(b, N) == sum(built), (b.to_text(), N)


@pytest.mark.parametrize("ring", ["float", "probe", "exact"])
def test_no_merge_passes_the_budget_unless_its_batch_holds_one_initial_state(
        corpus_braids, benchmark_rotations, monkeypatch, ring):
    # each ring's own `cells` of the entries merged: entries for the float
    # and probe rings, a bound on the product cells for the exact ring
    monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", 37)
    cls, state_sum, orders = {
        "float": (verma_oracle._NumericTables, numeric_state_sum, range(1, 7)),
        "probe": (verma_oracle._ProbeCounts, state_sum_entries, range(1, 7)),
        "exact": (verma_oracle._ExactRows, state_sum_jones, range(1, 5)),
    }[ring]
    merge = cls.merge
    order = {}
    sizes = []

    def checked(self, val, src, sign, n1, n2, l, key):
        size = self.cells(val, len(key), len(key))
        states = len(np.unique(key // order["N"] ** order["m"]))
        assert size <= cls.budget() or states <= 1, (size, states)
        sizes.append(size)
        return merge(self, val, src, sign, n1, n2, l, key)

    monkeypatch.setattr(cls, "merge", checked)
    words = [b for b in corpus_braids.values() if closure_is_knot(b)]
    words += [parse_braid(w) for w in benchmark_rotations]
    for b in words:
        for N in orders:
            order.update(N=N, m=b.strands)
            state_sum(b, N)
    # the budget binds: batches grow until their steps come near it
    assert max(sizes) > cls.budget() // 2


def test_entry_count_does_not_depend_on_the_budget(corpus_braids, benchmark_rotations, monkeypatch):
    # the planner's input: a split never merges two initial states' entries
    words = [b for b in corpus_braids.values() if closure_is_knot(b)]
    words += [parse_braid(w) for w in benchmark_rotations]
    counts = {}
    for budget in (1, 37, verma_oracle._ENTRY_BUDGET):
        monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", budget)
        counts[budget] = [state_sum_entries(b, N) for b in words for N in range(1, 7)]
    assert counts[1] == counts[37] == counts[verma_oracle._ENTRY_BUDGET]


def test_float_tables_are_shared_but_never_with_a_cmath_stand_in(monkeypatch):
    # a float sum caches its tables at N; a stand-in sum at the same N must
    # build its own at its precision, and leave none behind for floats
    b, N = parse_braid("1 -2 1 -2"), 7
    verma_oracle._ring_tables.cache_clear()
    want = numeric_state_sum(b, N)
    assert verma_oracle._ring_tables.cache_info().currsize == 1
    monkeypatch.setattr(verma_oracle, "cmath", _MpCmath)
    with mpmath.workdps(40):
        ref = numeric_state_sum(b, N)
    with mpmath.workdps(30):
        got = numeric_state_sum(b, N)
    assert isinstance(got, mpmath.mpc)
    assert abs(got - ref) <= mpmath.mpf(10) ** -27 * abs(ref)
    assert verma_oracle._ring_tables.cache_info().currsize == 1
    monkeypatch.setattr(verma_oracle, "cmath", verma_oracle._CMATH)
    assert _bits(numeric_state_sum(b, N)) == _bits(want)
    # the shared tables are read-only
    tables = verma_oracle._ring_tables(verma_oracle._NumericTables, N)
    with pytest.raises(ValueError):
        tables._qpow[0][0] = 0.0


# a random 4-strand knot word of 11 crossings, whose rotations' entries
# differ 3.6-fold at N = 5
RANDOM_4_STRAND = "-1 3 2 -1 3 3 -1 2 -1 2 -1"


@pytest.mark.parametrize("word", [
    "1 1 1 2 -1 2",  # 5_2
    "1 1 2 -1 -3 2 -3",  # 6_1
    "1 1 1 -2 1 -2",  # 6_2
    "1 1 -2 1 -2 -2",  # 6_3
    "1 1 -2 1 3 -2 3",  # 7_6
    "1 -2 1 -2 3 -2 3",  # 7_7
    RANDOM_4_STRAND,
])
def test_planned_word_builds_near_the_fewest_entries(word):
    rotations = cyclic_rotations(parse_braid(word))
    N = 8 if rotations[0].strands == 3 else 5
    entries = {w: state_sum_entries(w, N) for w in rotations}
    for b in rotations:
        assert entries[float_sum_word(b, N)] <= 1.3 * min(entries.values()), (b.to_text(), N)
        # the entries do not depend on the ring, so neither does the plan
        assert state_sum_word(b, N, _ExactRows) == float_sum_word(b, N), (b.to_text(), N)


def test_planner_keeps_the_given_word_on_a_tie():
    # both rotations of the figure-eight build 17 entries at N = 2
    for b in cyclic_rotations(parse_braid("1 -2 1 -2")):
        assert state_sum_entries(b, 2) == 17
        assert all(float_sum_word(b, N) == b for N in range(1, 31))
    # strictly fewer switches, to the first word with the fewest
    assert float_sum_word(parse_braid("1 1 1 2 -1 2"), 10).to_text() == "1 1 2 -1 2 1"


def _long_knot_word(strands: int, letters: int, seed: int):
    rng = random.Random(seed)
    while True:
        word = tuple((rng.randrange(1, strands), rng.choice((1, -1))) for _ in range(letters))
        b = BraidWord(strands, word)
        if closure_is_knot(b):
            return b


def test_planner_probes_at_most_its_cap_b_first(monkeypatch, caplog):
    # ⌊(N/2)^(m−1)⌋ rotations at most, and none while N^(2m−1) ≤ 4096;
    # all 200 would cost about 90 sums at N = 3
    b = _long_knot_word(3, 200, seed=7)
    probed = []
    entries = verma_oracle.state_sum_entries

    def counted(w, N):
        probed.append(w)
        return entries(w, N)

    monkeypatch.setattr(verma_oracle, "state_sum_entries", counted)
    rotations = cyclic_rotations(b)
    assert len(rotations) == 200
    chosen = {}
    for N, cap in ((2, 0), (5, 0), (6, 9), (10, 25)):
        probed.clear()
        verma_oracle._probe.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
            chosen[N] = float_sum_word(b, N)
        assert probed == rotations[:cap]
        assert chosen[N] in rotations[: max(1, cap)]
    # one record per plan that compares words, naming its ring, both words and counts
    records = [rec.args for rec in caplog.records if rec.name == "qknot.verma_oracle"]
    assert [args[:5] for args in records] == [("float", N, chosen[N].to_text(), b.to_text(), cap)
                                              for N, cap in ((6, 9), (10, 25))]
    assert records[-1][5:] == (2, entries(b, 2), entries(chosen[10], 2))


def test_exact_state_sum_logs_the_word_it_sums_on(caplog, monkeypatch):
    # the planner's record names the ring that sums on the word it picks,
    # and the exact ring sums there
    b = parse_braid("-3 1 1 2 -1 -3 2")
    summed = []
    real = verma_oracle._state_sum
    monkeypatch.setattr(verma_oracle, "_state_sum", lambda w, N, ring: summed.append((w, ring)) or real(w, N, ring))
    with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
        want = state_sum_jones(b, 4)
        numeric_state_sum(float_sum_word(b, 4), 4)
    assert [w.to_text() for w, ring in summed if ring is _ExactRows] == ["1 2 -1 -3 2 -3 1"]
    records = [rec for rec in caplog.records if rec.name == "qknot.verma_oracle"]
    assert [rec.levelno for rec in records] == [logging.DEBUG] * 2
    assert [rec.args[:4] for rec in records] == [(ring, 4, "1 2 -1 -3 2 -3 1", b.to_text())
                                                 for ring in ("exact", "float")]
    assert records[0].getMessage().startswith("exact N = 4: state sum on '1 2 -1 -3 2 -3 1' of ")
    assert want == state_sum_jones_on_word(parse_braid("1 2 -1 -3 2 -3 1"), 4) == state_sum_jones_on_word(b, 4)
