import logging
import os
import subprocess
import sys
import time
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qknot import exactpoly, verma_oracle
from qknot.braid import closure_is_knot, parse_braid
from qknot.exactpoly import LaurentPoly, q_int_binom
from qknot.mcmahon import colored_jones
from qknot.qweyl import AlgebraElement, NormalMonomial, StrandSigns, normal_order_product
from qknot.verma_oracle import apply_braiding, braiding_coeff, numeric_state_sum, state_sum_jones

from oracles import braid_relation_holds, braiding_inverse_holds, table_coefficients


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
    signs = StrandSigns((1,))
    x_plus_y = AlgebraElement.generator("c", 1) + AlgebraElement.generator("a", 1)
    power = AlgebraElement.one()
    for n in range(1, 7):
        power = normal_order_product(power, x_plus_y, signs)
        seen = dict(power.terms)
        for l in range(n + 1):
            mono = NormalMonomial.from_map({1: (0, l, n - l)})
            assert seen.pop(mono) == q_int_binom(n, l, -1), (n, l)
        assert seen == {}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [1, verma_oracle._ENTRY_BUDGET])
def test_state_sum_matches_series_engine_on_corpus(corpus_braids, monkeypatch, budget):
    # budget 1 runs small batches (64 row cells for the exact ring); the default packs many
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", ["int64", "object", "one state per batch"])
def test_exact_state_sum_matches_apply_braiding_walk(monkeypatch, caplog, benchmark_rotations, rows):
    if rows == "object":
        # every product's bound passes the threshold, so every row leaves int64
        monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    if rows == "one state per batch":
        monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", 1)
        monkeypatch.setattr(verma_oracle, "_CELLS_PER_ENTRY", 1)
    cases = [(w, N) for w in benchmark_rotations for N in (1, 2, 3, 4)]
    cases.append(("1 1 2 -1 -3 2 -3", 5))
    with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
        for word, N in cases:
            assert state_sum_jones(parse_braid(word), N) == _exact_walk_state_sum(word, N), (word, N)
    assert bool(caplog.records) == (rows == "object")


def test_coefficient_rows_leaving_int64_are_logged(monkeypatch, caplog):
    # the braiding coefficients are the seventh int64 site, and log as the others
    monkeypatch.setattr(exactpoly, "INT64_SAFE", 1.0)
    rows = verma_oracle._ExactRows(4)
    n1, n2, l = np.array([2, 3, 1]), np.array([0, 1, 2]), np.array([1, 2, 1])
    with caplog.at_level(logging.DEBUG, logger="qknot.verma_oracle"):
        C, _, _ = rows.coeff(1, n1, n2, l)
    assert C.dtype == object
    assert len(caplog.records) == 1
    assert "leave int64" in caplog.records[0].getMessage()


def test_exact_state_sum_refuses_oversized_work_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer cells"):
        state_sum_jones(parse_braid("1 1 1"), 400)
    assert time.perf_counter() - start < 1.0


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


@pytest.mark.parametrize("budget", [1, verma_oracle._ENTRY_BUDGET])
def test_float_state_sum_matches_dict_walk_bit_for_bit(corpus_braids, monkeypatch, budget):
    # budget 1 keeps one initial state per batch; the default packs many
    monkeypatch.setattr(verma_oracle, "_ENTRY_BUDGET", budget)
    cases = [(b, N) for b in corpus_braids.values() for N in (1, 2, 3, 5, 8)]
    cases.append((parse_braid("1 1 2 -1 -3 2 -3"), 4))
    for b, N in cases:
        if closure_is_knot(b):
            assert _bits(numeric_state_sum(b, N)) == _bits(_dict_walk_state_sum(b, N)), (b, N)


def test_float_state_sum_rejects_oversized_code_space():
    # the guard sits in the traversal both rings share
    for state_sum in (numeric_state_sum, state_sum_jones):
        with pytest.raises(ValueError):
            state_sum(parse_braid("1 2 3 4 5 6 7 8 9"), 50)


# float.hex of (real, imag) of numeric_state_sum, recorded from the
# per-initial-state dict walk that the batched kernel replaced
FLOAT_STATE_SUM_BITS = [
    ("1 -2 1 -2", 30, "0x1.f7160b720d389p+20", "0x1.85e1d1db00000p-20"),
    ("1 2 -1 2 1 1", 15, "0x1.0a7f900977427p+15", "0x1.f68c2b78017f0p+10"),
    ("1 1 1 1 1", 25, "-0x1.5c29d23ffa429p+4", "0x1.58621c8389a90p+3"),
    ("1 1 2 -1 -3 2 -3", 6, "-0x1.73ffffffffbb0p+6", "0x1.5a6900584f1f1p+6"),
]


@pytest.mark.parametrize("word,N,real,imag", FLOAT_STATE_SUM_BITS)
def test_float_state_sum_is_pinned_bit_for_bit(word, N, real, imag):
    assert _bits(numeric_state_sum(parse_braid(word), N)) == (real, imag)
