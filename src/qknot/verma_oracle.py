"""Colored Jones polynomial via the twisted R-matrix state sum.

A braid generator acts on adjacent tensor factors of the N-dimensional
module by the twisted braiding, whose matrix entries are closed-form
q-binomial/pochhammer products on the quarter-exponent lattice.  The trace
over states with first index pinned to 0, weighted by the diagonal
K-inverse on the traced factors and the writhe prefactor v^{w(N²−1)/2},
gives J′ normalized to 1 on the unknot.  This route shares no code with the
determinant-series engine and serves as its cross-validation oracle.

One batched traversal (`_state_sum`) runs the sum over either coefficient
ring: exact LaurentPoly values (`state_sum_jones`) or complex floats at
q = exp(2πi/N), the Kashaev value for large N (`numeric_state_sum`).
`apply_braiding` is the single-vector form of the braiding, used by the
braid-relation and inverse checks.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product

import numpy as np

from .braid import BraidWord, closure_is_knot
from .exactpoly import LaurentPoly, QExponent, q_int_binom

StateVector = dict[tuple[int, ...], LaurentPoly]


def qint_bracket(n: int) -> LaurentPoly:
    """Balanced quantum integer [n] = (vⁿ − v^{−n})/(v − v^{−1})."""
    if n < 0:
        return -qint_bracket(-n)
    out = LaurentPoly.zero()
    for j in range(n):
        out = out + LaurentPoly.term(1, QExponent.of_v(n - 1 - 2 * j))
    return out


@dataclass(frozen=True)
class BasisState:
    """Tensor basis label (n_1,…,n_m); cap > 0 restricts to n_i ≤ cap−1."""

    exponents: tuple[int, ...]
    cap: int = 0

    def __post_init__(self):
        if any(n < 0 for n in self.exponents):
            raise ValueError("negative exponent in basis state")
        if self.cap > 0 and any(n >= self.cap for n in self.exponents):
            raise ValueError(f"exponent exceeds module cap {self.cap}")


@dataclass(frozen=True)
class VermaAction:
    """K, E, F on basis vectors e_i of the weight-N module.

    K e_i = v^{N−1−2i} e_i;  E e_i = (1 + q^{-1} + … + q^{-(i−1)}) e_{i−1};
    F e_i = v^i [N−1−i] e_{i+1}.  N may be any integer.
    """

    N: int

    def k_weight(self, i: int) -> LaurentPoly:
        return LaurentPoly.term(1, QExponent.of_v(self.N - 1 - 2 * i))

    def e_coeff(self, i: int) -> LaurentPoly:
        out = LaurentPoly.zero()
        for j in range(i):
            out = out + LaurentPoly.q_power(-j)
        return out

    def f_coeff(self, i: int) -> LaurentPoly:
        return qint_bracket(self.N - 1 - i) * LaurentPoly.term(1, QExponent.of_v(i))


def braiding_coeff(sign: int, n1: int, n2: int, l: int, N: int) -> LaurentPoly:
    """Coefficient of e_{n2±l} ⊗ e_{n1∓l} in the twisted braiding of
    e_{n1} ⊗ e_{n2}, with z = q^{N−1} substituted.

    sign=+1: q^{−(N−1)²/4} binom(n1,l)_{q^{-1}} q^{n2(l−n1)} z^{n2} ∏_{i<l}(1−zq^{−n2−i})
    sign=−1: q^{+(N−1)²/4} binom(n2,l)_q q^{n1(n2−l)} z^{−n1} ∏_{i<l}(1−z^{-1}q^{n1+i})
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if sign == 1:
        binom = q_int_binom(n1, l, 1)
        if binom.is_zero():
            return LaurentPoly.zero()
        out = binom.shift(QExponent.of_v_half(-(N - 1) ** 2))
        out = out.shift(QExponent.of_q(n2 * (l - n1) + n2 * (N - 1)))
        for i in range(l):
            out = out * (LaurentPoly.one() - LaurentPoly.q_power(N - 1 - n2 - i))
        return out
    if sign == -1:
        binom = q_int_binom(n2, l, -1)
        if binom.is_zero():
            return LaurentPoly.zero()
        out = binom.shift(QExponent.of_v_half((N - 1) ** 2))
        out = out.shift(QExponent.of_q(n1 * (n2 - l) - n1 * (N - 1)))
        for i in range(l):
            out = out * (LaurentPoly.one() - LaurentPoly.q_power(n1 + i - (N - 1)))
        return out
    raise ValueError("sign must be ±1")


def apply_braiding(
    states: StateVector, pos: int, sign: int, N: int, cap: int
) -> StateVector:
    """Apply id ⊗ … ⊗ b̌_sign ⊗ … ⊗ id at 0-based factor pair (pos, pos+1)."""
    out: StateVector = {}
    for state, coeff in states.items():
        n1, n2 = state[pos], state[pos + 1]
        lmax = min(n1, cap - 1 - n2) if sign == 1 else min(n2, cap - 1 - n1)
        for l in range(lmax + 1):
            c = braiding_coeff(sign, n1, n2, l, N)
            if c.is_zero():
                continue
            if sign == 1:
                pair = (n2 + l, n1 - l)
            else:
                pair = (n2 - l, n1 + l)
            new = state[:pos] + pair + state[pos + 2 :]
            acc = out.get(new)
            term = coeff * c
            if acc is None:
                if not term.is_zero():
                    out[new] = term
            else:
                acc = acc + term
                if acc.is_zero():
                    del out[new]
                else:
                    out[new] = acc
    return out


def _last_touch(b: BraidWord) -> tuple[list[tuple[int, int]], list[int]]:
    """Application steps (reversed word) and, per 0-based factor, the last
    step index that can change it (−1 when untouched)."""
    steps = list(reversed(b.word))
    last = [-1] * b.strands
    for t, (i, _) in enumerate(steps):
        last[i - 1] = t
        last[i] = t
    return steps, last


def check_braid_relation(N: int, cap: int) -> bool:
    """b̌₁₂ b̌₂₃ b̌₁₂ = b̌₂₃ b̌₁₂ b̌₂₃ on all basis vectors of the capped
    triple tensor power (cap = N is the exact module check)."""
    if not 1 <= cap <= N:
        raise ValueError("need 1 ≤ cap ≤ N")
    for state in product(range(cap), repeat=3):
        start: StateVector = {state: LaurentPoly.one()}
        lhs = start
        for pos in (0, 1, 0):
            lhs = apply_braiding(lhs, pos, 1, N, cap)
        rhs = start
        for pos in (1, 0, 1):
            rhs = apply_braiding(rhs, pos, 1, N, cap)
        keys = set(lhs) | set(rhs)
        for key in keys:
            a = lhs.get(key, LaurentPoly.zero())
            c = rhs.get(key, LaurentPoly.zero())
            if not (a - c).is_zero():
                return False
    return True


def check_braiding_inverse(N: int, cap: int) -> bool:
    """b̌₋ b̌₊ = id on all basis vectors of the capped double tensor power."""
    if not 1 <= cap <= N:
        raise ValueError("need 1 ≤ cap ≤ N")
    for state in product(range(cap), repeat=2):
        vec: StateVector = {state: LaurentPoly.one()}
        vec = apply_braiding(vec, 0, 1, N, cap)
        vec = apply_braiding(vec, 0, -1, N, cap)
        for key, coeff in vec.items():
            expect = LaurentPoly.one() if key == state else LaurentPoly.zero()
            if not (coeff - expect).is_zero():
                return False
        if state not in vec:
            return False
    return True


# Largest count of expanded entries (live state × l) that one braiding step
# of the state sum holds at once, counted in float entries; batches of
# initial states grow only while they stay under it.
_ENTRY_BUDGET = 4096

# Complex numbers travel as (real, imag) pairs of arrays: numpy's complex128
# product differs from CPython's in the last bit, the split one does not.
Split = tuple[np.ndarray, np.ndarray]


def _split(values) -> Split:
    """Real and imaginary parts of complex numbers (object arrays when cmath
    is replaced by a high-precision stand-in)."""
    return np.array([z.real for z in values]), np.array([z.imag for z in values])


def _cmul(a: Split, b: Split) -> Split:
    """Complex product, rounding exactly as CPython's complex multiplication."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _take(a: Split, *index) -> Split:
    return a[0][index], a[1][index]


class _NumericTables:
    """Root-of-unity tables: exact-phase quarter powers, Gaussian binomials,
    and braiding pochhammer prefixes at q = exp(2πi/N), with split arrays of
    the braiding coefficient factors.  The state sum's float ring: values
    are split pairs."""

    zero = (0.0, 0.0)
    mul = staticmethod(_cmul)

    def __init__(self, N: int):
        self.N = N
        self.budget = _ENTRY_BUDGET
        self.quarter = [cmath.exp(2j * cmath.pi * t / (4 * N)) for t in range(4 * N)]
        qpow = [self.quarter[(4 * t) % (4 * N)] for t in range(N)]
        self.qpow = qpow
        gb = [[0j] * (N + 1) for _ in range(N)]
        for n in range(N):
            gb[n][0] = 1 + 0j
            for l in range(1, n + 1):
                gb[n][l] = gb[n - 1][l - 1] + qpow[l % N] * gb[n - 1][l]
        self.gauss = gb
        self.poch_plus = [self._prefix(N - 1 - n2, -1) for n2 in range(N)]
        self.poch_minus = [self._prefix(n1 - (N - 1), 1) for n1 in range(N)]

        def grid(rows) -> Split:
            re, im = _split([z for row in rows for z in row])
            return re.reshape(N, N + 1), im.reshape(N, N + 1)

        self._quarter = _split(self.quarter)
        self._qpow = _split(qpow)
        # phase · gauss, the first product of each coefficient, per sign
        self._head = {
            sign: grid([[self.phase(-sign * (N - 1) ** 2) * g for g in row] for row in gb])
            for sign in (1, -1)
        }
        self._poch = {1: grid(self.poch_plus), -1: grid(self.poch_minus)}

    def _prefix(self, start: int, step: int) -> list[complex]:
        out = [1 + 0j]
        acc = 1 + 0j
        for i in range(self.N):
            acc *= 1 - self.qpow[(start + step * i) % self.N]
            out.append(acc)
        return out

    def phase(self, quarter_units: int) -> complex:
        return self.quarter[quarter_units % (4 * self.N)]

    def phases(self, quarter_units: np.ndarray) -> Split:
        """phase() of an integer array."""
        return _take(self._quarter, quarter_units % (4 * self.N))

    def coeff(self, sign: int, n1: np.ndarray, n2: np.ndarray, l: np.ndarray) -> Split:
        """Braiding coefficients of e_{n1} ⊗ e_{n2} → (l) for index arrays,
        multiplied left to right as phase · gauss · qpow · poch."""
        N = self.N
        if sign == 1:
            row, e, col = n1, -l * (n1 - l) + n2 * (l - n1) + n2 * (N - 1), n2
        else:
            row, e, col = n2, n1 * (n2 - l) - n1 * (N - 1), n1
        c = _cmul(_take(self._head[sign], row, l), _take(self._qpow, e % N))
        return _cmul(c, _take(self._poch[sign], col, l))


class _ExactTables:
    """The state sum's exact ring: values are 1-tuples of object arrays of
    LaurentPoly, and each braiding_coeff is built once per table."""

    zero = (LaurentPoly.zero(),)

    def __init__(self, N: int):
        # A LaurentPoly entry holds far more memory than a float pair; at a
        # sixteenth of the float budget the exact sum runs as fast as at the
        # full one, with under half the added peak memory.
        self.budget = max(1, _ENTRY_BUDGET // 16)
        self._coeff = {sign: np.empty((N, N, N), dtype=object) for sign in (1, -1)}
        for sign, grid in self._coeff.items():
            for n1, n2, l in product(range(N), repeat=3):
                grid[n1, n2, l] = braiding_coeff(sign, n1, n2, l, N)

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        return (a[0] * b[0],)

    @staticmethod
    def phases(quarter_units: np.ndarray) -> tuple:
        return (np.array([LaurentPoly.term(1, t) for t in quarter_units.tolist()], dtype=object),)

    def coeff(self, sign: int, n1: np.ndarray, n2: np.ndarray, l: np.ndarray) -> tuple:
        return (self._coeff[sign][n1, n2, l],)


def _first_appearance_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group of each entry, first entry of each group), groups numbered in
    order of first appearance of their key."""
    order = np.argsort(key)
    ks = key[order]
    new = np.empty(len(ks), dtype=bool)
    new[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    rank = np.empty(len(starts), dtype=np.int64)
    rank[by_first] = np.arange(len(starts))
    group = np.empty(len(key), dtype=np.int64)
    group[order] = rank[np.cumsum(new) - 1]
    return group, first[by_first]


def _sum_by_group(group: np.ndarray, values: np.ndarray, count: int, zero) -> np.ndarray:
    """Per-group sums, each taken from zero in entry order: bincount and
    add.at both add sequentially; bincount is faster but takes floats only."""
    if values.dtype != object:
        return np.bincount(group, weights=values, minlength=count)
    out = np.full(count, zero, dtype=object)
    np.add.at(out, group, values)
    return out


def _state_sum(b: BraidWord, N: int, ring) -> tuple:
    """The state sum before the writhe phase, in the coefficient ring whose
    tables `ring(N)` builds: (tables, total as the ring's parts).

    Initial states run in batches; the live entries of a batch are flat
    arrays of initial state, base-N state code and value.  Summation order
    is fixed: each state accumulates its terms in the order of a walk over
    one initial state at a time, live states in order of first appearance
    and l ascending, and the diagonal entries are added in initial-state
    order.  The result is therefore independent of the batch sizes."""
    m = b.strands
    # a batch holds at most _ENTRY_BUDGET initial states; its keys must fit int64
    if N**m * _ENTRY_BUDGET >= 2**63:
        raise ValueError(f"N^strands = {N}^{m} is too large for the state sum")
    tables = ring(N)
    steps, last = _last_touch(b)
    place = [N**p for p in range(m + 1)]
    total = tables.zero
    start, size = 0, 1
    while start < place[m - 1]:
        size = min(size, place[m - 1] - start)
        # initial state k is the k-th tuple of product(range(N), repeat=m−1)
        k = np.arange(start, start + size, dtype=np.int64)
        digits = [np.zeros(size, dtype=np.int64)] + [
            (k // place[m - 1 - p]) % N for p in range(1, m)
        ]
        full0 = sum(d * place[p] for p, d in enumerate(digits))
        seg = np.arange(size, dtype=np.int64)
        code = full0
        val = tables.phases(2 * ((m - 1) * (1 - N) + 2 * sum(digits)))
        peak = size
        for t, (i, eps) in enumerate(steps):
            lo, hi = place[i - 1], place[i]
            n1, n2 = (code // lo) % N, (code // hi) % N
            reps = 1 + (np.minimum(n1, N - 1 - n2) if eps == 1 else np.minimum(n2, N - 1 - n1))
            src = np.repeat(np.arange(len(code)), reps)
            l = np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps)
            peak = max(peak, len(src))
            n1, n2 = n1[src], n2[src]
            term = tables.mul([part[src] for part in val], tables.coeff(eps, n1, n2, l))
            shift = l if eps == 1 else -l
            code = code[src] + (n2 + shift - n1) * lo + (n1 - shift - n2) * hi
            seg = seg[src]
            keep = np.ones(len(code), dtype=bool)
            for p in range(m):
                if last[p] == t:
                    keep &= (code // place[p]) % N == digits[p][seg]
            code, seg = code[keep], seg[keep]
            group, first = _first_appearance_groups(seg * place[m] + code)
            code, seg = code[first], seg[first]
            val = [
                _sum_by_group(group, part[keep], len(first), zero)
                for part, zero in zip(term, tables.zero)
            ]
        hit = code == full0[seg]
        diag = [np.full(size, zero, dtype=part.dtype) for part, zero in zip(val, tables.zero)]
        for d, part in zip(diag, val):
            d[seg[hit]] = part[hit]
        # sequential sums onto the running total, in initial-state order
        total = tuple(np.cumsum(np.concatenate(([acc], d)))[-1] for acc, d in zip(total, diag))
        start += size
        if 2 * peak <= tables.budget:
            size *= 2
        elif peak > tables.budget:
            size = max(1, size // 2)
    return tables, total


def state_sum_jones(b: BraidWord, N: int) -> LaurentPoly:
    """J′ of the braid closure by the exact state sum, N ≥ 1."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    _, (total,) = _state_sum(b, N, _ExactTables)
    out = total.shift(QExponent.of_v_half(b.writhe * (N * N - 1)))
    if not (out.is_univariate_q() and out.has_integer_q_powers()):
        raise AssertionError("state sum landed off the integer q-lattice")
    return out


def numeric_state_sum(b: BraidWord, N: int) -> complex:
    """The state sum with coefficients at q = exp(2πi/N): the order-N Kashaev
    value of the closure.  With cmath replaced by a stand-in whose exp
    returns mpmath numbers (as perfbench/make_refs.py does for 60-digit
    references), the same kernel runs on object arrays at that precision."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    tables, total = _state_sum(b, N, _NumericTables)
    phase = tables.phase(b.writhe * (N * N - 1))
    # complex, or the stand-in's complex type under a high-precision cmath
    return phase * type(phase)(*total)
