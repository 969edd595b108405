"""Colored Jones polynomial via the twisted R-matrix state sum.

A braid generator acts on adjacent tensor factors of the N-dimensional
module by the twisted braiding, whose matrix entries are closed-form
q-binomial/pochhammer products on the quarter-exponent lattice.  The trace
over states with first index pinned to 0, weighted by the diagonal
K-inverse on the traced factors and the writhe prefactor v^{w(N²−1)/2},
gives J′ normalized to 1 on the unknot.  This route shares only
`exactpoly` with the determinant-series engine and serves as its
cross-validation oracle.

One batched traversal (`_state_sum`) runs the sum over any of three
rings.  The exact ring (`_ExactRows`, for `state_sum_jones`) holds each value
as an int64 row of whole-q coefficients with a whole-q offset per row, and
one quarter-exponent offset per sum.  Each product is bounded beforehand by
Σ‖row‖∞·‖coeff‖₁, and `exactpoly.fit_rows` moves the rows to object dtype
of Python ints where that could reach 2^62.  A step whose rows would pass
`exactpoly.CELL_LIMIT` cells is refused with ValueError before they are
allocated, and an order whose tables, exact or float, would pass it is
refused before they are built (`_check_size`).  The float ring
(`_NumericTables`, for `numeric_state_sum`) works in complex floats at
q = exp(2πi/N), the Kashaev value for large N, on tables built by array
steps that round as CPython's scalar complex arithmetic.  The probe ring
(`_ProbeCounts`, for `state_sum_entries`) carries no values and counts the
entries the float ring would build (the exact ring, which drops the groups
that sum to zero, builds no more).  `state_sum_word` uses it at N = 2 to
pick the cyclic rotation of a word whose sum builds the fewest, and both
value rings sum there: `state_sum_jones` itself, and the Kashaev routes for
`numeric_state_sum`, which sums the word it is given.  A rotation is a
conjugate braid with the same closure, writhe and strand count, so no value
changes, only the work.  The plan imports nothing from the series engine.
`apply_braiding` (with `braiding_coeff`) is the single-vector
form of the braiding: the walk reference that the tests hold the exact
ring to, kept here because the benchmark tracer wraps both names.
"""
from __future__ import annotations

import cmath
import logging
from functools import lru_cache

import numpy as np

from .braid import BraidWord, closure_is_knot, cyclic_rotations
from .exactpoly import CELL_LIMIT, LaurentPoly, Q_UNIT, fit_rows, key_runs, q_int_binom

StateVector = dict[tuple[int, ...], LaurentPoly]

_log = logging.getLogger(__name__)

# the standard library's cmath, whose float tables `_state_sum` may share;
# perfbench/make_refs.py and the tests replace the module's cmath by an
# mpmath stand-in for high-precision sums
_CMATH = cmath


def braiding_coeff(sign: int, n1: int, n2: int, l: int, N: int) -> LaurentPoly:
    """Coefficient of e_{n2±l} ⊗ e_{n1∓l} in the twisted braiding of
    e_{n1} ⊗ e_{n2}, with z = q^{N−1} substituted.  `apply_braiding`'s
    coefficient, which the benchmark tracer counts by name; the tests check
    it against `_ExactRows`' tables entry by entry.

    sign=+1: q^{−(N−1)²/4} binom(n1,l)_{q^{-1}} q^{n2(l−n1)} z^{n2} ∏_{i<l}(1−zq^{−n2−i})
    sign=−1: q^{+(N−1)²/4} binom(n2,l)_q q^{n1(n2−l)} z^{−n1} ∏_{i<l}(1−z^{-1}q^{n1+i})
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if sign == 1:
        binom = q_int_binom(n1, l, 1)
        if binom.is_zero():
            return LaurentPoly.zero()
        out = binom.shift(-(N - 1) ** 2)
        out = out.shift(Q_UNIT * (n2 * (l - n1) + n2 * (N - 1)))
        for i in range(l):
            out = out * (LaurentPoly.one() - LaurentPoly.q_power(N - 1 - n2 - i))
        return out
    if sign == -1:
        binom = q_int_binom(n2, l, -1)
        if binom.is_zero():
            return LaurentPoly.zero()
        out = binom.shift((N - 1) ** 2)
        out = out.shift(Q_UNIT * (n1 * (n2 - l) - n1 * (N - 1)))
        for i in range(l):
            out = out * (LaurentPoly.one() - LaurentPoly.q_power(n1 + i - (N - 1)))
        return out
    raise ValueError("sign must be ±1")


def apply_braiding(states: StateVector, pos: int, sign: int, N: int) -> StateVector:
    """Apply id ⊗ … ⊗ b̌_sign ⊗ … ⊗ id at 0-based factor pair (pos, pos+1)
    of W_N^⊗m.  Nothing in the package calls it: it is the tests' walk
    reference for `state_sum_jones`, and the benchmark tracer wraps it."""
    out: StateVector = {}
    for state, coeff in states.items():
        n1, n2 = state[pos], state[pos + 1]
        lmax = min(n1, N - 1 - n2) if sign == 1 else min(n2, N - 1 - n1)
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


# The initial states a batch starts with, and the largest count of entries
# (live state, l) that one braiding step of the float and probe rings builds
# at once, unless its batch holds one initial state: `_state_sum` splits a
# batch before a step that would pass it.  A step that closes a factor
# builds at most one entry per live state (see `_step_entries`), so it is
# charged its live count.
_ENTRY_BUDGET = 4096

# The exact ring counts its budget in row cells (`_ExactRows.cells`), this
# many per float entry, and splits its batches by the same rule.  A step
# holds a few int64 arrays of about that size, 1 MB each by default; at 64
# cells the peak RSS of 5_2 at N = 12 rose 4 MB over 32, with no clear
# gain in time.
_CELLS_PER_ENTRY = 32

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
    """Root-of-unity tables at q = exp(2πi/N): the quarter powers (`quarter`,
    `phase`, `_quarter`), and split arrays of q^t (`_qpow`) and, per sign,
    phase · Gaussian binomial (`_head`) and pochhammer prefix (`_poch`).
    The state sum's float ring: values are split pairs, and each group sums
    its entries in entry order."""

    zero = (0.0, 0.0)
    name, unit = "float", "complex"

    def __init__(self, N: int):
        self.N = N
        self.quarter = tuple(cmath.exp(2j * cmath.pi * t / (4 * N)) for t in range(4 * N))
        self._quarter = _split(self.quarter)
        self._qpow = qre, qim = _take(self._quarter, 4 * np.arange(N))
        # Each table is built by array steps of `_cmul` and componentwise sums,
        # so every entry rounds as in the scalar CPython complex recurrence (on
        # object arrays under a cmath stand-in).  Gaussian binomials by
        # Pascal's rule, a row per step: [n, l] = [n−1, l−1] + q^l [n−1, l]
        gre, gim = (np.full((N, N + 1), 0.0, dtype=qre.dtype) for _ in range(2))
        gre[:, 0] = 1.0
        for n in range(1, N):
            re, im = _cmul((qre[1 : n + 1], qim[1 : n + 1]), (gre[n - 1, 1 : n + 1], gim[n - 1, 1 : n + 1]))
            gre[n, 1 : n + 1] = gre[n - 1, :n] + re
            gim[n, 1 : n + 1] = gim[n - 1, :n] + im
        # phase · gauss, the first product of each coefficient, per sign
        self._head = {sign: _cmul(_split([self.phase(-sign * (N - 1) ** 2)]), (gre, gim)) for sign in (1, -1)}
        # pochhammer prefixes ∏_{i<l}(1 − q^{N−1−n−i}) (sign +1) and
        # ∏_{i<l}(1 − q^{n−(N−1)+i}) (sign −1), transposed: step i advances all
        # 2N rows by factor i; 1 − z is (1.0 − re, 0.0 − im), as int − complex
        n = np.arange(N)
        start, step = np.concatenate((N - 1 - n, n - (N - 1))), np.repeat([-1, 1], N)
        pre, pim = (np.empty((N + 1, 2 * N), dtype=qre.dtype) for _ in range(2))
        pre[0], pim[0] = 1.0, 0.0
        for i in range(N):
            e = (start + step * i) % N
            pre[i + 1], pim[i + 1] = _cmul((pre[i], pim[i]), (1.0 - qre[e], 0.0 - qim[e]))
        self._poch = {1: (pre[:, :N].T, pim[:, :N].T), -1: (pre[:, N:].T, pim[:, N:].T)}
        # the tables are shared by every sum at N (`_ring_tables`)
        for pair in (self._quarter, self._qpow, *self._head.values(), *self._poch.values()):
            for part in pair:
                part.setflags(write=False)

    @staticmethod
    def budget() -> int:
        return _ENTRY_BUDGET

    @staticmethod
    def table_cells(N: int) -> int:
        """The size `_check_size` admits the tables by, 7·N·(N+1) complex
        cells (N ≤ 1,547): they keep four N×(N+1) split grids, head and poch
        of each sign, and build a fifth, the Gaussian binomials."""
        return 7 * N * (N + 1)

    @staticmethod
    def cells(val: Split, pairs: int, built: int) -> int:
        """A step's size: the entries it builds, or for a step that closes a
        factor its live states, which bound them (also on arrays)."""
        return built

    take = staticmethod(_take)

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

    def merge(self, val: Split, src, sign: int, n1, n2, l, key) -> tuple[np.ndarray, Split]:
        """Each entry is val[src] times its braiding coefficient; the entries
        are summed per key, groups in order of first appearance and each in
        entry order.  Returns (first entry of each group, the group sums)."""
        term = _cmul(_take(val, src), self.coeff(sign, n1, n2, l))
        group, first = _first_appearance_groups(key)
        return first, tuple(
            _sum_by_group(group, part, len(first), zero) for part, zero in zip(term, self.zero)
        )

    def collect(self, total: Split, val: Split, hit, seg, size: int) -> Split:
        """Add the diagonal entries val[hit] (of initial states seg) to the
        running total, sequentially in initial-state order."""
        diag = [np.full(size, zero, dtype=part.dtype) for part, zero in zip(val, self.zero)]
        for d, part in zip(diag, val):
            d[seg] = part[hit]
        return tuple(np.cumsum(np.concatenate(([acc], d)))[-1] for acc, d in zip(total, diag))


class _ProbeCounts:
    """The state sum's probe ring: indices without values.  `merge` only
    groups the keys (`key_runs`), and `entries` counts the entries the
    traversal builds, which at the same N are the float ring's, batch for
    batch."""

    zero = None
    budget = staticmethod(_NumericTables.budget)
    cells = staticmethod(_NumericTables.cells)

    @staticmethod
    def table_cells(N: int) -> int:
        return 0  # a probe builds no tables

    def __init__(self, N: int):
        self.entries = 0

    def phases(self, quarter_units: np.ndarray) -> None:
        return None

    def take(self, val: None, rows) -> None:
        return None

    def merge(self, val: None, src, sign: int, n1, n2, l, key) -> tuple[np.ndarray, None]:
        self.entries += len(key)
        order, starts = key_runs(key)
        return order[starts], None

    def collect(self, total: None, val: None, hit, seg, size: int) -> None:
        return None


Rows = tuple[np.ndarray, np.ndarray, int]


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of the polynomials whose coefficients (lowest
    first) are the rows of a and b.  Callers bound the result beforehand."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    W = a.shape[1]
    out = np.zeros((len(a), W + b.shape[1] - 1), dtype=np.result_type(a, b))
    tmp = np.empty_like(out[:, :W])
    for j in range(b.shape[1]):
        np.multiply(a, b[:, j : j + 1], out=tmp)
        out[:, j : j + W] += tmp
    return out


class _ExactRows:
    """The state sum's exact ring on integer rows.

    A value (V, O, base) holds one polynomial per row: V[e, j] is the
    coefficient of q^{base/4 + O[e] + j}.  Each row has its own whole-q
    offset O[e], so where its terms lie does not depend on the other rows
    of its batch.  The quarter offset `base` is one integer, since every
    value of one sum lies in one quarter-exponent class: the initial phases
    are ≡ 2(m−1)(1−N) mod 4, and each crossing adds ∓(N−1)².  The
    coefficient of a braiding entry is q^{∓(N−1)²/4 + shift} · gauss ⊛ poch,
    from integer tables built once per N: the standard Gaussian binomials
    [n, l]_q by their recurrence, and the pochhammer prefixes
    ∏_{i<l}(1 − q^{N−1−n−i}).  The sign −1 prefixes ∏_{i<l}(1 − q^{n+i−(N−1)})
    are (−1)^l q^{−deg} times the same rows, deg being the row's degree."""

    zero = LaurentPoly.zero()
    name, unit = "exact", "integer"

    def __init__(self, N: int):
        self.N = N
        # every entry of both tables is below 2^(N−1)
        dtype = np.int64 if N < 63 else object
        gauss = np.zeros((N, N, (N - 1) ** 2 // 4 + 1), dtype=dtype)
        gauss[:, 0, 0] = 1
        for n in range(1, N):
            for l in range(1, n + 1):
                # [n, l] = [n−1, l−1] + q^l [n−1, l]
                gauss[n, l] = gauss[n - 1, l - 1]
                gauss[n, l, l:] += gauss[n - 1, l, : gauss.shape[2] - l]
        poch = np.zeros((N, N, N * (N - 1) // 2 + 1), dtype=dtype)
        poch[:, 0, 0] = 1
        for n in range(N):
            for l in range(1, N - n):
                a = N - n - l  # the new factor 1 − q^a, a ≥ 1
                poch[n, l] = poch[n, l - 1]
                poch[n, l, a:] -= poch[n, l - 1, : poch.shape[2] - a]
        self.gauss, self.poch = gauss, poch
        # ‖gauss‖₁ · ‖poch‖₁ bounds ‖coefficient‖₁
        self._g1 = np.abs(gauss).sum(axis=2).astype(float)
        self._p1 = np.abs(poch).sum(axis=2).astype(float)
        # the tables are shared by every sum at N (`_ring_tables`)
        for table in (gauss, poch, self._g1, self._p1):
            table.setflags(write=False)

    @staticmethod
    def budget() -> int:
        return _ENTRY_BUDGET * _CELLS_PER_ENTRY

    @staticmethod
    def table_cells(N: int) -> int:
        return N * N * ((N - 1) ** 2 // 4 + 1 + N * (N - 1) // 2 + 1)

    def cells(self, val: Rows, pairs: int, built: int) -> int:
        """A step's size, taken before it allocates: the pairs (live state,
        l) it considers, built or not, times the row width plus the widest
        coefficient row less one, which bounds the cells of its products."""
        return pairs * (val[0].shape[1] + self.gauss.shape[2] + self.poch.shape[2] - 2)

    @staticmethod
    def take(val: Rows, rows) -> Rows:
        """The values val[rows], on the columns their terms span."""
        V, O, base = val
        return (*_trim(V[rows], O[rows]), base)

    def phases(self, quarter_units: np.ndarray) -> Rows:
        """The monomials q^{u/4} as rows of width one."""
        base = int(quarter_units.min())
        exps, residue = np.divmod(quarter_units - base, 4)
        if residue.any():
            raise AssertionError("initial phases in two quarter-exponent classes")
        return np.ones((len(exps), 1), dtype=self.gauss.dtype), exps, base

    def coeff(self, sign: int, n1: np.ndarray, n2: np.ndarray, l: np.ndarray) -> tuple:
        """Braiding coefficients of e_{n1} ⊗ e_{n2} → (l) for index arrays:
        (rows of gauss ⊛ poch, whole-q shift of each row, bound on each
        row's ‖·‖₁).  The quarter phase ∓(N−1)²/4 is left to the caller."""
        N = self.N
        row, col = (n1, n2) if sign == 1 else (n2, n1)
        # the degrees of gauss[row, l] and poch[col, l]
        gdeg = l * (row - l)
        pdeg = l * (N - 1 - col) - l * (l - 1) // 2
        if sign == 1:
            shift = n2 * (l - n1 + N - 1) - gdeg
        else:
            shift = n1 * (n2 - l - N + 1) - pdeg
        g = self.gauss[row, l, : int(gdeg.max(initial=0)) + 1]
        p = self.poch[col, l, : int(pdeg.max(initial=0)) + 1]
        # each row of g ⊛ p is its own sum, bounded by ‖g‖₁·‖p‖₁, and by the
        # measured ‖g‖∞·‖p‖₁ where that fails
        each = np.arange(len(l))
        g, _ = fit_rows(g, each, self._p1[col, l], each, _log, self._g1[row, l])
        C = _conv(g, p)
        bound = self._g1[row, l] * self._p1[col, l]
        if sign == -1:
            C[l % 2 == 1] *= -1
        return C, shift, bound

    def merge(self, val: Rows, src, sign: int, n1, n2, l, key) -> tuple[np.ndarray, Rows]:
        """Each entry is val[src] times its braiding coefficient; the entries
        are summed per key by a sort and np.add.reduceat (exact sums, so
        their order does not matter), each group's entries aligned on the
        group's lowest offset.  Returns (an entry of each group with a
        nonzero sum, those sums on the columns their terms span).

        Aligning widens the products that `cells` bounds by the spread of a
        group's offsets (to 1.7 times the bound on 5_1, 5_2 and 6_1; not at
        all on 3_1 and 4_1), so the aligned array is measured here: past
        CELL_LIMIT cells the step is refused with ValueError before it is
        allocated.  Batches are split at `budget()`, by default 128 times
        lower, so only a step of one initial state comes near it."""
        V, O, base = val
        order, starts = key_runs(key)
        src, n1, n2, l = src[order], n1[order], n2[order], l[order]
        C, shift, bound = self.coeff(sign, n1, n2, l)
        off = O[src] + shift
        low = np.minimum.reduceat(off, starts) if len(off) else off
        d = off - np.repeat(low, np.diff(starts, append=len(off)))
        spread = int(d.max(initial=0))
        width = V.shape[1] + C.shape[1] - 1 + spread
        if (cells := len(key) * width) > CELL_LIMIT:
            raise ValueError(f"the exact state sum at N = {self.N} would hold {cells} cells in one step, "
                             f"over {CELL_LIMIT}")
        V, _ = fit_rows(V, src, bound, starts, _log)
        P = _conv(V[src], C)
        if spread:
            out = np.zeros((len(P), width), dtype=P.dtype)
            out[np.arange(len(P))[:, None], d[:, None] + np.arange(P.shape[1])] = P
            P = out
        S = np.add.reduceat(P, starts, axis=0)
        live = (S != 0).any(axis=1)
        return order[starts[live]], (*_trim(S[live], low[live]), base - sign * (self.N - 1) ** 2)

    def collect(self, total: LaurentPoly, val: Rows, hit, seg, size: int) -> LaurentPoly:
        """Add the diagonal entries val[hit] to the running total."""
        V, O, base = val
        if not len(hit):
            return total
        # rows of one offset are summed together, then placed on one row
        order, starts = key_runs(O[hit])
        rows = np.add.reduceat(V[hit[order]].astype(object), starts, axis=0)
        offs = O[hit[order[starts]]]
        low, W = int(offs[0]), V.shape[1]
        acc = np.zeros(int(offs[-1]) - low + W, dtype=object)
        for o, row in zip((offs - low).tolist(), rows):
            acc[o : o + W] += row
        return total + LaurentPoly({(base + 4 * (low + j), 0): int(c) for j, c in enumerate(acc)})


def _trim(V: np.ndarray, O: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows V with whole-q offsets O, on the columns their terms span."""
    cols = np.flatnonzero((V != 0).any(axis=0))
    if not len(cols):
        return V[:, :1], O
    return V[:, cols[0] : cols[-1] + 1], O + int(cols[0])


def _first_appearance_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group of each entry, first entry of each group), groups numbered in
    order of first appearance of their key."""
    order, starts = key_runs(key)
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    rank = np.empty(len(starts), dtype=np.int64)
    rank[by_first] = np.arange(len(starts))
    group = np.empty(len(key), dtype=np.int64)
    group[order] = np.repeat(rank, np.diff(starts, append=len(key)))
    return group, first[by_first]


def _sum_by_group(group: np.ndarray, values: np.ndarray, count: int, zero) -> np.ndarray:
    """Per-group sums, each taken from zero in entry order: bincount and
    add.at both add sequentially; bincount is faster but takes floats only."""
    if values.dtype != object:
        return np.bincount(group, weights=values, minlength=count)
    out = np.full(count, zero, dtype=object)
    np.add.at(out, group, values)
    return out


def _step_pairs(n1, n2, eps: int, N: int) -> np.ndarray:
    """Per live state holding n1 and n2 at factors (i−1, i), the values
    l = 0..lmax a braiding step of sign eps expands it over."""
    return 1 + (np.minimum(n1, N - 1 - n2) if eps == 1 else np.minimum(n2, N - 1 - n1))


def _step_entries(reps, n1, n2, eps: int, close_lo, close_hi) -> tuple:
    """(source state of each entry, its l) for one braiding step at factors
    (i−1, i) on live states holding n1 and n2 there, reps = `_step_pairs`,
    in state order and then in order of l = 0..lmax.  The new digits are
    n2 + εl and n1 − εl, so a factor that no later step changes fixes l:
    close_lo (close_hi) holds per state the initial digit that factor i−1
    (i) must return to, or is None.  Then only the entry of that l is built,
    when it lies in 0..lmax and both closed factors agree on it."""
    if close_lo is None and close_hi is None:
        src = np.repeat(np.arange(len(reps)), reps)
        return src, np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps)
    l = eps * (close_lo - n2) if close_lo is not None else eps * (n1 - close_hi)
    ok = (l >= 0) & (l < reps)
    if close_lo is not None and close_hi is not None:
        ok &= eps * (n1 - close_hi) == l
    src = np.flatnonzero(ok)
    return src, l[src]


def _check_size(m: int, N: int, ring) -> None:
    """Refuse, with ValueError and before anything is built, a state sum on
    m strands whose keys would not fit int64 (a batch holds at most
    `_ENTRY_BUDGET` initial states, each with N^m codes), or whose ring's
    tables would pass CELL_LIMIT cells."""
    if N**m * min(_ENTRY_BUDGET, N ** (m - 1)) >= 2**63:
        raise ValueError(f"N^strands = {N}^{m} is too large for the state sum")
    if ring.table_cells(N) > CELL_LIMIT:
        raise ValueError(f"the {ring.name} state sum at N = {N} would hold over {CELL_LIMIT} {ring.unit} cells")


# The tables of the last few (ring, N) that a value ring was built for.
@lru_cache(maxsize=8)
def _ring_tables(ring, N: int):
    return ring(N)


def _state_sum(b: BraidWord, N: int, ring) -> tuple:
    """The state sum before the writhe phase, in the coefficient ring whose
    tables `ring(N)` builds: (tables, total).  The value rings' tables are
    built once per process and N (`_ring_tables`); the probe ring's count,
    and tables built while cmath is replaced by a stand-in, are built anew.

    Initial states run in batches; the live entries of a batch are flat
    arrays of initial state and base-N state code, and the ring's values.
    Each step expands every live state over l (`_step_entries`): a step that
    changes a factor for the last time builds only the entry whose l returns
    that factor to its initial digit.  It then merges equal (initial state,
    code) keys with the ring's `merge`.

    One rule sizes the batches of every ring.  Each batch starts with
    _ENTRY_BUDGET initial states, or the ones left.  The ring's budget holds
    before a step allocates its entries: when the step's size (`cells`: the
    entries it builds, its live states for a step that closes a factor, or
    for the exact ring a bound on the cells of its products) would pass it
    and the live entries span more than one initial state, they are cut at
    the last initial-state boundary where the step's running size still
    fits, or after the first initial state.  The part before the cut goes
    on from that step, and the rest (`take`) waits on a stack.

    The float ring sums in a fixed order (see `_NumericTables.merge` and
    `collect`), so its result is independent of the batches and splits: a
    group never spans two initial states, a split keeps the entry order
    within each group, and the diagonal entries go into `collect` in
    initial-state order.  The exact ring (`_ExactRows`) convolves int64 rows
    and sums each group by a sort and np.add.reduceat; every product is
    checked against the bound Σ‖row‖∞·‖coeff‖₁ < 2^62 first and runs on
    object rows past it, so its sums are exact in any order."""
    m = b.strands
    budget = ring.budget()
    _check_size(m, N, ring)
    tables = ring(N) if ring is _ProbeCounts or cmath is not _CMATH else _ring_tables(ring, N)
    steps, last = _last_touch(b)
    place = [N**p for p in range(m + 1)]
    total = tables.zero
    for start in range(0, place[m - 1], _ENTRY_BUDGET):
        size = min(_ENTRY_BUDGET, place[m - 1] - start)
        # initial state k is the k-th tuple of product(range(N), repeat=m−1)
        k = np.arange(start, start + size, dtype=np.int64)
        digits = [np.zeros(size, dtype=np.int64)] + [
            (k // place[m - 1 - p]) % N for p in range(1, m)
        ]
        full0 = sum(d * place[p] for p, d in enumerate(digits))
        val = tables.phases(2 * ((m - 1) * (1 - N) + 2 * sum(digits)))
        # (next step, the initial states lo..hi−1 of the batch, their live
        # entries: initial state, code, values), the lowest states on top
        pending = [(0, 0, size, np.arange(size, dtype=np.int64), full0, val)]
        while pending:
            t0, lo_s, hi_s, seg, code, val = pending.pop()
            for t in range(t0, len(steps)):
                i, eps = steps[t]
                lo, hi = place[i - 1], place[i]
                n1, n2 = (code // lo) % N, (code // hi) % N
                reps = _step_pairs(n1, n2, eps, N)
                closing = t in (last[i - 1], last[i])
                while True:
                    pairs = int(reps.sum())
                    cells = tables.cells(val, pairs, len(reps) if closing else pairs)
                    # seg is sorted: every ring keeps its groups in key order
                    # or in order of first appearance, initial state first
                    if cells <= budget or seg[0] == seg[-1]:
                        break
                    ends = np.flatnonzero(seg[1:] != seg[:-1]) + 1
                    run = np.cumsum(reps)[ends - 1]
                    fits = np.count_nonzero(tables.cells(val, run, ends if closing else run) <= budget)
                    cut = int(ends[max(fits - 1, 0)])
                    mid = int(seg[cut])
                    pending.append((t, mid, hi_s, seg[cut:], code[cut:], tables.take(val, slice(cut, None))))
                    hi_s, seg, code, val = mid, seg[:cut], code[:cut], tables.take(val, slice(cut))
                    n1, n2, reps = n1[:cut], n2[:cut], reps[:cut]
                close = [digits[p][seg] if last[p] == t else None for p in (i - 1, i)]
                src, l = _step_entries(reps, n1, n2, eps, *close)
                n1, n2 = n1[src], n2[src]
                shift = l if eps == 1 else -l
                code = code[src] + (n2 + shift - n1) * lo + (n1 - shift - n2) * hi
                seg = seg[src]
                first, val = tables.merge(val, src, eps, n1, n2, l, seg * place[m] + code)
                code, seg = code[first], seg[first]
            hit = np.flatnonzero(code == full0[seg])
            total = tables.collect(total, val, hit, seg[hit] - lo_s, hi_s - lo_s)
    return tables, total


def state_sum_jones(b: BraidWord, N: int) -> LaurentPoly:
    """J′ of the braid closure by the exact state sum, N ≥ 1, summed on the
    rotation `state_sum_word` plans: b unless another rotation's sum builds
    strictly fewer entries at N = 2.  J′ is a conjugation invariant and the
    writhe phase is b's, so the polynomial is b's.  Refuses, with
    ValueError, an input whose tables would pass CELL_LIMIT cells, at once
    and before any probe (`_check_size`), and a step whose rows would pass
    it (`_ExactRows.merge`)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    _, total = _state_sum(state_sum_word(b, N, _ExactRows), N, _ExactRows)
    out = total.shift(b.writhe * (N * N - 1))
    if not (out.is_univariate_q() and out.has_integer_q_powers()):
        raise AssertionError("state sum landed off the integer q-lattice")
    return out


def numeric_state_sum(b: BraidWord, N: int) -> complex:
    """The state sum with coefficients at q = exp(2πi/N): the order-N Kashaev
    value of the closure, summed on b as given (`kashaev` plans the word
    with `state_sum_word`).  With cmath replaced by a stand-in whose exp
    returns mpmath numbers (as perfbench/make_refs.py does for 60-digit
    references), the same kernel runs on object arrays at that precision.

    An order whose tables would pass CELL_LIMIT cells is refused with
    ValueError before they are built (`_check_size`: N ≤ 1,547).  Entries
    that overflow stay inside the sum (no RuntimeWarning); a value that is
    not finite is refused with ValueError naming N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    with np.errstate(over="ignore", invalid="ignore"):
        tables, total = _state_sum(b, N, _NumericTables)
    phase = tables.phase(b.writhe * (N * N - 1))
    # complex, or the stand-in's complex type under a high-precision cmath
    value = phase * type(phase)(*total)
    if not (abs(value.real) < np.inf and abs(value.imag) < np.inf):
        raise ValueError(f"the float state sum at N = {N} overflowed to {value}")
    return value


def state_sum_entries(b: BraidWord, N: int) -> int:
    """The entries (live state, l) that the state sum of b at N builds over
    all its steps, counted on the probe ring (`_ProbeCounts`): the float
    ring's work, without its values."""
    tables, _ = _state_sum(b, N, _ProbeCounts)
    return tables.entries


# The order at which the planner probes rotations: 2^(m−1) initial states.
# On 5_2, 6_1 and 6_2 the rotation with the fewest entries at N = 2 has the
# fewest at N = 15 too; on 6_3 it has 2% more than the fewest.
_PROBE_N = 2


@lru_cache(maxsize=256)
def _probe(w: BraidWord) -> int:
    """`state_sum_entries` of w at _PROBE_N, for the last 256 words probed."""
    return state_sum_entries(w, _PROBE_N)


def state_sum_word(b: BraidWord, N: int, ring) -> BraidWord:
    """The cyclic rotation of b on which to run the state sum at N in the
    value ring `ring` (`_ExactRows` for `state_sum_jones`, `_NumericTables`
    for `numeric_state_sum`).

    A rotation is a conjugate of b, so its closure, writhe and strand count
    are b's, and its state sum is b's value in either ring; its entries, and
    with them the sum's time and the float sum's cancellation error, differ
    by orders of magnitude between rotations.  The planner counts each
    rotation's entries at N = _PROBE_N (`state_sum_entries`), b first, for
    at most ⌊(N/2)^(m−1)⌋ rotations: a probe covers 2^(m−1) initial states
    and the sum N^(m−1), so planning costs about one sum.  It keeps b unless
    another word has strictly fewer entries, and then takes the first of the
    fewest.  The entries do not depend on the ring, so both rings pick the
    same word.  A sum with N^(2m−1) ≤ _ENTRY_BUDGET is not planned: its time
    is mostly the per-step numpy calls that a probe pays as well (a probe
    cost 0.3–0.4 of the float sum, 5_2 at N = 3 to 5), so no rotation is
    taken to repay a probe.  ROADMAP item 13's work model is to re-derive
    this threshold from the steps and entries of both.  No timing enters the
    choice, so the same input gives the same floats.
    Each word's count is cached (`_probe`), so later orders, rings and calls
    do not probe it again.  An order the ring's state sum refuses is refused
    before any probe.  Logs one DEBUG record, naming the ring, when it
    compares two words or more."""
    m = b.strands
    _check_size(m, N, ring)
    if N ** (2 * m - 1) <= _ENTRY_BUDGET:
        return b
    words = cyclic_rotations(b, N ** (m - 1) // 2 ** (m - 1))
    if len(words) == 1:
        return b
    chosen = min(words, key=_probe)
    _log.debug("%s N = %d: state sum on %r of %r after probing %d of its rotations; "
               "entries at N = %d: %d of the given word, %d of the word summed on", ring.name,
               N, chosen.to_text(), b.to_text(), len(words), _PROBE_N, _probe(b), _probe(chosen))
    return chosen
