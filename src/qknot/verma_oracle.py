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
as an int64 row of whole-q coefficients on a window its batch shares, with
one quarter-exponent offset per sum.  Each product is bounded beforehand by
Σ‖row‖∞·‖coeff‖₁, and `exactpoly.fit_rows` moves the rows to object dtype
of Python ints where that could reach 2^62.  An input whose predicted
tables or rows for one initial state pass `exactpoly.CELL_LIMIT` cells is
refused with ValueError before anything is allocated.  The float ring
(`_NumericTables`, for `numeric_state_sum`) works in complex floats at
q = exp(2πi/N), the Kashaev value for large N.  The probe ring
(`_ProbeCounts`, for `state_sum_entries`) carries no values and counts the
entries the float ring would build; `float_sum_word` uses it at N = 2 to
pick the cyclic rotation of a word whose float sum builds the fewest.
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


# Largest count of entries (live state, l) that one braiding step of the
# float state sum builds at once; batches of initial states grow only while
# they stay under it.  A step that closes a factor builds at most one entry
# per live state (see `_step_entries`).
_ENTRY_BUDGET = 4096

# The exact ring counts its budget in row cells (the pairs (live state, l) a
# step considers × the width of their rows), this many per float entry.  A
# step holds about six arrays of that size, so the default budget keeps its
# int64 temporaries near 12 MB.
_CELLS_PER_ENTRY = 64

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
    are split pairs, and each group sums its entries in entry order."""

    zero = (0.0, 0.0)

    def __init__(self, N: int):
        self.N = N
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

    @staticmethod
    def budget() -> int:
        return _ENTRY_BUDGET

    @staticmethod
    def state_cells(b: BraidWord, N: int) -> int:
        """Entries one initial state may expand to in a step: N^(m−1) live
        states of its weight, times at most N values of l."""
        return N**b.strands

    @staticmethod
    def cells(val: Split, pairs: int, built: int) -> int:
        """A step's size: the entries it builds."""
        return built

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
    state_cells = staticmethod(_NumericTables.state_cells)
    cells = staticmethod(_NumericTables.cells)

    def __init__(self, N: int):
        self.entries = 0

    def phases(self, quarter_units: np.ndarray) -> None:
        return None

    def merge(self, val: None, src, sign: int, n1, n2, l, key) -> tuple[np.ndarray, None]:
        self.entries += len(key)
        order, starts = key_runs(key)
        return order[starts], None

    def collect(self, total: None, val: None, hit, seg, size: int) -> None:
        return None


Rows = tuple[np.ndarray, int]


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

    A value (V, base) holds one polynomial per row: V[e, j] is the
    coefficient of q^{base/4 + j}.  The batch shares the window, and the
    quarter offset `base` is one integer, since every value of one sum lies
    in one quarter-exponent class: the initial phases are ≡ 2(m−1)(1−N)
    mod 4, and each crossing adds ∓(N−1)².  The coefficient of a braiding
    entry is q^{∓(N−1)²/4 + shift} · gauss ⊛ poch, from integer tables built
    once per N: the standard Gaussian binomials [n, l]_q by their recurrence,
    and the pochhammer prefixes ∏_{i<l}(1 − q^{N−1−n−i}).  The sign −1
    prefixes ∏_{i<l}(1 − q^{n+i−(N−1)}) are (−1)^l q^{−deg} times the same
    rows, deg being the row's degree."""

    zero = LaurentPoly.zero()

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

    @staticmethod
    def budget() -> int:
        return _ENTRY_BUDGET * _CELLS_PER_ENTRY

    @staticmethod
    def table_cells(N: int) -> int:
        return N * N * ((N - 1) ** 2 // 4 + 1 + N * (N - 1) // 2 + 1)

    @staticmethod
    def state_cells(b: BraidWord, N: int) -> int:
        """Cells one initial state may hold in a step: N^m entries (as in the
        float ring) times the window.  One crossing's coefficients span at
        most 5(N−1)²/4 whole powers of q: the monomial shift and the degrees
        of gauss and poch together lie in [−(N−1)²/4, (N−1)²] for sign +1
        and in [−(N−1)², (N−1)²/4] for sign −1."""
        return N**b.strands * (len(b.word) * (5 * (N - 1) ** 2 // 4) + 1)

    @staticmethod
    def cells(val: Rows, pairs: int, built: int) -> int:
        """A step's size: the pairs (live state, l) it considers, built or
        not, times the batch's window.  Charged by built entries, batches grow
        until their shared window slows every `_conv` more than the fewer
        calls save: the figure-eight at N = 20 took 12 batches and 1.04 s,
        against 79 batches and 0.75 s (2-CPU Xeon, one run each)."""
        return pairs * val[0].shape[1]

    def phases(self, quarter_units: np.ndarray) -> Rows:
        """The monomials q^{u/4} as rows."""
        base = int(quarter_units.min())
        exps, residue = np.divmod(quarter_units - base, 4)
        if residue.any():
            raise AssertionError("initial phases in two quarter-exponent classes")
        V = np.zeros((len(exps), int(exps.max()) + 1), dtype=self.gauss.dtype)
        V[np.arange(len(exps)), exps] = 1
        return V, base

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
        their order does not matter).  Returns (an entry of each group with
        a nonzero sum, those sums on the window trimmed to their terms)."""
        V, base = val
        order, starts = key_runs(key)
        src, n1, n2, l = src[order], n1[order], n2[order], l[order]
        C, shift, bound = self.coeff(sign, n1, n2, l)
        V, _ = fit_rows(V, src, bound, starts, _log)
        P = _conv(V[src], C)
        low = int(shift.min(initial=0))
        d = shift - low
        out = np.zeros((len(P), P.shape[1] + int(d.max(initial=0))), dtype=P.dtype)
        out[np.arange(len(P))[:, None], d[:, None] + np.arange(P.shape[1])] = P
        S = np.add.reduceat(out, starts, axis=0)
        base += 4 * low - sign * (self.N - 1) ** 2
        nonzero = S != 0
        live = nonzero.any(axis=1)
        cols = np.flatnonzero(nonzero.any(axis=0))
        if not len(cols):
            return starts[:0], (S[:0, :1], base)
        return order[starts[live]], (S[live, cols[0] : cols[-1] + 1], base + 4 * int(cols[0]))

    def collect(self, total: LaurentPoly, val: Rows, hit, seg, size: int) -> LaurentPoly:
        """Add the diagonal entries val[hit] to the running total."""
        V, base = val
        row = V[hit].astype(object).sum(axis=0)
        return total + LaurentPoly({(base + 4 * j, 0): int(c) for j, c in enumerate(row)})


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


def _step_entries(n1, n2, eps: int, N: int, close_lo, close_hi) -> tuple:
    """(pairs (state, l) considered, source state of each entry, its l) for
    one braiding step at factors (i−1, i) on live states holding n1 and n2
    there, in state order and then in order of l = 0..lmax.  The new digits
    are n2 + εl and n1 − εl, so a factor that no later step changes fixes l:
    close_lo (close_hi) holds per state the initial digit that factor i−1
    (i) must return to, or is None.  Then only the entry of that l is built,
    when it lies in 0..lmax and both closed factors agree on it."""
    reps = 1 + (np.minimum(n1, N - 1 - n2) if eps == 1 else np.minimum(n2, N - 1 - n1))
    pairs = int(reps.sum())
    if close_lo is None and close_hi is None:
        src = np.repeat(np.arange(len(reps)), reps)
        return pairs, src, np.arange(pairs) - np.repeat(np.cumsum(reps) - reps, reps)
    l = eps * (close_lo - n2) if close_lo is not None else eps * (n1 - close_hi)
    ok = (l >= 0) & (l < reps)
    if close_lo is not None and close_hi is not None:
        ok &= eps * (n1 - close_hi) == l
    src = np.flatnonzero(ok)
    return pairs, src, l[src]


def _check_code_space(m: int, N: int, budget: int) -> None:
    """Refuse a state sum whose keys would not fit int64: a batch holds at
    most `budget` initial states, each with N^m codes."""
    if N**m * min(budget, N ** (m - 1)) >= 2**63:
        raise ValueError(f"N^strands = {N}^{m} is too large for the state sum")


def _state_sum(b: BraidWord, N: int, ring) -> tuple:
    """The state sum before the writhe phase, in the coefficient ring whose
    tables `ring(N)` builds: (tables, total).

    Initial states run in batches; the live entries of a batch are flat
    arrays of initial state and base-N state code, and the ring's values.
    Each step expands every live state over l (`_step_entries`): a step that
    changes a factor for the last time builds only the entry whose l returns
    that factor to its initial digit.  It then merges equal (initial state,
    code) keys with the ring's `merge`.  A batch starts as large as the
    ring's budget allows for its per-state prediction (`state_cells`), and
    doubles or halves with the peak step size it measured (`cells`): the
    entries built for the float and probe rings, or int row cells (pairs
    considered × row width) for the exact ring.

    The float ring sums in a fixed order (see `_NumericTables.merge` and
    `collect`), so its result is independent of the batch sizes.  The exact
    ring (`_ExactRows`) convolves int64 rows and sums each group by a sort
    and np.add.reduceat; every product is checked against the bound
    Σ‖row‖∞·‖coeff‖₁ < 2^62 first and runs on object rows past it, so its
    sums are exact in any order.  `state_sum_jones` refuses work past
    CELL_LIMIT cells before this runs."""
    m = b.strands
    budget = ring.budget()
    _check_code_space(m, N, budget)
    tables = ring(N)
    steps, last = _last_touch(b)
    place = [N**p for p in range(m + 1)]
    total = tables.zero
    start, size = 0, max(1, budget // ring.state_cells(b, N))
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
            close = [digits[p][seg] if last[p] == t else None for p in (i - 1, i)]
            pairs, src, l = _step_entries(n1, n2, eps, N, *close)
            peak = max(peak, tables.cells(val, pairs, len(src)))
            n1, n2 = n1[src], n2[src]
            shift = l if eps == 1 else -l
            code = code[src] + (n2 + shift - n1) * lo + (n1 - shift - n2) * hi
            seg = seg[src]
            first, val = tables.merge(val, src, eps, n1, n2, l, seg * place[m] + code)
            code, seg = code[first], seg[first]
        hit = np.flatnonzero(code == full0[seg])
        total = tables.collect(total, val, hit, seg[hit], size)
        start += size
        if 2 * peak <= budget:
            size *= 2
        elif peak > budget:
            size = max(1, size // 2)
    return tables, total


def state_sum_jones(b: BraidWord, N: int) -> LaurentPoly:
    """J′ of the braid closure by the exact state sum, N ≥ 1.  Refuses, with
    ValueError, an input whose predicted tables or rows for one initial
    state pass CELL_LIMIT cells."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    if max(_ExactRows.table_cells(N), _ExactRows.state_cells(b, N)) > CELL_LIMIT:
        raise ValueError(f"the exact state sum at N = {N} would hold over {CELL_LIMIT} integer cells")
    _, total = _state_sum(b, N, _ExactRows)
    out = total.shift(b.writhe * (N * N - 1))
    if not (out.is_univariate_q() and out.has_integer_q_powers()):
        raise AssertionError("state sum landed off the integer q-lattice")
    return out


def numeric_state_sum(b: BraidWord, N: int) -> complex:
    """The state sum with coefficients at q = exp(2πi/N): the order-N Kashaev
    value of the closure.  With cmath replaced by a stand-in whose exp
    returns mpmath numbers (as perfbench/make_refs.py does for 60-digit
    references), the same kernel runs on object arrays at that precision.

    Entries that overflow stay inside the sum (no RuntimeWarning); a value
    that is not finite is refused with ValueError naming N."""
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


def float_sum_word(b: BraidWord, N: int) -> BraidWord:
    """The cyclic rotation of b on which to run `numeric_state_sum` at N.

    A rotation is a conjugate of b, so its closure, writhe and strand count
    are b's, and its state sum is b's Kashaev value; its entries, and with
    them the sum's time and its cancellation error, differ by orders of
    magnitude between rotations.  The planner counts each rotation's entries
    at N = _PROBE_N (`state_sum_entries`), b first, for at most
    ⌊(N/2)^(m−1)⌋ rotations: a probe covers 2^(m−1) initial states and the
    sum N^(m−1), so planning costs about one sum.  It keeps b unless another
    word has strictly fewer entries, and then takes the first of the fewest.
    A sum that runs in one batch is not planned: its time is then mostly
    the per-step numpy calls, which a probe pays as well, so a probe costs
    0.3–0.4 of the sum (5_2 at N = 3 to 5) and no rotation repays it.
    No timing enters the choice, so the same input gives the same floats.
    Each word's count is cached (`_probe`), so later orders and calls do not
    probe it again.  An order the state sum refuses is refused before any
    probe.  Logs one DEBUG record when it compares two words or more."""
    m = b.strands
    _check_code_space(m, N, _ENTRY_BUDGET)
    if N ** (m - 1) * _NumericTables.state_cells(b, N) <= _NumericTables.budget():
        return b
    words = cyclic_rotations(b, N ** (m - 1) // 2 ** (m - 1))
    if len(words) == 1:
        return b
    chosen = min(words, key=_probe)
    _log.debug("float N = %d: state sum on %r of %r after probing %d of its rotations; "
               "entries at N = %d: %d of the given word, %d of the word summed on",
               N, chosen.to_text(), b.to_text(), len(words), _PROBE_N, _probe(b), _probe(chosen))
    return chosen
