"""Quantum determinants and the master-theorem inverse series.

The reciprocal of the deformed determinant of I − qρ′(γ) is expanded in two
independent ways: a fermionic mode summing powers of the inclusion–exclusion
sum C of principal quantum minors, and a bosonic mode summing diagonal
coefficients of the co-action on a q-commuting polynomial algebra.  Applying
the evaluation map with z = q^{N-1} and the writhe prefactor assembles the
colored Jones polynomial; the classical specialization of I − ρ′ yields the
Alexander polynomial, by `exactpoly.alexander_of_matrix`, the one step it
shares with the Fox-calculus route.  Both modes sum the box [0, N−1]^dim of
grades x: with central x_i on the rows of qρ′, each part of C is graded by
its minor's index set J, and the master theorem holds degree by degree in x
(Garoufalidis–Lê–Zeilberger, PNAS 103, 2006).  Each power of C raises Σx_i by |J| ≥ 1, so the
fermionic series, which drops a state once some x_i reaches N, ends by itself.

ρ′(γ), q·ρ′ and C belong to the braid, not to a route or an order N:
`braid_setup`, `braid_c_sum` and `c_parts` (C's parts by J, per matrix)
build them once per braid word (the last 256 are kept), as do
`braid_c_arrays`, `braid_graded_arrays` and `braid_entry_terms`, the
read-only forms that the folded, fermionic and bosonic kernels read; each
`cache_clear()` empties its cache.  `rho` and `c_sum` stay uncached, as
`perfbench`'s tracer wraps them and would hide a cache there.
Nothing may mutate what the caches return.

Every series route sums on one planned cyclic rotation of the braid word,
`series_word`: the first whose C has the fewest monomials, so a tie keeps
the word given, reading C of one rotation per class of rotations with the
same C (`_rotation_classes`).  Both `colored_jones` modes and the folded
series of `kashaev.kashaev_value` run there; a rotation is a conjugate
braid with the same closure, writhe and strand count, so no value changes,
only the work.  The plan reads counts only, never a clock.

The fermionic series runs on numpy int64 rows: at generic q on windows of
whole powers of q (`fermionic_terms` term by term on C to a given depth,
`_fermionic_series` summed on C's graded parts), and for the root-of-unity
sum of the Kashaev invariant on residues mod q^N − 1 (`folded_series_sum`).
Only the bosonic series runs on raw {exponent: coefficient} dictionaries;
it is the independent check of the fermionic route, so it shares none of
that kernel.
Accumulated powers of C are projected onto the (r_j, d_j) exponents only:
in left·right products the left factor's b-exponents never enter the
reordering power for either crossing sign, and the evaluation map is
b-independent, so the projection is exact.
"""
from __future__ import annotations

import logging
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .braid import BraidWord, closure_is_knot, cyclic_rotations
from . import exactpoly
from .deformed_burau import QuantumMatrix, classical_specialization, rho, rho_prime
from .exactpoly import (
    CELL_LIMIT,
    LaurentPoly,
    Q_UNIT,
    alexander_of_matrix,
    fit_rows,
    key_runs,
    row_norms,
)
from .qweyl import AlgebraElement, _eval_factor, normal_order_product

_log = logging.getLogger(__name__)


@lru_cache(maxsize=256)
def c_parts(M: QuantumMatrix) -> tuple[tuple[tuple[int, ...], AlgebraElement], ...]:
    """The signed parts (J, (−1)^{|J|−1} det_q(M_J)) of C, one per nonempty
    principal J, as `c_sum` adds them up.  Cached by matrix: `braid_setup`
    keeps one per braid, so no braid builds its minors twice.

    det_q = Σ_π (−q)^{inv(π)} ∏_i M[π(i)][c_i], in column order, grouped by
    the row r = π(1) is the first-column expansion

        qdet(R; c₁…c_k) = Σ_{r∈R} (−q)^{#{r′∈R : r′<r}} · M[r][c₁] · qdet(R∖{r}; c₂…c_k),

    as each row of R below r stands in a later column.  The sub-minors take
    the columns each J ends with, so the J share them; each is built once."""
    minors = {((), ()): AlgebraElement.one()}

    def qdet(rows: tuple[int, ...], cols: tuple[int, ...]) -> AlgebraElement:
        if (rows, cols) not in minors:
            terms = []
            for pos, r in enumerate(rows):
                entry = M.entries[r][cols[0]]
                if entry and (sub := qdet(rows[:pos] + rows[pos + 1:], cols[1:])):
                    sign = LaurentPoly.term((-1) ** pos, Q_UNIT * pos)
                    terms.append(normal_order_product(entry.scale(sign) if pos else entry, sub, M.signs))
            minors[rows, cols] = sum(terms[1:], terms[0]) if terms else AlgebraElement.zero()
        return minors[rows, cols]

    return tuple((J, -qdet(J, J) if len(J) % 2 == 0 else qdet(J, J))
                 for size in range(1, M.dim + 1) for J in combinations(range(M.dim), size))


def c_sum(M: QuantumMatrix) -> AlgebraElement:
    """C = Σ over nonempty principal J of (−1)^{|J|−1} det_q(M_J), so that the
    deformed determinant of I − M equals 1 − C."""
    return sum((part for _, part in c_parts(M)), AlgebraElement.zero())


# ---------------------------------------------------------------------------
# raw-dict series arithmetic (whole-q exponents): the bosonic series
# ---------------------------------------------------------------------------

QDict = dict[int, int]


def _dadd(acc: QDict, b: QDict) -> None:
    for e, c in b.items():
        nc = acc.get(e, 0) + c
        if nc:
            acc[e] = nc
        elif e in acc:
            del acc[e]


def _dconv(a: QDict, b: Iterable[tuple[int, int]], shift: int) -> QDict:
    """a ⊛ b · q^shift, for b given as (exponent, coefficient) pairs."""
    out: QDict = {}
    for ea, ca in a.items():
        for eb, cb in b:
            e = ea + eb + shift
            nc = out.get(e, 0) + ca * cb
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
    return out


MonoKey = tuple[tuple[int, int, int], ...]  # per-crossing (s, r, d)
MonoTerm = tuple[MonoKey, tuple[tuple[int, int], ...]]


def _mono_terms(elem: AlgebraElement, k: int) -> list[MonoTerm]:
    """AlgebraElement as dense per-crossing exponent triples, each with its
    q-coefficient as sorted (exponent, coefficient) pairs."""
    out: list[MonoTerm] = []
    for mono, coeff in elem.terms.items():
        triples = [(0, 0, 0)] * k
        for j, s, r, d in mono:
            triples[j - 1] = (s, r, d)
        out.append((tuple(triples), tuple(sorted(coeff.q_terms().items()))))
    return out


def _apply_mono(
    key: tuple[int, ...], mono: MonoKey, signs_t: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Right-multiply a projected state (flat r,d pairs) by one C-monomial.

    Returns (new key, whole-q reorder power).  `_folded_step` is the same map
    on arrays of keys, reduced mod N.
    """
    shift = 0
    new = list(key)
    for j, (s2, r2, d2) in enumerate(mono):
        if s2 or r2 or d2:
            r1 = new[2 * j]
            d1 = new[2 * j + 1]
            if signs_t[j] == 1:
                shift += d1 * r2 - 2 * r1 * s2
            else:
                shift += 2 * d1 * s2 + 2 * r1 * s2 - d1 * r2
            new[2 * j] = r1 + r2
            new[2 * j + 1] = d1 + d2
    return tuple(new), shift


@lru_cache(maxsize=None)
def _efactor_items(eps: int, r: int, d: int, z_pow: int) -> tuple[tuple[int, int], ...]:
    """`qweyl._eval_factor` of a single-index (r, d) with z = q^{z_pow}, as
    sorted dict items; () when it vanishes.

    ε=+1: q^{-rd+r·z_pow} ∏_{i<d} (1 − q^{z_pow-r-i})
    ε=−1: q^{-r·z_pow}    ∏_{i<d} (1 − q^{r+i-z_pow})
    """
    return tuple(sorted(_eval_factor(eps, r, d).subst_z_to_qpower(z_pow).q_terms().items()))


def _eval_state(key: tuple[int, ...], signs_t: tuple[int, ...], z_pow: int) -> QDict:
    val: QDict = {0: 1}
    for j, eps in enumerate(signs_t):
        r = key[2 * j]
        d = key[2 * j + 1]
        if r or d:
            items = _efactor_items(eps, r, d, z_pow)
            if not items:
                return {}
            val = _dconv(val, items, 0)
            if not val:
                return {}
    return val


# ---------------------------------------------------------------------------
# numpy series kernels: populations as int64 rows
# ---------------------------------------------------------------------------
#
# A population is (R, D, V): R and D are S×k int64 arrays of each state's
# exponents (r_j, d_j), and row i of V holds state i's coefficient.  At generic
# q the keys are whole and row i of the S×W array V holds the coefficients of
# q^{O_i}..q^{O_i+W−1}, with O a length-S array of offsets.  At a root of unity
# r_j is reduced mod N, d_j < N, and row i holds the N coefficients of state i
# mod q^N − 1.  Every sum of rows is bounded beforehand by Σ‖row‖∞·‖factor‖₁,
# and `exactpoly.fit_rows` moves the rows to Python ints where a bound could
# reach 2^62: once per step and per evaluated crossing at generic q, and per
# step, merge and binomial when folded.  The generic kernels measure ‖row‖∞
# each time.  The folded kernel carries a bound B on each row's ‖row‖∞ (a step
# multiplies it by the monomial's ℓ₁ norm, a merge sums it, a binomial
# doubles it; object rows carry 0), so `fit_rows` measures the rows only when
# a group of carried bounds reaches 2^62.  Its binomials are checked from one
# scalar per crossing, the largest carried bound doubled at each binomial:
# the row bounds are brought up to date, and `fit_rows` called, only at a
# binomial where that scalar could reach 2^62.


def _mono_arrays(parts, signs_t: tuple[int, ...]) -> tuple:
    """The M monomials of C, given as `parts` (x, element) with grades x, as
    M×k arrays of per-crossing (r, d) exponents and reorder weights (x joins
    r as key columns of weight 0), their q-coefficients as M×width (exponent,
    coefficient) arrays sorted by exponent and padded with zero coefficients,
    and the coefficients' ℓ₁ norms: (r2, d2, w_r, w_d, exps, coeffs, l1).
    An ungraded C is [((), C)].  The arrays are read-only."""
    k, g = len(signs_t), len(parts[0][0]) if parts else 0
    monos = [(key, cd, x) for x, part in parts for key, cd in _mono_terms(part, k)]
    trip = np.array([key for key, _, _ in monos], dtype=np.int64).reshape(len(monos), k, 3)
    grade = np.array([x for *_, x in monos], dtype=np.int64).reshape(len(monos), g)
    s2, r2, d2 = trip[..., 0], trip[..., 1], trip[..., 2]
    plus = np.array(signs_t, dtype=np.int64) == 1
    # _apply_mono's reorder power is linear in the old keys: Σ_j d_j·w_d + r_j·w_r
    w_d = np.where(plus, r2, 2 * s2 - r2)
    w_r = np.hstack([np.where(plus, -2 * s2, 2 * s2), 0 * grade])
    width = max((len(cd) for _, cd, _ in monos), default=1)
    exps = np.zeros((len(monos), width), dtype=np.int64)
    coeffs = np.zeros((len(monos), width), dtype=np.int64)
    for m, (_, cd, _) in enumerate(monos):
        for t, (e, c) in enumerate(cd):
            exps[m, t], coeffs[m, t] = e, c
    out = np.hstack([r2, grade]), d2, w_r, w_d, exps, coeffs, np.abs(coeffs).sum(axis=1).astype(float)
    for a in out:
        a.flags.writeable = False
    return out


def _groups(cols, sizes, n: int):
    """(order, starts): an order of n keys (tuples across the integer arrays
    `cols`, entries of column i in [0, sizes[i])) that makes equal keys
    adjacent, and the first position of each run of equal keys.  Columns are
    packed by their ranges into as few int64 words as hold them, so the sort
    usually runs on one word.  `cols` may be a generator, so that no
    n×len(cols) array is built.  The columns are never written: a word
    starts as its first column itself, and each packed word is a new array."""
    words, span = [], 2**62
    for c, size in zip(cols, map(int, sizes)):
        if span * size >= 2**62:
            words.append(c)
            span = size
        else:
            words[-1] = words[-1] + c * span
            span *= size
    if not words:
        return np.arange(n), np.arange(min(n, 1))
    if len(words) == 1:
        return key_runs(words[0])
    order = np.lexsort(words)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for w in words:
        sw = w[order]
        new[1:] |= sw[1:] != sw[:-1]
    return order, np.flatnonzero(new)


def _labels(order, starts):
    """Each key's group number, from `_groups`' (order, starts)."""
    out = np.empty(len(order), dtype=np.int64)
    out[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    return out


def _compact(*arrays):
    """Drop the rows whose coefficients (the last array) vanish, as the dict
    path drops zero coefficients."""
    live = np.any(arrays[-1] != 0, axis=1)
    return arrays if live.all() else tuple(a[live] for a in arrays)


def _generic_step(R, D, O, V, mono: tuple):
    """Right-multiply every state by every C-monomial at generic q and merge
    equal keys: `_apply_mono` on arrays.  Child (i, m) of parent i and
    monomial m sits at flat index i·M + m.  Parent keys are distinct, so one
    monomial sends them to distinct keys, and each of its terms scatters into
    the merged rows without collisions.  A merged population that would pass
    CELL_LIMIT cells is refused with ValueError before it is allocated."""
    r2, d2, w_r, w_d, exps, coeffs, l1 = mono
    (S, W), M = V.shape, len(r2)
    pairs = ((R, r2), (D, d2))
    keys = ((P[:, j, None] + Q[:, j]).ravel() for P, Q in pairs for j in range(P.shape[1]))
    sizes = np.concatenate([P.max(axis=0) + Q.max(axis=0, initial=0) + 1 for P, Q in pairs])
    order, starts = _groups(keys, sizes, S * M)
    label = _labels(order, starts).reshape(S, M)
    off = O[:, None] + D @ w_d.T + R @ w_r.T + exps[:, 0]
    low = np.minimum.reduceat(off.ravel()[order], starts)
    delta = off - low[label]
    lag = np.where(coeffs != 0, exps - exps[:, :1], 0)
    width = int((delta + lag.max(axis=1)).max(initial=0)) + W
    if (cells := len(starts) * width) > CELL_LIMIT:
        raise ValueError(f"the generic-q series would hold {cells} cells in one step, over {CELL_LIMIT}")
    V, _ = fit_rows(V, order // M, l1[order % M], starts, _log)
    out = np.zeros((len(starts), width), dtype=V.dtype)
    for m, t in zip(*np.nonzero(coeffs)):
        shift = delta[:, m] + lag[m, t]
        # runs of one shift, of at most 4096 rows each to bound the temporaries
        by, firsts = _groups([shift, np.arange(S) >> 12], [shift.max() + 1, (S >> 12) + 1], S)
        for rows in np.split(by, firsts[1:]):
            s0 = shift[rows[0]]
            part = V[rows]
            part *= coeffs[m, t]
            out[label[rows, m], s0 : s0 + W] += part
    parent, m = np.divmod(order[starts], M)
    R, D, O, V = _compact(R[parent] + r2[m], D[parent] + d2[m], low, out)
    # drop the columns that no row reaches
    return R, D, O, V[:, : np.flatnonzero(V.any(axis=0)).max(initial=0) + 1]


def _eval_population(R, D, O, V, signs_t: tuple[int, ...], z_pow: int) -> QDict:
    """Σ over states of row ⊛ ∏_j E-factor(r_j, d_j) at z = q^{z_pow}, for
    distinct keys.

    With a = z_pow − r_j, the binomials 1 − q^e of E(r_j, d_j) run over
    e = a − i (ε=+1) or i − a (ε=−1) for i < d_j, so E vanishes iff
    0 ≤ a < d_j; states with a vanishing factor are dropped here, and
    `_eval_population_np` evaluates the rest.
    """
    # a state whose E-factor vanishes at any crossing contributes nothing
    live = ~np.any((R <= z_pow) & (z_pow < R + D), axis=1)
    if not live.all():
        R, D, O, V = R[live], D[live], O[live], V[live]
    return _eval_population_np(R, D, O, V, signs_t, z_pow)


def _eval_population_np(R, D, O, V, signs_t: tuple[int, ...], z_pow: int) -> QDict:
    """`_eval_population` of states whose E-factors do not vanish.

    All e of a crossing share one sign, and pulling −q^e out of each
    negative one leaves ±q^shift ∏_{lo ≤ c < lo+d_j} (1 − q^c) with lo ≥ 1
    and ‖∏‖₁ ≤ 2^d_j.  Bottom-up over j = k−1..0, as `_eval_folded`: the
    q-powers go to O, each block of rows that shares (r_j, d_j) is multiplied
    by its binomials with slice shifts, and the products are summed into the
    groups that share the remaining key prefix.
    """
    for j in reversed(range(len(signs_t))):
        if not len(V):
            return {}
        r, d, R, D = R[:, j], D[:, j], R[:, :j], D[:, :j]
        a, W = z_pow - r, V.shape[1]
        neg = a < 0 if signs_t[j] == 1 else a >= d
        lo = np.where(a < 0, -a, a - d + 1)
        grow = d * lo + d * (d - 1) // 2
        O = O - np.where(neg, grow, 0) + (r * (z_pow - d) if signs_t[j] == 1 else -r * z_pow)
        flip = neg & (d % 2 == 1)
        order, starts = _groups([*R.T, *D.T], [*(R.max(axis=0) + 1), *(D.max(axis=0) + 1)], len(V))
        label = _labels(order, starts)
        low = np.minimum.reduceat(O[order], starts)
        delta = O - low[label]
        V, _ = fit_rows(V, order, np.ldexp(1.0, d[order]), starts, _log)
        width = int((delta + grow).max()) + W
        out = np.zeros((len(starts), width), dtype=V.dtype)
        flat = out.reshape(-1)
        # rows of one (r_j, d_j) block have distinct key prefixes
        block, firsts = _groups([r, d], [r.max() + 1, d.max() + 1], len(V))
        for rows in np.split(block, firsts[1:]):
            i = rows[0]
            X = np.zeros((len(rows), W + grow[i]), dtype=V.dtype)
            X[:, :W] = -V[rows] if flip[i] else V[rows]
            w = W
            for c in range(lo[i], lo[i] + d[i]):
                X[:, c : c + w] -= X[:, :w]
                w += c
            flat[(label[rows] * width + delta[rows])[:, None] + np.arange(w)] += X
        R, D, O, V = _compact(R[order][starts], D[order][starts], low, out)
    if not len(V):
        return {}
    return {int(O[0]) + i: int(c) for i, c in enumerate(V[0].tolist()) if c}


def fermionic_terms(mono: tuple, signs_t: tuple[int, ...], z_pow: int, max_n: int) -> Iterator[QDict]:
    """Yield the evaluated series terms E(Cⁿ)|_{z=q^{z_pow}} for n = 0, 1, …
    at generic q, stopping when the population empties or after n = max_n,
    for C given as its `_mono_arrays` (`braid_c_arrays` of a braid word)
    and the braid's signs.
    """
    k = len(signs_t)
    R = D = np.zeros((1, k), dtype=np.int64)
    O, V = np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64)
    for n in range(max_n + 1):
        if n:
            R, D, O, V = _generic_step(R, D, O, V, mono)
            if not len(V):
                return
        yield _eval_population(R, D, O, V, signs_t, z_pow)


# The one accumulation rule of both series: populations are held apart
# until their summed cells (rows × width) pass this.  `_fermionic_series`
# evaluates each group of populations within it, and `folded_series_sum`
# merges its pending populations into the accumulated one once their cells
# pass both this and the accumulated cells.
_GROUP_CELLS = 2**17


def _fermionic_series(b: BraidWord, N: int) -> QDict:
    """Σ_n E(Cⁿ)|_{z=q^{N−1}} over the states whose grade x, the sum of their
    parts' 0/1 index vectors (in R[:, k:]), lies in the box [0, N−1]^dim.
    A state's descendants only add to its grades, so the population empties
    by n = dim·(N−1) + 1.  E is linear: consecutive populations are merged
    by (R, D) in groups whose summed cells stay within _GROUP_CELLS (or one
    population past it), and each group is evaluated once.  The folded
    series of `folded_series_sum` holds its populations by the same
    _GROUP_CELLS.  C's graded parts come from `braid_graded_arrays`."""
    signs_t, k = b.signs, len(b.signs)
    mono = braid_graded_arrays(b)
    pop = (np.zeros((1, k + b.strands - 1), dtype=np.int64), np.zeros((1, k), dtype=np.int64),
           np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64))
    total: QDict = {}
    group, cells = [], 0
    while len(pop[3]):
        if group and cells + pop[3].size > _GROUP_CELLS:
            _dadd(total, _eval_merged(group, k, signs_t, N - 1))
            group, cells = [], 0
        group.append(pop)
        cells += pop[3].size
        if b.strands == 1:  # C has no parts
            break
        R, D, O, V = _generic_step(*pop, mono)
        keep = (R[:, k:] < N).all(axis=1)
        pop = (R[keep], D[keep], O[keep], V[keep])
    _dadd(total, _eval_merged(group, k, signs_t, N - 1))
    return total


def _eval_merged(pops: list, k: int, signs_t: tuple[int, ...], z_pow: int) -> QDict:
    """`_eval_population` of populations (R, D, O, V) merged by their keys
    (R's first k columns, D): rows of one key are added on a shared window."""
    W = max(V.shape[1] for *_, V in pops)
    R, D, O, V = map(np.concatenate, zip(*((R[:, :k], D, O, np.pad(V, ((0, 0), (0, W - V.shape[1]))))
                                           for R, D, O, V in pops)))
    order, starts = _groups([*R.T, *D.T], [*(R.max(axis=0) + 1), *(D.max(axis=0) + 1)], len(V))
    label = _labels(order, starts)
    low = np.minimum.reduceat(O[order], starts)
    delta = O - low[label]
    V, _ = fit_rows(V, order, 1.0, starts, _log)
    out = np.zeros((len(starts), int(delta.max()) + W), dtype=V.dtype)
    np.add.at(out, (label[:, None], delta[:, None] + np.arange(W)), V)
    sel = order[starts]
    return _eval_population(*_compact(R[sel], D[sel], low, out), signs_t, z_pow)


# ---------------------------------------------------------------------------
# folded series kernel: ℤ[q]/(q^N − 1) as rows of N integers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _cyclic_columns(N: int):
    """Row o holds (o + c) mod N for c < N: read-only windows over 0..N−1
    written twice, so that no roll computes its column indices."""
    twice = np.tile(np.arange(N), 2)
    return as_strided(twice, (N, N), twice.strides * 2, writeable=False)


def _roll_rows(V, rows, shift, N: int):
    """V[rows], row i multiplied by q^{shift[i]} mod q^N − 1, for V of width
    N: one gather through the flat indices rows·N + column, which takes
    about half as long as a 2-D fancy index on hundreds of rows of width 30."""
    return V.ravel().take((rows * N)[:, None] + _cyclic_columns(N)[-shift % N])


def _state_groups(R, D, N: int):
    """`_groups` of the folded keys (R, D), entries in [0, N): one packed
    word R·N^j + D·N^{k+j} when N^{2k} < 2^62, else the 2k columns."""
    k = R.shape[1]
    if N ** (2 * k) < 2**62:
        w = N ** np.arange(k, dtype=np.int64)
        return _groups([R @ w + D @ (w * N**k)], [N ** (2 * k)], len(R))
    return _groups([*R.T, *D.T], [N] * 2 * k, len(R))


def _merge(R, D, B, V, N: int):
    """Sum the rows of equal keys, and their bounds."""
    order, starts = _state_groups(R, D, N)
    V, B = fit_rows(V, order, 1.0, starts, _log, B)
    sel = order[starts]
    return _compact(R[sel], D[sel], np.add.reduceat(B, starts), np.add.reduceat(V[order], starts, axis=0))


def _folded_step(R, D, B, V, mono: tuple, N: int):
    """Right-multiply every state by every C-monomial mod q^N − 1 and merge.

    A product with some d_j ≥ N is pruned: its E-factor contains N
    consecutive factors 1 − q^e, one of which has e ≡ 0 mod N.  A step whose
    S×M×k array of products' d_j would pass CELL_LIMIT cells is refused with
    ValueError before it is allocated.
    """
    r2, d2, w_r, w_d, exps, coeffs, l1 = mono
    cells = D.size * len(d2)
    if cells > CELL_LIMIT:
        raise ValueError(f"the folded series at N = {N} would hold {cells} cells in one step, "
                         f"over {CELL_LIMIT}")
    nD = D[:, None, :] + d2[None]
    src, m = np.nonzero((nD < N).all(axis=2))
    if not len(src):
        return R[:0], D[:0], B[:0], V[:0]
    nR = (R[src] + r2[m]) % N
    nD = nD[src, m]
    shift = (D @ w_d.T + R @ w_r.T)[src, m]
    order, starts = _state_groups(nR, nD, N)
    src, m, shift = src[order], m[order], shift[order]
    V, B = fit_rows(V, src, l1[m], starts, _log, B)
    out = coeffs[m, :1] * _roll_rows(V, src, shift + exps[m, 0], N)
    for t in range(1, exps.shape[1]):
        out += coeffs[m, t : t + 1] * _roll_rows(V, src, shift + exps[m, t], N)
    sel = order[starts]
    return _compact(nR[sel], nD[sel], np.add.reduceat(B, starts), np.add.reduceat(out, starts, axis=0))


def _eval_folded(R, D, V, signs_t: tuple[int, ...], N: int):
    """Σ over states of V_row ⊛ ∏_j E-factor(r_j, d_j) at z = q^{-1}, mod
    q^N − 1, as a row of N integers.

    ε=+1: q^{-r(d+1)} ∏_{i<d} (1 − q^{-1-r-i});  ε=−1: q^r ∏_{i<d} (1 − q^{r+1+i}),
    as `_efactor_items` at z_pow = −1.  Φ_N is irreducible, so a factor
    vanishes mod q^N − 1 iff one of its binomials does, i.e. r_j + d_j ≥ N;
    such states are dropped first.  Bottom-up over j = k−1..0: each row is
    rolled by its q-power and, sorted by d_j so that the rows with d_j > i
    form a prefix, multiplied by its i-th binomial in place; then rows that
    share the remaining key prefix are merged.  The row bounds are measured
    once, here, and carried from then on.  Within a crossing one scalar,
    the largest carried bound doubled at each binomial, stands for them
    until it could reach INT64_SAFE; only there are the row bounds brought
    up to date and `fit_rows` called.  So the rows are measured, and leave
    int64, at the same binomials as when every binomial checks its rows.
    """
    live = ~np.any(R + D >= N, axis=1)
    R, D, V = R[live], D[live], V[live]
    B = np.zeros(len(V)) if V.dtype == object else row_norms(V)
    for j in reversed(range(len(signs_t))):
        if not len(V):
            break
        by = np.argsort(-D[:, j])
        R, D, B = R[by], D[by], B[by]
        r, d, eps = R[:, j], D[:, j], signs_t[j]
        V = _roll_rows(V, by, -r * (d + 1) if eps == 1 else r, N)
        # B includes the crossing's first `done` binomials; top bounds the rows
        # that reach the next binomial
        top, done = B.max(), 0
        # n rows have d_j > i
        for i, n in enumerate(np.searchsorted(-d, -np.arange(d[0])).tolist()):
            head = np.arange(n)
            if 2 * top < exactpoly.INT64_SAFE:
                top *= 2
            else:
                B = np.ldexp(B, np.clip(np.minimum(d, i) - done, 0, None))
                V, B[:n] = fit_rows(V, head, 2.0, head, _log, B)
                top, done = B[:n].max(), i + 1
            V[:n] -= _roll_rows(V, head, -eps * (r[:n] + 1 + i), N)
        B = np.ldexp(B, np.clip(d - done, 0, None))
        R, D, B, V = _merge(R[:, :j], D[:, :j], B, V, N)
    if not len(V):
        return np.zeros(N, dtype=np.int64)
    return V[0]


def folded_series_sum(mono: tuple, signs_t: tuple[int, ...], N: int) -> list[int]:
    """Σ_n E(Cⁿ)|_{z=q^{-1}} in ℤ[q]/(q^N − 1) for a braid with
    k = len(signs_t) crossings, as the coefficients of q^0..q^{N−1}, for C
    given as its `_mono_arrays` (`braid_c_arrays` of a braid word).

    Each step raises Σ_j d_j by C's ideal degree, ≥ 1 for a knot, and
    states with some d_j ≥ N are pruned, so the population empties by
    n = k·N; the sum stops there in any case.  E is linear, so the
    populations of every n are summed first and the sum is evaluated once.
    New populations are merged into the accumulated one only once their
    cells pass both _GROUP_CELLS, the rule `_fermionic_series` groups by,
    and the accumulated cells: a population within _GROUP_CELLS is merged
    once, at the end, and a larger one each time it about doubles.  A step
    too large for CELL_LIMIT is refused (`_folded_step`).
    """
    k = len(signs_t)
    R = D = np.zeros((1, k), dtype=np.int64)
    B, V = np.ones(1), np.eye(1, N, dtype=np.int64)
    acc, pending, cells = (R, D, B, V), [], 0
    for _ in range(max(k, 1) * N):
        R, D, B, V = _folded_step(R, D, B, V, mono, N)
        if not len(V):
            break
        pending.append((R, D, B, V))
        cells += V.size
        if cells > max(acc[3].size, _GROUP_CELLS):
            acc = _merge(*(np.concatenate(part) for part in zip(acc, *pending)), N)
            pending, cells = [], 0
    if pending:
        acc = _merge(*(np.concatenate(part) for part in zip(acc, *pending)), N)
    R, D, _, V = acc
    return [int(c) for c in _eval_folded(R, D, V, signs_t, N)]


def _bosonic_series(b: BraidWord, N: int) -> QDict:
    """Σ over (n_1..n_dim) ∈ [0, N−1]^dim of the diagonal coefficient of the
    co-action word, evaluated at z = q^{N-1}.

    States carry (projected algebra key, z-letter counts); appending letter c
    behind existing letters of larger index contributes q^{-1} per swap.
    Each letter has one cap: N − 1 until its position is passed, and the
    order n_c chosen there from then on.  A letter is appended only while
    its count is below its cap, and a position passes on only the states
    whose own letter is within its order, so no state is built only to be
    dropped and the leaf needs no filter.  The entries of q·ρ′ come from
    `braid_entry_terms`.
    """
    dim, signs_t = b.strands - 1, b.signs
    k = len(signs_t)
    entry_terms = braid_entry_terms(b)
    total: QDict = {}

    def apply_Z(states, p, caps):
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], QDict] = {}
        for (akey, zc), cd in states.items():
            above = 0  # letters of larger index than c, counted from the top
            for c in reversed(range(dim)):
                if zc[c] < caps[c]:
                    nzc = zc[:c] + (zc[c] + 1,) + zc[c + 1:]
                    for mono, mcd in entry_terms[p][c]:
                        nk, shift = _apply_mono(akey, mono, signs_t)
                        contrib = _dconv(cd, mcd, shift - above)
                        if not contrib:
                            continue
                        skey = (nk, nzc)
                        acc = out.get(skey)
                        if acc is None:
                            out[skey] = contrib
                        else:
                            _dadd(acc, contrib)
                            if not acc:
                                del out[skey]
                above += zc[c]
        return out

    def recur(p, states, consumed):
        if p == dim:
            # every count is at most its order, and the counts sum to
            # Σ n_p, so every count equals its order: each state is a term
            for (akey, _), cd in states.items():
                ev = _eval_state(akey, signs_t, N - 1)
                if ev:
                    _dadd(total, _dconv(cd, ev.items(), 0))
            return
        caps = consumed + (N - 1,) * (dim - p)
        cur = states
        for t in range(N):
            if t > 0:
                cur = apply_Z(cur, p, caps)
                if not cur:
                    break
            deeper = {key: cd for key, cd in cur.items() if key[1][p] <= t}
            if deeper:
                recur(p + 1, deeper, consumed + (t,))

    init_key = ((0,) * (2 * k), (0,) * dim)
    recur(0, {init_key: {0: 1}}, ())
    return total


@lru_cache(maxsize=256)
def braid_setup(b: BraidWord) -> tuple[QuantumMatrix, QuantumMatrix]:
    """(ρ′(γ), q·ρ′(γ)) of braid b, which every route and order N reads."""
    reduced = rho_prime(rho(b))
    return reduced, reduced.scale(LaurentPoly.q_power(1))


@lru_cache(maxsize=256)
def braid_c_sum(b: BraidWord) -> AlgebraElement:
    """C = `c_sum`(q·ρ′(γ)) of braid b."""
    return c_sum(braid_setup(b)[1])


@lru_cache(maxsize=256)
def braid_c_arrays(b: BraidWord) -> tuple:
    """`_mono_arrays` of b's C, for `folded_series_sum` and `fermionic_terms`."""
    return _mono_arrays([((), braid_c_sum(b))], b.signs)


@lru_cache(maxsize=256)
def braid_graded_arrays(b: BraidWord) -> tuple:
    """`_mono_arrays` of b's C-parts, graded by J's 0/1 vectors, for `_fermionic_series`."""
    Mq = braid_setup(b)[1]
    return _mono_arrays([([int(i in J) for i in range(Mq.dim)], part) for J, part in c_parts(Mq)], b.signs)


@lru_cache(maxsize=256)
def braid_entry_terms(b: BraidWord) -> tuple:
    """`_mono_terms` of each entry of b's q·ρ′(γ), for `_bosonic_series`."""
    return tuple(tuple(tuple(_mono_terms(e, len(b.signs))) for e in row) for row in braid_setup(b)[1].entries)


@lru_cache(maxsize=256)
def _rotation_classes(b: BraidWord) -> tuple[BraidWord, ...]:
    """b, then one rotation from each other class of b's rotations whose C
    are the same up to relabelling the crossings (for the last 256 words).

    Moving a letter σ_i^{±1} with i ≥ 2 from the front of a word to its back
    keeps C so: the letter's block X fixes strand 1, so ρ′ is X·M before the
    move and M·X after it, and X's entries commute with M's (a test checks
    the equality on random words).  So a class runs from one rotation that
    ends in σ_1^{±1} to the next, and that rotation stands for it.
    """
    ones = [s for s, (i, _) in enumerate(b.word) if i == 1]
    if not ones:
        return (b,)
    # the rotation after b's last σ_1^{±1} stands for b's own class
    own = BraidWord(b.strands, b.word[ones[-1] + 1:] + b.word[: ones[-1] + 1])
    return (b, *(w for w in cyclic_rotations(b)[1:] if w.word[-1][0] == 1 and w != own))


def series_word(b: BraidWord) -> BraidWord:
    """The cyclic rotation of b on which every series route sums: the first
    of `_rotation_classes(b)` whose C has the fewest monomials, so a tie
    keeps b.

    A rotation is a conjugate of b, so its closure, writhe and strand count
    are b's, and its series gives b's value.  The work does not: ρ′, C and
    its minors change with the rotation, and the kernels' rows differ by
    orders of magnitude between rotations.  The number of C's monomials
    predicts their rank at every N, though not on every word (7_7
    `1 -2 1 -2 3 -2 3` steps more folded rows on its 8-monomial class than
    on its 9-monomial one).  The plan reads only counts: a given input is
    summed on the same word on every run and at every N, and a C in
    `braid_c_sum`'s cache costs nothing to read.
    """
    return min(_rotation_classes(b), key=lambda w: len(braid_c_sum(w).terms))


def colored_jones(b: BraidWord, N: int, mode: str = "bosonic") -> LaurentPoly:
    """J′ of the braid closure, normalized to 1 on the unknot, for N ≥ 1: the
    writhe prefactor times E_N applied to the reciprocal of the deformed
    determinant of I − qρ′(γ).

    Both modes sum the box n ∈ [0, N−1]^dim of the master theorem's grades.
    Mode "bosonic" sums graded diagonal coefficients, n_i ≤ N−1.  Mode
    "fermionic" sums E_N(Cⁿ) at generic q with each part of C graded by its
    minor's index set J, and ends by itself within dim·(N−1) steps, as each
    step raises the grades' sum by |J| ≥ 1.  The root-of-unity sum of the
    Kashaev invariant is not a mode: it runs on `folded_series_sum`.

    Both modes sum on the rotation `series_word` plans, b itself on a tie;
    J′ is a conjugation invariant and the prefactor reads only the writhe
    and strand count, so the polynomial is b's.  N, the closure and the
    mode are checked before the plan reads C.  Logs one DEBUG record naming
    the mode, the word summed on and the C-monomials of b and of that word.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    if mode not in ("bosonic", "fermionic"):
        raise ValueError(f"unknown mode {mode!r}")
    word = series_word(b)
    _log.debug("%s N = %d: series on %r of %r; C-monomials %d of the given word, "
               "%d of the word summed on", mode, N, word.to_text(), b.to_text(),
               len(braid_c_sum(b).terms), len(braid_c_sum(word).terms))
    total = _bosonic_series(word, N) if mode == "bosonic" else _fermionic_series(word, N)
    pref = (N - 1) * ((b.writhe - b.strands + 1) // 2)
    return LaurentPoly({(Q_UNIT * (e + pref), 0): c for e, c in total.items()})


def alexander(b: BraidWord) -> LaurentPoly:
    """Normalized determinant of the classical specialization of I − ρ′:
    symmetric in z ↔ z^{-1} and equal to 1 at z = 1."""
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    return alexander_of_matrix(classical_specialization(braid_setup(b)[0]))
