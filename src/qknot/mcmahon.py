"""Quantum determinants and the master-theorem inverse series.

The reciprocal of the deformed determinant of I − qρ′(γ) is expanded in two
independent ways: a fermionic mode summing powers of the inclusion–exclusion
sum C of principal quantum minors, and a bosonic mode summing diagonal
coefficients of the co-action on a q-commuting polynomial algebra.  Applying
the evaluation map with z = q^{N-1} and the writhe prefactor assembles the
colored Jones polynomial; the classical specialization of I − ρ′ yields the
Alexander polynomial.

Internal series arithmetic runs on raw {exponent: coefficient} dictionaries
over whole powers of q.  Accumulated powers of C are projected onto the
(r_j, d_j) exponents only: in left·right products the left factor's
b-exponents never enter the reordering power for either crossing sign, and
the evaluation map is b-independent, so the projection is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

import numpy as np

from .braid import BraidWord, closure_is_knot
from .deformed_burau import QuantumMatrix, classical_specialization, rho, rho_prime
from .exactpoly import (
    LaurentPoly,
    QExponent,
    Q_UNIT,
    poly_mat_det,
    poly_mat_identity,
    poly_mat_sub,
)
from .qweyl import AlgebraElement, StrandSigns, normal_order_product


@dataclass(frozen=True)
class InverseSeriesConfig:
    """How to expand 1/(1−C) = Σ Cⁿ.

    mode "fermionic" pairs with termination "root_of_unity_bound" (requires
    root_order; exponents fold mod that order and the series provably ends by
    n = k·root_order) or "adaptive" (generic q: stop after `window` consecutive
    zero terms, error out at hard_cap).  mode "bosonic" pairs with the
    intrinsic "graded_cutoff" (per-exponent bound n_i ≤ N−1).
    """

    mode: str
    termination: str = "graded_cutoff"
    root_order: int | None = None
    window: int | None = None
    hard_cap: int = 1000

    def __post_init__(self):
        if self.mode == "bosonic":
            if self.termination != "graded_cutoff":
                raise ValueError("bosonic mode terminates by its graded cutoff")
        elif self.mode == "fermionic":
            if self.termination == "root_of_unity_bound":
                if not self.root_order or self.root_order < 1:
                    raise ValueError("root_of_unity_bound needs a positive root_order")
            elif self.termination != "adaptive":
                raise ValueError(f"unsupported fermionic termination {self.termination!r}")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


def qdet(M: QuantumMatrix) -> AlgebraElement:
    """Σ_π (−q)^{inv(π)} · (column-ordered entry product), normal-ordered."""
    n = M.dim
    total = AlgebraElement.zero()
    for perm in permutations(range(n)):
        prod = AlgebraElement.one()
        for col in range(n):
            e = M.entries[perm[col]][col]
            if e.is_zero():
                prod = AlgebraElement.zero()
                break
            prod = normal_order_product(prod, e, M.signs)
        if prod.is_zero():
            continue
        inv = sum(1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y])
        total = total + prod.scale(LaurentPoly.term((-1) ** inv, QExponent.of_q(inv)))
    return total


def c_sum(M: QuantumMatrix) -> AlgebraElement:
    """C = Σ over nonempty principal J of (−1)^{|J|−1} det_q(M_J), so that the
    deformed determinant of I − M equals 1 − C."""
    total = AlgebraElement.zero()
    for size in range(1, M.dim + 1):
        for J in combinations(range(M.dim), size):
            rows = tuple(tuple(M.entries[i][j] for j in J) for i in J)
            sub = QuantumMatrix(size, rows, M.signs)
            det = qdet(sub)
            if size % 2 == 0:
                det = -det
            total = total + det
    return total


# ---------------------------------------------------------------------------
# raw-dict series arithmetic (whole-q exponents)
# ---------------------------------------------------------------------------

QDict = dict[int, int]


def _dadd(acc: QDict, b: QDict) -> None:
    for e, c in b.items():
        nc = acc.get(e, 0) + c
        if nc:
            acc[e] = nc
        elif e in acc:
            del acc[e]


def _dconv(a: QDict, b: QDict, shift: int, fold: int) -> QDict:
    out: QDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb + shift
            if fold:
                e %= fold
            nc = out.get(e, 0) + ca * cb
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
    return out


MonoKey = tuple[tuple[int, int, int], ...]  # per-crossing (s, r, d)
MonoTerm = tuple[MonoKey, QDict]


def _mono_terms(elem: AlgebraElement, k: int) -> list[MonoTerm]:
    """AlgebraElement as dense per-crossing exponent triples with dict coeffs."""
    out: list[MonoTerm] = []
    for mono, coeff in elem.terms.items():
        triples = [(0, 0, 0)] * k
        for j, s, r, d in mono.entries:
            triples[j - 1] = (s, r, d)
        out.append((tuple(triples), dict(coeff.q_terms())))
    return out


def _apply_mono(
    key: tuple[int, ...], mono: MonoKey, signs_t: tuple[int, ...], fold: int
) -> tuple[tuple[int, ...] | None, int]:
    """Right-multiply a projected state (flat r,d pairs) by one C-monomial.

    Returns (new key, whole-q reorder power); new key is None when the
    monomial is pruned in folded mode (some d_j ≥ fold makes its evaluation
    vanish modulo the cyclotomic polynomial).
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
            nd = d1 + d2
            if fold and nd >= fold:
                return None, 0
            nr = r1 + r2
            if fold:
                nr %= fold
            new[2 * j] = nr
            new[2 * j + 1] = nd
    return tuple(new), shift


@lru_cache(maxsize=None)
def _efactor_items(eps: int, r: int, d: int, z_pow: int, fold: int) -> tuple[tuple[int, int], ...]:
    """E of a single-index (r, d) with z = q^{z_pow}, as sorted dict items.

    ε=+1: q^{-rd+r·z_pow} ∏_{i<d} (1 − q^{z_pow-r-i})
    ε=−1: q^{-r·z_pow}    ∏_{i<d} (1 − q^{r+i-z_pow})
    """
    if eps == 1:
        poly: QDict = {-r * d + r * z_pow: 1}
        exps = [z_pow - r - i for i in range(d)]
    else:
        poly = {-r * z_pow: 1}
        exps = [r + i - z_pow for i in range(d)]
    for e in exps:
        if e == 0:
            return ()
        poly = _dconv(poly, {0: 1, e: -1}, 0, fold)
        if not poly:
            break
    if fold:
        poly = {e % fold: c for e, c in poly.items()}
    return tuple(sorted(poly.items()))


def _eval_state(key: tuple[int, ...], signs_t: tuple[int, ...], z_pow: int, fold: int) -> QDict:
    val: QDict = {0: 1}
    for j, eps in enumerate(signs_t):
        r = key[2 * j]
        d = key[2 * j + 1]
        if r or d:
            items = _efactor_items(eps, r, d, z_pow, fold)
            if not items:
                return {}
            val = _dconv(val, dict(items), 0, fold)
            if not val:
                return {}
    return val


def _eval_population(
    P: dict[tuple[int, ...], QDict], signs_t: tuple[int, ...], z_pow: int, fold: int
) -> QDict:
    """Σ over states of coeff ⊛ ∏_j E-factor(state_j), associated along the
    shared-prefix tree so each E-factor convolution is applied once per group
    of states rather than once per state.

    Folded exponents need modular reduction, so that path runs on dicts (they
    stay below `fold` entries anyway); generic q runs on dense int64 arrays
    with an ‖a‖∞·‖b‖₁ overflow tripwire falling back to exact dict arithmetic.

    Precondition in folded mode (fold > 0): the exponents of every
    coefficient in P are already reduced mod `fold`.  Only convolutions
    reduce, and a state with r = d = 0 at every index passes its coefficient
    through unconvolved, so an unreduced input gives an unreduced sum.
    fermionic_terms, the only caller, builds its coefficients reduced.
    """
    k = len(signs_t)

    def level(states: list[tuple[tuple[int, ...], QDict]], j: int) -> QDict:
        if j == k:
            out: QDict = {}
            for _, cd in states:
                _dadd(out, cd)
            return out
        groups: dict[tuple[int, int], list[tuple[tuple[int, ...], QDict]]] = {}
        for key, cd in states:
            groups.setdefault((key[0], key[1]), []).append((key[2:], cd))
        total: QDict = {}
        for (r, d), sub in groups.items():
            val = level(sub, j + 1)
            if not val:
                continue
            if r or d:
                items = _efactor_items(signs_t[j], r, d, z_pow, fold)
                if not items:
                    continue
                val = _dconv(val, dict(items), 0, fold)
            _dadd(total, val)
        return total

    if fold:
        return level(list(P.items()), 0)
    try:
        return _eval_population_np(P, signs_t, z_pow)
    except OverflowError:
        return level(list(P.items()), 0)


_NP_SAFE = float(2**62)


@lru_cache(maxsize=None)
def _np_factor(eps: int, r: int, d: int, z_pow: int):
    """Dense int64 form of a single-index E-factor: (offset, array, ℓ∞, ℓ₁)."""
    items = _efactor_items(eps, r, d, z_pow, 0)
    if not items:
        return None
    lo = items[0][0]
    arr = np.zeros(items[-1][0] - lo + 1, dtype=np.int64)
    for e, c in items:
        arr[e - lo] = c
    mags = np.abs(arr).astype(float)
    return lo, arr, float(mags.max()), float(mags.sum())


def _np_trim(off: int, arr):
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return None
    return off + int(nz[0]), arr[nz[0] : nz[-1] + 1]


def _eval_population_np(
    P: dict[tuple[int, ...], QDict], signs_t: tuple[int, ...], z_pow: int
) -> QDict:
    k = len(signs_t)

    def to_dense(parts):
        lo = min(off for off, arr in parts)
        hi = max(off + len(arr) for off, arr in parts)
        out = np.zeros(hi - lo, dtype=np.int64)
        for off, arr in parts:
            out[off - lo : off - lo + len(arr)] += arr
        return _np_trim(lo, out)

    def level(states, j):
        if j == k:
            merged: QDict = {}
            for _, cd in states:
                _dadd(merged, cd)
            if not merged:
                return None
            lo = min(merged)
            arr = np.zeros(max(merged) - lo + 1, dtype=np.int64)
            for e, c in merged.items():
                if not (-_NP_SAFE < c < _NP_SAFE):
                    raise OverflowError
                arr[e - lo] = c
            return lo, arr
        groups: dict[tuple[int, int], list] = {}
        for key, cd in states:
            groups.setdefault((key[0], key[1]), []).append((key[2:], cd))
        parts = []
        for (r, d), sub in groups.items():
            val = level(sub, j + 1)
            if val is None:
                continue
            v_off, v_arr = val
            v_mags = np.abs(v_arr).astype(float)
            if r or d:
                fac = _np_factor(signs_t[j], r, d, z_pow)
                if fac is None:
                    continue
                f_off, f_arr, f_inf, f_one = fac
                bound = min(float(v_mags.max()) * f_one, float(v_mags.sum()) * f_inf)
            else:
                bound = float(v_mags.max())
            if bound * (len(groups) + 1) >= _NP_SAFE:
                raise OverflowError
            if r or d:
                val = _np_trim(v_off + f_off, np.convolve(v_arr, f_arr))
                if val is None:
                    continue
            parts.append(val)
        if not parts:
            return None
        return to_dense(parts)

    result = level(list(P.items()), 0)
    if result is None:
        return {}
    off, arr = result
    return {off + i: int(c) for i, c in enumerate(arr.tolist()) if c}


def fermionic_terms(
    C: AlgebraElement,
    signs: StrandSigns,
    z_pow: int,
    fold: int = 0,
    max_n: int | None = None,
) -> Iterator[QDict]:
    """Yield the evaluated series terms E(Cⁿ)|_{z=q^{z_pow}} for n = 0, 1, ….

    With fold = N > 0, exponents are reduced mod N and monomials whose
    evaluation is divisible by 1 − q^N are pruned; the iterator then stops on
    its own (support empties once every surviving monomial dies).  It also
    stops after n = max_n when given.
    """
    signs_t = signs.signs
    k = len(signs_t)
    c_terms = _mono_terms(C, k)
    P: dict[tuple[int, ...], QDict] = {(0,) * (2 * k): {0: 1}}
    n = 0
    while True:
        yield _eval_population(P, signs_t, z_pow, fold)
        n += 1
        if max_n is not None and n > max_n:
            return
        newP: dict[tuple[int, ...], QDict] = {}
        for key, cd in P.items():
            for mono, mcd in c_terms:
                nk, shift = _apply_mono(key, mono, signs_t, fold)
                if nk is None:
                    continue
                contrib = _dconv(cd, mcd, shift, fold)
                if not contrib:
                    continue
                acc = newP.get(nk)
                if acc is None:
                    newP[nk] = contrib
                else:
                    _dadd(acc, contrib)
                    if not acc:
                        del newP[nk]
        P = newP
        if not P:
            return


def _bosonic_series(Mq: QuantumMatrix, signs: StrandSigns, N: int) -> QDict:
    """Σ over (n_1..n_dim) ∈ [0, N−1]^dim of the diagonal coefficient of the
    co-action word, evaluated at z = q^{N-1}.

    States carry (projected algebra key, z-letter counts); appending letter c
    behind existing letters of larger index contributes q^{-1} per swap.
    """
    dim = Mq.dim
    signs_t = signs.signs
    k = len(signs_t)
    entry_terms = [[_mono_terms(Mq.entries[p][c], k) for c in range(dim)] for p in range(dim)]
    total: QDict = {}

    def apply_Z(states, p):
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], QDict] = {}
        for (akey, zc), cd in states.items():
            for c in range(dim):
                if zc[c] + 1 > N - 1:
                    continue
                inv_shift = -sum(zc[j] for j in range(c + 1, dim))
                nzc = zc[:c] + (zc[c] + 1,) + zc[c + 1:]
                for mono, mcd in entry_terms[p][c]:
                    nk, shift = _apply_mono(akey, mono, signs_t, 0)
                    contrib = _dconv(cd, mcd, shift + inv_shift, 0)
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
        return out

    def recur(p, states, consumed):
        if p == dim:
            for (akey, zc), cd in states.items():
                if zc == consumed:
                    ev = _eval_state(akey, signs_t, N - 1, 0)
                    if ev:
                        _dadd(total, _dconv(cd, ev, 0, 0))
            return
        cur = states
        for t in range(N):
            if t > 0:
                cur = apply_Z(cur, p)
                # states that already overfilled an earlier position are dead
                cur = {
                    key: cd
                    for key, cd in cur.items()
                    if all(key[1][j] <= consumed[j] for j in range(p))
                }
                if not cur:
                    break
            deeper = {key: cd for key, cd in cur.items() if key[1][p] <= t}
            if deeper:
                recur(p + 1, deeper, consumed + (t,))

    init_key = ((0,) * (2 * k), (0,) * dim)
    recur(0, {init_key: {0: 1}}, ())
    return total


def inverse_series_EN(
    M: QuantumMatrix, signs: StrandSigns, N: int, cfg: InverseSeriesConfig
) -> LaurentPoly:
    """E_N applied to the reciprocal of the deformed determinant of I − M.

    Fermionic mode sums E_N(Cⁿ) with the configured termination; bosonic mode
    sums graded diagonal coefficients.  With root_of_unity_bound the returned
    polynomial has exponents folded mod root_order (a residue representative:
    correct after cyclotomic reduction at that order).
    """
    if cfg.mode == "bosonic":
        if N < 1:
            raise ValueError("bosonic mode needs N ≥ 1")
        result = _bosonic_series(M, signs, N)
        return LaurentPoly({(Q_UNIT * e, 0): c for e, c in result.items()})

    C = c_sum(M)
    if C.ideal_degree() < 1:
        raise ValueError("C has a monomial of a-degree 0; series is not summable (non-knot input?)")
    k = len(signs.signs)
    total: QDict = {}
    if cfg.termination == "root_of_unity_bound":
        fold = cfg.root_order
        for value in fermionic_terms(C, signs, N - 1, fold=fold, max_n=k * fold):
            _dadd(total, value)
    else:  # adaptive
        window = cfg.window if cfg.window is not None else max(k, M.dim + 1)
        if window < max(k, M.dim + 1):
            raise ValueError(f"adaptive window {window} below max(k, m) = {max(k, M.dim + 1)}")
        zero_streak = 0
        for n, value in enumerate(fermionic_terms(C, signs, N - 1)):
            if n > cfg.hard_cap:
                raise RuntimeError(
                    f"inverse series unterminated after {cfg.hard_cap} terms (window {window})"
                )
            _dadd(total, value)
            zero_streak = 0 if value else zero_streak + 1
            if zero_streak >= window:
                break
    return LaurentPoly({(Q_UNIT * e, 0): c for e, c in total.items()})


def colored_jones(b: BraidWord, N: int, mode: str = "bosonic") -> LaurentPoly:
    """J′ of the braid closure, normalized to 1 on the unknot, for N ≥ 1."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    signs = StrandSigns(b.signs)
    reduced = rho_prime(rho(b))
    Mq = reduced.scale(LaurentPoly.q_power(1))
    if mode == "bosonic":
        cfg = InverseSeriesConfig(mode="bosonic")
    elif mode == "fermionic":
        cfg = InverseSeriesConfig(mode="fermionic", termination="adaptive")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    series = inverse_series_EN(Mq, signs, N, cfg)
    pref = (N - 1) * ((b.writhe - b.strands + 1) // 2)
    out = series.shift(QExponent.of_q(pref))
    if not (out.is_univariate_q() and out.has_integer_q_powers()):
        raise AssertionError("colored Jones landed off the integer q-lattice")
    return out


def alexander(b: BraidWord) -> LaurentPoly:
    """Normalized determinant of the classical specialization of I − ρ′:
    symmetric in z ↔ z^{-1} and equal to 1 at z = 1."""
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    reduced = rho_prime(rho(b))
    spec = classical_specialization(reduced)
    mat = poly_mat_sub(poly_mat_identity(reduced.dim), spec)
    det = poly_mat_det(mat)
    if not det.is_univariate_z():
        raise AssertionError("specialized determinant unexpectedly involves q")
    return normalize_alexander(det)


def normalize_alexander(det: LaurentPoly) -> LaurentPoly:
    """Multiply by the unit ±z^j that centers, symmetrizes and sets Δ(1) = 1."""
    terms = det.z_terms()
    if not terms:
        raise ValueError("vanishing determinant (link, not a knot?)")
    lo, hi = min(terms), max(terms)
    if (lo + hi) % 2:
        raise AssertionError("determinant cannot be centered by an integer power")
    mid = (lo + hi) // 2
    centered = {e - mid: c for e, c in terms.items()}
    if any(centered.get(-e) != c for e, c in centered.items()):
        raise AssertionError("centered determinant is not palindromic")
    at_one = sum(centered.values())
    if at_one not in (1, -1):
        raise AssertionError(f"determinant evaluates to {at_one} at z=1; expected ±1")
    if at_one == -1:
        centered = {e: -c for e, c in centered.items()}
    return LaurentPoly({(0, e): c for e, c in centered.items()})
