"""Independent references that only the tests use.

* `operator_action_oracle`: the generators of `qweyl` realized literally as
  q-difference operators, the oracle for the evaluation map `eval_E`.
* `table_braiding`: the braiding b̌± on W_N ⊗ W_N assembled from the integer
  tables of `verma_oracle._ExactRows`, the ring that `state_sum_jones` runs,
  with `braid_relation_holds` and `braiding_inverse_holds` checking it on the
  truncated tensor powers.
* `expand_then_filter`: one braiding step of the state sum built by
  expanding every live state over l and then filtering on the closed
  factors, the reference for `verma_oracle._step_entries`.
* `ungraded_fermionic_jones`: the fermionic colored Jones summed on the
  ungraded C until max(k, m) consecutive terms vanish, a stop rule with no
  proof, as the reference for the graded sum.
"""
from itertools import product

import numpy as np

from qknot import mcmahon
from qknot.exactpoly import LaurentPoly, Q_UNIT
from qknot.qweyl import NormalMonomial, StrandSigns
from qknot.verma_oracle import _ExactRows

# ---------------------------------------------------------------------------
# literal operator realization (the oracle for eval_E)
# ---------------------------------------------------------------------------

_State = dict[tuple[int, int, int], LaurentPoly]


def _apply_generator(state: _State, kind: str, eps: int) -> _State:
    """One application of the q-difference operator for a, b or c.

    Monomial x^α y^β u^γ is the key (α, β, γ); shifts τ_x^{±1} multiply the
    coefficient by q^{±α}, hat operators shift the exponents.
    """
    out: _State = {}

    def put(key, coeff):
        acc = out.get(key)
        nc = coeff if acc is None else acc + coeff
        if nc:
            out[key] = nc
        elif key in out:
            del out[key]

    for (ax, ay, au), c in state.items():
        if kind == "b":
            # û² for both signs
            put((ax, ay, au + 2), c)
        elif eps == 1 and kind == "a":
            # (û − ŷ τ_x^{-1}) τ_y^{-1}
            base = c.shift(-Q_UNIT * ay)
            put((ax, ay, au + 1), base)
            put((ax, ay + 1, au), base.shift(-Q_UNIT * ax).scale(-1))
        elif eps == 1 and kind == "c":
            # x̂ τ_y^{-2} τ_u^{-1}
            put((ax + 1, ay, au), c.shift(-Q_UNIT * (2 * ay + au)))
        elif eps == -1 and kind == "a":
            # (τ_y − x̂^{-1}) τ_x^{-1} τ_u
            base = c.shift(Q_UNIT * (au - ax))
            put((ax, ay, au), base.shift(Q_UNIT * ay))
            put((ax - 1, ay, au), base.scale(-1))
        elif eps == -1 and kind == "c":
            # ŷ^{-1} τ_x^{-1} τ_u
            put((ax, ay - 1, au), c.shift(Q_UNIT * (au - ax)))
        else:  # pragma: no cover - guarded by callers
            raise ValueError(f"unknown generator {kind!r}")
    return out


def operator_action_oracle(mono: NormalMonomial, signs: StrandSigns) -> LaurentPoly:
    """Apply the literal operators for ∏_j b_j^{s_j} c_j^{r_j} a_j^{d_j} to the
    constant function 1 (rightmost factor first), then set u = 1, x = y = z.

    Distinct indices act on distinct variable triples, so the result is the
    product over indices of single-index computations.
    """
    result = LaurentPoly.one()
    for j, s, r, d in mono.entries:
        eps = signs.sign(j)
        state: _State = {(0, 0, 0): LaurentPoly.one()}
        for _ in range(d):
            state = _apply_generator(state, "a", eps)
        for _ in range(r):
            state = _apply_generator(state, "c", eps)
        for _ in range(s):
            state = _apply_generator(state, "b", eps)
        value = LaurentPoly.zero()
        for (ax, ay, _au), c in state.items():
            value = value + c.shift(0, ax + ay)
        result = result * value
    return result


# ---------------------------------------------------------------------------
# the braiding of the exact state sum, from its own tables
# ---------------------------------------------------------------------------


def table_coefficients(N: int, sign: int) -> dict[tuple[int, int, int], LaurentPoly]:
    """The coefficient of every (n1, n2, l) in 0..N−1, as `_ExactRows.coeff`
    gives it: q^{∓(N−1)²/4} times q^{shift} · (gauss ⊛ poch)."""
    n1, n2, l = (a.ravel() for a in np.indices((N, N, N)))
    C, shift, _ = _ExactRows(N).coeff(sign, n1, n2, l)
    phase = -sign * (N - 1) ** 2
    return {
        (int(a), int(b), int(c)): LaurentPoly(
            {(phase + Q_UNIT * (int(s) + j), 0): int(x) for j, x in enumerate(row) if x}
        )
        for a, b, c, s, row in zip(n1, n2, l, shift, C)
    }


def table_braiding(N: int, sign: int) -> dict[tuple[int, int], dict[tuple[int, int], LaurentPoly]]:
    """b̌_sign on W_N ⊗ W_N from the tables: e_{n1} ⊗ e_{n2} ↦ its image.
    Raises AssertionError if a nonzero coefficient falls outside the range
    of l that the state sum expands, or leaves W_N ⊗ W_N."""
    out: dict = {(n1, n2): {} for n1, n2 in product(range(N), repeat=2)}
    for (n1, n2, l), c in table_coefficients(N, sign).items():
        lmax = min(n1, N - 1 - n2) if sign == 1 else min(n2, N - 1 - n1)
        if l > lmax:
            assert c.is_zero(), (sign, n1, n2, l)
        elif c:
            out[n1, n2][(n2 + l, n1 - l) if sign == 1 else (n2 - l, n1 + l)] = c
    return out


def _apply(op, vec: dict, pos: int) -> dict:
    """id ⊗ … ⊗ op ⊗ … ⊗ id at 0-based factor pair (pos, pos+1)."""
    out: dict = {}
    for state, c in vec.items():
        for pair, b in op[state[pos : pos + 2]].items():
            new = state[:pos] + pair + state[pos + 2 :]
            out[new] = out.get(new, LaurentPoly.zero()) + c * b
    return {s: c for s, c in out.items() if c}


def braid_relation_holds(N: int) -> bool:
    """b̌₁₂ b̌₂₃ b̌₁₂ = b̌₂₃ b̌₁₂ b̌₂₃ on every basis vector of W_N^⊗3, for b̌₊
    and b̌₋ from the tables."""
    for sign in (1, -1):
        op = table_braiding(N, sign)
        for state in product(range(N), repeat=3):
            lhs = rhs = {state: LaurentPoly.one()}
            for left, right in ((0, 1), (1, 0), (0, 1)):
                lhs, rhs = _apply(op, lhs, left), _apply(op, rhs, right)
            if lhs != rhs:
                return False
    return True


def braiding_inverse_holds(N: int) -> bool:
    """b̌₋ b̌₊ = id on every basis vector of W_N^⊗2, both from the tables."""
    plus, minus = table_braiding(N, 1), table_braiding(N, -1)
    for state in product(range(N), repeat=2):
        if _apply(minus, _apply(plus, {state: LaurentPoly.one()}, 0), 0) != {state: LaurentPoly.one()}:
            return False
    return True


# ---------------------------------------------------------------------------
# one braiding step of the state sum, expanded and then filtered
# ---------------------------------------------------------------------------


def expand_then_filter(n1, n2, eps: int, N: int, close_lo, close_hi):
    """(pairs (state, l) considered, source state of each kept entry, its l)
    for live states holding n1, n2 at factors (i−1, i): every state is
    expanded over l = 0..lmax, and an entry is kept when each closed factor
    holds its initial digit again (close_lo[s] at i−1, close_hi[s] at i)."""
    pairs, src, ls = 0, [], []
    for s, (a, b) in enumerate(zip(n1.tolist(), n2.tolist())):
        lmax = min(a, N - 1 - b) if eps == 1 else min(b, N - 1 - a)
        pairs += lmax + 1
        for l in range(lmax + 1):
            lo, hi = (b + l, a - l) if eps == 1 else (b - l, a + l)
            if close_lo is not None and lo != close_lo[s]:
                continue
            if close_hi is not None and hi != close_hi[s]:
                continue
            src.append(s)
            ls.append(l)
    return pairs, src, ls


# ---------------------------------------------------------------------------
# the fermionic colored Jones on the ungraded C
# ---------------------------------------------------------------------------


def ungraded_fermionic_jones(b, N: int) -> LaurentPoly:
    """J′_N of the closure of b as Σ_n E_N(Cⁿ) over the ungraded C, summed
    until max(k, m) consecutive terms vanish (k crossings, m strands) and
    refused after 1,000 terms, with the writhe prefactor of
    `mcmahon.colored_jones`."""
    _, Mq = mcmahon.braid_setup(b)
    window = max(b.length, b.strands)
    total, streak = {}, 0
    for n, value in enumerate(mcmahon.fermionic_terms(mcmahon.braid_c_sum(b), Mq.signs, N - 1)):
        assert n <= 1000, "series unterminated"
        mcmahon._dadd(total, value)
        streak = 0 if value else streak + 1
        if streak >= window:
            break
    pref = (N - 1) * ((b.writhe - b.strands + 1) // 2)
    return LaurentPoly({(Q_UNIT * (e + pref), 0): c for e, c in total.items()})
