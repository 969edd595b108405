"""The quasi-commutative algebra of deformed-Burau generators.

One generator triple (a_j, b_j, c_j) lives at each crossing index j; triples
at distinct indices commute, and within one index the relations depend on the
crossing sign:

    ε = +1:  a b = b a,      a c = q c a,   b c = q² c b
    ε = −1:  a b = q² b a,   c a = q a c,   c b = q² b c

Every element is stored in the canonical normal order b^s c^r a^d per index.
A normal monomial ∏_j b_j^{s_j} c_j^{r_j} a_j^{d_j} is its entry tuple
((j, s_j, r_j, d_j), …), sorted by j with all-zero indices omitted, so ()
is the unit.  The signs are the braid's tuple (ε_1, …, ε_k), read at
crossing j as signs[j − 1].
The evaluation map E sends a normal monomial to a Laurent polynomial in q, z
(independently of the b-exponents); E_N further substitutes z = q^{N-1}.
The tests hold E to a literal q-difference-operator realization of the
generators, an independent oracle.
"""
from __future__ import annotations

from functools import lru_cache

from .exactpoly import LaurentPoly, Q_UNIT, q_pochhammer

Monomial = tuple[tuple[int, int, int, int], ...]  # ((j, s_j, r_j, d_j), …), sorted by j


def reorder_exponent(eps: int, r1: int, d1: int, s2: int, r2: int) -> int:
    """Whole-q power picked up when b^{s1}c^{r1}a^{d1} · b^{s2}c^{r2}a^{d2}
    (same index, sign eps) is brought back to canonical order.

    Only (r1, d1) of the left factor and (s2, r2) of the right factor enter.
    """
    if eps == 1:
        return d1 * r2 - 2 * r1 * s2
    return 2 * d1 * s2 + 2 * r1 * s2 - d1 * r2


class AlgebraElement:
    """Finite Z[q^{±1}]-linear combination of normal monomials, keyed by
    their entry tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, LaurentPoly] | None = None):
        clean = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({(): LaurentPoly.one()})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: LaurentPoly | int = 1) -> "AlgebraElement":
        c = LaurentPoly.const(coeff) if isinstance(coeff, int) else coeff
        return cls({mono: c})

    @classmethod
    def generator(cls, kind: str, j: int) -> "AlgebraElement":
        s, r, d = {"b": (1, 0, 0), "c": (0, 1, 0), "a": (0, 0, 1)}[kind]
        return cls.monomial(((j, s, r, d),))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, LaurentPoly.zero()) + c
        return AlgebraElement(d)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(LaurentPoly.const(-1))

    def __neg__(self) -> "AlgebraElement":
        return self.scale(LaurentPoly.const(-1))

    def scale(self, c: LaurentPoly) -> "AlgebraElement":
        if c.is_zero():
            return AlgebraElement()
        return AlgebraElement({m: coeff * c for m, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for m in sorted(self.terms):
            word = "·".join(
                f"b{j}^{s}" * (s > 0) + f"c{j}^{r}" * (r > 0) + f"a{j}^{d}" * (d > 0)
                for j, s, r, d in m
            ) or "1"
            bits.append(f"({self.terms[m]!r})·{word}")
        return "AlgebraElement(" + " + ".join(bits) + ")"


def normal_order_product(x: AlgebraElement, y: AlgebraElement, signs: tuple[int, ...]) -> AlgebraElement:
    """Product of two elements, renormalized to b^s c^r a^d order per index,
    with crossing j of sign signs[j − 1].

    Two monomials merge in one pass over their entry tuples, sorted by index,
    into an entry tuple sorted by index; at a shared index the exponents add
    and `reorder_exponent` gives the whole-q power of the reordering.  Each
    product of their coefficients' terms, shifted by it, goes into one
    coefficient dict per merged monomial."""
    out: dict[Monomial, dict[tuple[int, int], int]] = {}
    for ex, cx in x.terms.items():
        for ey, cy in y.terms.items():
            merged, q_shift, i = [], 0, 0
            for j, s2, r2, d2 in ey:
                while i < len(ex) and ex[i][0] < j:
                    merged.append(ex[i])
                    i += 1
                if i < len(ex) and ex[i][0] == j:
                    _, s1, r1, d1 = ex[i]
                    q_shift += reorder_exponent(signs[j - 1], r1, d1, s2, r2)
                    s2, r2, d2, i = s1 + s2, r1 + r2, d1 + d2, i + 1
                merged.append((j, s2, r2, d2))
            acc = out.setdefault((*merged, *ex[i:]), {})
            q_shift *= Q_UNIT
            for (qa, za), ca in cx.terms.items():
                for (qb, zb), cb in cy.terms.items():
                    key = (qa + qb + q_shift, za + zb)
                    acc[key] = acc.get(key, 0) + ca * cb
    return AlgebraElement({m: LaurentPoly(c) for m, c in out.items()})


@lru_cache(maxsize=None)
def _eval_factor(eps: int, r: int, d: int) -> LaurentPoly:
    """E of the single-index monomial b^s c^r a^d (independent of s).

    ε=+1: q^{-rd} z^r ∏_{i=0}^{d-1} (1 − z q^{-r-i})
    ε=−1: z^{-r}    ∏_{i=0}^{d-1} (1 − z^{-1} q^{r+i})
    """
    if eps == 1:
        poch = q_pochhammer(-Q_UNIT * r, -1, d, 1)
        return poch.shift(-Q_UNIT * r * d, r)
    poch = q_pochhammer(Q_UNIT * r, 1, d, -1)
    return poch.shift(0, -r)


def eval_E(x: AlgebraElement, signs: tuple[int, ...]) -> LaurentPoly:
    """The evaluation map into Z[q^{±1}, z^{±1}] (s-exponents never matter),
    with crossing j of sign signs[j − 1]."""
    total = LaurentPoly.zero()
    for mono, coeff in x.terms.items():
        val = coeff
        for j, _s, r, d in mono:
            val = val * _eval_factor(signs[j - 1], r, d)
        total = total + val
    return total
