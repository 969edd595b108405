"""Deformed Burau blocks S±, the braid representation ρ(γ) and its reduction.

Crossing j of sign ε contributes the block matrix A_j = I ⊕ S_{ε,j} ⊕ I with

    S₊ = [[a_j, b_j],      S₋ = [[0,   c_j],
          [c_j, 0  ]]            [b_j, a_j]]

and ρ(γ) = A_1 A_2 … A_k over the generator algebra.  ρ′ drops the first row
and column.  Both matrices are right-quantum, which is what makes the quantum
determinant of I − qρ′ well-defined; under the evaluation map E the blocks
specialize to the transpose Burau matrix and its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import BraidWord
from .exactpoly import LaurentPoly, PolyMatrix
from .qweyl import AlgebraElement, NormalMonomial, StrandSigns, eval_E, normal_order_product


@dataclass(frozen=True)
class QuantumMatrix:
    """Square matrix of AlgebraElements over a shared sign vector."""

    dim: int
    entries: tuple[tuple[AlgebraElement, ...], ...]
    signs: StrandSigns

    def __post_init__(self):
        if len(self.entries) != self.dim or any(len(row) != self.dim for row in self.entries):
            raise ValueError("entries must form a dim×dim square")

    @classmethod
    def from_rows(cls, rows, signs: StrandSigns) -> "QuantumMatrix":
        t = tuple(tuple(row) for row in rows)
        return cls(len(t), t, signs)

    def entry(self, i: int, j: int) -> AlgebraElement:
        """1-based access, matching the row/column conventions in the text."""
        return self.entries[i - 1][j - 1]

    def scale(self, c: LaurentPoly) -> "QuantumMatrix":
        """Entrywise multiplication by a central scalar (a power of q)."""
        rows = tuple(tuple(e.scale(c) for e in row) for row in self.entries)
        return QuantumMatrix(self.dim, rows, self.signs)


def s_matrix(sign: int, j: int, signs: StrandSigns) -> QuantumMatrix:
    """The 2×2 block in the generators of crossing j, whose sign in the
    braid's sign vector `signs` must be `sign`."""
    if sign not in (1, -1):
        raise ValueError("sign must be ±1")
    if signs.sign(j) != sign:
        raise ValueError(f"sign vector has {signs.sign(j)} at crossing {j}, block wants {sign}")
    a = AlgebraElement.generator("a", j)
    b = AlgebraElement.generator("b", j)
    c = AlgebraElement.generator("c", j)
    zero = AlgebraElement.zero()
    if sign == 1:
        rows = ((a, b), (c, zero))
    else:
        rows = ((zero, c), (b, a))
    return QuantumMatrix(2, rows, signs)


@lru_cache(maxsize=2)
def _block_steps(sign: int) -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
    """(t, c, generator exponents (s, r, d)) of each nonzero S_ε[t][c], from `s_matrix`."""
    S = s_matrix(sign, 1, StrandSigns((sign,))).entries
    return tuple((t, c, g.entries[0][1:]) for t in (0, 1) for c in (0, 1) for g in S[t][c].terms)


def rho(b: BraidWord) -> QuantumMatrix:
    """ρ(γ) = A_1 A_2 … A_k, products taken left to right in word order, as
    path sums.  Right-multiplying by A_j = I ⊕ S ⊕ I changes the two columns
    that crossing j touches, and each nonzero S[t][c] is one generator of
    crossing j.  It commutes with every generator already in a monomial, as
    their crossings are lower, so no reordering happens: the product appends
    the generator's entry, in normal order and with no power of q.  The
    generator of a step (t, c) gives back the step, so no two paths share a
    monomial and every coefficient is 1: the entries are built as sets of
    entry tuples and wrapped into AlgebraElements once.
    """
    signs = StrandSigns(b.signs)
    m = b.strands
    rows = [[{()} if i == j else set() for j in range(m)] for i in range(m)]
    for j, (i, eps) in enumerate(b.word, start=1):
        steps = [(t, c, ((j, *g),)) for t, c, g in _block_steps(eps)]
        for row in rows:
            pair = row[i - 1 : i + 1]
            if pair[0] or pair[1]:
                new = row[i - 1 : i + 1] = set(), set()
                for t, c, g in steps:
                    new[c].update([mono + g for mono in pair[t]])
    one = LaurentPoly.one()
    return QuantumMatrix.from_rows(
        [[AlgebraElement(dict.fromkeys(map(NormalMonomial, e), one)) for e in row] for row in rows], signs)


def rho_prime(M: QuantumMatrix) -> QuantumMatrix:
    """Remove the first row and column; a 1×1 matrix (the 1-strand unknot)
    reduces to the 0×0 one, whose determinants are 1."""
    if M.dim < 1:
        raise ValueError("need dimension at least 1 to reduce")
    rows = tuple(row[1:] for row in M.entries[1:])
    return QuantumMatrix(M.dim - 1, rows, M.signs)


def check_right_quantum(M: QuantumMatrix) -> list[tuple[int, int, int, int, str]]:
    """All 2×2 submatrix relations; empty list means right-quantum.

    For rows i<i′, columns j<j′ with a=M[i,j], b=M[i,j′], c=M[i′,j], d=M[i′,j′]:
        ac = qca,   bd = qdb,   ad = da + qcb − q^{-1}bc.
    """
    q = LaurentPoly.q_power(1)
    qinv = LaurentPoly.q_power(-1)
    signs = M.signs
    violations = []
    for i in range(1, M.dim + 1):
        for i2 in range(i + 1, M.dim + 1):
            for j in range(1, M.dim + 1):
                for j2 in range(j + 1, M.dim + 1):
                    a, b = M.entry(i, j), M.entry(i, j2)
                    c, d = M.entry(i2, j), M.entry(i2, j2)
                    if normal_order_product(a, c, signs) != normal_order_product(c, a, signs).scale(q):
                        violations.append((i, i2, j, j2, "ac=qca"))
                    if normal_order_product(b, d, signs) != normal_order_product(d, b, signs).scale(q):
                        violations.append((i, i2, j, j2, "bd=qdb"))
                    lhs = normal_order_product(a, d, signs)
                    rhs = (
                        normal_order_product(d, a, signs)
                        + normal_order_product(c, b, signs).scale(q)
                        - normal_order_product(b, c, signs).scale(qinv)
                    )
                    if lhs != rhs:
                        violations.append((i, i2, j, j2, "ad=da+qcb-q^-1bc"))
    return violations


def classical_specialization(M: QuantumMatrix) -> PolyMatrix:
    """Entrywise evaluation map E; entries land in the commutative ring."""
    return [[eval_E(e, M.signs) for e in row] for row in M.entries]
