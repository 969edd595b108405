"""Artin action on the free group, Fox calculus, and the Burau cross-check.

A braid acts on the free group on the strand generators; the Fox-derivative
Jacobian of that action, abelianized (every generator to the same variable
z), is the classical Burau matrix, and the determinant of I minus its
reduced form recovers the Alexander polynomial.  `fox_derivative` returns
each derivative already abelianized, a Laurent polynomial in z built in one
pass over the word, so no group-ring element is ever formed.  This route
imports only `braid` and `exactpoly` from the package, nothing of the
operator-algebra pipeline, and cross-validates it.

Convention: a braid word acts as the composite of generator automorphisms
with the first letter applied first; its abelianized Jacobian then matches
the transposed Burau specialization of the reversed word (pinned by tests).
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, _free_reduce, closure_is_knot
from .exactpoly import LaurentPoly, alexander_of_matrix

Letter = tuple[int, int]


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word in generators z_1, z_2, …; letters are
    (generator index ≥ 1, exponent ±1)."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for g, e in self.letters:
            if g < 1 or e not in (1, -1):
                raise ValueError(f"bad letter ({g}, {e})")
        reduced = _free_reduce(self.letters)
        if reduced != self.letters:
            object.__setattr__(self, "letters", reduced)

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls()

    @classmethod
    def generator(cls, i: int, exponent: int = 1) -> "FreeWord":
        return cls(((i, exponent),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def total_exponent(self) -> int:
        return sum(e for _, e in self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "1"
        bits = [f"z{g}" if e == 1 else f"z{g}^-1" for g, e in self.letters]
        return "*".join(bits)


def _generator_images(j: int, eps: int) -> dict[int, tuple[Letter, ...]]:
    """Images of the touched generators under σ_j^{eps}:
    σ_j: z_j ↦ z_j z_{j+1} z_j^{-1}, z_{j+1} ↦ z_j."""
    if eps == 1:
        return {j: ((j, 1), (j + 1, 1), (j, -1)), j + 1: ((j, 1),)}
    return {j: ((j + 1, 1),), j + 1: ((j + 1, -1), (j, 1), (j + 1, 1))}


def _apply_generator(w: FreeWord, j: int, eps: int) -> FreeWord:
    images = _generator_images(j, eps)
    out: list[Letter] = []
    for g, e in w.letters:
        image = images.get(g)
        if image is None:
            out.append((g, e))
        elif e == 1:
            out.extend(image)
        else:
            out.extend((ig, -ie) for ig, ie in reversed(image))
    return FreeWord(tuple(out))


def apply_artin(b: BraidWord, w: FreeWord) -> FreeWord:
    """The automorphism of the braid word applied to w, letters of the braid
    acting first-to-last."""
    for j, eps in b.word:
        w = _apply_generator(w, j, eps)
    return w


def artin_action(b: BraidWord, i: int) -> FreeWord:
    """β(z_i) for the strand generator z_i, 1 ≤ i ≤ m."""
    if not 1 <= i <= b.strands:
        raise ValueError(f"generator index {i} outside 1..{b.strands}")
    return apply_artin(b, FreeWord.generator(i))


def fox_derivative(w: FreeWord, i: int) -> LaurentPoly:
    """∂w/∂z_i with every generator sent to z, in one pass over w's letters.

    The Fox derivative has ∂z_i/∂z_i = 1, ∂z_i^{-1}/∂z_i = −z_i^{-1} and
    ∂(uv) = ∂u + u·∂v, so ∂w/∂z_i sums, over w's letters of generator i,
    the prefix before the letter (times −z_i^{-1} for an inverse letter).
    Abelianizing is a ring homomorphism, so each prefix becomes z^h, h its
    exponent sum: a letter z_i adds z^h and a letter z_i^{-1} adds −z^{h−1}.
    """
    out: dict[tuple[int, int], int] = {}
    h = 0
    for g, e in w.letters:
        if g == i:
            key = (0, h if e == 1 else h - 1)
            out[key] = out.get(key, 0) + e
        h += e
    return LaurentPoly(out)


def abelianized_psi(b: BraidWord) -> list[list[LaurentPoly]]:
    """The Fox Jacobian (∂β(z_i)/∂z_j)_{ij} of the Artin images with every
    generator sent to z: the Burau matrix."""
    images = [artin_action(b, i) for i in range(1, b.strands + 1)]
    return [[fox_derivative(w, j) for j in range(1, b.strands + 1)] for w in images]


def abelianize_check(b: BraidWord) -> tuple[list[list[LaurentPoly]], LaurentPoly]:
    """The abelianized Jacobian and the normalized Alexander polynomial
    det(I − reduced Jacobian), computed wholly through Fox calculus."""
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    ab = abelianized_psi(b)
    return ab, alexander_of_matrix([row[1:] for row in ab[1:]])
