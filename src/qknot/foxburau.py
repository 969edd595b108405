"""Artin action on the free group, Fox calculus, and the Burau cross-check.

A braid acts on the free group on the strand generators; the Fox-derivative
Jacobian of that action abelianizes (every generator to the same variable)
to the classical Burau matrix, and the determinant of I minus its reduced
form recovers the Alexander polynomial.  This route imports only `braid` and
`exactpoly` from the package, nothing of the operator-algebra pipeline, and
cross-validates it.

Convention: a braid word acts as the composite of generator automorphisms
with the first letter applied first; its abelianized Jacobian then matches
the transposed Burau specialization of the reversed word (pinned by tests).
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, _free_reduce, closure_is_knot
from .exactpoly import LaurentPoly, normalize_alexander, poly_mat_det, poly_mat_identity, poly_mat_sub

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


class GroupRingElement:
    """Integer linear combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FreeWord, int] | None = None):
        clean = {w: c for w, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({FreeWord.identity(): 1})

    @classmethod
    def from_word(cls, w: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return cls({w: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        d = dict(self.terms)
        for w, c in other.terms.items():
            d[w] = d.get(w, 0) + c
        return GroupRingElement(d)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        d: dict[FreeWord, int] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa * wb
                d[w] = d.get(w, 0) + ca * cb
        return GroupRingElement(d)

    def scale(self, c: int) -> "GroupRingElement":
        return GroupRingElement({w: c * v for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def abelianize(self) -> LaurentPoly:
        """Send every generator to z: word ↦ z^{total exponent}."""
        out = LaurentPoly.zero()
        for w, c in self.terms.items():
            out = out + LaurentPoly.term(c, 0, w.total_exponent())
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}·{w!r}" for w, c in sorted(self.terms.items(), key=repr))


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


def fox_derivative(w: FreeWord, i: int) -> GroupRingElement:
    """∂w/∂z_i with ∂z_i/∂z_i = 1, ∂z_i^{-1}/∂z_i = −z_i^{-1}, and
    ∂(uv) = ∂u + u·∂v."""
    out: dict[FreeWord, int] = {}
    prefix = FreeWord.identity()
    for g, e in w.letters:
        if g == i:
            if e == 1:
                term, coeff = prefix, 1
            else:
                term, coeff = prefix * FreeWord.generator(g, -1), -1
            out[term] = out.get(term, 0) + coeff
        prefix = prefix * FreeWord.generator(g, e)
    return GroupRingElement(out)


def psi_matrix(b: BraidWord) -> list[list[GroupRingElement]]:
    """The m×m Fox Jacobian (∂β(z_i)/∂z_j)_{ij} of the Artin action."""
    m = b.strands
    images = [artin_action(b, i) for i in range(1, m + 1)]
    return [
        [fox_derivative(images[i], j + 1) for j in range(m)]
        for i in range(m)
    ]


def abelianized_psi(b: BraidWord) -> list[list[LaurentPoly]]:
    """The Fox Jacobian with every generator sent to z: the Burau matrix."""
    return [[entry.abelianize() for entry in row] for row in psi_matrix(b)]


def abelianize_check(b: BraidWord) -> tuple[list[list[LaurentPoly]], LaurentPoly]:
    """The abelianized Jacobian and the normalized Alexander polynomial
    det(I − reduced Jacobian), computed wholly through Fox calculus."""
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    ab = abelianized_psi(b)
    reduced = [row[1:] for row in ab[1:]]
    mat = poly_mat_sub(poly_mat_identity(len(reduced)), reduced)
    det = poly_mat_det(mat)
    if not det.is_univariate_z():
        raise AssertionError("abelianized determinant unexpectedly involves q")
    return ab, normalize_alexander(det)
