"""Braid words: parsing, writhe and permutation, knot-closure test, cyclic
rotations, Markov moves.

A braid on m strands is a sequence of signed Artin generators; the closure
ties top to bottom strand-wise and yields a knot exactly when the induced
permutation is a single m-cycle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class BraidParseError(ValueError):
    """Raised on malformed braid-word text; message carries the token position."""


@dataclass(frozen=True)
class BraidWord:
    """Strand count plus the signed crossing sequence.

    word holds pairs (i_j, ε_j) with 1 ≤ i_j ≤ strands−1 and ε_j = ±1;
    entry j represents the generator σ_{i_j}^{ε_j}.
    """

    strands: int
    word: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        for j, (i, eps) in enumerate(self.word, start=1):
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"crossing {j}: generator index {i} out of range for {self.strands} strands")
            if eps not in (1, -1):
                raise ValueError(f"crossing {j}: sign must be ±1")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def writhe(self) -> int:
        return sum(eps for _, eps in self.word)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(eps for _, eps in self.word)

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        """Underlying permutation on strands 0..m-1 (transpositions composed
        left to right; only its cycle structure is consumed downstream)."""
        perm = list(range(self.strands))
        for i, _ in self.word:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return tuple(perm)

    def to_text(self) -> str:
        return " ".join(str(i * eps) for i, eps in self.word)

    def mirror(self) -> "BraidWord":
        """All crossing signs flipped: the closure is the mirror knot."""
        return BraidWord(self.strands, tuple((i, -eps) for i, eps in self.word))

    def reversed_word(self) -> "BraidWord":
        return BraidWord(self.strands, self.word[::-1])


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    n > 0 means σ_n, n < 0 means σ_{|n|}^{-1}.  The strand count defaults to
    max |n| + 1.  Errors carry the 1-based token position.
    """
    tokens = text.split()
    entries: list[tuple[int, int]] = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            n = int(tok)
        except ValueError:
            raise BraidParseError(f"token {pos}: {tok!r} is not an integer") from None
        if n == 0:
            raise BraidParseError(f"token {pos}: generator index must be nonzero")
        entries.append((abs(n), 1 if n > 0 else -1))
    if strands is None:
        if not entries:
            raise BraidParseError("empty word needs an explicit strand count")
        strands = max(i for i, _ in entries) + 1
    for pos, (i, _) in enumerate(entries, start=1):
        if i >= strands:
            raise BraidParseError(f"token {pos}: generator index {i} needs at least {i + 1} strands, have {strands}")
    return BraidWord(strands, tuple(entries))


def closure_is_knot(b: BraidWord) -> bool:
    """True iff the closure is a single component: β̄ is one m-cycle."""
    perm = b.permutation
    seen = 0
    x = 0
    for _ in range(b.strands):
        x = perm[x]
        seen += 1
        if x == 0:
            break
    is_knot = seen == b.strands
    # Parity fact used by the q^{(N-1)(w-m+1)/2} prefactor: each letter
    # permutes by a transposition and an m-cycle is a product of m−1
    # transpositions, so by the sign of the permutation the word length, and
    # hence the writhe (a sum of ±1 per letter), is ≡ m−1 mod 2.
    if is_knot and (b.writhe - b.strands + 1) % 2:
        raise AssertionError("writhe parity differs from strands − 1 on a knot closure")
    return is_knot


def cyclic_rotations(b: BraidWord, count: int | None = None) -> list[BraidWord]:
    """The distinct cyclic rotations of b's word, b first, then in the order
    of the letter each starts at; only the first `count` of them when given.
    A rotation is a conjugate of b, so every one has b's closure, writhe and
    strand count.  The rotations starting at letters r and s agree exactly
    when the word's least period divides r − s, so the distinct ones start
    at the letters before that period."""
    w = b.word
    period = next((p for p in range(1, len(w)) if w[p:] + w[:p] == w), len(w))
    stop = period if count is None else min(period, count)
    return [b] + [BraidWord(b.strands, w[r:] + w[:r]) for r in range(1, stop)]


def _free_reduce(word: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    stack: list[tuple[int, int]] = []
    for i, eps in word:
        if stack and stack[-1][0] == i and stack[-1][1] == -eps:
            stack.pop()
        else:
            stack.append((i, eps))
    return tuple(stack)


def markov_moves(b: BraidWord, move: str, g: int | None = None) -> BraidWord:
    """Produce a braid with the same knot closure.

    move = "conjugate" (g signed: conjugation by σ_g or σ_{|g|}^{-1}),
    "stabilize_positive" or "stabilize_negative" (one new strand, σ_m^{±1}
    appended).  Conjugates are freely reduced.
    """
    if move == "conjugate":
        if g is None or g == 0 or not 1 <= abs(g) <= b.strands - 1:
            raise ValueError(f"conjugation generator {g!r} out of range")
        i, eps = abs(g), (1 if g > 0 else -1)
        new_word = ((i, eps),) + b.word + ((i, -eps),)
        return BraidWord(b.strands, _free_reduce(new_word))
    if move == "stabilize_positive":
        return BraidWord(b.strands + 1, b.word + ((b.strands, 1),))
    if move == "stabilize_negative":
        return BraidWord(b.strands + 1, b.word + ((b.strands, -1),))
    raise ValueError(f"unknown Markov move {move!r}")
