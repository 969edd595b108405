"""Kashaev invariants, the cyclotomic series, and volume-rate estimation.

The z = q^{-1} evaluation of the determinant inverse series yields a series
of integer Laurent polynomials whose n-th term is divisible by
(1−q)(1−q²)⋯(1−q^{⌊n/k⌋}); it therefore evaluates at every root of unity,
where only finitely many terms survive.  With the writhe prefactor
q^{(m−w−1)/2}, the value at q = exp(2πi/N) is the order-N Kashaev invariant
of the closure.  Cyclic rotations of a braid word are conjugate braids with
the same closure, writhe and strand count, so the exact value may sum the
series on any of them, and the work differs by orders of magnitude between
them: `kashaev_value` sums it by `mcmahon.folded_series_sum` on the
rotation that `mcmahon.series_word` plans, the first whose C has the fewest
monomials, a plan made from counts alone, so a word is always summed on the
same rotation.  The colored Jones routes sum on the same planned word.  C
comes from the per-braid cache `mcmahon.braid_c_sum`, shared by every order
N and by the colored Jones routes, its minors from `mcmahon.c_parts`, and
the arrays the folded series steps by from `mcmahon.braid_c_arrays`.
`kashaev_series` keeps the given word, as its terms t_n are not invariants.
A complex floating-point state sum provides the production path for
growth-rate sequences 2π·ln|⟨K⟩_N|/N, whose conjectured limit is the
hyperbolic volume.  It too runs on a rotation: `verma_oracle.state_sum_word`
picks the one whose sum builds the fewest entries at N = 2, as it does for
the exact state sum, which cuts both its time and its cancellation error,
and chooses by counts alone, so a word always gives the same floats;
independent volume references come from ideal triangulations evaluated with
the Lobachevsky/dilogarithm functions.
"""
from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .braid import BraidWord, closure_is_knot
from .exactpoly import (
    CyclotomicInt,
    LaurentPoly,
    Q_UNIT,
    _polydivmod,
    cyclotomic_reduce,
    embed_complex,
)
from .mcmahon import braid_c_arrays, braid_c_sum, fermionic_terms, folded_series_sum, series_word
from .qweyl import StrandSigns
from .verma_oracle import _NumericTables, numeric_state_sum, state_sum_word

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HabiroTruncation:
    """Leading terms t_n of the z = q^{-1} series, prefactor kept separate.

    The full invariant is q^{prefactor_exponent} Σ_n t_n; t_n is divisible by
    (1−q)(1−q²)⋯(1−q^{⌊n/k⌋}) for a k-crossing braid, which makes the series
    summable at every root of unity.
    """

    terms: tuple[LaurentPoly, ...]
    prefactor_exponent: int


@dataclass(frozen=True)
class KashaevValue:
    """Order-N value: exact residue mod Φ_N (when computed exactly) plus its
    complex embedding at q = exp(2πi/N)."""

    N: int
    exact: CyclotomicInt | None
    approx: complex


def _poly_from_whole_powers(d: dict[int, int]) -> LaurentPoly:
    return LaurentPoly({(Q_UNIT * e, 0): c for e, c in d.items()})


def _prefactor_exponent(b: BraidWord) -> int:
    # an integer: both callers run closure_is_knot first, which checks that
    # w ≡ m − 1 (mod 2) on every knot closure
    return (b.strands - b.writhe - 1) // 2


def kashaev_series(b: BraidWord, depth: int) -> HabiroTruncation:
    """Terms t_n for n = 0..depth of the z = q^{-1} evaluation of the
    inverse-determinant series, zero-padded if the series stops early."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    terms = [
        _poly_from_whole_powers(value)
        for value in fermionic_terms(braid_c_sum(b), StrandSigns(b.signs), z_pow=-1, max_n=depth)
    ]
    while len(terms) < depth + 1:
        terms.append(LaurentPoly.zero())
    return HabiroTruncation(tuple(terms[: depth + 1]), _prefactor_exponent(b))


def kashaev_value(b: BraidWord, N: int, mode: str = "exact") -> KashaevValue:
    """⟨K⟩_N of the braid closure.

    exact: sum the z = q^{-1} series in ℤ[q]/(q^N − 1), where states with
    some d_j ≥ N vanish and are pruned, so the sum is finite; apply
    q^{(m−w−1)/2} and reduce mod Φ_N.  The series runs on the first
    cyclic rotation of b whose C has the fewest monomials
    (`series_word`), b itself on a tie; a rotation is a conjugate of
    b with b's writhe and strand count, so the value is the same on every
    rotation.  Logs one DEBUG record naming the word summed on and the
    C-monomials of b and of that word.
    float: evaluate the R-matrix state sum at q = exp(2πi/N) on the
    rotation of b that `state_sum_word` plans: b unless another rotation's
    sum builds strictly fewer entries at N = 2.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    if mode == "float":
        return KashaevValue(N, None, numeric_state_sum(state_sum_word(b, N, _NumericTables), N))
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    word = series_word(b)
    _log.debug("kashaev N = %d: series on %r of %r; C-monomials %d of the given word, "
               "%d of the word summed on", N, word.to_text(), b.to_text(),
               len(braid_c_sum(b).terms), len(braid_c_sum(word).terms))
    total = folded_series_sum(braid_c_arrays(word), word.signs, N)
    poly = _poly_from_whole_powers(dict(enumerate(total)))
    poly = poly.shift(Q_UNIT * _prefactor_exponent(b))
    exact = cyclotomic_reduce(poly, N)
    return KashaevValue(N, exact, complex(embed_complex(exact)))


def kz_series(N: int) -> KashaevValue:
    """q Σ_n (1−q)(1−q²)⋯(1−qⁿ) at q = exp(2πi/N); terms with n ≥ N vanish.
    Equals the order-N value of the left trefoil."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    total = LaurentPoly.zero()
    partial = LaurentPoly.one()
    for n in range(N):
        if n > 0:
            partial = partial * (LaurentPoly.one() - LaurentPoly.q_power(n))
        total = total + partial
    exact = cyclotomic_reduce(total.shift(Q_UNIT), N)
    return KashaevValue(N, exact, complex(embed_complex(exact)))


def volume_rows(b: BraidWord, N_values: list[int]) -> Iterator[tuple[int, float, float | None]]:
    """The rows of `volume_sequence`, each yielded as its order finishes, so
    a caller keeps the finished rows when a later order fails."""
    if any(N < 2 for N in N_values):
        raise ValueError("all N must be ≥ 2")
    if not closure_is_knot(b):
        raise ValueError("closure is not a knot")
    for N in N_values:
        start = time.perf_counter()
        mag = abs(numeric_state_sum(state_sum_word(b, N, _NumericTables), N))
        _log.debug("volume N = %d: |<K>_N| = %.6g in %.3f s", N, mag, time.perf_counter() - start)
        yield N, mag, 2 * math.pi * math.log(mag) / N if mag > 0 else None


def volume_sequence(
    b: BraidWord, N_values: list[int]
) -> list[tuple[int, float, float | None]]:
    """(N, |⟨K⟩_N|, 2π·ln|⟨K⟩_N|/N) by the float path for each requested N, in
    request order; an exactly zero magnitude yields rate None.  Each order
    sums `numeric_state_sum` on the rotation of b that `state_sum_word`
    plans; `state_sum_word` caches its probes, so each rotation is probed
    at most once.  Logs one DEBUG record per N, with its seconds, as each
    order finishes."""
    return list(volume_rows(b, N_values))


def mahler_measure(delta: LaurentPoly) -> float:
    """|leading coefficient| · ∏ max(1, |root|) of a univariate-z polynomial f,
    roots counted with multiplicity, by mpmath.polyroots at 30 digits."""
    terms = delta.z_terms()
    if not terms:
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    lo, hi = min(terms), max(terms)
    f = [Fraction(terms.get(e, 0)) for e in range(lo, hi + 1)]
    with mpmath.workdps(30):
        measure = mpmath.mpf(abs(terms[hi]))
        while len(f) > 1:
            # polyroots converges fast only on distinct roots: take them from the squarefree
            # f / gcd(f, f′) over ℚ, then go on with the gcd, whose roots repeat once fewer
            a, b = f, [i * c for i, c in enumerate(f)][1:]
            while b:
                a, b = b, _polydivmod(a, [c / b[-1] for c in b])[1]
            gcd = [c / a[-1] for c in a]
            s = [mpmath.mpf(c.numerator) / c.denominator for c in _polydivmod(f, gcd)[0]]
            measure *= mpmath.fprod(max(1, abs(r)) for r in mpmath.polyroots(s[::-1]))
            f = gcd
        return float(measure)


def lobachevsky(theta: float) -> float:
    """Λ(θ) = ½ Σ_{n≥1} sin(2nθ)/n² = ½ Im Li₂(e^{2iθ})."""
    with mpmath.workdps(30):
        val = mpmath.polylog(2, mpmath.exp(2j * mpmath.mpf(theta)))
        return float(mpmath.im(val)) / 2


def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li₂(z) + arg(1−z)·ln|z|: the ideal-tetrahedron volume with
    shape parameter z."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z)
        val = mpmath.im(mpmath.polylog(2, zz)) + mpmath.arg(1 - zz) * mpmath.ln(abs(zz))
        return float(val)


def reference_volumes() -> dict[str, float]:
    """Hyperbolic volumes of the corpus knots with hyperbolic complement,
    from ideal triangulations: the figure-eight complement is two regular
    ideal tetrahedra; the 5_2 complement is three congruent tetrahedra whose
    shape is the upper root of z³ − z² + 1."""
    with mpmath.workdps(30):
        shape = next(complex(r) for r in mpmath.polyroots([1, -1, 0, 1]) if mpmath.im(r) > 0)
    return {
        "figure_eight": 6 * lobachevsky(math.pi / 3),
        "5_2": 3 * bloch_wigner(shape),
    }
