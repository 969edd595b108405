"""Exact sparse Laurent polynomials, q-binomials, cyclotomic integers, and
the overflow rule of int64 coefficient rows.

Every invariant computed by this package reduces to arithmetic in
Z[q^{±1/4}, z^{±1}] or in Z[q]/Φ_N(q).  Exponents of q live on a
quarter-integer lattice stored as plain integers (q ↔ Q_UNIT = 4,
v = q^{1/2} ↔ 2, v^{1/2} ↔ 1) so intermediate square roots of q stay exact;
every q-exponent argument (`LaurentPoly.term`, `LaurentPoly.shift`,
`q_pochhammer`) is such a quarter-unit int, and only `LaurentPoly.q_power`
takes a whole power.  Coefficients are arbitrary-precision integers
throughout, and the constructor is the one place that drops zero
coefficients, so arithmetic accumulates freely and returns through it.
The numpy kernels of the series engine (`mcmahon`) and of the exact state
sum (`verma_oracle`) hold coefficients as int64 rows instead; `fit_rows`
moves those rows to Python ints before a sum could wrap, at every site of
both, and with the cell limit of their arrays it is the only code the two
exact routes share.  The two Alexander routes (`mcmahon` and
`foxburau`) likewise share only this module: `alexander_of_matrix`, the
normalized det(I − M) of their matrices.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import mpmath
import numpy as np

Q_UNIT = 4  # quarter-lattice units per whole power of q


class LaurentPoly:
    """Sparse Laurent polynomial in q (quarter-lattice exponents) and z.

    Terms map (q_exponent_in_quarters, z_exponent) -> integer coefficient.
    Instances are immutable; all operations return new values.  Zero
    coefficients are never stored, so dict equality is canonical equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean = {k: v for k, v in (terms or {}).items() if v}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): int(c)})

    @classmethod
    def term(cls, coeff: int, q_exp: int = 0, z_exp: int = 0) -> "LaurentPoly":
        """coeff · q^{q_exp/4} z^{z_exp}: q_exp counts quarter units."""
        return cls({(q_exp, z_exp): int(coeff)})

    @classmethod
    def q_power(cls, e: int) -> "LaurentPoly":
        """q^e for a whole power e."""
        return cls({(Q_UNIT * e, 0): 1})

    @classmethod
    def z_power(cls, e: int) -> "LaurentPoly":
        return cls({(0, int(e)): 1})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d = dict(self.terms)
        for k, v in other.terms.items():
            d[k] = d.get(k, 0) + v
        return LaurentPoly(d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d = dict(self.terms)
        for k, v in other.terms.items():
            d[k] = d.get(k, 0) - v
        return LaurentPoly(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d: dict[tuple[int, int], int] = {}
        for (qa, za), ca in a.items():
            for (qb, zb), cb in b.items():
                k = (qa + qb, za + zb)
                d[k] = d.get(k, 0) + ca * cb
        return LaurentPoly(d)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly()
        return LaurentPoly({k: c * v for k, v in self.terms.items()})

    def shift(self, q_exp: int = 0, z_exp: int = 0) -> "LaurentPoly":
        """Multiply by the monomial q^{q_exp/4} z^{z_exp} (q_exp in quarter units)."""
        return LaurentPoly({(qq + q_exp, ze + z_exp): v for (qq, ze), v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- substitutions -----------------------------------------------------
    def subst_z_to_qpower(self, e: int) -> "LaurentPoly":
        """z ↦ q^e (whole power): realizes the z = q^{N-1} evaluations."""
        d: dict[tuple[int, int], int] = {}
        for (qq, ze), v in self.terms.items():
            k = (qq + Q_UNIT * e * ze, 0)
            d[k] = d.get(k, 0) + v
        return LaurentPoly(d)

    def subst_q_inverse(self) -> "LaurentPoly":
        return LaurentPoly({(-qq, ze): v for (qq, ze), v in self.terms.items()})

    def subst_z_inverse(self) -> "LaurentPoly":
        return LaurentPoly({(qq, -ze): v for (qq, ze), v in self.terms.items()})

    # -- inspection --------------------------------------------------------
    def is_univariate_q(self) -> bool:
        return all(ze == 0 for (_, ze) in self.terms)

    def is_univariate_z(self) -> bool:
        return all(qq == 0 for (qq, _) in self.terms)

    def has_integer_q_powers(self) -> bool:
        return all(qq % Q_UNIT == 0 for (qq, _) in self.terms)

    def q_terms(self) -> dict[int, int]:
        """As a map whole-q-exponent -> coefficient; errors if not in Z[q^{±1}]."""
        if not self.is_univariate_q():
            raise ValueError("polynomial involves z")
        out: dict[int, int] = {}
        for (qq, _), v in self.terms.items():
            if qq % Q_UNIT:
                raise ValueError("polynomial has fractional q-exponents")
            out[qq // Q_UNIT] = v
        return out

    def z_terms(self) -> dict[int, int]:
        if not self.is_univariate_z():
            raise ValueError("polynomial involves q")
        return {ze: v for (_, ze), v in self.terms.items()}

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if not self.terms:
            return 0
        if set(self.terms) != {(0, 0)}:
            raise ValueError("polynomial is not constant")
        return self.terms[(0, 0)]

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for (qq, ze) in sorted(self.terms):
            c = self.terms[(qq, ze)]
            s = f"{c}"
            if qq:
                s += f"*q^({Fraction(qq, Q_UNIT)})"
            if ze:
                s += f"*z^{ze}"
            bits.append(s)
        return "LaurentPoly(" + " + ".join(bits) + ")"


def q_pochhammer(base_exp: int, step: int, d: int, z_degree: int) -> LaurentPoly:
    """∏_{i=0}^{d-1} (1 − z^{z_degree} · q^{base_exp/4 + step·i}).

    base_exp counts quarter units (Q_UNIT per whole power of q); step ∈
    {+1, −1} counts whole powers of q.  d = 0 gives 1.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if step not in (1, -1):
        raise ValueError("step must be +1 or -1")
    out = LaurentPoly.one()
    for i in range(d):
        factor = LaurentPoly.one() - LaurentPoly.term(1, base_exp + Q_UNIT * step * i, z_degree)
        out = out * factor
    return out


@lru_cache(maxsize=None)
def _gauss_binom_std(n: int, l: int) -> LaurentPoly:
    """Standard Gaussian binomial [n choose l] in q with nonnegative powers.
    It stays for `q_int_binom`."""
    if l < 0 or l > n:
        return LaurentPoly.zero()
    if l == 0 or l == n:
        return LaurentPoly.one()
    # Pascal recurrence: [n,l] = [n-1,l-1] + q^l [n-1,l]
    return _gauss_binom_std(n - 1, l - 1) + _gauss_binom_std(n - 1, l).shift(Q_UNIT * l)


def q_int_binom(n: int, l: int, sign: int) -> LaurentPoly:
    """q-binomial built from (n)_q = 1 + q^{-1} + … + q^{-(n-1)}.

    sign=+1: the binomial in q (negative powers, equals q^{-l(n-l)}·[n,l]_std);
    sign=−1: the binomial in q^{-1} (equals the standard nonnegative-power
    Gaussian binomial).  l outside [0, n] returns 0 by convention.  Only
    `verma_oracle.braiding_coeff` calls it, and it stays with that function,
    which the benchmark tracer names.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if l < 0 or l > n:
        return LaurentPoly.zero()
    std = _gauss_binom_std(n, l)
    if sign == -1:
        return std
    return std.shift(-Q_UNIT * l * (n - l))


def laurent_divmod(p: LaurentPoly, d: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division p = quot·d + rem for univariate-q integer-lattice polynomials.

    The divisor's highest-degree coefficient must be ±1 so the division stays
    in integer coefficients; rem is zero exactly when d divides p in ℤ[q^{±1}].
    """
    dn = d.q_terms()
    if not dn:
        raise ZeroDivisionError("division by the zero polynomial")
    pn = p.q_terms()
    if not pn:
        return LaurentPoly.zero(), LaurentPoly.zero()
    plo, phi = min(pn), max(pn)
    dlo, dhi = min(dn), max(dn)
    num = [pn.get(e, 0) for e in range(plo, phi + 1)]
    den = [dn.get(e, 0) for e in range(dlo, dhi + 1)]
    # divide by the monic sign·d; a divisor that is not ±monic raises there
    sign = 1 if den[-1] > 0 else -1
    quot, rem = _polydivmod(num, [sign * c for c in den])
    qpoly = LaurentPoly({(Q_UNIT * (plo - dlo + i), 0): sign * c for i, c in enumerate(quot) if c})
    rpoly = LaurentPoly({(Q_UNIT * (plo + i), 0): c for i, c in enumerate(rem) if c})
    return qpoly, rpoly


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

def _polydivmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials (ascending coefficients), den monic."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                rem[i - dd + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_coeffs(N: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the N-th cyclotomic polynomial Φ_N."""
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return (-1, 1)
    poly = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            quot, rem = _polydivmod(poly, list(cyclotomic_coeffs(d)))
            if rem:
                raise AssertionError("cyclotomic division not exact")
            poly = quot
    return tuple(poly)


@dataclass(frozen=True)
class CyclotomicInt:
    """Element of Z[q]/Φ_N(q): coeffs has length φ(N) = deg Φ_N.  A value
    type, as `cyclotomic_reduce` returns it; it has no ring operations."""

    N: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeff_list(cls, N: int, coeffs: Iterable[int]) -> "CyclotomicInt":
        phi = cyclotomic_coeffs(N)
        deg = len(phi) - 1
        vec = list(coeffs)
        _, rem = _polydivmod(vec, list(phi))
        rem = rem + [0] * (deg - len(rem))
        return cls(N, tuple(rem))

    @classmethod
    def from_int(cls, N: int, value: int) -> "CyclotomicInt":
        return cls.from_coeff_list(N, [value])

    @classmethod
    def q_power(cls, N: int, e: int) -> "CyclotomicInt":
        vec = [0] * (e % N) + [1]
        return cls.from_coeff_list(N, vec)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_int(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_int():
            raise ValueError("not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly({(Q_UNIT * j, 0): c for j, c in enumerate(self.coeffs) if c})


def cyclotomic_reduce(p: LaurentPoly, N: int) -> CyclotomicInt:
    """Exact residue of p (integer q-powers, no z) modulo Φ_N.

    Negative powers are folded via q^N ≡ 1 before the modular reduction.
    """
    if N < 1:
        raise ValueError("N must be positive")
    vec = [0] * N
    for (qq, ze), c in p.terms.items():
        if ze:
            raise ValueError("cyclotomic_reduce needs a polynomial in q alone")
        if qq % Q_UNIT:
            raise ValueError("fractional q-power reached cyclotomic evaluation; upstream convention bug")
        vec[(qq // Q_UNIT) % N] += c
    return CyclotomicInt.from_coeff_list(N, vec)


@lru_cache(maxsize=None)
def _unit_roots(N: int) -> tuple:
    """exp(2πij/N) for j < φ(N), the length of a `CyclotomicInt`'s
    coefficients, to 40 digits."""
    with mpmath.workdps(40):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * j) / N) for j in range(len(cyclotomic_coeffs(N)) - 1))


def embed_complex(c: CyclotomicInt) -> complex:
    """Value of c at q = exp(2πi/N): Σ_j c_j·exp(2πij/N) in 40-digit
    arithmetic, on roots `_unit_roots` keeps per N."""
    roots = _unit_roots(c.N)
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for a, root in zip(c.coeffs, roots):
            if a:
                total += a * root
        return complex(total)


# ---------------------------------------------------------------------------
# int64 coefficient rows
# ---------------------------------------------------------------------------
#
# int64 sums wrap silently, so a kernel that adds rows of int64 coefficients
# bounds every sum beforehand, from a bound on each row's ‖row‖∞ (measured by
# `row_norms`, or carried and measured only when it fails) and the ℓ₁ norm of
# what multiplies it: `int64_fits` checks the sum over each group of rows.
# The rows stay int64 while every group sum stays under INT64_SAFE, and past
# it they move to object dtype of Python ints, the same code exact at any size.
# `fit_rows` applies the rule, and is the only code that moves rows at run time.

INT64_SAFE = float(2**62)

# The exact kernels refuse an input whose arrays would hold more cells than
# this (predicted before anything is allocated).
CELL_LIMIT = 2**24


def row_norms(V: np.ndarray) -> np.ndarray:
    """Each row's ‖row‖∞, taken in floats so that −2^63 cannot wrap."""
    return np.maximum(V.max(axis=1).astype(float), -V.min(axis=1).astype(float))


def int64_fits(bound: np.ndarray, starts: np.ndarray, log: logging.Logger) -> bool:
    """Whether every group sum of the per-row bounds stays under INT64_SAFE,
    the groups being the runs of `bound` that begin at `starts`.  When one
    does not, the caller's rows leave int64; that is logged at DEBUG on the
    caller's logger `log`."""
    peak = float(np.add.reduceat(bound, starts).max(initial=0))
    if peak < INT64_SAFE:
        return True
    log.debug("%d rows leave int64: a group sum may reach %.3g ≥ 2^62", len(bound), peak)
    return False


def fit_rows(V, rows, scale, starts, log: logging.Logger, carried=None):
    """(V, bounds of the summands V[rows]·scale) before the sums over the runs
    of summands that begin at `starts`: V as it is while `int64_fits` holds
    for the measured bounds, else V on object rows, whose bounds are 0.
    `carried`, a bound on each row's ‖row‖∞ that the caller keeps, stands in
    for the measured one while no run's sum of carried bounds reaches
    INT64_SAFE, so the rows are measured only when it fails."""
    if V.dtype == object:
        return V, np.zeros(len(rows))
    if carried is not None:
        bound = carried[rows] * scale
        if np.add.reduceat(bound, starts).max(initial=0) < INT64_SAFE:
            return V, bound
    bound = row_norms(V)[rows] * scale
    if int64_fits(bound, starts, log):
        return V, bound
    return V.astype(object), np.zeros_like(bound)


def key_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): an order that makes equal keys adjacent, and the
    first position of each run of equal keys in it."""
    order = np.argsort(key)
    ks = key[order]
    new = np.empty(len(ks), dtype=bool)
    new[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=new[1:])
    return order, np.flatnonzero(new)


# ---------------------------------------------------------------------------
# the determinant of a small matrix over LaurentPoly, and the Alexander
# polynomial that both of its routes take from their matrix
# ---------------------------------------------------------------------------

PolyMatrix = list[list[LaurentPoly]]


def poly_mat_det(a: PolyMatrix) -> LaurentPoly:
    """Leibniz-expansion determinant (dimensions here are tiny)."""
    n = len(a)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return a[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * poly_mat_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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


def alexander_of_matrix(m: PolyMatrix) -> LaurentPoly:
    """det(I − m), which must involve z alone, normalized: the Alexander
    polynomial from the reduced Burau matrix of either route."""
    det = poly_mat_det([[LaurentPoly.const(int(i == j)) - x for j, x in enumerate(row)]
                        for i, row in enumerate(m)])
    if not det.is_univariate_z():
        raise AssertionError("det(I − M) unexpectedly involves q")
    return normalize_alexander(det)


# ---------------------------------------------------------------------------
# string form used by the CLI (ascending exponents, bit-exact)
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?([a-z])(?:\^(-?\d+))?$|^(\d+)$")


def format_univariate(p: LaurentPoly, var: str) -> str:
    """Render with ascending exponents: terms "c*v^e" with unit coefficients
    and exponents 0/1 abbreviated, joined by " + " / " - "."""
    if var == "q":
        terms = p.q_terms()
    elif var == "z":
        terms = p.z_terms()
    else:
        raise ValueError("var must be 'q' or 'z'")
    if not terms:
        return "0"
    out: list[str] = []
    for e in sorted(terms):
        c = terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            pow_s = var if e == 1 else f"{var}^{e}"
            body = pow_s if mag == 1 else f"{mag}*{pow_s}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def parse_univariate(text: str, var: str) -> LaurentPoly:
    """Inverse of format_univariate (also accepts leading sign on each chunk)."""
    if var not in ("q", "z"):
        raise ValueError("var must be 'q' or 'z'")
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if s == "0":
        return LaurentPoly.zero()
    chunks = re.split(r"\s+(?=[+-]\s)", s if s[0] in "+-" else "+ " + s)
    result: dict[int, int] = {}
    for chunk in chunks:
        chunk = chunk.strip()
        if chunk[0] in "+-":
            sign = 1 if chunk[0] == "+" else -1
            body = chunk[1:].strip()
        else:
            sign, body = 1, chunk
        m = _TERM_RE.match(body)
        if not m:
            raise ValueError(f"cannot parse term {body!r}")
        if m.group(4) is not None:
            coeff, e = int(m.group(4)), 0
        else:
            if m.group(2) != var:
                raise ValueError(f"unexpected variable {m.group(2)!r}, want {var!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(3)) if m.group(3) else 1
        result[e] = result.get(e, 0) + sign * coeff
    if var == "q":
        return LaurentPoly({(Q_UNIT * e, 0): c for e, c in result.items() if c})
    return LaurentPoly({(0, e): c for e, c in result.items() if c})
