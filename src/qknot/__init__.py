"""Exact invariants of braid-closure knots: colored Jones, Alexander, and
Kashaev values, computed by two independent routes (a determinant inverse
series over a q-difference operator algebra, and an R-matrix state sum) that
cross-validate each other, with root-of-unity evaluation and hyperbolic
volume growth-rate estimation.

The package namespace holds the one-call API; everything else is reached
through its submodule (`qknot.exactpoly`, `qknot.verma_oracle`, …)."""

from .braid import parse_braid
from .exactpoly import cyclotomic_reduce, format_univariate, parse_univariate
from .foxburau import abelianize_check
from .kashaev import kashaev_value, kz_series, volume_sequence
from .mcmahon import alexander, colored_jones
from .verma_oracle import state_sum_jones

__version__ = "0.1.0"

__all__ = [
    "parse_braid",
    "colored_jones",
    "alexander",
    "state_sum_jones",
    "kashaev_value",
    "volume_sequence",
    "format_univariate",
    "abelianize_check",
    "cyclotomic_reduce",
    "kz_series",
    "parse_univariate",
]
