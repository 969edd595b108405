"""Checks job outputs against the stored references in references.json.

Exact outputs (polynomials, cyclotomic integers) must equal their reference
term for term. A float output passes when its relative error against the
exact value is at most FLOAT_TOL. A job that raised, or an exact output that
differs from its reference, makes the run incorrect; a float value outside
the tolerance counts as a failed job and shows in float_digits_min.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

from workloads import Job

REFERENCES = Path(__file__).with_name("references.json")
FLOAT_TOL = 1e-6
DIGITS_CAP = -math.log10(2.0**-53)  # double precision, about 15.95 digits


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def terms(pairs) -> tuple[tuple[int, int], ...]:
    return tuple((int(e), int(c)) for e, c in pairs)


def float_digits(value: float, exact: str) -> float:
    """−log10 of the relative error of `value` against the decimal string
    `exact`, capped at double precision."""
    with mpmath.workdps(50):
        ref = mpmath.mpf(exact)
        err = abs(mpmath.mpf(value) - ref) / abs(ref)
        if err == 0:
            return DIGITS_CAP
        return min(DIGITS_CAP, float(-mpmath.log10(err)))


@dataclass
class Verdict:
    """Outcome of checking every job of one pass."""

    attempted: int = 0
    failed: list[tuple[Job, str]] = field(default_factory=list)
    incorrect: int = 0
    digits: list[float] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0

    @property
    def digits_min(self) -> float:
        return min(self.digits, default=DIGITS_CAP)


def check_outputs(jobs: list[Job], outputs: list, refs: dict) -> Verdict:
    verdict = Verdict()
    for job, out in zip(jobs, outputs):
        verdict.attempted += 1
        if isinstance(out, BaseException):
            verdict.failed.append((job, f"raised {type(out).__name__}: {out}"))
            verdict.incorrect += 1
            continue
        reason, exact_ok = _check_one(job, out, refs, verdict.digits)
        if reason:
            verdict.failed.append((job, reason))
            if not exact_ok:
                verdict.incorrect += 1
    return verdict


def _check_one(job: Job, out, refs: dict, digits: list[float]) -> tuple[str, bool]:
    """(failure reason or "", whether every exact part matched)."""
    if job.route in ("bosonic", "fermionic", "oracle"):
        if out != terms(refs["jones"][job.knot][str(job.N)]):
            return "colored Jones differs from reference", False
        return "", True
    if job.route in ("alexander", "fox"):
        if out != terms(refs["alexander"][job.knot]):
            return "Alexander polynomial differs from reference", False
        return "", True
    if job.route == "kashaev":
        ref = refs["kashaev"][job.knot][str(job.N)]
        coeffs, approx = out
        if list(coeffs) != ref["coeffs"]:
            return "cyclotomic value differs from reference", False
        return _check_float(abs(approx), ref["abs"], digits, f"N={job.N}"), True
    if job.route == "volume":
        ref = refs["volume"][job.knot]
        if [N for N, _ in out] != list(job.N):
            return "orders differ from the request", False
        bad = [_check_float(mag, ref[str(N)], digits, f"N={N}") for N, mag in out]
        return "; ".join(r for r in bad if r), True
    raise ValueError(f"unknown route {job.route!r}")


def _check_float(value: float, exact: str, digits: list[float], label: str) -> str:
    d = float_digits(value, exact)
    digits.append(d)
    if d < -math.log10(FLOAT_TOL):
        return f"{label}: relative error {10.0 ** -d:.2e} above {FLOAT_TOL:g}"
    return ""
