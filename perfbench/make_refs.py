"""Regenerate perfbench/references.json, confirming every value by a second
route before it is written.

    python3 perfbench/make_refs.py            # writes references.json
    python3 perfbench/make_refs.py --verify   # recomputes and compares

Confirmations:
  * colored Jones: the bosonic route against the R-matrix state sum;
  * Alexander: the quantum route against Fox calculus, and against the
    bundled corpus where the knot is listed;
  * Kashaev values of 4_1: Kashaev's closed form Σ_k |(q)_k|² at 60 digits;
  * Kashaev values of 3_1: the conjugate of kz_series (the left trefoil);
  * other Kashaev values: qknot's float state sum evaluated in 60-digit
    mpmath arithmetic, to 1e-40 relative, and the colored Jones polynomial
    folded mod Φ_N where that is cheap. In double precision the float state
    sum cannot confirm them: on 5_1 its relative error is 1.7e-12 at N=10
    and 2.8e-2 at N=30.
It takes about ten seconds on two cores.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

import qknot  # noqa: E402
from qknot import verma_oracle  # noqa: E402
from qknot.exactpoly import CyclotomicInt  # noqa: E402
from workloads import KNOTS, build_jobs, rotated  # noqa: E402
from check import REFERENCES  # noqa: E402

DPS = 60
mpmath.mp.dps = DPS
# rotation of each word on which the exact series route is cheap
CHEAP_ROT = {"5_2": 1}
# largest order at which folding the colored Jones polynomial is cheap
FOLD_MAX = {"5_1": 10, "5_2": 9, "6_1": 4}


def _fail(msg: str):
    raise SystemExit(f"reference not confirmed: {msg}")


def _terms(p, which: str) -> list[list[int]]:
    d = p.q_terms() if which == "q" else p.z_terms()
    return [[e, c] for e, c in sorted(d.items())]


def _embed(c: CyclotomicInt) -> mpmath.mpc:
    """Value at q = exp(2πi/N) at DPS digits (embed_complex rounds to double)."""
    return mpmath.fsum(
        a * mpmath.expjpi(mpmath.mpf(2 * j) / c.N) for j, a in enumerate(c.coeffs) if a
    )


def _closed_form_fig8(N: int) -> mpmath.mpf:
    """Σ_{k<N} ∏_{j≤k} |1 − ζ^j|², ζ = exp(2πi/N)."""
    total, prod = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(N):
        if k:
            prod *= abs(1 - mpmath.expjpi(mpmath.mpf(2 * k) / N)) ** 2
        total += prod
    return total


class _MpCmath:
    """Stands in for the cmath module, so that the float state sum computes
    with mpmath numbers at the working precision."""

    pi = mpmath.pi
    exp = staticmethod(mpmath.exp)


def _state_sum_hp(b, N: int) -> mpmath.mpc:
    saved = verma_oracle.cmath
    verma_oracle.cmath = _MpCmath
    try:
        return verma_oracle.numeric_state_sum(b, N)
    finally:
        verma_oracle.cmath = saved


def _agree(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _orders(workload: str, route: str) -> dict[str, set]:
    out: dict[str, set] = {}
    for job in build_jobs(workload, 0):
        if job.route == route:
            Ns = job.N if isinstance(job.N, tuple) else (job.N,)
            out.setdefault(job.knot, set()).update(n for n in Ns if n is not None)
    return out


def jones_refs() -> dict:
    refs = {}
    for knot, Ns in sorted(_orders("jones_cross", "bosonic").items()):
        b = qknot.parse_braid(KNOTS[knot])
        refs[knot] = {}
        for N in sorted(Ns):
            p = qknot.colored_jones(b, N)
            if p != qknot.state_sum_jones(b, N):
                _fail(f"{knot} N={N}: bosonic and state sum disagree")
            refs[knot][str(N)] = _terms(p, "q")
        print(f"jones {knot} N={sorted(Ns)}", flush=True)
    return refs


def alexander_refs() -> dict:
    corpus = {e["word"]: e["alexander"] for e in json.loads(
        (HERE.parent / "src" / "qknot" / "corpus.json").read_text())}
    refs = {}
    for knot in sorted(_orders("jones_cross", "alexander")):
        b = qknot.parse_braid(KNOTS[knot])
        delta = qknot.alexander(b)
        if delta != qknot.abelianize_check(b)[1]:
            _fail(f"{knot}: quantum and Fox Alexander polynomials disagree")
        if KNOTS[knot] in corpus and delta != qknot.parse_univariate(corpus[KNOTS[knot]], "z"):
            _fail(f"{knot}: Alexander polynomial differs from the corpus")
        refs[knot] = _terms(delta, "z")
    return refs


def exact_value(knot: str, N: int) -> CyclotomicInt:
    """Exact Kashaev value, confirmed by a second route."""
    b = qknot.parse_braid(rotated(knot, CHEAP_ROT.get(knot, 0)))
    exact = qknot.kashaev_value(b, N).exact
    value = _embed(exact)
    if knot == "4_1":
        if not _agree(abs(value), _closed_form_fig8(N), 1e-40):
            _fail(f"4_1 N={N}: differs from the closed form")
    elif knot == "3_1":
        left = qknot.kz_series(N).exact.to_poly().subst_q_inverse()
        if exact != qknot.cyclotomic_reduce(left, N):
            _fail(f"3_1 N={N}: not the conjugate of kz_series")
    else:
        if not _agree(_state_sum_hp(b, N), value, 1e-40):
            _fail(f"{knot} N={N}: high-precision state sum disagrees")
        if N <= FOLD_MAX.get(knot, 0):
            folded = qknot.cyclotomic_reduce(qknot.colored_jones(b, N), N)
            if folded != exact:
                _fail(f"{knot} N={N}: folded colored Jones disagrees")
    return exact


def _abs_str(value) -> str:
    return mpmath.nstr(abs(value), 40, min_fixed=-1, max_fixed=1)


def kashaev_refs() -> dict:
    refs = {}
    for knot, Ns in sorted(_orders("kashaev_exact", "kashaev").items()):
        refs[knot] = {}
        for N in sorted(Ns):
            exact = exact_value(knot, N)
            refs[knot][str(N)] = {"coeffs": list(exact.coeffs), "abs": _abs_str(_embed(exact))}
        print(f"kashaev {knot} N={sorted(Ns)}", flush=True)
    return refs


def volume_refs() -> dict:
    refs = {}
    for knot, Ns in sorted(_orders("volume_float", "volume").items()):
        refs[knot] = {str(N): _abs_str(_embed(exact_value(knot, N))) for N in sorted(Ns)}
        print(f"volume {knot} N={sorted(Ns)}", flush=True)
    return refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verify", action="store_true", help="compare with the stored file")
    args = ap.parse_args()
    refs = {
        "alexander": alexander_refs(),
        "jones": jones_refs(),
        "kashaev": kashaev_refs(),
        "volume": volume_refs(),
    }
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    if args.verify:
        same = REFERENCES.read_text() == text
        print("references.json matches" if same else "references.json DIFFERS")
        return 0 if same else 1
    REFERENCES.write_text(text)
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
