"""Command-line interface: invariants of braid closures plus a corpus suite.

Subcommands
    jones      colored Jones polynomial (either engine, or both with a verdict)
    alexander  normalized Alexander polynomial
    kashaev    order-N Kashaev invariant, exact or floating point
    volume     growth-rate sequence 2π·ln|⟨K⟩_N|/N as CSV
    verify     cross-engine and corpus checks, pass/fail table

Exit codes: 0 success, 1 usage or parse error, 2 math-domain error
(non-knot closure, divergent series), 3 verification or equality failure,
or a broken internal invariant ("internal error: …" on stderr).
Every subcommand accepts --json, emitting one object with fields
{input, result, engine, timings}.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from typing import NoReturn

from .braid import BraidParseError, BraidWord, closure_is_knot, parse_braid
from .exactpoly import cyclotomic_reduce, format_univariate, parse_univariate
from .foxburau import abelianize_check
from .kashaev import kashaev_value, reference_volumes, volume_sequence
from .mcmahon import alexander, colored_jones
from .verma_oracle import state_sum_jones

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class CorpusEntry:
    """One catalogued braid word with optional expected invariant values."""

    name: str
    strands: int
    word: str
    alexander: str | None = None
    volume: float | None = None

    def braid(self) -> BraidWord:
        return parse_braid(self.word, strands=self.strands)


# corpus entry fields: (JSON types accepted, required)
_CORPUS_FIELDS = {
    "name": ((str,), True),
    "strands": ((int,), True),
    "word": ((str,), True),
    "alexander": ((str,), False),
    "volume": ((int, float), False),
}


def load_corpus(path: str | None = None) -> list[CorpusEntry]:
    """Corpus entries from a JSON file, or the bundled corpus when path is None.
    A malformed entry raises ValueError naming the entry and the field; a
    braid word that does not parse raises BraidParseError."""
    if path is None:
        text = resources.files("qknot").joinpath("corpus.json").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("corpus must be a JSON array of entries")
    entries = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"corpus entry {index} is not a JSON object")
        where = f"corpus entry {index} ({item.get('name')!r})"
        for field, (types, required) in _CORPUS_FIELDS.items():
            value = item.get(field)
            if value is None:
                if required:
                    raise ValueError(f"{where}: field {field!r} is missing")
                continue
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(f"{where}: field {field!r} must be {' or '.join(t.__name__ for t in types)}")
        entry = CorpusEntry(**{field: item.get(field) for field in _CORPUS_FIELDS})
        if entry.alexander is not None:
            try:
                parse_univariate(entry.alexander, "z")
            except ValueError as exc:
                raise ValueError(f"{where}: field 'alexander': {exc}") from None
        entry.braid()
        entries.append(entry)
    return entries


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract here is 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _n_range(text: str) -> list[int]:
    """"start:stop:step" (stop inclusive), "start:stop", a comma list, or one N."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad N range {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step < 1:
            raise argparse.ArgumentTypeError("step must be ≥ 1")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(p) for p in text.split(",") if p.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"empty N range {text!r}")
    return values


def _emit_json(input_obj: object, result: object, engine: str, timings: dict) -> None:
    payload = {
        "input": input_obj,
        "result": result,
        "engine": engine,
        "timings": timings,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _braid_input(b: BraidWord, extra: dict | None = None) -> dict:
    obj: dict = {"word": b.to_text(), "strands": b.strands}
    if extra:
        obj.update(extra)
    return obj


def _fmt_complex(value: complex) -> str:
    return f"{value.real!r}{value.imag:+}j"


def cmd_jones(args: argparse.Namespace) -> int:
    b = parse_braid(args.word, strands=args.strands)
    engines = ("mcmahon", "oracle") if args.engine == "both" else (args.engine,)
    results: dict[str, object] = {}
    timings: dict[str, float] = {}
    for engine in engines:
        start = time.perf_counter()
        if engine == "mcmahon":
            poly = colored_jones(b, args.N)
        else:
            poly = state_sum_jones(b, args.N)
        timings[engine] = time.perf_counter() - start
        results[engine] = poly
    strings = {name: format_univariate(p, "q") for name, p in results.items()}
    if args.engine != "both":
        engine = engines[0]
        if args.json:
            _emit_json(_braid_input(b, {"N": args.N}), strings[engine], engine, timings)
        else:
            print(strings[engine])
        return EXIT_OK
    equal = results["mcmahon"] == results["oracle"]
    verdict = "EQUAL" if equal else "MISMATCH"
    if args.json:
        _emit_json(
            _braid_input(b, {"N": args.N}),
            {"mcmahon": strings["mcmahon"], "oracle": strings["oracle"], "verdict": verdict},
            "both",
            timings,
        )
    else:
        print(f"mcmahon: {strings['mcmahon']}")
        print(f"oracle: {strings['oracle']}")
        print(f"verdict: {verdict}")
    return EXIT_OK if equal else EXIT_VERIFY


def cmd_alexander(args: argparse.Namespace) -> int:
    b = parse_braid(args.word, strands=args.strands)
    start = time.perf_counter()
    delta = alexander(b)
    timings = {"total": time.perf_counter() - start}
    text = format_univariate(delta, "z")
    if args.json:
        _emit_json(_braid_input(b), text, "mcmahon", timings)
    else:
        print(text)
    return EXIT_OK


def cmd_kashaev(args: argparse.Namespace) -> int:
    b = parse_braid(args.word, strands=args.strands)
    mode = "float" if args.float_mode else "exact"
    start = time.perf_counter()
    value = kashaev_value(b, args.N, mode=mode)
    timings = {"total": time.perf_counter() - start}
    if mode == "exact":
        text = format_univariate(value.exact.to_poly(), "q")
        if args.json:
            result = {
                "exact": text,
                "approx": [value.approx.real, value.approx.imag],
                "abs": abs(value.approx),
            }
            _emit_json(_braid_input(b, {"N": args.N}), result, "mcmahon", timings)
        else:
            print(text)
        return EXIT_OK
    if args.json:
        result = {"value": [value.approx.real, value.approx.imag], "abs": abs(value.approx)}
        _emit_json(_braid_input(b, {"N": args.N}), result, "oracle", timings)
    else:
        print(f"value: {_fmt_complex(value.approx)}")
        print(f"abs: {abs(value.approx)!r}")
    return EXIT_OK


def cmd_volume(args: argparse.Namespace) -> int:
    b = parse_braid(args.word, strands=args.strands)
    start = time.perf_counter()
    rows = volume_sequence(b, args.N)
    timings = {"total": time.perf_counter() - start}
    if args.json:
        result = [
            {"N": N, "abs_value": mag, "rate": rate} for N, mag, rate in rows
        ]
        _emit_json(_braid_input(b, {"N": args.N}), result, "oracle", timings)
    else:
        print("N,abs_value,rate")
        for N, mag, rate in rows:
            print(f"{N},{mag!r},{'' if rate is None else repr(rate)}")
    return EXIT_OK


def _verify_checks(entries: list[CorpusEntry]) -> tuple[list[tuple[str, str, bool, str]], dict[str, float]]:
    """The checks, as (entry, check, pass, detail), and the seconds spent on
    each kind of check, summed over the entries."""
    checks: list[tuple[str, str, bool, str]] = []
    seconds: dict[str, float] = {}
    references = reference_volumes()
    clock = time.perf_counter()

    def record(name: str, check: str, ok: bool, detail: str = "") -> None:
        # the time since the previous record is this check's
        nonlocal clock
        now = time.perf_counter()
        seconds[check] = seconds.get(check, 0.0) + now - clock
        clock = now
        checks.append((name, check, ok, detail))

    for entry in entries:
        b = entry.braid()

        knot = closure_is_knot(b)
        record(entry.name, "closure-knot", knot)
        if not knot:
            continue

        detail = ""
        ok = True
        for N in (1, 2, 3):
            bosonic = colored_jones(b, N, mode="bosonic")
            oracle = state_sum_jones(b, N)
            fermionic = colored_jones(b, N, mode="fermionic")
            if bosonic != oracle or bosonic != fermionic:
                ok = False
                detail = f"mismatch at N={N}"
                break
        record(entry.name, "jones-cross-engine", ok, detail)

        delta = alexander(b)
        _, fox = abelianize_check(b)
        ok = delta == fox
        detail = "" if ok else "determinant route differs from Fox route"
        if ok and entry.alexander is not None:
            expected = parse_univariate(entry.alexander, "z")
            ok = delta == expected
            if not ok:
                detail = f"expected {entry.alexander!r}, got {format_univariate(delta, 'z')!r}"
        record(entry.name, "alexander", ok, detail)

        ok = True
        detail = ""
        for N in (2, 5):
            exact = kashaev_value(b, N, mode="exact")
            folded = cyclotomic_reduce(colored_jones(b, N), N)
            if exact.exact != folded:
                ok = False
                detail = f"exact value differs from folded colored Jones at N={N}"
                break
            numeric = kashaev_value(b, N, mode="float").approx
            scale = 1.0 + abs(numeric)
            if abs(exact.approx - numeric) > 1e-9 * scale:
                ok = False
                detail = f"float path drifts from exact value at N={N}"
                break
        record(entry.name, "kashaev-consistency", ok, detail)

        if entry.volume is not None and entry.name in references:
            ok = abs(entry.volume - references[entry.name]) <= 1e-9
            detail = "" if ok else f"stored {entry.volume!r} vs oracle {references[entry.name]!r}"
            record(entry.name, "volume-reference", ok, detail)
    return checks, seconds


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        entries = load_corpus(args.corpus)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks, seconds = _verify_checks(entries)
    timings = {"total": time.perf_counter() - start, **seconds}
    passed = sum(1 for _, _, ok, _ in checks if ok)
    if args.json:
        result = {
            "checks": [
                {"entry": name, "check": check, "pass": ok, "detail": detail}
                for name, check, ok, detail in checks
            ],
            "passed": passed,
            "total": len(checks),
        }
        _emit_json({"corpus": args.corpus or "bundled"}, result, "verify", timings)
    else:
        width = max(len(name) for name, _, _, _ in checks)
        for name, check, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{status} {name:<{width}} {check}{suffix}")
        print(f"passed {passed} of {len(checks)} checks")
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="qknot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_word(p: argparse.ArgumentParser) -> None:
        p.add_argument("--word", required=True, help="braid word, e.g. '1 -2 1 -2'")
        p.add_argument(
            "--strands", type=_positive_int, default=None,
            help="strand count (default: smallest compatible with the word)",
        )
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("jones", help="colored Jones polynomial of the closure")
    add_word(p)
    p.add_argument("-N", dest="N", type=_positive_int, required=True, help="color (dimension)")
    p.add_argument(
        "--engine", choices=("mcmahon", "oracle", "both"), default="mcmahon",
        help="inverse-series engine, R-matrix state sum, or both with a verdict",
    )
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("alexander", help="normalized Alexander polynomial")
    add_word(p)
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("kashaev", help="order-N Kashaev invariant")
    add_word(p)
    p.add_argument("-N", dest="N", type=_positive_int, required=True, help="order (root of unity)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact", dest="float_mode", action="store_false",
        help="exact value in Z[q]/Φ_N (default)",
    )
    mode.add_argument(
        "--float", dest="float_mode", action="store_true",
        help="complex floating-point state sum",
    )
    p.set_defaults(func=cmd_kashaev, float_mode=False)

    p = sub.add_parser("volume", help="growth-rate sequence as CSV (N,abs_value,rate)")
    add_word(p)
    p.add_argument(
        "--N", dest="N", type=_n_range, required=True,
        help="orders: 'start:stop:step' (stop inclusive), comma list, or one integer",
    )
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("verify", help="run the corpus cross-check suite")
    p.add_argument("--corpus", default=None, help="corpus JSON path (default: bundled)")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BraidParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        # a broken internal invariant: no result of this run can be trusted
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
