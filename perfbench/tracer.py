"""Per-layer tracing by wrapping module-level callables of qknot.

Nothing under src/ is edited: each traced callable is replaced, for the
duration of a `Tracer` context, in every qknot module namespace that holds
it, so calls between modules and inside a module both pass through the
wrapper. A span records per-thread CPU time (time.thread_time), so the spans
of volume_sequence's pool threads, which the GIL serialises, add up instead
of overlapping. A span's self time is its duration minus that of the spans
it encloses on the same thread; a layer's self time is the sum over its
spans.

A target whose name no longer exists is skipped, and every metric that needs
it is reported as missing instead of crashing the run.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

LAYERS = (
    "braid",
    "deformed_burau",
    "qweyl",
    "mcmahon",
    "verma_oracle",
    "exactpoly",
    "kashaev",
    "foxburau",
)

# (module, attribute) -> layer its span is charged to. c_sum lives in
# mcmahon but is qweyl work: normal-ordered products of the C-sum.
SPANS = {
    ("braid", "parse_braid"): "braid",
    ("braid", "closure_is_knot"): "braid",
    ("deformed_burau", "rho"): "deformed_burau",
    ("deformed_burau", "rho_prime"): "deformed_burau",
    ("mcmahon", "c_sum"): "qweyl",
    ("mcmahon", "colored_jones"): "mcmahon",
    ("mcmahon", "fermionic_terms"): "mcmahon",
    ("mcmahon", "_eval_population"): "mcmahon",
    ("mcmahon", "_bosonic_series"): "mcmahon",
    ("mcmahon", "alexander"): "mcmahon",
    ("verma_oracle", "state_sum_jones"): "verma_oracle",
    ("verma_oracle", "apply_braiding"): "verma_oracle",
    ("verma_oracle", "numeric_state_sum"): "verma_oracle",
    ("verma_oracle", "_NumericTables"): "verma_oracle",
    ("exactpoly", "cyclotomic_reduce"): "exactpoly",
    ("exactpoly", "embed_complex"): "exactpoly",
    ("kashaev", "kashaev_value"): "kashaev",
    ("kashaev", "volume_sequence"): "kashaev",
    ("foxburau", "abelianize_check"): "foxburau",
}
# counted, not timed: called too often for a span to be cheap
COUNTED = (("mcmahon", "_dconv"), ("mcmahon", "_eval_population_np"),
           ("verma_oracle", "braiding_coeff"))
# read through its cache_info(), not wrapped
EFACTOR = ("mcmahon", "_efactor_items")


def _name(target: tuple[str, str]) -> str:
    return f"{target[0]}.{target[1]}"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metric_specs():
    """name -> (unit, targets it needs, function of the Tracer)."""
    fermionic = ("mcmahon", "fermionic_terms")
    population = ("mcmahon", "_eval_population")
    c_sum = ("mcmahon", "c_sum")
    braiding = ("verma_oracle", "apply_braiding")
    coeff = ("verma_oracle", "braiding_coeff")
    numeric = ("verma_oracle", "numeric_state_sum")
    volume = ("kashaev", "volume_sequence")

    def inclusive(target):
        return "s", [target], lambda tr: tr.inclusive[_name(target)]

    def self_time(target):
        return "s", [target], lambda tr: tr.self_time[_name(target)]

    def count(key, *targets, unit="count"):
        return unit, list(targets), lambda tr: tr.counts[key]

    def ratio(num, den, *targets):
        return "ratio", list(targets), lambda tr: _ratio(num(tr), den(tr))

    specs = {
        "mcmahon.fermionic_self_s": self_time(fermionic),
        "mcmahon.series_terms": count("series_terms", fermionic),
        "mcmahon.series_useful_ratio": ratio(lambda tr: tr.counts["series_nonzero"],
                                             lambda tr: tr.counts["series_terms"], fermionic),
        "mcmahon.convolutions": count("convolutions", ("mcmahon", "_dconv")),
        "mcmahon.population_states": count("population_states", population),
        "mcmahon.population_peak": count("population_peak", population),
        "mcmahon.eval_population_s": inclusive(population),
        "mcmahon.np_fallbacks": count("np_fallbacks", ("mcmahon", "_eval_population_np")),
        "mcmahon.efactor_cache_hit_ratio": ratio(lambda tr: tr.counts["efactor_hits"],
                                                 lambda tr: tr.counts["efactor_calls"], EFACTOR),
        "mcmahon.bosonic_s": inclusive(("mcmahon", "_bosonic_series")),
        "mcmahon.alexander_s": inclusive(("mcmahon", "alexander")),
        "qweyl.c_sum_s": inclusive(c_sum),
        "qweyl.c_monomials": count("c_monomials", c_sum),
        "deformed_burau.rho_s": inclusive(("deformed_burau", "rho")),
        "verma_oracle.state_sum_s": inclusive(("verma_oracle", "state_sum_jones")),
        "verma_oracle.apply_braiding_s": inclusive(braiding),
        "verma_oracle.braidings": count("braidings", braiding),
        "verma_oracle.states_out": count("states_out", braiding),
        "verma_oracle.live_states_peak": count("live_states_peak", braiding),
        "verma_oracle.braiding_coeff_calls": count("braiding_coeff_calls", coeff),
        "verma_oracle.braiding_coeff_reuse": ratio(lambda tr: tr.counts["braiding_coeff_calls"],
                                                   lambda tr: len(tr.coeff_args), coeff),
        "verma_oracle.numeric_tables_s": inclusive(("verma_oracle", "_NumericTables")),
        "verma_oracle.numeric_propagation_s": self_time(numeric),
        "verma_oracle.initial_states": count("initial_states", numeric),
        "kashaev.volume_sequence_s": count("pool_wall", volume, unit="s"),
        "kashaev.pool_workers": count("pool_workers", volume),
        "kashaev.pool_efficiency": ratio(lambda tr: tr.counts["pool_busy"],
                                         lambda tr: tr.counts["pool_capacity"], volume, numeric),
        "kashaev.kashaev_value_s": inclusive(("kashaev", "kashaev_value")),
        "exactpoly.cyclotomic_reduce_s": inclusive(("exactpoly", "cyclotomic_reduce")),
        "exactpoly.embed_complex_s": inclusive(("exactpoly", "embed_complex")),
        "foxburau.abelianize_check_s": inclusive(("foxburau", "abelianize_check")),
    }
    # A layer's self time stays measurable when one of its spans is gone:
    # that span's time then counts to the span that encloses it.
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", [], lambda tr, lay=layer: tr.layer_self[lay])
    return specs


METRICS = _metric_specs()


def _qknot_modules():
    pkg = importlib.import_module("qknot")
    mods = [pkg]
    for name in LAYERS:
        mods.append(importlib.import_module(f"qknot.{name}"))
    return mods


def clear_caches() -> None:
    """Empty every functools cache in qknot, so each pass starts as a fresh
    process would."""
    for mod in _qknot_modules():
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)) and hasattr(val, "cache_info"):
                val.cache_clear()


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.metrics()` afterwards."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.coeff_args: set = set()
        self.missing: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._pool: dict | None = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.thread_time()

    def _leave(self, name: str, layer: str, t0: float) -> float:
        dt = time.thread_time() - t0
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += dt
        with self._lock:
            self.inclusive[name] += dt
            self.self_time[name] += dt - child
            self.layer_self[layer] += dt - child
        return dt

    def _count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _peak(self, key: str, n: float) -> None:
        with self._lock:
            if n > self.counts[key]:
                self.counts[key] = n

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        tracer = self
        after = {
            "mcmahon._eval_population": self._after_eval_population,
            "mcmahon.c_sum": self._after_c_sum,
            "verma_oracle.apply_braiding": self._after_apply_braiding,
            "verma_oracle.numeric_state_sum": self._after_numeric_state_sum,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = tracer._leave(name, layer, t0)
            if after is not None:
                after(args, out, dt)
            return out

        return wrapper

    def _generator_span(self, name: str, layer: str, fn):
        """Each resumption of the generator is one span; every yielded value
        is a series term, nonzero ones being the useful work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = tracer._enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(name, layer, t0)
                    tracer._count("series_terms")
                    if value:
                        tracer._count("series_nonzero")
                    yield value
            finally:
                it.close()

        return wrapper

    def _volume_sequence_span(self, name: str, layer: str, fn):
        """volume_sequence waits on its pool, so its own time is wall time;
        the pool's CPU time is collected from numeric_state_sum spans."""
        tracer = self
        span = self._span(name, layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._pool = {"threads": set(), "busy": 0.0}
            t0 = time.perf_counter()
            try:
                return span(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                pool, tracer._pool = tracer._pool, None
                workers = max(1, len(pool["threads"]))
                tracer._count("pool_wall", wall)
                tracer._count("pool_busy", pool["busy"])
                tracer._count("pool_capacity", wall * workers)
                tracer._peak("pool_workers", workers)

        return wrapper

    def _after_numeric_state_sum(self, args, out, dt):
        b, N = args[0], args[1]
        self._count("initial_states", N ** (b.strands - 1))
        pool = self._pool
        if pool is not None:
            with self._lock:
                pool["threads"].add(threading.get_ident())
                pool["busy"] += dt

    def _after_eval_population(self, args, out, dt):
        self._count("population_states", len(args[0]))
        self._peak("population_peak", len(args[0]))

    def _after_c_sum(self, args, out, dt):
        self._count("c_monomials", len(out.terms))

    def _after_apply_braiding(self, args, out, dt):
        self._count("braidings")
        self._count("states_out", len(out))
        self._peak("live_states_peak", len(out))

    def _counted(self, target: tuple[str, str], fn):
        """Count calls. _dconv and braiding_coeff run only on the calling
        thread, so their counters need no lock."""
        tracer = self
        attr = target[1]
        if attr == "_dconv":
            def wrapper(*args):
                tracer.counts["convolutions"] += 1
                return fn(*args)
        elif attr == "_eval_population_np":
            def wrapper(*args):
                try:
                    return fn(*args)
                except OverflowError:
                    tracer._count("np_fallbacks")
                    raise
        else:  # braiding_coeff
            def wrapper(*args):
                tracer.counts["braiding_coeff_calls"] += 1
                tracer.coeff_args.add(args)
                return fn(*args)
        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def _install(self, mods: list, target: tuple[str, str], make) -> None:
        orig = getattr(importlib.import_module(f"qknot.{target[0]}"), target[1], None)
        if orig is None:
            self.missing.add(target)
            return
        wrapper = make(orig)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def __enter__(self) -> "Tracer":
        mods = _qknot_modules()
        for target, layer in SPANS.items():
            name = _name(target)
            if target == ("mcmahon", "fermionic_terms"):
                make = functools.partial(self._generator_span, name, layer)
            elif target == ("kashaev", "volume_sequence"):
                make = functools.partial(self._volume_sequence_span, name, layer)
            else:
                make = functools.partial(self._span, name, layer)
            self._install(mods, target, make)
        for target in COUNTED:
            self._install(mods, target, functools.partial(self._counted, target))
        if not callable(getattr(self._efactor(), "cache_info", None)):
            self.missing.add(EFACTOR)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        if EFACTOR not in self.missing:
            info = self._efactor().cache_info()
            self.counts["efactor_hits"] = info.hits
            self.counts["efactor_calls"] = info.hits + info.misses

    @staticmethod
    def _efactor():
        return getattr(importlib.import_module(f"qknot.{EFACTOR[0]}"), EFACTOR[1], None)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counters so far, for per-job deltas."""
        with self._lock:
            return dict(self.counts)

    def metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """(name -> (value, unit), names of metrics whose targets are gone)."""
        out, missing = {}, []
        for name, (unit, needs, fn) in METRICS.items():
            if any(t in self.missing for t in needs):
                missing.append(name)
            else:
                out[name] = (float(fn(self)), unit)
        return out, missing
