"""Self-tests of the benchmark itself, on small slices of each workload.

    python3 perfbench/selftest.py

Checks that two seeds give the same multiset of jobs, that traced and
untraced passes give bit-identical outputs, that corrupted references are
caught, that a traced target which has disappeared is reported as missing
instead of crashing, and that the metric names match BENCHMARK.json.
Takes under a minute.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from collections import Counter
from types import SimpleNamespace

import run

run._import_program()

import qknot  # noqa: E402
from check import check_outputs, load_references  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402


def small_jobs(workload: str, seed: int = 3):
    """A cheap slice of the workload that still touches every route."""
    def cheap(job):
        if job.route == "volume":
            return job.knot == "5_2" and job.rot == 1
        if job.route == "kashaev":
            return job.N <= 10 and job.knot != "5_2"
        if job.route == "fermionic":
            return job.N == 2 and job.knot != "6_1"
        return job.N is None or job.N <= 3
    return [j for j in build_jobs(workload, seed) if cheap(j)]


def test_seeds_give_same_jobs():
    for w in WORKLOADS:
        a, b = build_jobs(w, 1), build_jobs(w, 2)
        assert Counter(a) == Counter(b), w
        assert a != b, f"{w}: seed does not change the order"
        assert build_jobs(w, 1) == a, f"{w}: same seed gave another order"


def test_traced_outputs_bit_identical():
    for w in WORKLOADS:
        jobs = small_jobs(w)
        plain = run.run_pass(jobs)
        with Tracer() as tr:
            traced = run.run_pass(jobs, tr)
        assert run._same_outputs(plain.outputs, traced.outputs), w
        assert not any(isinstance(o, BaseException) for o in plain.outputs), w
    assert qknot.mcmahon._dconv.__module__ == "qknot.mcmahon"
    assert not hasattr(qknot.mcmahon._dconv, "__wrapped__"), "tracer left a wrapper behind"


def _corrupt(refs: dict, job) -> dict:
    """A copy of `refs` with the reference of `job` changed."""
    bad = copy.deepcopy(refs)
    if job.route in ("bosonic", "fermionic", "oracle"):
        bad["jones"][job.knot][str(job.N)][0][1] += 1
    elif job.route in ("alexander", "fox"):
        bad["alexander"][job.knot][0][1] += 1
    elif job.route == "kashaev":
        bad["kashaev"][job.knot][str(job.N)]["coeffs"][0] += 1
    else:
        entry = bad["volume"][job.knot]
        entry[str(job.N[0])] = repr(float(entry[str(job.N[0])]) * (1 + 1e-5))
    return bad


def test_corrupted_reference_is_caught():
    refs = load_references()
    for w in WORKLOADS:
        jobs = small_jobs(w)
        outputs = run.run_pass(jobs).outputs
        clean = check_outputs(jobs, outputs, refs)
        for route in {j.route for j in jobs}:
            job = next(j for j in jobs if j.route == route)
            dirty = check_outputs(jobs, outputs, _corrupt(refs, job))
            assert dirty.failed_frac > clean.failed_frac, (w, job)
            if route != "volume":
                assert dirty.incorrect > clean.incorrect, (w, job)


def test_missing_target_is_reported():
    jobs = [j for j in small_jobs("jones_cross") if j.route == "oracle"][:3]
    saved = qknot.verma_oracle._NumericTables
    del qknot.verma_oracle._NumericTables
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            result = run.traced(jobs, load_references(), seconds=1)
    finally:
        qknot.verma_oracle._NumericTables = saved
    assert "verma_oracle.numeric_tables_s" not in result["metrics"]
    assert "verma_oracle.numeric_tables_s" in out.getvalue()
    assert result["correct"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    jobs = small_jobs("volume_float")
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.traced(jobs, load_references(), seconds=1)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: u for k, (_, u) in result["metrics"].items()}
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    args = SimpleNamespace(workload="volume_float", seed=3, seconds=1)
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.untraced(args, jobs, load_references())
    assert names == {k: u for k, (_, u) in result["metrics"].items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
