"""qknot benchmark: fixed batch workloads through the public API.

    python3 perfbench/run.py --workload jones_cross --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. One client runs the jobs one after another in this process
(closed loop); the only extra threads are the ones volume_sequence starts.
A pass runs the whole job list; passes repeat while the next one is
predicted to end within --seconds, so every run makes at least one pass.
Between jobs, at most every SAMPLE_INTERVAL_S, calib.slowdown() samples the
CPU's present speed; each time is divided by the mean of the samples taken
just before and just after it, which gives the time at the reference speed
(see calib.py). wall_s sums, over the jobs, each job's median scaled time
among the passes.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, checks that their outputs are bit-identical, and prints the
per-layer metrics, the tracing overhead and a table of time and counters per
knot × rotation × route. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SAMPLE_INTERVAL_S = 0.05


def _import_program():
    """Import qknot from this checkout's src/, and nothing else."""
    if not (SRC / "qknot" / "__init__.py").is_file():
        sys.exit(f"error: no qknot package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qknot

    if Path(qknot.__file__).resolve().parent != (SRC / "qknot").resolve():
        sys.exit(f"error: imported qknot from {qknot.__file__}, not from {SRC}")


@dataclass
class Pass:
    wall: float  # the whole pass, speed samples included
    outputs: list
    times: list[float]  # measured seconds per job
    slowdowns: list[float]  # per job: mean of the speed samples around it
    sampling_s: float = 0.0  # time spent taking speed samples
    snaps: list[dict] = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        """Each job's time at the reference speed."""
        return [t / s for t, s in zip(self.times, self.slowdowns)]


def run_pass(jobs, tracer=None) -> Pass:
    from calib import slowdown
    from tracer import clear_caches
    from workloads import run_job

    clear_caches()
    gc.collect()
    outputs, times, slowdowns, snaps = [], [], [], []
    t0 = time.perf_counter()
    before, pending, sampling = slowdown(), 0, time.perf_counter() - t0
    sampled = time.perf_counter()
    for i, job in enumerate(jobs):
        s = time.perf_counter()
        try:
            out = run_job(job)
        except Exception as exc:  # a failing job is counted, not fatal
            out = exc
        times.append(time.perf_counter() - s)
        outputs.append(out)
        if tracer is not None:
            snaps.append(tracer.snapshot())
        pending += 1
        if time.perf_counter() - sampled >= SAMPLE_INTERVAL_S or i == len(jobs) - 1:
            c = time.perf_counter()
            after = slowdown()
            sampled = time.perf_counter()
            sampling += sampled - c
            slowdowns += [(before + after) / 2] * pending
            before, pending = after, 0
    return Pass(time.perf_counter() - t0, outputs, times, slowdowns, sampling, snaps)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time from the start of a fresh interpreter until the first job could
    run: imports, references and the job list. Returns the measured seconds
    and the mean of the speed samples taken just before and after. The
    interpreter and the samples run pinned to one CPU, so that the samples
    measure the CPU the set-up ran on."""
    from calib import slowdown

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = slowdown()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        return elapsed, (before + slowdown()) / 2
    finally:
        os.sched_setaffinity(0, cpus)


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qknot").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "QKNOT_WORKERS": os.environ.get("QKNOT_WORKERS"),
        "cpu_model": cpu,
    }


def _same_outputs(a: list, b: list) -> bool:
    return [repr(x) for x in a] == [repr(x) for x in b]


def _print_failures(verdict) -> None:
    for job, reason in verdict.failed:
        print(f"FAILED {job.route} {job.knot} rot={job.rot} N={job.N}: {reason}")


def untraced(args, jobs, refs) -> dict:
    from check import check_outputs

    # Set-up is timed after every pass, so that its median, like the passes,
    # samples the whole run rather than one stretch of machine load.
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs))
        setups.append(time_setup(args.workload, args.seed))
        if time.perf_counter() - start + passes[-1].wall + setups[-1][0] > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args.workload, args.seed))
    verdicts = [check_outputs(jobs, p.outputs, refs) for p in passes]
    _print_failures(verdicts[0])
    if not all(_same_outputs(passes[0].outputs, p.outputs) for p in passes[1:]):
        print("FAILED: passes of one run gave different outputs")
        verdicts[0].incorrect += 1
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(len(v.failed) for v in verdicts)
    scaled = _scaled_times(passes)
    print(f"passes = {len(passes)}  jobs per pass = {len(jobs)}  "
          f"pass walls = {' '.join(f'{p.wall:.3f}' for p in passes)} s")
    print("slowdown per pass = "
          + " ".join(f"{statistics.median(p.slowdowns):.2f}" for p in passes)
          + f"  (speed samples took {sum(p.sampling_s for p in passes) / sum(p.wall for p in passes):.1%})")
    print(f"measured, not scaled: wall_s median {statistics.median(sum(p.times) for p in passes):.4f} s, "
          f"setup_s median {statistics.median(t for t, _ in setups):.4f} s")
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} jobs)")
    metrics = {
        "setup_s": (statistics.median(t / s for t, s in setups), "s"),
        "wall_s": (sum(scaled), "s"),
        "slowest_job_s": (max(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "float_digits_min": (min(v.digits_min for v in verdicts), "digits"),
    }
    return {
        "correct": all(v.incorrect == 0 for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _scaled_times(passes: list[Pass]) -> list[float]:
    """Each job's median, among the passes, of its time at the reference
    speed."""
    return [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]


def traced(jobs, refs, seconds: int) -> dict:
    """Alternate untraced and traced passes while they fit in `seconds`.
    Per-layer metrics come from the fastest traced pass; the overhead
    compares both kinds of pass by the estimator wall_s uses."""
    from check import check_outputs
    from tracer import LAYERS, Tracer
    from report import print_layers, print_table

    plains, traces = [], []
    start = time.perf_counter()
    while True:
        plains.append(run_pass(jobs))
        with Tracer() as tracer:
            traces.append((run_pass(jobs, tracer), tracer))
        if time.perf_counter() - start + plains[-1].wall + traces[-1][0].wall > seconds:
            break
    identical = all(_same_outputs(plains[0].outputs, p.outputs)
                    for p in plains[1:] + [t for t, _ in traces])
    print(f"passes = {len(plains)} untraced + {len(traces)} traced")
    print(f"traced outputs bit-identical to untraced: {identical}")
    tpass, tracer = min(traces, key=lambda pair: pair[0].wall)
    verdict = check_outputs(jobs, tpass.outputs, refs)
    _print_failures(verdict)
    metrics, missing = tracer.metrics()
    attributed = sum(metrics[f"{lay}.self_s"][0] for lay in LAYERS)
    plain_s = sum(_scaled_times(plains))
    traced_s = sum(_scaled_times([t for t, _ in traces]))
    metrics.update({
        "unattributed_s": (tpass.wall - tpass.sampling_s - attributed, "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.untraced_wall_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    })
    print_layers(metrics, tpass.wall - tpass.sampling_s)
    print_table(jobs, _scaled_times(plains), tpass.snaps)
    if missing:
        print(f"missing (traced target gone): {', '.join(sorted(missing))}")
    return {
        "correct": identical and verdict.incorrect == 0,
        "attempted": verdict.attempted,
        "failed": len(verdict.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    _import_program()
    from check import load_references
    from workloads import WORKLOADS, build_jobs

    ap = argparse.ArgumentParser(description="qknot batch benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    refs = load_references()
    jobs = build_jobs(args.workload, args.seed)
    if args.setup_only:
        return 0

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        result = traced(jobs, refs, args.seconds)
    else:
        result = untraced(args, jobs, refs)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
