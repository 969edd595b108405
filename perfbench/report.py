"""Text tables printed by a traced run: self time per layer, and time and
counters per knot × rotation × route."""
from __future__ import annotations

from tracer import LAYERS

# per-job counters shown in the table (deltas of Tracer.snapshot)
COUNTERS = ("series_terms", "convolutions", "population_states", "braidings",
            "states_out", "initial_states")


def print_layers(metrics: dict, wall: float) -> None:
    """Self time of each layer and the unattributed remainder, as a share
    of the traced pass without its speed samples."""
    print("\n| layer | self_s | share |")
    print("|---|---|---|")
    rows = [(lay, metrics[f"{lay}.self_s"][0]) for lay in LAYERS]
    rows.append(("unattributed", metrics["unattributed_s"][0]))
    for name, value in rows:
        print(f"| {name} | {value:.4f} | {value / wall:.1%} |")
    over = metrics["trace.overhead_s"][0]
    base = metrics["trace.untraced_wall_s"][0]
    print(f"\ntracing overhead: {over:.3f} s on an untraced wall_s of {base:.3f} s "
          f"({over / base:+.1%})\n")


def print_table(jobs, times: list[float], snaps: list[dict]) -> None:
    """One row per knot × rotation × route. `times` are untraced job times
    at the reference speed, `snaps` the tracer snapshots taken after each
    job of a traced pass. `time_s by N` gives the time of each order."""
    rows: dict[tuple, dict] = {}
    prev: dict[str, float] = {}
    for job, t, snap in zip(jobs, times, snaps):
        key = (job.knot, job.rot, job.route)
        row = rows.setdefault(key, {"word": job.word, "time": 0.0, "by_N": {},
                                    **{c: 0.0 for c in COUNTERS}})
        row["time"] += t
        if isinstance(job.N, int):
            row["by_N"][job.N] = t
        for c in COUNTERS:
            row[c] += snap.get(c, 0.0) - prev.get(c, 0.0)
        prev = snap
    shown = [c for c in COUNTERS if any(r[c] for r in rows.values())]
    print("| knot | rot | word | route | time_s | time_s by N | " + " | ".join(shown) + " |")
    print("|---" * (6 + len(shown)) + "|")
    for (knot, rot, route), r in sorted(rows.items()):
        by_n = " ".join(f"{n}:{t:.3f}" for n, t in sorted(r["by_N"].items())) or "-"
        counts = " | ".join(f"{int(r[c])}" for c in shown)
        print(f"| {knot} | {rot} | `{r['word']}` | {route} | {r['time']:.3f} | {by_n} | {counts} |")
    print()
