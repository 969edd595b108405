"""The benchmark's fixed job lists and how one job is run.

Every workload presents every cyclic rotation of each braid word it names.
Conjugation does not change the closure, so all rotations share one
reference, while the cost of a job depends heavily on the rotation. The seed
only shuffles the order of the jobs: the multiset of jobs, and so the total
load, is the same for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import qknot

KNOTS = {
    "3_1": "1 1 1",
    "4_1": "1 -2 1 -2",
    "5_1": "1 1 1 1 1",
    "5_2": "1 1 1 2 -1 2",
    "6_1": "1 1 2 -1 -3 2 -3",
    "6_2": "1 1 1 -2 1 -2",
    "6_3": "1 1 -2 1 -2 -2",
}

WORKLOADS = ("jones_cross", "kashaev_exact", "volume_float")


@dataclass(frozen=True)
class Job:
    """One public-API call. `rot` is the cyclic rotation applied to the word
    as written in KNOTS; `N` is an int, or a tuple of orders for `volume`."""

    route: str
    knot: str
    rot: int
    N: int | tuple[int, ...] | None

    @property
    def word(self) -> str:
        return rotated(self.knot, self.rot)


def rotated(knot: str, rot: int) -> str:
    letters = KNOTS[knot].split()
    return " ".join(letters[rot:] + letters[:rot])


def rotations(knot: str) -> range:
    return range(len(KNOTS[knot].split()))


def strands(knot: str) -> int:
    return qknot.parse_braid(KNOTS[knot]).strands


def _jones_cross() -> list[Job]:
    jobs = []
    for knot in ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"):
        two_strand = strands(knot) == 2
        for rot in rotations(knot):
            jobs += [Job("alexander", knot, rot, None), Job("fox", knot, rot, None)]
            for N in (2, 3, 4):
                jobs += [Job("bosonic", knot, rot, N), Job("oracle", knot, rot, N)]
                # the fermionic route costs seconds from 3 strands and N=3 up
                if two_strand or (strands(knot) == 3 and N == 2):
                    jobs.append(Job("fermionic", knot, rot, N))
    return jobs


def _kashaev_exact() -> list[Job]:
    orders = {
        "4_1": (10, 20, 30),
        "5_2": (5, 7),
        "3_1": (10, 20, 40),
        "5_1": (10, 15),
        "6_1": (3, 4),
    }
    return [
        Job("kashaev", knot, rot, N)
        for knot, Ns in orders.items()
        for rot in rotations(knot)
        for N in Ns
    ]


def _volume_float() -> list[Job]:
    jobs = [Job("volume", "4_1", 0, (20, 30))]
    jobs += [Job("volume", "5_2", rot, (10, 15)) for rot in rotations("5_2")]
    # the torus knot's small values expose float cancellation: N=25 fails
    jobs += [Job("volume", "5_1", rot, (20, 25)) for rot in rotations("5_1")]
    return jobs


_JOB_LISTS = {
    "jones_cross": _jones_cross,
    "kashaev_exact": _kashaev_exact,
    "volume_float": _volume_float,
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order given by `seed`."""
    jobs = _JOB_LISTS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


def run_job(job: Job):
    """Run one job through the public API and return its output in a
    canonical, comparable form (exact values as sorted term tuples, floats
    kept as floats)."""
    b = qknot.parse_braid(job.word)
    if job.route in ("bosonic", "fermionic"):
        return _q_terms(qknot.colored_jones(b, job.N, mode=job.route))
    if job.route == "oracle":
        return _q_terms(qknot.state_sum_jones(b, job.N))
    if job.route == "alexander":
        return _z_terms(qknot.alexander(b))
    if job.route == "fox":
        return _z_terms(qknot.abelianize_check(b)[1])
    if job.route == "kashaev":
        kv = qknot.kashaev_value(b, job.N, mode="exact")
        return tuple(kv.exact.coeffs), kv.approx
    if job.route == "volume":
        return tuple((N, mag) for N, mag, _ in qknot.volume_sequence(b, list(job.N)))
    raise ValueError(f"unknown route {job.route!r}")


def _q_terms(p) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(p.q_terms().items()))


def _z_terms(p) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(p.z_terms().items()))
