"""The benchmark's four workloads, their seeded job order, and the
pre-flight size guard.

A job is a dict: ``argv`` for ``doubleflag.cli.main`` (or, when ``api`` is
true, the public function to call), the ``shape`` it runs on and, for
``verify``, the prime ``field``.  Its id is its argv joined by spaces.
"""

from __future__ import annotations

import random

# The guard's orbit limit: build_poset compares all orbit pairs, and the
# largest shape here, (4,4,4), has 1,038 orbits.
ORBIT_LIMIT = 2000


def _job(command, p, q, r, *flags, field=None, api=False):
    argv = [command, *flags, "--p", str(p), "--q", str(q), "--r", str(r)]
    return {"api": api, "argv": argv, "shape": [p, q, r], "field": field}


def _symbolic(p, q, r):
    jobs = [
        _job("verify_relations", p, q, r, api=True),
        _job("invariants", p, q, r, "--format", "json"),
        _job("hasse", p, q, r),
        _job("weyl-decomp", p, q, r),
    ]
    for side, size in (("+", p), ("-", q)):
        jobs += [
            _job("hecke-matrix", p, q, r, f"--side={side}", "--index", str(i))
            for i in range(1, size)
        ]
    return jobs


def _closure(p, q, r):
    return [
        _job("hasse", p, q, r),
        _job("weyl-decomp", p, q, r),
        _job("invariants", p, q, r, "--format", "json"),
    ]


def _verify(field, p, q, r):
    return [_job("verify", p, q, r, "--field", str(field), field=field)]


# Shapes are fixed, orientation included: the seed only permutes job order,
# because swapping (p,q) for (q,p) moves run_s by far more than any bound
# (verify (3,2,2) over F_5 takes 3.3 s, (2,3,2) takes 5.0 s).
WORKLOADS = {
    "symbolic": [
        job
        for p in range(1, 6)
        for q in range(1, 7 - p)
        for r in range(p + q + 1)
        for job in _symbolic(p, q, r)
    ],
    "closure": _closure(4, 4, 4) + _closure(5, 3, 4),
    "oracle-orbits": _verify(3, 3, 3, 2) + _verify(3, 4, 2, 2),
    "oracle-points": _verify(5, 3, 2, 2) + _verify(11, 2, 2, 2),
}


def job_id(job) -> str:
    return " ".join(job["argv"])


def job_list(workload: str, seed: int, rep: int) -> list:
    """The workload's jobs in the order the seed picks for one repetition.
    Each repetition gets its own order, so the median over a run does not
    hang on one order: peak RSS, for one, depends on which job runs last."""
    jobs = list(WORKLOADS[workload])
    random.Random(f"{seed}/{rep}").shuffle(jobs)
    return jobs


def preflight(jobs, golden_ids) -> None:
    """Refuse the run before any job starts if a job is too large by its
    closed-form size, or if the job set is not the one the golden digests
    were recorded for."""
    from doubleflag import Shape, count_orbits, gaussian_binomial
    from doubleflag.oracle import ENUMERATION_BUDGET

    for job in jobs:
        shape = Shape(*job["shape"])
        orbits = count_orbits(shape)
        if orbits > ORBIT_LIMIT:
            raise SystemExit(f"{job_id(job)}: {orbits} orbits, over {ORBIT_LIMIT}")
        if job["field"] is not None:
            points = gaussian_binomial(shape.n, shape.r, job["field"])
            if points > ENUMERATION_BUDGET:
                raise SystemExit(
                    f"{job_id(job)}: {points} points, over {ENUMERATION_BUDGET}"
                )
    if sorted(map(job_id, jobs)) != sorted(golden_ids):
        raise SystemExit("job set differs from the golden manifest; run bench/record.py")
