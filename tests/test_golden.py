"""CLI output and work counts against the benchmark's recorded values.

``bench/golden.json`` holds the stdout SHA-256 and the work counts of every
benchmark job.  This runs each CLI job through ``cli.main`` that is small
enough for the suite, ``verify`` with p+q <= 6 and every other subcommand
with p+q <= 8, once under the benchmark's own tracer; one test requires exit
code 0 and the recorded digest, the other exit code 0 and the recorded
counts.  The ``verify_relations`` API jobs run under the tracer too, as the
benchmark worker runs them, and must give the recorded digest and relation
check count.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from doubleflag import Shape, cli, oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden.json"
# verify_relations is an API job, not a CLI one; test_api_jobs_match_golden runs it.
API_JOBS = {"verify_relations"}
# largest p+q run per subcommand; 6 takes every verify job, the oracle-orbits ones too
MAX_N = {"verify": 6}


def _small_cli_jobs():
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    out = []
    for job_id, record in sorted(jobs.items()):
        argv = job_id.split()
        if argv[0] in API_JOBS:
            continue
        p = int(argv[argv.index("--p") + 1])
        q = int(argv[argv.index("--q") + 1])
        if p + q <= MAX_N.get(argv[0], 8):
            out.append((argv, record))
    return out


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _installed_tracer():
    """The benchmark's tracer, untimed, installed for the block and removed
    after it."""
    tracer_module = _load_tracer()
    wrapped = tracer_module.LAYER_CALLS + tracer_module.WORK_CALLS
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in wrapped]
    tracer = tracer_module.Tracer(timed=False)
    try:
        tracer.install()
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _traced_run(tracer, job_id, call):
    """(job, rc, stdout digest, counts) of one job run under the tracer."""
    tracer.start_job(job_id)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = call()
    got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return job_id, rc, got, dict(tracer.counts)


@functools.cache
def _golden_runs():
    # The benchmark runs every job under its tracer and rejects a run whose
    # digest or counts differ from the recorded ones; this finds such a
    # change without running the benchmark, one CLI run per job shared by
    # the two tests below.  Each entry is (job, record, rc, digest, counts).
    runs = []
    # A classification cached by an earlier test would skip the Grassmannian
    # enumeration that a fresh benchmark worker counts.
    oracle.classify_orbits.cache_clear()
    with _installed_tracer() as tracer:
        for argv, record in _small_cli_jobs():
            job_id, rc, got, counts = _traced_run(tracer, " ".join(argv), lambda: cli.main(argv))
            runs.append((job_id, record, rc, got, counts))
    return tuple(runs)


def test_cli_output_matches_golden_digests():
    runs = _golden_runs()
    assert len(runs) > 500
    failures = [
        (job, rc, got) for job, record, rc, got, _ in runs if rc != 0 or got != record["sha256"]
    ]
    assert not failures, failures[:5]


def test_cli_work_counts_match_golden():
    runs = _golden_runs()
    assert len(runs) > 500
    failures = [
        (job, rc, counts)
        for job, record, rc, _, counts in runs
        if rc != 0 or counts != record["counts"]
    ]
    assert not failures, failures[:5]


def _relations_job(shape):
    # What bench/worker.py's run_job does for an API job.
    checks = cli.verify_relations(Shape(*shape))
    sys.stdout.write("".join(f"{c.name} {c.ok}\n" for c in checks))
    return 0 if all(c.ok for c in checks) else 1


def test_api_jobs_match_golden():
    # The relation check count is one basis vector per (relation, orbit)
    # checked, so a verify_relations that checked fewer orbits but printed
    # the same lines fails here, not only in the benchmark.
    golden = json.loads(GOLDEN.read_text())["jobs"]
    jobs = sorted((job_id, rec) for job_id, rec in golden.items() if job_id.split()[0] in API_JOBS)
    assert len(jobs) == 85
    failures = []
    checks = 0
    with _installed_tracer() as tracer:
        for job_id, record in jobs:
            argv = job_id.split()
            shape = [int(argv[argv.index(flag) + 1]) for flag in ("--p", "--q", "--r")]
            run = _traced_run(tracer, job_id, lambda: _relations_job(shape))
            _, rc, got, counts = run
            checks += counts.get("hecke.relations.checks", 0)
            if rc != 0 or got != record["sha256"] or counts != record["counts"]:
                failures.append(run)
    assert not failures, failures[:5]
    assert checks == 12706
