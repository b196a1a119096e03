"""CLI output and work counts against the benchmark's recorded values.

``bench/golden.json`` holds the stdout SHA-256 and the work counts of every
benchmark job.  This runs each CLI job through ``cli.main`` that is small
enough for the suite, ``verify`` with p+q <= 6 and every other subcommand
with p+q <= 8, and requires exit code 0, the recorded digest and, under the
benchmark's own tracer, the recorded counts.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from doubleflag import cli, oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden.json"
# verify_relations is an API job, not a CLI one.
SKIPPED = {"verify_relations"}
# largest p+q run per subcommand; 6 takes every verify job, the oracle-orbits ones too
MAX_N = {"verify": 6}


def _small_cli_jobs():
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    out = []
    for job_id, record in sorted(jobs.items()):
        argv = job_id.split()
        if argv[0] in SKIPPED:
            continue
        p = int(argv[argv.index("--p") + 1])
        q = int(argv[argv.index("--q") + 1])
        if p + q <= MAX_N.get(argv[0], 8):
            out.append((argv, record))
    return out


def test_cli_output_matches_golden_digests():
    jobs = _small_cli_jobs()
    assert jobs
    failures = []
    for argv, record in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if rc != 0 or got != record["sha256"]:
            failures.append((" ".join(argv), rc))
    assert not failures, failures


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_work_counts_match_golden():
    # The benchmark rejects a run whose counts differ from the recorded
    # ones; this finds such a change without running the benchmark.
    tracer_module = _load_tracer()
    wrapped = tracer_module.LAYER_CALLS + tracer_module.WORK_CALLS
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in wrapped]
    tracer = tracer_module.Tracer(timed=False)
    jobs = _small_cli_jobs()
    failures = []
    # A classification cached by an earlier test would skip the Grassmannian
    # enumeration that a fresh benchmark worker counts.
    oracle.classify_orbits.cache_clear()
    try:
        tracer.install()
        for argv, record in jobs:
            tracer.start_job(" ".join(argv))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0 or dict(tracer.counts) != record["counts"]:
                failures.append((" ".join(argv), rc, dict(tracer.counts)))
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    assert len(jobs) > 500
    assert not failures, failures[:5]
