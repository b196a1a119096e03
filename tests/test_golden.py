"""Byte-identity of CLI output against the benchmark's recorded digests.

``bench/golden.json`` holds the stdout SHA-256 of every benchmark job.
This runs each CLI job through ``cli.main`` that is small enough for the
suite, ``verify`` with p+q <= 5 and every other subcommand with p+q <= 6,
and requires exit code 0 and the recorded digest.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from doubleflag import cli

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
# verify_relations is an API job, not a CLI one.
SKIPPED = {"verify_relations"}
# largest p+q run per subcommand; larger verify jobs are left to the benchmark
MAX_N = {"verify": 5}


def _small_cli_jobs():
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    out = []
    for job_id, record in sorted(jobs.items()):
        argv = job_id.split()
        if argv[0] in SKIPPED:
            continue
        p = int(argv[argv.index("--p") + 1])
        q = int(argv[argv.index("--q") + 1])
        if p + q <= MAX_N.get(argv[0], 6):
            out.append((argv, record["sha256"]))
    return out


def test_cli_output_matches_golden_digests():
    jobs = _small_cli_jobs()
    assert jobs
    failures = []
    for argv, digest in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if rc != 0 or got != digest:
            failures.append((" ".join(argv), rc))
    assert not failures, failures
