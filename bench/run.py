"""doubleflag benchmark: run one workload for a fixed time and print every
metric with its unit.

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Each repetition runs the workload's whole job list in a fresh worker
process (bench/worker.py), one worker at a time.  Every job's stdout digest
and work counts are checked against bench/golden.json.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` jobs,
and the end-to-end metrics (``--trace 0``) or the per-layer metrics from
traced workers (``--trace 1``).  The full record, with the machine, the
Python version and the git sha, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

# Import-only workers per run, for a steadier setup_s median.
SETUP_PROBES = 7
# Every run must end within 180 s; this leaves room to report.
DEADLINE_S = 170


def spawn(request: dict, deadline: float) -> dict:
    """Run one worker to completion and return its report."""
    # doubleflag needs nothing outside the standard library, so -S leaves
    # out the site hooks of whatever environment runs the benchmark.
    # Bytecode caching stays on, as for an installed package, so setup_s
    # measures imports rather than compiling the sources.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "worker.py"), repr(started)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(
            json.dumps(request), timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker ran past the run's deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def job_failures(report: dict, golden_jobs: dict) -> list:
    """(job id, reason) for every job whose exit code, stdout digest or work
    counts differ from the golden record."""
    failures = []
    for res in report["jobs"]:
        want = golden_jobs[res["id"]]
        if res["rc"] != 0:
            failures.append((res["id"], f"exit {res['rc']}"))
        elif res["sha256"] != want["sha256"]:
            failures.append((res["id"], "stdout digest differs"))
        elif res["counts"] != want["counts"]:
            failures.append((res["id"], f"work counts {res['counts']}"))
    return failures


def git_sha(root: Path):
    """HEAD's sha, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def unit(metric: str) -> str:
    if ".us_per_" in metric:
        return "us"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "doubleflag" / "__init__.py").is_file():
        raise SystemExit(f"no doubleflag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN.read_text())
    # Every repetition runs the same jobs, so one check covers them all.
    workloads.preflight(
        workloads.WORKLOADS[args.workload], golden["workloads"][args.workload]["jobs"]
    )

    OUT.mkdir(exist_ok=True)
    untraced, traced = [], []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < args.seconds:
        jobs = workloads.job_list(args.workload, args.seed, len(untraced))
        request = {"src": str(SRC), "probe": False, "jobs": jobs, "trace": False}
        untraced.append(spawn(request, deadline))
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-rep{len(traced)}.json"
            traced_request = dict(request, trace=True, spans_path=str(spans_path))
            traced.append(spawn(traced_request, deadline))

    reps = untraced + traced
    failures = [f for rep in reps for f in job_failures(rep, golden["jobs"])]
    nesting = sum(rep["nesting_violations"] for rep in traced)
    if args.trace:
        samples = {key: [rep["layers"][key] for rep in traced] for key in traced[0]["layers"]}
        # Each traced worker runs right after an untraced one on the same
        # jobs; the overhead is the ratio within each pair.
        samples["trace.overhead_ratio"] = [
            t["run_s"] / u["run_s"] for t, u in zip(traced, untraced)
        ]
    else:
        probe = dict(request, probe=True)
        samples = {
            "run_s": [rep["run_s"] for rep in untraced],
            "setup_s": [rep["setup_s"] for rep in untraced]
            + [spawn(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        }
    metrics = {key: statistics.median(values) for key, values in samples.items()}

    result = {
        "correct": not failures and not nesting,
        "attempted": sum(len(rep["jobs"]) for rep in reps),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        samples=samples,
        wall_s=[rep["wall_s"] for rep in untraced],
        setup_wall_s=[rep["setup_wall_s"] for rep in untraced],
        cpu_s=[rep["cpu_s"] for rep in untraced],
        setup_cpu_s=[rep["setup_cpu_s"] for rep in untraced],
        failures=failures[:50],
        nesting_violations=nesting,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# {args.workload} seed {args.seed}: {json.dumps(record['machine'])}")
    for job, reason in failures[:10]:
        print(f"# FAILED {job}: {reason}")
    for key, value in metrics.items():
        print(f"# {key} = {value:.6g} {unit(key)} (median of {len(samples[key])})")
    # The uncorrected times, to show when they part from the corrected ones.
    print(
        f"# raw wall time: run {statistics.median(record['wall_s']):.6g} s,"
        f" setup {statistics.median(record['setup_wall_s']):.6g} s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
