"""One benchmark worker process: import doubleflag, run a job list, report.

Usage (from run.py only): ``python worker.py <parent perf_counter>`` with a
JSON request on stdin.  The first argument is the parent's clock reading
just before it started this process, so set-up time covers interpreter
start and the imports.  CLI output is captured; the one line this process
writes to stdout is its JSON report.
"""

import sys
import time

import doubleflag
import doubleflag.cli

SETUP_S = time.perf_counter() - float(sys.argv[1])
SETUP_CPU_S = time.process_time()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_LOOP_S, SpeedMeter, loop_seconds  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def run_job(job) -> int:
    if not job["api"]:
        return doubleflag.cli.main(job["argv"])
    # The only API job is verify_relations; calling it through the CLI
    # module's name gives it the same span as the CLI's own calls.
    checks = doubleflag.cli.verify_relations(doubleflag.Shape(*job["shape"]))
    sys.stdout.write("".join(f"{c.name} {c.ok}\n" for c in checks))
    return 0 if all(c.ok for c in checks) else 1


def main() -> None:
    # The loop timed right after set-up scales it like job time.
    loops = sorted(loop_seconds() for _ in range(5))
    report = {
        "setup_s": SETUP_S * REF_LOOP_S / loops[2],
        "setup_wall_s": SETUP_S,
        "setup_cpu_s": SETUP_CPU_S,
    }
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    if Path(doubleflag.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported doubleflag from {doubleflag.__file__}, not {src}")
    if request["probe"]:
        print(json.dumps(report))
        return

    tracer = Tracer(timed=request["trace"])
    tracer.install()
    results = []
    intervals = []
    cpu_s = 0.0
    meter = SpeedMeter()
    meter.start()
    for job in request["jobs"]:
        job_id = " ".join(job["argv"])
        tracer.start_job(job_id)
        out = io.StringIO()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with contextlib.redirect_stdout(out), tracer.span("job"):
                rc = run_job(job)
        except SystemExit as exc:  # argparse exits on bad flags
            rc = 0 if exc.code is None else exc.code
        except Exception as exc:  # a failed job is counted, the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        intervals.append((start, time.perf_counter()))
        cpu_s += time.process_time() - cpu_start
        results.append(
            {
                "id": job_id,
                "rc": rc,
                "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "counts": dict(tracer.counts),
            }
        )

    meter.stop()
    report.update(
        run_s=sum(meter.reference_s(start, end) for start, end in intervals),
        wall_s=sum(end - start for start, end in intervals),
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=results,
    )
    if request["trace"]:
        totals = Counter()
        for res in results:
            totals.update(res["counts"])
        for span in tracer.spans:
            span.append(meter.reference_s(span[3], span[4]))
        report["layers"] = layer_metrics(tracer.spans, totals)
        report["nesting_violations"] = tracer.nesting_violations()
        Path(request["spans_path"]).write_text(json.dumps(tracer.spans))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
