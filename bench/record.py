"""Record bench/golden.json: every job's stdout digest and work counts.

    python3 bench/record.py

Run it only at a commit whose outputs are known to be right; run.py then
fails any job whose output or work counts differ from this record.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import jobs as workloads
from run import GOLDEN, SRC, machine, spawn


def main() -> int:
    golden = {"recorded_with": machine(), "workloads": {}, "jobs": {}}
    for name, job_list in workloads.WORKLOADS.items():
        request = {"src": str(SRC), "probe": False, "jobs": job_list, "trace": False}
        report = spawn(request, time.perf_counter() + 600)
        totals = Counter()
        for res in report["jobs"]:
            if res["rc"] != 0:
                raise SystemExit(f"{res['id']} exited with {res['rc']}")
            golden["jobs"][res["id"]] = {"sha256": res["sha256"], "counts": res["counts"]}
            totals.update(res["counts"])
        golden["workloads"][name] = {
            "jobs": [res["id"] for res in report["jobs"]],
            "totals": dict(sorted(totals.items())),
        }
        print(f"{name}: {len(job_list)} jobs, {dict(totals)}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
