"""Write bench/catalog_reference.json, the decided fields the catalog-cli
workload compares each CLI report with.

    python3 bench/capture_reference.py

Run it only at a commit whose reports are known to be right: the file is the
benchmark's notion of a correct answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=runs)
    try:
        reference = {}
        for group in workloads.catalog_cli(0, workdir, reference={}):
            for job in group:
                code = job.run()
                command = job.key.split(":", 1)[1]
                out_path = job.files[-1]  # a CLI job lists its output file last
                with open(out_path, encoding="utf-8") as fh:
                    reference[job.key] = workloads.decided_fields(command, code, json.load(fh))
    finally:
        shutil.rmtree(workdir)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
