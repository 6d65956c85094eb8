"""One-shot capability probe: slow or fragile cases, run once each.

    python3 bench/probe.py

Each case runs in its own process under the benchmark's address-space cap
and a wall-clock budget, and is recorded as finished, failed (with the
exception) or DNF (budget exceeded), with its time and peak resident memory,
in ``.bench_runs/probe.json``.  A case that returns a dict has it recorded
as its ``result``; ``emit-s3-residuals`` records the known-wrong S_3
invariance system that ``symmetric-structure`` leaves out.
The probe is not a benchmark workload and nothing gates on it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import BLAS_THREADS, CAP_BYTES, RUNS_DIR  # noqa: E402

BUDGET_S = 120.0


def emit_s3_residuals(_bm) -> dict:
    from workloads import emit_s3_residuals

    return emit_s3_residuals()


CASES = {
    "analyze-realized-s3-trivial": lambda bm: bm.analyze_map(bm.realize_subgroup([], 3)),
    "realize-a4-in-s4": lambda bm: bm.realize_subgroup([(1, 2, 0, 3), (1, 0, 3, 2)], 4),
    "analyze-symmetric-s7": lambda bm: bm.analyze_map(bm.symmetric_group_map(7)),
    "emit-s3-residuals": emit_s3_residuals,
}


def child(case: str) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ballmaps as bm

    start = time.perf_counter()
    record = {}
    try:
        out = CASES[case](bm)
        record["outcome"] = "finished"
        if isinstance(out, dict):
            record["result"] = out
    except Exception as exc:  # recorded, not raised: the probe reports what happened
        record["outcome"] = f"failed: {type(exc).__name__}: {str(exc)[:200]}"
    record["seconds"] = time.perf_counter() - start
    print(json.dumps(record), flush=True)
    return 0


def probe(case: str, budget_s: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", case], stdout=subprocess.PIPE, text=True, env=env
    )
    timer = threading.Timer(budget_s, proc.kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    seconds = time.perf_counter() - start
    if out.strip():
        result = json.loads(out.strip().splitlines()[-1])
    elif os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL and seconds >= budget_s:
        result = {"outcome": f"DNF: budget of {budget_s} s exceeded", "seconds": seconds}
    else:
        result = {"outcome": f"process ended with exit {proc.returncode}", "seconds": seconds}
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one-shot capability probe")
    p.add_argument("--child", choices=sorted(CASES), help="run one case in this process")
    args = p.parse_args(argv)
    if args.child:
        return child(args.child)
    results = {}
    for case in CASES:
        results[case] = probe(case, BUDGET_S)
        print(case, results[case], flush=True)
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, "probe.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "cap_mb": CAP_BYTES // 2**20,
                "budget_s": BUDGET_S,
                "blas_threads": BLAS_THREADS,
                "cases": results,
            },
            fh,
            indent=1,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
