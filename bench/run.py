"""ballmaps benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the command starts the workload's process
several times to time set-up, measures in the last one, and prints the
end-to-end metrics.  With ``--trace 1`` it measures the workload untraced,
then replays the same jobs with every layer traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Job records and spans
go to ``.bench_runs/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

WORKLOADS = ("catalog-cli", "s3-realize", "symmetric-structure")
#: Set-up is timed this many times per untraced run; the median is reported.
SETUP_SAMPLES = 9
#: Address-space cap of each workload process.
CAP_BYTES = 3 * 1024**3
#: BLAS threads: the machine's cores, at most two.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
#: The whole command is stopped after this many seconds.
DEADLINE_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="ballmaps benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


class Worker:
    """A workload process; ``ready_s`` is its set-up time as seen from here."""

    def __init__(self, args, deadline: float, setup_only: bool):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cap-bytes", str(CAP_BYTES), "--runs-dir", RUNS_DIR,
        ] + (["--setup-only"] if setup_only else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        self._timer = threading.Timer(max(deadline - start, 0.0), self.proc.kill)
        self._timer.start()
        self.ready_s = None
        if self._read_line("READY") is None:
            self.close()
            raise WorkerError("workload process ended before its set-up finished")
        self.ready_s = time.perf_counter() - start

    def _read_line(self, prefix: str) -> str | None:
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        return None

    def result(self) -> dict:
        line = self._read_line("RESULT ")
        self.close()
        if line is None or self.proc.returncode != 0:
            raise WorkerError(f"workload process failed (exit {self.proc.returncode})")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait()
        self._timer.cancel()
        self._timer.join()


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            worker = Worker(args, deadline, setup_only=True)
            worker.close()
            setups.append(worker.ready_s)
    worker = Worker(args, deadline, setup_only=False)
    setups.append(worker.ready_s)
    result = worker.result()
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["info"]["setup_samples_s"] = setups
    return result


def report(args, result: dict) -> None:
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
        f"address_space_cap_mb={CAP_BYTES // 2**20}"
    )
    info = result["info"]
    if not args.trace:
        print(f"setup_s: median of {[round(s, 3) for s in info['setup_samples_s']]}")
        t = info.get("job_tail_ms")
        if t is None:
            print(f"job_tail_ms: not defined for {result['attempted']} jobs (needs more than 10)")
        else:
            print(f"job_tail_ms = {t['value']:.3f} ms at p{t['percentile']:.1f} of {t['jobs']} jobs")
        print(f"failed_share = {info['failed_share']:.4f} ({result['failed']} of {result['attempted']} jobs)")
    else:
        print(
            f"traced job {info['traced_job_ms']:.2f} ms = self times {info['self_ms_sum']:.2f} ms"
            f" + unattributed; untraced job {info['untraced_job_ms']:.2f} ms"
            f" over {info['jobs']} traced jobs"
        )
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"# job records and spans: {result['log']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ballmaps", "__init__.py")):
        print(f"error: no ballmaps source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
