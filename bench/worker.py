"""One benchmark process: set up a workload, then measure it.

Started by ``run.py``, never by hand.  The process caps its own address
space before importing anything large, so an allocation blow-up surfaces as
a counted ``MemoryError`` rather than an out-of-memory kill.  It prints
``READY`` once set-up (imports, input generation, warm-up) is done; with
``--setup-only`` it exits there.  Otherwise it measures and prints one
``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from tracer import COUNTS, GAUGES, Tracer, per_layer_units, span_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--cap-bytes", type=int, required=True)
    p.add_argument("--runs-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def warm_up(seed: int) -> None:
    """Pay the one-off BLAS start-up cost: the first mid-size eigvalsh in a
    process is far slower than later ones when BLAS runs several threads."""
    import numpy as np

    rng = np.random.default_rng([seed, 99])
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    np.linalg.eigvalsh(a + a.conj().T)


class Runner:
    """Runs job groups pass by pass and keeps one record per job."""

    def __init__(self, groups, tracer=None):
        self.groups = groups
        self.tracer = tracer
        self.records: list[dict] = []
        self._sizes: dict[str, dict] = {}

    def run_job(self, job) -> None:
        index = len(self.records)
        if self.tracer is not None:
            self.tracer.job = index
        start = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # counted as a failed job, including MemoryError
            out, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.job = None
        if error is None:
            try:
                if job.key not in self._sizes:
                    self._sizes[job.key] = job.sizes(out)
                job.check(out)
            except Exception as exc:  # a wrong output, or a check that cannot run
                error = f"check {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"job {job.key} failed: {error}"[:500], file=sys.stderr)
        self.records.append(
            {
                "key": job.key,
                "ms": elapsed * 1e3,
                "ok": error is None,
                "error": error,
                "json_bytes": sum(os.path.getsize(f) for f in job.files if os.path.exists(f)),
                "sizes": self._sizes.get(job.key, {}),
            }
        )

    def run_pass(self, order) -> None:
        if self.tracer is not None:
            self.tracer.install()
        try:
            for g in order:
                for job in self.groups[g]:
                    self.run_job(job)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def busy_s(self) -> float:
        return sum(r["ms"] for r in self.records) / 1e3


def measure(groups, seconds: float, rng, tracer=None) -> tuple[Runner, Runner | None]:
    """Whole passes until the untraced jobs have been busy for ``seconds``.

    Stopping only between passes keeps the mix of jobs the same in every run.
    With a tracer, every pass also runs traced, in the same job order; which
    of the two goes first alternates so that drift does not bias the
    overhead estimate.
    """
    untraced = Runner(groups)
    traced = Runner(groups, tracer) if tracer is not None else None
    passes = 0
    while passes == 0 or untraced.busy_s() < seconds:
        order = [int(g) for g in rng.permutation(len(groups))]
        runners = [untraced] if traced is None else [untraced, traced][:: 1 - 2 * (passes % 2)]
        for runner in runners:
            runner.run_pass(order)
        passes += 1
    return untraced, traced


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile with >= 10 jobs beyond it."""
    count = len(latencies)
    beyond = 10
    if count <= beyond:
        return None
    ordered = sorted(latencies)
    rank = count - beyond  # jobs at or below the reported value
    return 100.0 * rank / count, ordered[rank - 1]


def end_to_end(runner: Runner) -> dict:
    records = runner.records
    latencies = [r["ms"] for r in records]
    ok = sum(r["ok"] for r in records)
    metrics = {
        "jobs_per_s": (ok / runner.busy_s(), "1/s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"failed_share": (len(records) - ok) / len(records)}
    t = tail(latencies)
    if t is not None:
        info["job_tail_ms"] = {"percentile": t[0], "value": t[1], "jobs": len(latencies)}
    return {"metrics": metrics, "info": info}


def per_layer(untraced: Runner, traced: Runner, tracer: Tracer) -> dict:
    jobs = len(traced.records)
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = tracer.calls[name] / jobs
        metrics[f"{name}.self_ms"] = tracer.self_s[name] * 1e3 / jobs
    counts = dict(tracer.counts)
    counts["cli.json_bytes"] = sum(r["json_bytes"] for r in traced.records)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0) / jobs
    for name, tag in GAUGES.items():
        metrics[name] = max((r["sizes"].get(tag, 0) for r in traced.records), default=0)
    traced_ms = traced.busy_s() * 1e3
    untraced_ms = untraced.busy_s() * 1e3
    self_ms = sum(tracer.self_s.values()) * 1e3
    metrics["trace.overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
    metrics["trace.unattributed_ms"] = (traced_ms - self_ms) / jobs
    units = per_layer_units()
    info = {
        "traced_job_ms": traced_ms / jobs,
        "untraced_job_ms": untraced_ms / jobs,
        "self_ms_sum": self_ms / jobs,
        "jobs": jobs,
    }
    return {"metrics": {k: (v, units[k]) for k, v in metrics.items()}, "info": info}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (args.cap_bytes, args.cap_bytes))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.runs_dir)
    try:
        groups = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_up(args.seed)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        rng = np.random.default_rng([args.seed, 7])
        if not args.trace:
            runner, _ = measure(groups, args.seconds, rng)
            result = end_to_end(runner)
            log_data = {"jobs": runner.records}
        else:
            tracer = Tracer()
            untraced, traced = measure(groups, args.seconds / 2, rng, tracer)
            result = per_layer(untraced, traced, tracer)
            # span tuples: (name, start, end, parent span index, index into traced_jobs)
            log_data = {"jobs": untraced.records, "traced_jobs": traced.records, "spans": tracer.spans}
        records = log_data["jobs"] + log_data.get("traced_jobs", [])
        result["attempted"] = len(records)
        result["failed"] = sum(not r["ok"] for r in records)
        log = os.path.join(args.runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(log, "w", encoding="utf-8") as fh:
            json.dump(log_data, fh)
        result["log"] = os.path.relpath(log, ROOT)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
