"""galepoly benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

Workloads are defined in ``workloads.py``.  A run sets up three times
(fresh-interpreter import, input generation, warm-up) and reports the
median as ``setup_s``; it then executes whole rounds of requests for
about ``--seconds``, checks every output, and prints one JSON object
as the last line of standard output.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
``tracing.py``, computed over the first round (identical work for a given
seed), and the spans of the whole run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import galepoly.mani, galepoly.jsonio, galepoly.polytope, galepoly.spanning; "
    "print(time.perf_counter() - t)"
)


def load_library():
    """Import galepoly from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import galepoly

    where = os.path.dirname(os.path.abspath(galepoly.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"galepoly imported from {where}, not from {SRC}")


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload_cls, seed: int, repeats: int):
    """Import, generate inputs and warm up ``repeats`` times; median time."""
    times = []
    workload = first = None
    for _ in range(repeats):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload = workload_cls(seed)
        first = workload.round(0)
        workload.warm_up()
        times.append(imported + time.perf_counter() - t0)
    return workload, first, statistics.median(times)


class Run:
    """Executes requests, timing the library calls and checking outputs."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.response_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.seen: dict[str, str] = {}
        self.repeats = 0

    def do(self, req) -> None:
        op = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(op)
        cpu0 = time.process_time() + _children_cpu()
        t0 = time.perf_counter()
        try:
            res = self.workload.execute(req)
        except Exception:  # a failed op is counted, not fatal
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(limit=4, file=sys.stderr)
            self.digests.append("")
            return
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op = -1
        self.latencies.append(elapsed)
        self.cpu.append(time.process_time() + _children_cpu() - cpu0)
        self.response_bytes += len(res.response)
        digest = oracle.sha256_hex(res.response)
        self.digests.append(digest)
        try:
            problems = self.workload.check(req, res)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if req.key in self.seen:
            self.repeats += 1
            if self.seen[req.key] != digest:
                problems.append("a re-sent request got a different response")
        else:
            self.seen[req.key] = digest
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {op} ({req.cls}, {req.key}): {problems[:3]}",
                      file=sys.stderr)

    def rounds(self, first, seconds: float, on_first_round=None) -> int:
        """Whole rounds for about ``seconds``: always the first, then another
        only if, at the mean round length so far, it would end less than
        half a round past ``seconds``."""
        start = time.perf_counter()
        r, batch = 0, first
        while True:
            for req in batch:
                self.do(req)
            if on_first_round is not None and r == 0:
                on_first_round()
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / r > seconds:
                return r
            batch = self.workload.round(r)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict:
    lat_ms = sorted(x * 1000.0 for x in run.latencies)
    ok = run.attempted - run.failed
    if len(lat_ms) > 1:
        p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
    else:
        p99 = lat_ms[0]
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(run.latencies), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p99_ms": (p99, "ms"),
        "cpu_per_op_ms": (1000.0 * sum(run.cpu) / len(run.cpu), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verified_ratio": (ok / run.attempted, "ratio"),
        "report_bytes": (run.response_bytes / len(run.latencies), "bytes"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def baseline_round(workload_cls, seed: int) -> dict:
    """Untraced first round in this (fresh) process: time and digests."""
    workload, first, _ = set_up(workload_cls, seed, 1)
    run = Run(workload)
    for req in first:
        run.do(req)
    return {"busy_s": sum(run.latencies), "ops": len(first), "digests": run.digests,
            "failed": run.failed}


def traced(workload_cls, args) -> tuple[Run, dict]:
    import tracing

    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--baseline-round"]
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    base = json.loads(child.stdout.strip().splitlines()[-1])

    workload, first, _ = set_up(workload_cls, args.seed, 1)
    tracer = tracing.Tracer()
    run = Run(workload, tracer)
    snapshot = {}

    def first_round_done():
        snapshot["counts"] = dict(tracer.counts)
        snapshot["busy_s"] = sum(run.latencies)
        snapshot["digests"] = list(run.digests)

    tracer.install()
    try:
        run.rounds(first, args.seconds, first_round_done)
    finally:
        tracer.uninstall()
    ops = len(first)
    if snapshot["digests"] != base["digests"] or base["failed"]:
        run.failed += 1
        print("traced first-round digests differ from the untraced ones", file=sys.stderr)
    values = tracing.count_metrics(snapshot["counts"])
    values.update(tracer.layer_metrics(ops))
    untraced_rate = base["ops"] / base["busy_s"]
    traced_rate = ops / snapshot["busy_s"]
    values["trace.overhead_ratio"] = (untraced_rate - traced_rate) / untraced_rate
    values["workload.repeat_ratio"] = run.repeats / run.attempted
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    return run, {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline-round", action="store_true",
                        help="internal: run the first round untraced and print its digests")
    args = parser.parse_args(argv)
    try:
        load_library()
        import workloads
    except ImportError as exc:
        print(f"cannot load galepoly from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.baseline_round:
        print(json.dumps(baseline_round(workload_cls, args.seed)))
        return 0
    if args.trace:
        run, metrics = traced(workload_cls, args)
    else:
        workload, first, setup_s = set_up(workload_cls, args.seed, SETUP_REPEATS)
        run = Run(workload)
        run.rounds(first, args.seconds)
        metrics = end_to_end(run, setup_s)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
