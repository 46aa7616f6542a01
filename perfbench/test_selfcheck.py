"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check that inputs are a function of the seed, that tracing leaves
outputs unchanged, that wrong outputs are counted as failures, that the
metric names match BENCHMARK.json, that exact counts repeat between traced
runs, and that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Certify, Enumerate, Request, Result, VerifyStream  # noqa: E402


def _args(requests):
    return [(r.cls, r.key, r.args, r.expect) for r in requests]


def test_generator_is_deterministic_per_seed():
    for cls in (Certify, Enumerate, VerifyStream):
        a, b, c = cls(7), cls(7), cls(8)
        rounds_a = [_args(a.round(r)) for r in range(3)]
        assert rounds_a == [_args(b.round(r)) for r in range(3)], cls.name
        assert rounds_a != [_args(c.round(r)) for r in range(3)], cls.name


def test_rounds_keep_the_same_class_mix():
    for cls in (Certify, Enumerate, VerifyStream):
        wl = cls(3)
        mixes = [sorted(r.cls for r in wl.round(i)) for i in range(3)]
        strip = [[c for c in mix if c != "resend"] for mix in mixes]
        assert strip[0] == strip[1] == strip[2], cls.name


def _sample_requests():
    stream = VerifyStream(5).round(0)
    picked = {}
    for req in stream:
        if req.cls != "resend":
            picked.setdefault(req.cls.split(".")[0], req)
    yield from ((VerifyStream, req) for req in picked.values())
    yield Enumerate, Request("full13", "full:13:2", ("full", 13, 2))
    yield Enumerate, Request("simplicial13", "simplicial:13", ("simplicial", 13, None))
    yield Certify, Request("d6", "certify:6:3:1", (6, 3, 1))


def test_tracing_does_not_change_outputs_and_uninstalls_cleanly():
    from galepoly import gale, lp, spanning

    originals = (lp.solve_feasibility, gale.strict_positive_dependence,
                 spanning.positively_spans)
    samples = list(_sample_requests())
    plain = [cls.execute(req).response for cls, req in samples]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gale.strict_positive_dependence is not originals[1]
        traced = []
        for op, (cls, req) in enumerate(samples):
            tracer.begin_op(op)
            res = cls.execute(req)
            assert cls.check(req, res) == []
            traced.append(res.response)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (lp.solve_feasibility, gale.strict_positive_dependence,
            spanning.positively_spans) == originals
    counts = tracing.count_metrics(tracer.counts)
    assert counts["lp.calls"] > 0 and counts["gale.coface_tests"] > 0
    assert counts["mani.stack_trials"] > 0 and counts["jsonio.digest_bytes"] > 0
    assert all(v >= 0 for v in tracer.layer_metrics(len(samples)).values())


class _Tampered:
    """Wraps a workload and corrupts its responses before the check."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def execute(self, req):
        res = self.inner.execute(req)
        return self.corrupt(res)

    def check(self, req, res):
        return self.inner.check(req, res)


def _minus_config_request():
    return next(r for r in VerifyStream(11).round(0) if r.cls.endswith(".minus"))


def test_wrong_dependence_certificate_counts_as_failure():
    def flip(res):
        doc, payloads = res.value
        cert = payloads[0]["certificate"]
        if "functional" in cert:
            cert["functional"] = [str(-x) for x in oracle.rationals(cert["functional"])]
        for key in ("lambda", "direction"):
            if key in cert:
                cert[key] = ["0"] * len(cert[key])
        return Result(oracle.canonical(payloads), (doc, payloads))

    req = _minus_config_request()
    honest = run.Run(VerifyStream)
    honest.do(req)
    assert (honest.attempted, honest.failed) == (1, 0)
    bad = run.Run(_Tampered(VerifyStream, flip))
    bad.do(req)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_wrong_hyperplane_and_digest_count_as_failures():
    req = Request("d6", "certify:6:3:1", (6, 3, 1))
    res = Certify.execute(req)
    assert Certify.check(req, res) == []

    doc = json.loads(res.response)
    designated = next(c for c in doc["certificates"] if c["check"] == "designatedAreFacets")
    designated["designated"][0]["offset"] = str(oracle.rationals(
        [designated["designated"][0]["offset"]])[0] + 1)
    assert oracle.certificate_report_problems(doc)

    c, dual, report, back = res.value
    back[0]["verdict"] = not back[0]["verdict"]
    assert oracle.digest_problems(report, back)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = run.Run(VerifyStream)
    probe.attempted, probe.latencies, probe.cpu, probe.response_bytes = 1, [0.001], [0.001], 10
    e2e = run.end_to_end(probe, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    tracer = tracing.Tracer()
    layer = set(tracing.count_metrics({})) | set(tracer.layer_metrics(0))
    layer |= {"trace.overhead_ratio", "workload.repeat_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = tracing.count_metrics({})
    return {k: v["value"] for k, v in result["metrics"].items() if k in names}


def test_exact_counts_repeat_between_traced_runs():
    for workload in ("verify-stream", "enumerate", "certify"):
        first = _traced_counts(workload, 4)
        assert first == _traced_counts(workload, 4)
        assert first["lp.calls"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
