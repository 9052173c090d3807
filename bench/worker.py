"""Benchmark worker: one fresh process per workload run.

Usage: worker.py JOB.json RESULT.json

Times ``import scalekit.cli`` (the run's set-up), then sends the job's CLI
requests through ``scalekit.cli.main(argv)`` from a single client in a
closed loop: the next request starts when the previous one returns.  An
untraced run repeats the request list ``passes`` times.  A traced run makes
an untraced pass, a traced pass and a second untraced pass, and compares
every report of the first two byte for byte.  Output checks run after the
timed region.  Results go to RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

# A slow pass is never repeated past this, so a run ends well within its limit.
MAX_MEASURE_S = 100.0


def _run_pass(main, reqs, tracer=None) -> dict:
    times, codes, errs = [], [], []
    start = time.perf_counter()
    for req in reqs:
        if tracer is not None:
            tracer.request = req["id"]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(req["argv"])
        except Exception as exc:  # a raise is a counted failure, not the end of the run
            code = None
            err.write(f"raised {exc!r}")
        times.append(time.perf_counter() - t0)
        codes.append(code)
        errs.append(err.getvalue())
    return {"wall": time.perf_counter() - start, "times": times, "codes": codes,
            "stderr": errs}


def _snapshot(reqs) -> dict:
    out = {}
    for req in reqs:
        try:
            with open(req["out"], "rb") as fh:
                out[req["id"]] = fh.read()
        except FileNotFoundError:
            out[req["id"]] = None
    return out


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)

    t0 = time.perf_counter()
    import scalekit.cli as cli
    setup = time.perf_counter() - t0

    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"scalekit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    reqs = job["requests"]
    passes = []
    trace = None
    mismatches = {}
    if job["trace"]:
        import tracer as tracing

        passes.append(_run_pass(cli.main, reqs))
        untraced = _snapshot(reqs)
        tr = tracing.Tracer()
        tr.install()
        try:
            passes.append(_run_pass(cli.main, reqs, tr))
        finally:
            tr.uninstall()
        traced = _snapshot(reqs)
        # The first pass also pays one-time costs (lazy imports, library
        # initialisation); the overhead is measured against a warm pass.
        passes.append(_run_pass(cli.main, reqs))
        for req in reqs:
            i = req["id"]
            if (untraced[i] != traced[i] or passes[0]["codes"][i] != passes[1]["codes"][i]
                    or passes[0]["stderr"][i] != passes[1]["stderr"][i]):
                mismatches[i] = "report differs between the untraced and the traced pass"
        tr.dump(os.path.join(job["workdir"], "spans.jsonl"))
        trace = tr.layer_metrics()
        trace["trace.overhead_s"] = passes[1]["wall"] - passes[2]["wall"]
    else:
        for _ in range(job["passes"]):
            passes.append(_run_pass(cli.main, reqs))
            if sum(p["wall"] for p in passes) > MAX_MEASURE_S:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    failures = {}
    last = passes[-1]
    for req in reqs:
        i = req["id"]
        msgs = checks.check(req, last["codes"][i], last["stderr"][i])
        if any(p["codes"][i] != last["codes"][i] for p in passes):
            msgs.append("exit code differs between passes")
        if i in mismatches:
            msgs.append(mismatches[i])
        if msgs:
            failures[i] = msgs

    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup, "passes": [{k: p[k] for k in ("wall", "times", "codes")}
                                                for p in passes],
                   "rss_mb": rss_mb, "failures": failures, "trace": trace}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
