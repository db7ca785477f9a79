"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 perfbench/rep.py JOB.json`` (run.py writes the job file).

The repetition starts the speed calibration (see calib.py) unless told
not to, imports protex from the checkout's ``src``, prepares the
workload's inputs, notes its CPU time at that point, runs the timed
section, checks the outputs, and writes its result file with the
calibration totals.  With ``setup_only`` it stops once ready.  With
``trace`` it wraps the protex modules first and adds the per-module
metrics and call tree.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    signal.alarm(job["alarm_s"])  # the default action ends a hung repetition
    import calib

    if job["calibrate"]:
        calib.start()
    sys.path.insert(0, job["src"])
    os.chdir(job["workdir"])
    import workloads

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    parsed = workloads.prepare(job["workload"], job["seed"])
    result = {"setup_work_s": calib.work_time()}
    if not job["setup_only"]:
        out = workloads.Outcome()
        t0, w0 = time.perf_counter(), calib.work_time()
        raw = workloads.run(job["workload"], parsed, out)
        result["wall_s"] = time.perf_counter() - t0
        result["timed_work_s"] = calib.work_time() - w0
        if tracer is not None:
            tracer.uninstall()
        workloads.check(job["workload"], out, raw)
        result.update(out.as_dict())
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["call_tree"] = tracer.call_tree()
    calib.stop()
    result.update(calib.state())
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
