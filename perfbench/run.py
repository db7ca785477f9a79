"""protex benchmark: cold-process workloads, end-to-end and per-module metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit-finvec --seed 1 --seconds 30 --trace 0

Workloads: audit-finvec, precover-sweep, padic-constructions,
audit-pointed (see workloads.py for what each one stresses and why).

Every repetition runs in a fresh interpreter (perfbench/rep.py), one at a
time, in a closed loop: the next repetition starts when the previous one
has exited.  Repetitions start while their expected end stays within
``--seconds``; at least one always runs.  Before them, set-up-only
launches fill the first ``SETUP_SHARE`` of ``--seconds`` (at least two),
so that a set-up of a tenth of a second, which spreads 0.15 from launch
to launch, still gets a median of a dozen samples.  Nothing runs in
parallel and no repetition shares module-level caches with another.

With ``--trace 0`` the end-to-end metrics are medians over the run.  All
times are CPU seconds at the reference speed of calib.py: each
repetition interleaves slices of a fixed reference kernel with the
workload, leaves their CPU time out, and rescales its own CPU times by
the speed the slices measured (a case's time by the slices near it).  On a shared virtual machine the wall
time of one repetition swings by up to 2x with steal and its CPU time by
up to 1.6x with other guests' load on the core, over phases of minutes;
the rescaled times move by a few percent.  Every workload is
single-threaded, so a change that moves work to other threads or
processes raises ``cpu_s`` rather than hiding it.

* ``setup_s``: interpreter start to inputs ready (import, parsing, input
  generation), over the run's set-up-only launches and repetitions;
* ``cpu_s``: user plus system CPU of a repetition's process (reaped
  children and set-up included);
* ``timed_s``: the timed section of a repetition;
* ``peak_rss_mib``: peak resident memory of a repetition;
* ``case_p50_ms`` / ``case_p99_ms``: median and 99th percentile over the
  cases of each case's median time in the run (a case is one p-adic
  construction case, one precover-sweep object with its certificate
  replay, or one audit); with fewer than 1000 cases no 99th percentile
  has ten samples beyond it, and the slowest case stands in for it;
* ``cases_per_s``: cases per second of median ``timed_s``.

The median wall time and unscaled CPU time of the timed section are
printed as ``raw_wall_s`` and ``raw_timed_cpu_s`` (not JSON metrics) and
kept with the speed factors in the run record.

Failures (an exception, a nonzero exit, a wrong digest or a broken
invariant) count per case in ``failed``; ``error_rate`` is printed with
the other lines, and the JSON line carries ``attempted`` and ``failed``.

With ``--trace 1`` one untraced and one traced repetition run; the JSON
line carries the per-module metrics of the traced one (see tracer.py)
and ``trace.overhead_s``, the traced minus the untraced wall time of the
timed section.
Per-module counts and self times cover the whole traced repetition,
set-up included.

Each run also writes ``.perfbench_out/<workload>-seed<n>-trace<t>.json``
with the run record (commit when known, source digest, Python version,
processor count, CPU model, seed, metric units) and, when traced, the
spans aggregated by call path.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.15
RUN_LIMIT_S = 170  # a run stops starting repetitions that could end later

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "timed_s": "s",
    "peak_rss_mib": "MiB",
    "case_p50_ms": "ms",
    "case_p99_ms": "ms",
    "cases_per_s": "1/s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_classify"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Run:
    """Spawns repetitions for one workload and tallies their outcomes."""

    def __init__(self, workload: str, seed: int, workdir: str, started: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        self.launches = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        expected = _load_expected().get(workload, {})
        wanted_seed = expected.get("seed")
        self.expected = (
            expected.get("digests") if wanted_seed in (None, seed) else None
        )

    def spawn(self, setup_only: bool = False, trace: bool = False, calibrate: bool = True):
        """Run one repetition; returns (result dict or None, rusage)."""
        self.launches += 1
        job_path = os.path.join(self.workdir, f"job_{self.launches}.json")
        result_path = os.path.join(self.workdir, f"result_{self.launches}.json")
        err_path = os.path.join(self.workdir, f"stderr_{self.launches}.txt")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        job = {
            "workload": self.workload,
            "seed": self.seed,
            "src": SRC,
            "workdir": self.workdir,
            "result": result_path,
            "setup_only": setup_only,
            "trace": trace,
            "calibrate": calibrate,
            "alarm_s": max(5, int(remaining)),
        }
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        env = dict(os.environ, PYTHONHASHSEED="0")
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "rep.py"), job_path],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=self.workdir,
                env=env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        else:
            with open(err_path, encoding="utf-8") as handle:
                tail = handle.read()[-2000:]
            self.problems.append(f"repetition exited {proc.returncode}: {tail}")
        return result, usage

    def setup_launch(self):
        result, _ = self.spawn(setup_only=True)
        self.attempted += 1
        if result is None:
            self.failed += 1
        return result

    def tally(self, result) -> bool:
        """Count the cases of one repetition; False if it produced nothing."""
        cases = workloads.case_count(self.workload)
        self.attempted += cases
        if result is None:
            self.failed += cases
            return False
        bad = {case for case, _ in result["failures"]}
        for case, message in result["failures"][:5]:
            self.problems.append(f"case {case}: {message}")
        if self.expected is not None:
            for case, (got, want) in enumerate(zip(result["digests"], self.expected)):
                if got != want:
                    bad.add(case)
                    if len(self.problems) < 10:
                        self.problems.append(f"case {case}: digest {got} != {want}")
            if len(result["digests"]) != len(self.expected):
                bad.update(range(len(result["digests"]), cases))
        self.failed += len(bad)
        return True


def _load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(run: Run, seconds: int) -> dict:
    start = time.monotonic()
    launches = []
    while len(launches) < 2 or time.monotonic() - start < SETUP_SHARE * seconds:
        launches.append(run.setup_launch())
    reps = []
    last = 0.0
    while True:
        now = time.monotonic()
        if reps and (now - start + last > seconds or now - run.started + last > RUN_LIMIT_S):
            break
        result, usage = run.spawn()
        last = time.monotonic() - now
        if run.tally(result):
            reps.append((result, usage))
        elif not reps and time.monotonic() - start > seconds:
            break
    sampled = [result for result, _ in reps if result["ref_rounds"]]
    if not sampled:
        if reps:
            run.problems.append("no repetition ran a calibration slice")
        return {}
    # a repetition without a slice of its own takes the median speed
    fallback = statistics.median(calib.scale(r["ref_s"], r["ref_rounds"]) for r in sampled)
    scales = [
        calib.scale(r["ref_s"], r["ref_rounds"]) if r["ref_rounds"] else fallback
        for r, _ in reps
    ]
    setups = [r["setup_work_s"] * fallback for r in launches if r is not None]
    setups += [r["setup_work_s"] * k for (r, _), k in zip(reps, scales)]
    timed = [r["timed_work_s"] * k for (r, _), k in zip(reps, scales)]
    cpus = [
        (u.ru_utime + u.ru_stime - r["ref_s"]) * k for (r, u), k in zip(reps, scales)
    ]
    # each case is rescaled by the speed around it, then takes its median
    # over the repetitions, so that a case that was slow in one repetition
    # does not stand for the case
    per_rep = [
        [
            (t1 - t0) * calib.local_scale(r["slices"], t0, t1, k)
            for t0, t1 in r["case_spans"]
        ]
        for (r, _), k in zip(reps, scales)
    ]
    cases = [statistics.median(times) for times in zip(*per_rep)]
    tail = (
        statistics.quantiles(cases, n=100, method="inclusive")[98]
        if len(cases) >= 1000 else max(cases)
    )
    timed_s = statistics.median(timed)
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "timed_s": timed_s,
        "peak_rss_mib": statistics.median([u.ru_maxrss / 1024 for _, u in reps]),
        "case_p50_ms": statistics.median(cases) * 1e3,
        "case_p99_ms": tail * 1e3,
        "cases_per_s": len(cases) / timed_s,
        "_samples": {
            "repetitions": len(reps),
            "cases_per_repetition": len(cases),
            "speed_scale": scales,
            "setup_s": setups,
            "timed_s": timed,
            "cpu_s": cpus,
            "case_p50_ms": [statistics.median(times) * 1e3 for times in per_rep],
            "raw_wall_s": [r["wall_s"] for r, _ in reps],
            "raw_timed_cpu_s": [r["timed_work_s"] for r, _ in reps],
        },
    }


def measure_traced(run: Run) -> tuple[dict, list]:
    plain, _ = run.spawn(calibrate=False)
    run.tally(plain)
    traced, _ = run.spawn(trace=True, calibrate=False)
    run.tally(traced)
    if plain is None or traced is None:
        return {}, []
    metrics = dict(traced["trace"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, traced["call_tree"]


def run_record(seed: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "protex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "protex", "__init__.py")):
        print(f"error: no protex sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no repetition pays for compilation
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        for name, content in workloads.input_files(args.workload).items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                json.dump(content, handle)
        run = Run(args.workload, args.seed, workdir, started)
        tree = []
        if args.trace:
            metrics, tree = measure_traced(run)
            units = {name: per_layer_unit(name) for name in metrics}
            samples = {}
        else:
            metrics = measure(run, args.seconds)
            samples = metrics.pop("_samples", {})
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    record = run_record(args.seed)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = dict(record, workload=args.workload, trace=args.trace, samples=samples,
                  result=result, call_tree=tree)
    out_path = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    counts = {k: v for k, v in samples.items() if isinstance(v, int)}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {counts}")
    print("run record: " + json.dumps(record, sort_keys=True))
    width = max(len(name) for name in [*metrics, "raw_timed_cpu_s"])
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    if args.trace:
        print("  note: scalars.* are call counts only; scalar time is in the self time"
              " of the calling function")
    if samples:
        for name in ("raw_wall_s", "raw_timed_cpu_s"):
            print(f"  {name:<{width}}  {statistics.median(samples[name]):.6g} s"
                  " (as measured, not a JSON metric: it swings with the host)")
    print(f"  {'error_rate':<{width}}  {run.failed / run.attempted:.6g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
