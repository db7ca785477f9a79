"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/selftest.py``
(about two minutes; the repository's own test run does not collect this
file).
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_FINVEC = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1"], "max_dim": 1}
TINY_POINTED = {"kind": "pointed", "max_size": 2}


@pytest.fixture
def workdir():
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    old = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(old)
    shutil.rmtree(path, ignore_errors=True)


def _write(name, content):
    with open(name, "w", encoding="utf-8") as handle:
        json.dump(content, handle)


def _tiny_inputs():
    """Every traced layer, on inputs that take well under a second."""
    import protex.cli

    _write("finvec.json", TINY_FINVEC)
    _write("pointed.json", TINY_POINTED)
    _write("object.json", {"field": {"trivial": "F2"}, "weights": ["g^1"]})
    with redirect_stdout(io.StringIO()):
        for inst in ("finvec.json", "pointed.json"):
            assert protex.cli.main(["audit", "--instance", inst, "--obscure"]) == 0
        assert protex.cli.main(
            ["factor", "--instance", "finvec.json", "--object", "object.json",
             "--mode", "precover", "--output", "factor.json"]
        ) == 0
        with open("factor.json", encoding="utf-8") as handle:
            _write("cert.json", json.load(handle)["result"]["certificate"])
        assert protex.cli.main(
            ["verify-cert", "--instance", "finvec.json", "--cert", "cert.json"]
        ) == 0
    parsed = workloads.parse_padic(workloads.padic_inputs(3, count=6))
    out = workloads.Outcome()
    workloads.check_padic(out, workloads.run_padic(out, parsed))
    assert not out.failures


def test_every_binding_is_wrapped(workdir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {id(f) for funcs in tracer.originals for f in funcs}
        for ns in tracing._package_namespaces():
            for attr, value in vars(ns).items():
                func = value.__func__ if isinstance(value, staticmethod) else value
                assert id(func) not in originals, f"{ns.__name__}.{attr} is unwrapped"
    finally:
        tracer.uninstall()


def test_trace_counts_equal_cprofile(workdir):
    tracer = tracing.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        _tiny_inputs()
        profile.disable()
    finally:
        tracer.uninstall()
    profiled = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}
    exercised = 0
    for name, funcs, count in zip(tracer.names, tracer.originals, tracer.counts):
        expected = sum(
            profiled.get((f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name), 0)
            for f in funcs
        )
        assert count == expected, f"{name}: traced {count}, cProfile {expected}"
        exercised += count > 0
    assert exercised > 40


def test_self_times_partition_the_traced_time():
    tracer = tracing.Tracer()
    # two roots; the second has a child covering half of it
    for name in ("a", "b", "c"):
        tracer._register(name)
    for name, parent, start, end in ((0, -1, 0.0, 1.0), (1, -1, 2.0, 4.0), (2, 1, 2.5, 3.5)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    assert tracer.self_times() == [1.0, 1.0, 1.0]
    tree = {tuple(row["path"]): row for row in tracer.call_tree()}
    assert tree[("b", "c")]["self_s"] == 1.0
    assert tree[("b",)]["total_s"] == 2.0


def test_calibration_slices_are_left_out_of_the_work_clock():
    spins = []
    calib.start()
    try:
        before, w0, t0 = calib.state(), calib.work_time(), time.thread_time()
        while time.thread_time() - t0 < 1.0:
            s0 = calib.work_time()
            sum(range(2000))
            spins.append(calib.work_time() - s0)
        after, work, spent = calib.state(), calib.work_time() - w0, time.thread_time() - t0
    finally:
        calib.stop()
    slices = after["ref_rounds"] - before["ref_rounds"]
    ref = after["ref_s"] - before["ref_s"]
    assert slices >= 2 * calib.ROUNDS_PER_SLICE
    assert abs(work + ref - spent) < 1e-3
    # the work clock resolves far below a 4 ms scheduler tick while the timer is armed
    assert 0 < sorted(spins)[len(spins) // 2] < 1e-3


def _inputs_digest(seed, hashseed):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads;"
        "d = workloads.canonical(workloads.padic_inputs(int(sys.argv[2]), count=50));"
        "print(workloads.short_digest(d), 'protex' in sys.modules)"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, "-c", code, HERE, str(seed)],
        capture_output=True, text=True, env=env, check=True,
    )
    digest, imported = out.stdout.split()
    assert imported == "False", "input generation imported the program"
    return digest


def test_padic_inputs_are_a_pure_function_of_the_seed():
    assert _inputs_digest(5, 1) == _inputs_digest(5, 2)
    assert _inputs_digest(5, 1) != _inputs_digest(6, 1)


def _spawn(workload, seed, trace):
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        for name, content in workloads.input_files(workload).items():
            with open(os.path.join(path, name), "w", encoding="utf-8") as handle:
                json.dump(content, handle)
        run = bench.Run(workload, seed, path, time.monotonic())
        result, _ = run.spawn(trace=trace)
        assert result is not None, run.problems
        assert run.tally(result) and run.failed == 0, run.problems
        return result
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_traced_counts_repeat_for_a_non_default_seed():
    seed = workloads.DEFAULT_SEED + 6
    first = _spawn("padic-constructions", seed, trace=True)
    second = _spawn("padic-constructions", seed, trace=True)
    assert not first["failures"]

    def counts(result):
        return {
            name: value for name, value in result["trace"].items()
            if not name.endswith("_s")
        }

    assert counts(first) == counts(second)
    assert counts(first)["constructions.pullback.calls"] == workloads.PADIC_CASES


def test_run_refuses_a_directory_without_the_program():
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-bare-", dir=base)
    try:
        shutil.copytree(HERE, os.path.join(path, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit-finvec",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=path, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(path, ignore_errors=True)
