import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from protex.cli import main

FINVEC_INSTANCE = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1"], "max_dim": 1}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def space_json(weights, field=None):
    return {"field": field or {"padic": 2}, "weights": weights}


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_rescale_down_identity_record(self, tmp_path, capsys):
        f = {
            "domain": space_json(["g^0"]),
            "codomain": space_json(["g^-1"]),
            "matrix": [["1"]],
        }
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["classify", "--map", write(tmp_path, "f.json", f), "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        record = report["result"]["classification"]
        assert record["mono"] and record["epi"]
        assert not record["strict_mono"] and not record["strict_epi"]
        assert "mono, epi" in out

    def test_bad_input_exits_2(self, tmp_path, capsys):
        f = {
            "domain": space_json(["g^0", "g^0"]),
            "codomain": space_json(["g^0"]),
            "matrix": [["1"]],
        }
        code, _, err = run_main(["classify", "--map", write(tmp_path, "f.json", f)], capsys)
        assert code == 2
        assert "matrix" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(["classify", "--map", "/nonexistent.json"], capsys)
        assert code == 2


class TestCompute:
    def test_kernel(self, tmp_path, capsys):
        f = {
            "domain": space_json(["g^0", "g^1"]),
            "codomain": space_json(["g^0"]),
            "matrix": [["1", "0"]],
        }
        code, out, _ = run_main(
            ["compute", "kernel", "--map", write(tmp_path, "f.json", f), "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["space"]["weights"] == ["g^1"]

    def test_quotient_norm(self, tmp_path, capsys):
        space = space_json(["g^0", "g^0"], field={"trivial": "F2"})
        code, out, _ = run_main(
            [
                "compute",
                "quotient-norm",
                "--space",
                write(tmp_path, "s.json", space),
                "--sub",
                write(tmp_path, "sub.json", [["1", "1"]]),
                "--vector",
                write(tmp_path, "v.json", ["1", "0"]),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["quotient_norm"] == "g^0"

    def test_colimit(self, tmp_path, capsys):
        chain = [
            {
                "domain": space_json(["g^0"]),
                "codomain": space_json(["g^-1"]),
                "matrix": [["1"]],
            },
            {
                "domain": space_json(["g^-1"]),
                "codomain": space_json(["g^-2"]),
                "matrix": [["1"]],
            },
        ]
        code, out, _ = run_main(
            ["compute", "colimit", "--chain", write(tmp_path, "c.json", chain), "--format", "json"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["stage_basis_colimit_norms"][0] == ["g^-2"]

    def test_pullback_and_pushout(self, tmp_path, capsys):
        f = {
            "domain": space_json(["g^0"]),
            "codomain": space_json(["g^0"]),
            "matrix": [["1"]],
        }
        code, out, _ = run_main(
            [
                "compute",
                "pullback",
                "--map",
                write(tmp_path, "f.json", f),
                "--map2",
                write(tmp_path, "g.json", f),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["space"]["weights"] == ["g^0"]


class TestAuditAndCounterexamples:
    def test_audit_pointed_not_right_total(self, tmp_path, capsys):
        inst = {"kind": "pointed", "max_size": 2}
        code, out, _ = run_main(
            [
                "audit",
                "--instance",
                write(tmp_path, "inst.json", inst),
                "--obscure",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        entries = {e["axiom"]: e["verdict"] for e in report["result"]["entries"]}
        assert entries["epi_pullback_total"] == "fail"
        assert entries["right_obscure"] == "fail"
        assert entries["left_obscure"] == "pass"
        assert not report["result"]["passed"]

    def test_counterexamples(self, capsys):
        code, out, _ = run_main(["counterexamples"], capsys)
        assert code == 0
        assert "pullback_projection_not_strict: pass" in out
        assert "right_obscure_failure: pass" in out


class TestFactor:
    def test_preenvelope(self, tmp_path, capsys):
        code, out, _ = run_main(
            [
                "factor",
                "--instance",
                write(tmp_path, "inst.json", FINVEC_INSTANCE),
                "--object",
                write(tmp_path, "x.json", space_json(["g^1"], field={"trivial": "F2"})),
                "--mode",
                "preenvelope",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mono_admissible"] and result["codomain_orthogonal"]

    def test_fuel_zero_exits_3(self, tmp_path, capsys):
        code, _, err = run_main(
            [
                "factor",
                "--instance",
                write(tmp_path, "inst.json", FINVEC_INSTANCE),
                "--object",
                write(tmp_path, "x.json", space_json(["g^1"], field={"trivial": "F2"})),
                "--mode",
                "precover",
                "--fuel",
                "0",
            ],
            capsys,
        )
        assert code == 3
        assert "lifting problems" in err

    def test_verify_cert_round_trip(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", FINVEC_INSTANCE)
        obj = write(tmp_path, "x.json", space_json(["g^1"], field={"trivial": "F2"}))
        out_path = tmp_path / "factor.json"
        code, _, _ = run_main(
            [
                "factor",
                "--instance",
                inst,
                "--object",
                obj,
                "--mode",
                "precover",
                "--output",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        cert = json.loads(out_path.read_text())["result"]["certificate"]
        cert_path = write(tmp_path, "cert.json", cert)
        code, out, _ = run_main(
            ["verify-cert", "--instance", inst, "--cert", cert_path], capsys
        )
        assert code == 0
        assert "replay: pass" in out


class TestFactorInputValidation:
    def precover_cert(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", FINVEC_INSTANCE)
        obj = write(tmp_path, "x.json", space_json(["g^1"], field={"trivial": "F2"}))
        out_path = tmp_path / "factor.json"
        code, _, _ = run_main(
            ["factor", "--instance", inst, "--object", obj, "--mode", "precover",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        cert = json.loads(out_path.read_text())["result"]["certificate"]
        assert cert["steps"]
        return inst, cert

    def verify(self, tmp_path, capsys, inst, cert):
        cert_path = write(tmp_path, "cert.json", cert)
        return run_main(["verify-cert", "--instance", inst, "--cert", cert_path], capsys)

    def test_out_of_range_generator_index_exits_2(self, tmp_path, capsys):
        inst, cert = self.precover_cert(tmp_path, capsys)
        cert["steps"][0]["generator_index"] = 10_000
        code, _, err = self.verify(tmp_path, capsys, inst, cert)
        assert code == 2
        assert "steps[0].generator_index" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("problems_checked", "many"),
            ("problems_checked", -1),
            ("problems_checked", True),
            ("rlp_verified", "no"),
            ("rlp_verified", 0),
        ],
    )
    def test_malformed_certificate_fields_exit_2(self, tmp_path, capsys, field, value):
        inst, cert = self.precover_cert(tmp_path, capsys)
        cert[field] = value
        code, _, err = self.verify(tmp_path, capsys, inst, cert)
        assert code == 2
        assert f"certificate.{field}" in err

    @pytest.mark.parametrize(
        "instance, obj, message",
        [
            (FINVEC_INSTANCE, space_json(["g^5"], field={"trivial": "F2"}), "weight outside"),
            (FINVEC_INSTANCE, space_json(["g^0", "g^1"], field={"trivial": "F2"}), "exceeds max_dim"),
            (FINVEC_INSTANCE, space_json(["g^1"]), "field differs"),
            ({"kind": "pointed", "max_size": 1}, {"size": 2}, "exceeds max_size"),
        ],
    )
    def test_object_outside_the_universe_exits_2(self, tmp_path, capsys, instance, obj, message):
        code, out, err = run_main(
            [
                "factor",
                "--instance",
                write(tmp_path, "inst.json", instance),
                "--object",
                write(tmp_path, "x.json", obj),
            ],
            capsys,
        )
        assert code == 2
        assert message in err
        assert "admissible mono" not in out


class TestExitContract:
    """Bad input exits 2, whatever form it takes; exhaustion exits 3."""

    def test_directory_as_input_exits_2(self, tmp_path, capsys):
        for argv in (
            ["audit", "--instance", str(tmp_path)],
            ["factor", "--instance", str(tmp_path)],
            ["classify", "--map", str(tmp_path)],
        ):
            code, _, err = run_main(argv, capsys)
            assert code == 2, argv
            assert "cannot read" in err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run_main(["audit", "--instance", str(path)], capsys)
        assert code == 2
        assert "UTF-8" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 1})
        code, _, err = run_main(["audit", "--instance", inst, "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--budget", "-1"],
            ["factor", "--budget", "-1"],
            ["factor", "--fuel", "-1"],
            ["oracle-check", "--trials", "-5"],
            ["oracle-check", "--max-dim", "-1"],
        ],
    )
    def test_negative_counts_rejected_at_parsing(self, tmp_path, capsys, argv):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 1})
        instance = [] if argv[0] == "oracle-check" else ["--instance", inst]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *instance, *argv[1:]])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected_at_parsing(self, tmp_path, capsys, jobs):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 1})
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--instance", inst, "--jobs", jobs])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_jobs_pool_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        # a stand-in pool records its size and runs the cases in this process
        import concurrent.futures
        import os

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cases, chunksize=1):
                return map(fn, cases)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # 160 along-mono cases per square audit: enough to reach the pool
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, max_dim=2))
        argv = ["audit", "--instance", inst, "--no-total"]
        code, out, _ = run_main([*argv, "--jobs", "100000"], capsys)
        assert code == 0
        assert sizes == [3, 3]
        assert run_main(argv, capsys)[1] == out

    @pytest.mark.parametrize("extra", [[], ["--obscure"]])
    def test_non_enumerable_audit_exits_2(self, tmp_path, capsys, extra):
        inst = write(tmp_path, "inst.json", {"kind": "weighted", "field": {"padic": 2}})
        code, _, err = run_main(["audit", "--instance", inst, *extra], capsys)
        assert code == 2
        assert "cannot enumerate objects" in err

    def test_zero_budget_is_accepted(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 1})
        code, _, err = run_main(["audit", "--instance", inst, "--budget", "0"], capsys)
        assert code == 3
        assert "audit budget 0 exceeded" in err

    def test_weight_too_long_to_print_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, weights=["g^0", "g^1e5000"]))
        code, _, err = run_main(["audit", "--instance", inst], capsys)
        assert code == 2
        assert "instance.weights[1]: number too long" in err

    def test_entry_too_long_to_print_exits_2(self, tmp_path, capsys):
        # the kernel of (10^5000, 1) is spanned by (1, -10^5000), which the report would print
        f = {
            "domain": space_json(["g^0", "g^0"]),
            "codomain": space_json(["g^0"]),
            "matrix": [["1e5000", "1"]],
        }
        argv = ["compute", "kernel", "--map", write(tmp_path, "f.json", f)]
        code, _, err = run_main([*argv, "--output", str(tmp_path / "out.json")], capsys)
        assert code == 2
        assert "map.matrix[0][0]: number too long" in err

    def test_json_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"kind": "finvec", "p": ' + "1" * 5000 + ', "weights": ["g^0"]}')
        code, _, err = run_main(["audit", "--instance", str(path)], capsys)
        assert code == 2
        assert "number too long to read" in err

    @pytest.mark.parametrize("p", [3317044064679887385961981, 10**40 + 1])
    def test_prime_beyond_the_exact_test_exits_2(self, tmp_path, capsys, p):
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, p=p))
        code, _, err = run_main(["audit", "--instance", inst], capsys)
        assert code == 2
        assert "instance.p: cannot decide primality" in err

    def test_large_prime_is_decided_at_once(self, tmp_path):
        # trial division up to sqrt(p) ran for minutes; Miller-Rabin answers at once,
        # and the hom-set guard then stops the enumeration over F_p (exit 3)
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, p=10**18 + 3))
        proc = subprocess.run(
            [sys.executable, "-m", "protex.cli", "audit", "--instance", inst],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3, proc.stderr
        assert "hom-set of more than" in proc.stderr

    @pytest.mark.parametrize(
        "instance, obj, path",
        [
            ({"kind": "pointed", "max_size": True}, {"size": 1}, "instance.max_size"),
            (dict(FINVEC_INSTANCE, max_dim=True), space_json(["g^1"], {"trivial": "F2"}), "instance.max_dim"),
            ({"kind": "pointed", "max_size": 2}, {"size": True}, "object.size"),
            ({"kind": "pointed", "max_size": 2}, {"size": 1.0}, "object.size"),
            ({"kind": "pointed", "max_size": 2}, {"size": "1"}, "object.size"),
        ],
    )
    def test_non_integer_counts_exit_2(self, tmp_path, capsys, instance, obj, path):
        argv = ["factor", "--instance", write(tmp_path, "inst.json", instance)]
        code, out, err = run_main([*argv, "--object", write(tmp_path, "x.json", obj)], capsys)
        assert code == 2
        assert f"{path}: expected a non-negative integer" in err
        assert not out

    @pytest.mark.parametrize("image", ["a", 1.0, True])
    def test_non_integer_generator_images_exit_2(self, tmp_path, capsys, image):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})
        gens = write(tmp_path, "gens.json", [{"dom": 1, "cod": 2, "images": [0, image]}])
        argv = ["factor", "--instance", inst, "--object", write(tmp_path, "x.json", {"size": 1})]
        code, _, err = run_main([*argv, "--generators", gens], capsys)
        assert code == 2
        assert "generators[0].images[1]: expected a non-negative integer" in err

    def test_non_integer_certificate_size_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})
        leg = {"dom": 0, "cod": 1, "images": [0]}
        step = {"generator_index": 0, "attach": dict(leg, dom="a"), "cell": leg, "step_mono": leg}
        cert = {"steps": [step], "factored": leg, "left": leg, "right": leg}
        argv = ["verify-cert", "--instance", inst, "--cert", write(tmp_path, "cert.json", cert)]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "certificate.steps[0].attach.dom: expected a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["weight", "entry"])
    def test_huge_exponent_exits_2_at_once(self, tmp_path, capsys, field):
        # Fraction would build 10**100000000 before any check could see it
        if field == "weight":
            inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, weights=["g^1e100000000"]))
            argv = ["audit", "--instance", inst]
        else:
            f = {"domain": space_json(["g^0"]), "codomain": space_json(["g^0"]), "matrix": [["1e100000000"]]}
            argv = ["classify", "--map", write(tmp_path, "f.json", f)]
        start = time.perf_counter()
        code, _, err = run_main(argv, capsys)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert "number too long to write back" in err


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)


def _weighted(*choices):
    """Draw from the strategies in proportion to their weights."""
    return st.sampled_from([strat for w, strat in choices for _ in range(w)]).flatmap(lambda x: x)


_MAGNITUDES = st.sampled_from(["g^0", "g^1", "g^-1", "g^1/2", "0", "g^x", "", "1/2"]) | _JUNK
_SMALL_INSTANCES = st.sampled_from(
    [
        {"kind": "pointed", "max_size": 2},
        {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1"], "max_dim": 1},
        {"kind": "finvec", "p": 3, "weights": ["0", "g^1/2"], "max_dim": 1},
        {"kind": "weighted", "field": {"padic": 2}},
    ]
)
_BOUNDS = ("max_dim", "max_size")


@st.composite
def _malformed_instances(draw):
    """A small valid instance with up to two fields dropped or replaced.

    The size bounds are replaced by small values only, never dropped (their
    defaults are large), so no example builds a large universe.
    """
    inst = dict(draw(_SMALL_INSTANCES))
    keys = st.sampled_from(sorted(inst) + ["extra"])
    for key in draw(st.lists(keys, max_size=2, unique=True)):
        if key in _BOUNDS:
            inst[key] = draw(st.integers(-3, 1) | _JUNK)
        elif draw(st.booleans()):
            inst.pop(key, None)
        else:
            primes = st.sampled_from([2, 3, 4, 0, -3])
            inst[key] = draw(primes | st.lists(_MAGNITUDES, max_size=2) | _JUNK)
    return inst


_OBJECTS = _weighted(
    (3, st.sampled_from([{"size": 1}, space_json(["g^0"], field={"trivial": "F2"})])), (1, _JUNK)
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    instance=_weighted((4, _malformed_instances()), (1, _JUNK), (1, st.binary(max_size=12))),
    obj=_OBJECTS,
    command=st.sampled_from(["audit", "factor"]),
    budget=st.none() | st.integers(0, 300),
)
def test_malformed_instances_keep_the_exit_contract(tmp_path, capsys, instance, obj, command, budget):
    inst = tmp_path / "inst.json"
    if isinstance(instance, bytes):
        inst.write_bytes(instance)
    else:
        inst.write_text(json.dumps(instance))
    argv = [command, "--instance", str(inst)]
    if command == "audit":
        argv.append("--obscure")
    else:
        argv += ["--object", write(tmp_path, "x.json", obj)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, _, _ = run_main(argv, capsys)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)


_COUNTS = _weighted((6, st.integers(-1, 3)), (1, _JUNK))


@st.composite
def _pointed_maps(draw):
    """A pointed map between small sets, with up to one field dropped or replaced."""
    dom, cod = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    tail = draw(st.lists(st.integers(0, cod), min_size=dom, max_size=dom))
    data = {"dom": dom, "cod": cod, "images": [0, *tail]}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_COUNTS | st.lists(_COUNTS, max_size=3))
    return data


@st.composite
def _pointed_certificates(draw):
    """Certificate fields drawn independently, with up to one of them dropped."""
    leg = _pointed_maps()
    step = st.fixed_dictionaries(
        {"generator_index": _COUNTS, "attach": leg, "cell": leg, "step_mono": leg}
    )
    cert = {
        "steps": draw(st.lists(step, max_size=2)),
        "factored": draw(leg),
        "left": draw(leg),
        "right": draw(leg),
        "rlp_verified": draw(st.booleans() | _JUNK),
        "problems_checked": draw(_COUNTS),
    }
    for key in draw(st.lists(st.sampled_from(sorted(cert)), max_size=1)):
        del cert[key]
    return cert


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    generators=st.none() | _weighted((4, st.lists(_pointed_maps(), max_size=2)), (1, _JUNK)),
    f=_pointed_maps(),
    cert=_weighted((4, _pointed_certificates()), (1, _JUNK)),
    command=st.sampled_from(["factor", "verify-cert"]),
)
def test_malformed_pointed_inputs_keep_the_exit_contract(tmp_path, capsys, generators, f, cert, command):
    argv = [command, "--instance", write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})]
    if generators is not None:
        argv += ["--generators", write(tmp_path, "gens.json", generators)]
    if command == "factor":
        argv += ["--mode", "map", "--map", write(tmp_path, "f.json", f), "--fuel", "5"]
    else:
        argv += ["--cert", write(tmp_path, "cert.json", cert)]
    code, _, _ = run_main(argv, capsys)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})
        payloads = []
        for name in ["a.json", "b.json"]:
            out_path = tmp_path / name
            code, _, _ = run_main(
                ["audit", "--instance", inst, "--output", str(out_path), "--seed", "7"],
                capsys,
            )
            assert code == 0
            payloads.append(out_path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_oracle_check_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ["a.json", "b.json"]:
            out_path = tmp_path / name
            code, _, _ = run_main(
                [
                    "oracle-check",
                    "--trials",
                    "20",
                    "--max-dim",
                    "1",
                    "--seed",
                    "11",
                    "--output",
                    str(out_path),
                ],
                capsys,
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["result"]["passed"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "protex.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "protex" in proc.stdout
