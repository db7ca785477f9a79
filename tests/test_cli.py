import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from protex import cli, finvec, pointed_sets
from protex.category import Budget, Strictness, audit_axioms, audit_obscure
from protex.cli import main
from protex.errors import BudgetExceeded, FuelExhausted, ParseError, ProtexError
from protex.finvec import FinWeightedVec
from protex.pointed_sets import FinPointedSet, PointedSet
from protex.scalars import MAG_ONE, Magnitude, PrimeField
from protex.serialize import parse_instance, parse_space, parse_vector
from protex.ortho import orthogonalize
from protex.spaces import WeightedSpace, norm
from proptools import reference_orthogonalize

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
        code, out, err = run_main(["compute", "kernel"], capsys)
        assert code == 2 and not out
        assert err.strip() == "error: --map: required input file missing"


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
        maps = ["--map", write(tmp_path, "f.json", f), "--map2", write(tmp_path, "g.json", f)]
        for op, legs in (("pullback", {"p1", "p2"}), ("pushout", {"j1", "j2"})):
            code, out, _ = run_main(["compute", op, *maps, "--format", "json"], capsys)
            assert code == 0, op
            result = json.loads(out)["result"]
            assert result.keys() == {"space"} | legs
            assert result["space"]["weights"] == ["g^0"]

    def test_orthogonalize_report_splits_off_the_null_rows(self, tmp_path, capsys):
        space = {"field": {"padic": 3}, "weights": ["g^1", "0", "g^0", "g^-2"]}
        sub = [["1", "2", "0", "3"], ["0", "1", "0", "0"], ["9", "0", "1/3", "1"]]
        argv = ["compute", "orthogonalize", "--space", write(tmp_path, "space.json", space)]
        argv += ["--sub", write(tmp_path, "sub.json", sub)]
        code, out, _ = run_main([*argv, "--format", "json"], capsys)
        assert code == 0
        basis = json.loads(out)["result"]["basis"]
        X = parse_space(space)
        ref = reference_orthogonalize(X, [parse_vector(v, X) for v in sub])
        # the reference lists the weighted rows, then the null rows
        assert [X.weights[p].is_zero for p in ref.pivots] == [False, False, True]
        rows = [[X.field.format_element(c) for c in v.coords] for v in ref.vectors]
        assert (basis["vectors"], basis["null_vectors"]) == (rows[:2], rows[2:])
        pivots = list(ref.pivots)
        assert (basis["pivots"], basis["null_pivots"]) == (pivots[:2], pivots[2:])
        assert basis["norms"] == [space["weights"][p] for p in ref.pivots[:2]]
        code, out, _ = run_main(argv, capsys)
        assert (code, out) == (0, "orthogonalize: rank 2, null rank 1\n")


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

    def test_jobs_has_no_effect(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 3})
        argv = ["audit", "--obscure", "--instance", inst]
        reports = []
        for name, jobs in (("one.json", []), ("three.json", ["--jobs", "3"])):
            code, out, err = run_main([*argv, *jobs, "--output", str(tmp_path / name)], capsys)
            assert code == 0 and not err
            reports.append((out, json.loads((tmp_path / name).read_text())))
        (out1, report1), (out3, report3) = reports
        assert out3 == out1
        assert (report1["options"].pop("jobs"), report3["options"].pop("jobs")) == (1, 3)
        assert report3 == report1

    def test_obscure_audit_shares_the_budget(self, tmp_path, capsys):
        # T is every unit the axiom and obscure audits charge together
        inst = {"kind": "pointed", "max_size": 3}
        C = parse_instance(inst)
        counter = Budget(None, "audit")
        audit_axioms(C, budget=counter)
        audit_obscure(C, budget=counter)
        t = counter.used
        argv = ["audit", "--obscure", "--instance", write(tmp_path, "inst.json", inst)]
        code, out, _ = run_main(argv + ["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        code, out, err = run_main(argv + ["--budget", str(t - 1)], capsys)
        assert (code, out, err) == (3, "", f"error: audit budget {t - 1} exceeded\n")
        code, out, _ = run_main(argv + ["--format", "json", "--budget", str(t)], capsys)
        assert code == 0
        budgeted = json.loads(out)
        assert budgeted["options"].pop("budget") == t
        assert budgeted["result"]["bounds"].pop("budget") == t
        assert report["result"]["bounds"].pop("budget") is None
        assert budgeted == report

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

    def test_attach_off_the_generator_domain_fails_replay(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 3})
        f = write(tmp_path, "f.json", {"dom": 1, "cod": 2, "images": [0, 1]})
        argv = ["factor", "--mode", "map", "--instance", inst, "--map", f, "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        cert = json.loads(out)["result"]["certificate"]
        assert len(cert["steps"]) == 1
        cert["steps"][0]["attach"] = {"dom": 1, "cod": 2, "images": [0, 2]}
        cert_path = write(tmp_path, "cert.json", cert)
        argv = ["verify-cert", "--instance", inst, "--cert", cert_path, "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert '"replayed": false' in out

    def test_budget_bounds_the_lifting_squares(self, tmp_path, capsys):
        # the precover-sweep instance; n is every commuting square of every step
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, max_dim=2))
        obj = write(tmp_path, "x.json", space_json(["g^0", "g^0"], field={"trivial": "F2"}))
        argv = ["factor", "--instance", inst, "--object", obj, "--mode", "precover"]
        code, out, _ = run_main(argv + ["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        n = report["result"]["certificate"]["problems_checked"]
        code, _, err = run_main(argv + ["--budget", str(n - 1)], capsys)
        assert (code, err) == (3, f"error: lifting budget {n - 1} exceeded\n")
        code, out, _ = run_main(argv + ["--format", "json", "--budget", str(n)], capsys)
        assert code == 0
        budgeted = json.loads(out)
        assert budgeted["options"].pop("budget") == n
        assert budgeted == report


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


def _point_map(dom, cod):
    """The pointed map P(dom) -> P(cod) that sends everything to the base point."""
    return {"dom": dom, "cod": cod, "images": [0] * (dom + 1)}


def _point_cert(step_mono=None, factored=None):
    """A one-step pointed certificate of maps out of P(0)."""
    small = _point_map(0, 0)
    step = {"generator_index": 0, "attach": small, "cell": small, "step_mono": step_mono or small}
    return {"steps": [step], "factored": factored or small, "left": small, "right": small}


class TestPointedMapBounds:
    """A pointed map read from input fits the instance: its sets have at most
    max_size points, or (1 + steps) * max_size for a certificate leg."""

    def run(self, tmp_path, capsys, argv, gens, **files):
        """``argv`` on pointed max_size 2 with generators ``gens``; one file per flag."""
        argv = [*argv, "--instance", write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})]
        argv += ["--generators", write(tmp_path, "gens.json", gens)]
        for flag, data in files.items():
            argv += [f"--{flag}", write(tmp_path, f"{flag}.json", data)]
        return run_main(argv, capsys)

    @pytest.mark.parametrize("key", ["dom", "cod"])
    def test_generator_beyond_max_size_exits_2(self, tmp_path, capsys, key):
        gen = _point_map(3, 0) if key == "dom" else _point_map(0, 3)
        code, out, err = self.run(tmp_path, capsys, ["factor"], [gen], object={"size": 1})
        assert code == 2 and not out
        assert f"generators[0].{key}: 3 exceeds the bound 2" in err

    def test_map_beyond_max_size_exits_2(self, tmp_path, capsys):
        argv = ["factor", "--mode", "map"]
        code, _, err = self.run(tmp_path, capsys, argv, [_point_map(0, 1)], map=_point_map(0, 3))
        assert code == 2
        assert "map.cod: 3 exceeds the bound 2" in err

    def test_factored_map_beyond_max_size_exits_2(self, tmp_path, capsys):
        cert = _point_cert(factored=_point_map(0, 3))
        code, _, err = self.run(tmp_path, capsys, ["verify-cert"], [_point_map(0, 1)], cert=cert)
        assert code == 2
        assert "certificate.factored.cod: 3 exceeds the bound 2" in err

    def test_certificate_legs_may_grow_by_max_size_per_step(self, tmp_path, capsys):
        # one step: legs of up to (1 + 1) * 2 = 4 points parse, and replay decides
        gens = [_point_map(0, 1)]
        cert = _point_cert(step_mono=_point_map(0, 4))
        code, out, _ = self.run(tmp_path, capsys, ["verify-cert"], gens, cert=cert)
        assert code == 0 and "replay: fail" in out
        cert = _point_cert(step_mono=_point_map(0, 5))
        code, _, err = self.run(tmp_path, capsys, ["verify-cert"], gens, cert=cert)
        assert code == 2
        assert "certificate.steps[0].step_mono.cod: 5 exceeds the bound 4" in err

    @pytest.mark.parametrize("command", ["factor", "verify-cert"])
    def test_huge_generator_exits_2_at_once(self, tmp_path, command):
        # unbounded, Hom(P(10**12), Y) and the pushout over P(10**12) would try to
        # allocate terabytes; the child's address space is capped, so a regression fails fast
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})
        gens = write(tmp_path, "gens.json", [_point_map(0, 10**12)])
        argv = [command, "--instance", inst, "--generators", gens]
        if command == "factor":
            argv += ["--object", write(tmp_path, "x.json", {"size": 1})]
        else:
            argv += ["--cert", write(tmp_path, "cert.json", _point_cert())]
        capped = (
            "import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "sys.argv[0] = 'protex'; runpy.run_module('protex.cli', run_name='__main__')"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", capped, *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2, proc.stderr
        assert "generators[0].cod: 1000000000000 exceeds the bound 2" in proc.stderr


class TestUniverseBounds:
    """An instance counts its objects in closed form before it builds them;
    a universe past the enumeration cap is a budget exit, not a MemoryError."""

    FINVEC_4 = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1", "g^2", "g^3"]}

    @pytest.mark.parametrize(
        "instance, message",
        [
            ({"kind": "pointed", "max_size": 10**9}, "1000000001 objects exceed the enumeration"),
            ({**FINVEC_4, "max_dim": 10**5}, "4167083347916875001 objects exceed the enumeration"),
        ],
    )
    def test_huge_universe_exits_3_at_once(self, tmp_path, instance, message):
        argv = ["audit", "--instance", write(tmp_path, "inst.json", instance)]
        capped = (
            "import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "sys.argv[0] = 'protex'; runpy.run_module('protex.cli', run_name='__main__')"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", capped, *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "module, instance",
        [
            (finvec, FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2)),
            (pointed_sets, FinPointedSet(max_size=5)),
        ],
    )
    def test_universe_at_the_cap_is_built(self, monkeypatch, module, instance):
        # both universes have 6 objects: C(2 + 2, 2) weight multisets, sizes 0..5
        monkeypatch.setattr(module, "ENUMERATION_CAP", 6)
        assert len(instance.objects()) == 6
        monkeypatch.setattr(module, "ENUMERATION_CAP", 5)
        with pytest.raises(BudgetExceeded, match="6 objects exceed the enumeration cap"):
            instance.objects()

    @pytest.mark.parametrize(
        "module, instance, ends, message, allocators",
        [
            (
                # End of the space with weights g^1, g^0: columns of 2 then 4 options
                finvec,
                lambda: FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1))),
                (WeightedSpace(PrimeField(2), (Magnitude.of(1), MAG_ONE)),) * 2,
                "hom-set of more than 7 maps requested",
                [(finvec, "bounded_map"), (FinWeightedVec, "vectors")],
            ),
            (
                pointed_sets,
                # P(3) -> P(1): 2 choices for each of 3 points
                lambda: FinPointedSet(max_size=3),
                (PointedSet(3), PointedSet(1)),
                "8 candidate maps exceed the enumeration cap",
                [(pointed_sets, "PointedMap")],
            ),
        ],
        ids=["finvec", "pointed_sets"],
    )
    def test_hom_set_at_the_cap_is_built(
        self, monkeypatch, module, instance, ends, message, allocators
    ):
        # both hom-sets have 8 maps; fresh instances, since hom-sets are memoized
        monkeypatch.setattr(module, "ENUMERATION_CAP", 8)
        assert len(instance().morphisms(*ends)) == 8
        monkeypatch.setattr(module, "ENUMERATION_CAP", 7)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        for owner, name in allocators:
            monkeypatch.setattr(owner, name, refuse)
        with pytest.raises(BudgetExceeded, match=message):
            instance().morphisms(*ends)

    @pytest.mark.parametrize("max_dim", ["5", "179", "1000000"])
    def test_oracle_check_past_the_subspace_cap_exits_3_at_once(self, max_dim):
        # 21 spaces of dimension 5 cost 7,061,121 spans each; unbounded, this ran past 60 s.
        # 179 is 988,260 spaces, under the object cap: listing them before the bound took 14 s
        argv = [sys.executable, "-m", "protex.cli", "oracle-check", "--max-dim", max_dim]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3, proc.stderr
        assert "more than 1000000 subspace spans requested" in proc.stderr

    def test_oracle_check_subspace_cap_is_exact(self, monkeypatch, capsys):
        # max_dim 1 over three weights: the zero space spans 1 tuple, each line 1 + 2 * 2
        argv = ["oracle-check", "--max-dim", "1", "--trials", "1", "--format", "json"]
        monkeypatch.setattr(cli, "ENUMERATION_CAP", 16)
        code, out, _ = run_main(argv, capsys)
        assert code == 0 and json.loads(out)["result"]["passed"]
        monkeypatch.setattr(cli, "ENUMERATION_CAP", 15)
        code, _, err = run_main(argv, capsys)
        assert code == 3 and "more than 15 subspace spans requested" in err

    def test_oracle_check_below_the_subspace_cap_runs_in_full(self, capsys):
        argv = ["oracle-check", "--max-dim", "3", "--trials", "1", "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert json.loads(out)["result"]["checks"][0]["cases"] == 1413


def _vec_map(dom, cod):
    """The zero map between F2 spaces with the given weights, as JSON."""
    field = {"trivial": "F2"}
    return {
        "domain": {"field": field, "weights": dom},
        "codomain": {"field": field, "weights": cod},
        "matrix": [["0"] * len(dom) for _ in cod],
    }


def _vec_cert(step_mono=None, factored=None):
    """A one-step finvec certificate of maps out of the zero space."""
    small = _vec_map([], [])
    step = {"generator_index": 0, "attach": small, "cell": small, "step_mono": step_mono or small}
    return {"steps": [step], "factored": factored or small, "left": small, "right": small}


class TestFinvecMapBounds:
    """A finvec map read from input fits the instance: its spaces have at most
    max_dim weights, or (1 + steps) * max_dim for a certificate leg, and each
    weight is an instance weight."""

    def run(self, tmp_path, capsys, argv, gens, **files):
        """``argv`` on FINVEC_INSTANCE (max_dim 1) with generators ``gens``; one file per flag."""
        argv = [*argv, "--instance", write(tmp_path, "inst.json", FINVEC_INSTANCE)]
        argv += ["--generators", write(tmp_path, "gens.json", gens)]
        for flag, data in files.items():
            argv += [f"--{flag}", write(tmp_path, f"{flag}.json", data)]
        return run_main(argv, capsys)

    @pytest.mark.parametrize(
        "gen, message",
        [
            (_vec_map([], ["g^0", "g^0"]), "codomain.weights: dimension 2 exceeds max_dim 1 (bound 1)"),
            (_vec_map(["g^0", "g^1"], []), "domain.weights: dimension 2 exceeds max_dim 1 (bound 1)"),
            (_vec_map([], ["g^5"]), "codomain.weights: weight outside the instance weight set"),
        ],
    )
    def test_generator_outside_the_instance_exits_2(self, tmp_path, capsys, gen, message):
        obj = space_json(["g^0"], field={"trivial": "F2"})
        code, out, err = self.run(tmp_path, capsys, ["factor"], [gen], object=obj)
        assert code == 2 and not out
        assert f"generators[0].{message}" in err

    def test_map_beyond_max_dim_exits_2(self, tmp_path, capsys):
        argv = ["factor", "--mode", "map"]
        gens = [_vec_map([], ["g^0"])]
        code, _, err = self.run(tmp_path, capsys, argv, gens, map=_vec_map([], ["g^1", "g^0"]))
        assert code == 2
        assert "map.codomain.weights: dimension 2 exceeds max_dim 1 (bound 1)" in err

    def test_factored_map_beyond_max_dim_exits_2(self, tmp_path, capsys):
        cert = _vec_cert(factored=_vec_map([], ["g^0", "g^0"]))
        gens = [_vec_map([], ["g^0"])]
        code, _, err = self.run(tmp_path, capsys, ["verify-cert"], gens, cert=cert)
        assert code == 2
        assert "certificate.factored.codomain.weights: dimension 2 exceeds" in err

    def test_certificate_legs_may_grow_by_max_dim_per_step(self, tmp_path, capsys):
        # one step: legs of up to (1 + 1) * 1 = 2 weights parse, and replay decides
        gens = [_vec_map([], ["g^0"])]
        cert = _vec_cert(step_mono=_vec_map([], ["g^0", "g^1"]))
        code, out, _ = self.run(tmp_path, capsys, ["verify-cert"], gens, cert=cert)
        assert code == 0 and "replay: fail" in out
        cert = _vec_cert(step_mono=_vec_map([], ["g^0", "g^1", "g^1"]))
        code, _, err = self.run(tmp_path, capsys, ["verify-cert"], gens, cert=cert)
        assert code == 2
        leg = "certificate.steps[0].step_mono.codomain.weights"
        assert f"{leg}: dimension 3 exceeds max_dim 1 (bound 2)" in err

    def test_wide_map_exits_2_at_once(self, tmp_path):
        # unbounded, Hom((g^0), Y) would first list all 2 ** 30 vectors of Y; the child's
        # address space is capped, so a regression fails fast
        inst = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1"], "max_dim": 2}
        argv = ["factor", "--mode", "map", "--instance", write(tmp_path, "inst.json", inst)]
        argv += ["--map", write(tmp_path, "map.json", _vec_map(["g^0"], ["g^5"] * 30))]
        capped = (
            "import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "sys.argv[0] = 'protex'; runpy.run_module('protex.cli', run_name='__main__')"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", capped, *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2, proc.stderr
        assert "map.codomain.weights: dimension 30 exceeds max_dim 2 (bound 2)" in proc.stderr


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

    @pytest.mark.parametrize("weights", [["g^0", "g^0"], ["g^1", "g^2/2"]])
    def test_repeated_weight_exits_2(self, tmp_path, capsys, weights):
        # a repeated weight listed a space twice, inflating every audit and precover count
        inst = write(tmp_path, "inst.json", dict(FINVEC_INSTANCE, weights=weights))
        obj = write(tmp_path, "obj.json", {"field": {"trivial": "F2"}, "weights": ["g^0"]})
        for argv in (["audit"], ["factor", "--mode", "precover", "--object", obj]):
            code, _, err = run_main([*argv, "--instance", inst], capsys)
            assert code == 2
            assert f"weights: {weights[0]} is listed twice" in err

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

    def test_non_admissible_generator_is_named(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"kind": "pointed", "max_size": 2})
        # a strict mono, then a collapse that is no mono
        raw = [{"dom": 1, "cod": 2, "images": [0, 1]}, {"dom": 2, "cod": 1, "images": [0, 1, 1]}]
        gens = write(tmp_path, "gens.json", raw)
        argv = ["factor", "--instance", inst, "--object", write(tmp_path, "x.json", {"size": 1})]
        code, out, err = run_main([*argv, "--generators", gens], capsys)
        assert (code, out) == (2, "")
        assert err == "error: generators[1]: not an admissible monomorphism\n"

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
def _certificates(draw, leg):
    """Certificate fields drawn independently, each map from ``leg``, with up to one field dropped."""
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


def _factor_or_verify_keeps_the_exit_contract(tmp_path, capsys, instance, generators, f, cert, command):
    """``factor --mode map`` on f, or ``verify-cert`` on cert, exits 0, 2 or 3."""
    argv = [command, "--instance", write(tmp_path, "inst.json", instance)]
    if generators is not None:
        argv += ["--generators", write(tmp_path, "gens.json", generators)]
    if command == "factor":
        argv += ["--mode", "map", "--map", write(tmp_path, "f.json", f), "--fuel", "5"]
    else:
        argv += ["--cert", write(tmp_path, "cert.json", cert)]
    code, _, _ = run_main(argv, capsys)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    generators=st.none() | _weighted((4, st.lists(_pointed_maps(), max_size=2)), (1, _JUNK)),
    f=_pointed_maps(),
    cert=_weighted((4, _certificates(_pointed_maps())), (1, _JUNK)),
    command=st.sampled_from(["factor", "verify-cert"]),
)
def test_malformed_pointed_inputs_keep_the_exit_contract(tmp_path, capsys, generators, f, cert, command):
    instance = {"kind": "pointed", "max_size": 2}
    _factor_or_verify_keeps_the_exit_contract(tmp_path, capsys, instance, generators, f, cert, command)


_VEC_WEIGHTS = _weighted((6, st.sampled_from(["g^0", "g^1"])), (1, _MAGNITUDES))
_VEC_ENTRIES = _weighted((6, st.sampled_from(["0", "0", "1"])), (1, st.sampled_from(["2", "1/2"]) | _JUNK))


@st.composite
def _vec_maps(draw):
    """An F2 map between spaces of at most two weights, with up to one field dropped or replaced."""
    dom, cod = draw(st.lists(_VEC_WEIGHTS, max_size=2)), draw(st.lists(_VEC_WEIGHTS, max_size=2))
    field = {"trivial": "F2"}
    data = {
        "domain": {"field": field, "weights": dom},
        "codomain": {"field": field, "weights": cod},
        "matrix": [[draw(_VEC_ENTRIES) for _ in dom] for _ in cod],
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_JUNK | st.lists(st.lists(_VEC_ENTRIES, max_size=2), max_size=2))
    return data


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    generators=st.none() | _weighted((4, st.lists(_vec_maps(), max_size=2)), (1, _JUNK)),
    f=_vec_maps(),
    cert=_weighted((4, _certificates(_vec_maps())), (1, _JUNK)),
    command=st.sampled_from(["factor", "verify-cert"]),
)
def test_malformed_finvec_inputs_keep_the_exit_contract(tmp_path, capsys, generators, f, cert, command):
    _factor_or_verify_keeps_the_exit_contract(tmp_path, capsys, FINVEC_INSTANCE, generators, f, cert, command)


_FIELDS = _weighted(
    (6, st.sampled_from([{"padic": 2}, {"padic": 3}, {"trivial": "F2"}, {"trivial": "Q"}])),
    (1, _JUNK),
)
_WEIGHTS = _weighted((6, st.sampled_from(["g^0", "g^1", "g^-1", "g^1/2", "0"])), (1, _MAGNITUDES))
_ENTRIES = _weighted(
    (6, st.sampled_from(["0", "1", "-1", "2", "1/2", "3/4"])),
    (1, st.sampled_from(["1/0", "x", ""]) | _JUNK),
)


def _mangled(draw, data: dict) -> dict:
    """data with up to one field dropped or replaced by junk."""
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_JUNK | st.lists(st.lists(_ENTRIES, max_size=3), max_size=3))
    return data


@st.composite
def _compute_inputs(draw):
    """Spaces of dimension <= 3 over one drawn field, and maps among them.

    The maps share the few drawn spaces, so squares and chains often
    compose and get computed rather than refused.
    """
    field = draw(_FIELDS)
    spaces = [
        {"field": field, "weights": draw(st.lists(_WEIGHTS, max_size=3))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    pick = st.sampled_from(spaces)

    def a_map():
        dom, cod = draw(pick), draw(pick)
        rows = [[draw(_ENTRIES) for _ in dom["weights"]] for _ in cod["weights"]]
        return _mangled(draw, {"domain": dom, "codomain": cod, "matrix": rows})

    space = draw(pick)
    vector = st.lists(_ENTRIES, min_size=len(space["weights"]), max_size=len(space["weights"]))
    return {
        "map": a_map(),
        "map2": a_map(),
        "space": _mangled(draw, dict(space)),
        "sub": draw(st.lists(vector, max_size=3) | _JUNK),
        "vector": draw(vector | _JUNK),
        "chain": [a_map() for _ in range(draw(st.integers(0, 3)))] if draw(st.booleans()) else draw(_JUNK),
    }


def _run_keeps_the_exit_contract(tmp_path, capsys, argv, files, dropped):
    """Write the input files (one may be left out or hold raw bytes) and run argv on them."""
    for name, data in files.items():
        if name == dropped:
            continue
        path = tmp_path / f"{name}.json"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(json.dumps(data))
        argv += [f"--{name}", str(path)]
    code, _, _ = run_main(argv, capsys)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3)


_COMPUTE_FILES = {
    "kernel": ("map",),
    "cokernel": ("map",),
    "pullback": ("map", "map2"),
    "pushout": ("map", "map2"),
    "quotient-norm": ("space", "sub", "vector"),
    "orthogonalize": ("space", "sub"),
    "colimit": ("chain",),
}


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    operation=st.sampled_from(sorted(_COMPUTE_FILES)),
    inputs=_compute_inputs(),
    raw=_weighted((8, st.none()), (1, st.binary(max_size=12))),
    dropped=_weighted((8, st.none()), (1, st.sampled_from(["map", "map2", "space", "sub", "vector", "chain"]))),
)
def test_malformed_compute_inputs_keep_the_exit_contract(tmp_path, capsys, operation, inputs, raw, dropped):
    files = {name: inputs[name] for name in _COMPUTE_FILES[operation]}
    if raw is not None:
        files[sorted(files)[0]] = raw
    _run_keeps_the_exit_contract(tmp_path, capsys, ["compute", operation], files, dropped)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(inputs=_compute_inputs(), raw=_weighted((8, st.none()), (1, st.binary(max_size=12))))
def test_malformed_classify_inputs_keep_the_exit_contract(tmp_path, capsys, inputs, raw):
    files = {"map": inputs["map"] if raw is None else raw}
    _run_keeps_the_exit_contract(tmp_path, capsys, ["classify"], files, None)


def _error_classes(cls=ProtexError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_hierarchy(monkeypatch, capsys, cls):
    def handler(args):
        raise cls("where", "boom") if issubclass(cls, ParseError) else cls("boom")

    monkeypatch.setitem(cli._HANDLERS, "counterexamples", handler)
    code, out, err = run_main(["counterexamples"], capsys)
    assert code == (3 if issubclass(cls, (FuelExhausted, BudgetExceeded)) else 2)
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "check, target, broken",
    [
        (
            "quotient_norm_vs_coset_minimum",
            (FinWeightedVec, "brute_quotient_norm"),
            lambda self, gens, m: norm(m),  # the subspace is ignored
        ),
        (
            "quotient_norm_order_reversal",
            (cli, "orthogonalize"),
            lambda space, gens: orthogonalize(space, gens[:1]),  # only the first generator
        ),
        (
            "pointed_strictness_closed_form",
            (cli, "classify_strictness"),
            lambda C, f: Strictness(False, False),
        ),
        ("rescaling_adjunction", (cli, "rescale"), lambda M, delta: M),  # no rescaling
    ],
)
def test_oracle_check_counts_each_mismatch(monkeypatch, capsys, check, target, broken):
    monkeypatch.setattr(*target, broken)
    # max_dim 1: every subspace has at most one generator, so only the broken check mismatches
    argv = ["oracle-check", "--max-dim", "1", "--trials", "50", "--format", "json"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is False
    mismatches = {c["check"]: c["mismatches"] for c in result["checks"]}
    assert mismatches.pop(check) > 0
    assert set(mismatches.values()) == {0}


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
