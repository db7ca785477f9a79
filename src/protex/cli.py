"""Command-line front end.

Subcommands: compute, classify, audit, counterexamples, factor,
verify-cert, oracle-check.  The canonical output is a JSON report
(written to ``--output`` and/or printed with ``--format json``); a plain
text summary goes to standard output by default.  Exit codes: 0 the run
completed (verdicts live inside the report), 2 bad input, 3 fuel or
budget exhausted.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from . import __version__
from . import serialize as ser
from .category import (
    Budget,
    admissible_monos,
    audit_axioms,
    audit_obscure,
    classify_strictness,
)
from .constructions import (
    chain_colimit,
    classify_morphism,
    cokernel,
    kernel,
    pullback,
    pushout,
)
from .errors import (
    ENUMERATION_CAP,
    BudgetExceeded,
    FuelExhausted,
    ParseError,
    ProtexError,
)
from .factorization import GeneratingSet, factor_map, precover, special_preenvelope
from .finvec import FinWeightedVec
from .ortho import orthogonalize, quotient_norm
from .pointed_sets import FinPointedSet, counterexample_suite
from .randgen import random_bounded_map, random_space, random_vector
from .scalars import MAG_ONE, Magnitude, PAdicRationals, PrimeField, format_magnitude
from .spaces import basis_vector, bounded_map, operator_norm, rescale

DEFAULT_SEED = 20240801

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_EXHAUSTED = 3


def _count(text: str, least: int = 0) -> int:
    """An integer option value of at least ``least``: 0 for fuel, budgets and trials."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < least:
        bound = f"at least {least}" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protex",
        description="exact computations and axiom audits for proto-exact categories",
    )
    parser.add_argument("--version", action="version", version=f"protex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the canonical JSON report to this path")
        p.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="what to print on standard output",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--jobs", type=lambda text: _count(text, 1), default=1, help="has no effect")

    p = sub.add_parser("compute", help="run one construction and print its presentation")
    p.add_argument(
        "operation",
        choices=[
            "kernel",
            "cokernel",
            "pullback",
            "pushout",
            "quotient-norm",
            "orthogonalize",
            "colimit",
        ],
    )
    p.add_argument("--map", dest="map_path", help="JSON file with a bounded map")
    p.add_argument("--map2", dest="map2_path", help="second map for squares")
    p.add_argument("--space", dest="space_path", help="JSON file with a weighted space")
    p.add_argument("--sub", dest="sub_path", help="JSON list of coordinate lists")
    p.add_argument("--vector", dest="vector_path", help="JSON list of coordinates")
    p.add_argument("--chain", dest="chain_path", help="JSON list of bounded maps")
    common(p)

    p = sub.add_parser("classify", help="classification record of a bounded map")
    p.add_argument("--map", dest="map_path", required=True)
    common(p)

    p = sub.add_parser("audit", help="axiom audits of a category instance")
    p.add_argument("--instance", dest="instance_path", required=True)
    p.add_argument("--no-total", action="store_true", help="skip the totality audits")
    p.add_argument("--obscure", action="store_true", help="also run the obscure audits")
    p.add_argument("--budget", type=_count, default=None)
    common(p)

    p = sub.add_parser("counterexamples", help="replay the pointed-set counterexamples")
    common(p)

    p = sub.add_parser("factor", help="finite-fuel factorizations")
    p.add_argument("--instance", dest="instance_path", required=True)
    p.add_argument("--mode", choices=["preenvelope", "precover", "map"], default="preenvelope")
    p.add_argument("--object", dest="object_path", help="object for preenvelope/precover")
    p.add_argument("--map", dest="map_path", help="map to factor in mode=map")
    p.add_argument("--generators", dest="generators_path", help="JSON list of morphisms")
    p.add_argument("--fuel", type=_count, default=100)
    p.add_argument("--budget", type=_count, default=None)
    common(p)

    p = sub.add_parser("verify-cert", help="replay a factorization certificate")
    p.add_argument("--instance", dest="instance_path", required=True)
    p.add_argument("--cert", dest="cert_path", required=True)
    p.add_argument("--generators", dest="generators_path", help="JSON list of morphisms")
    common(p)

    p = sub.add_parser("oracle-check", help="brute-force versus algorithmic comparisons")
    p.add_argument("--max-dim", type=_count, default=2)
    p.add_argument("--trials", type=_count, default=200)
    common(p)

    return parser


# ---------------------------------------------------------------------------
# Command implementations: each returns (result dict, summary lines)
# ---------------------------------------------------------------------------


def _require(args, attr, flag):
    value = getattr(args, attr)
    if value is None:
        raise ParseError(flag, "required input file missing")
    return value


def _cmd_compute(args):
    op = args.operation
    if op in ("kernel", "cokernel"):
        f = ser.parse_map(ser.load_json_file(_require(args, "map_path", "--map")))
        space, mor = kernel(f) if op == "kernel" else cokernel(f)
        result = {"space": ser.space_to_json(space), "map": ser.map_to_json(mor)}
        lines = [f"{op}: dimension {space.dim}"]
        return result, lines
    if op in ("pullback", "pushout"):
        f = ser.parse_map(ser.load_json_file(_require(args, "map_path", "--map")), "map")
        g = ser.parse_map(ser.load_json_file(_require(args, "map2_path", "--map2")), "map2")
        if op == "pullback":
            square = pullback(f, g)
            result = {
                "space": ser.space_to_json(square.space),
                "p1": ser.map_to_json(square.p1),
                "p2": ser.map_to_json(square.p2),
            }
        else:
            square = pushout(f, g)
            result = {
                "space": ser.space_to_json(square.space),
                "j1": ser.map_to_json(square.j1),
                "j2": ser.map_to_json(square.j2),
            }
        return result, [f"{op}: dimension {square.space.dim}"]
    if op in ("quotient-norm", "orthogonalize"):
        space = ser.parse_space(ser.load_json_file(_require(args, "space_path", "--space")))
        sub_raw = ser.load_json_file(_require(args, "sub_path", "--sub"))
        if not isinstance(sub_raw, list):
            raise ParseError("sub", "expected a JSON list of coordinate lists")
        gens = [ser.parse_vector(v, space, f"sub[{i}]") for i, v in enumerate(sub_raw)]
        basis = orthogonalize(space, gens)
        if op == "orthogonalize":
            ranks = f"rank {basis.rank}, null rank {len(basis.vectors) - basis.rank}"
            return {"basis": ser.ortho_to_json(basis)}, [f"orthogonalize: {ranks}"]
        vec = ser.parse_vector(
            ser.load_json_file(_require(args, "vector_path", "--vector")), space, "vector"
        )
        value = format_magnitude(quotient_norm(basis, vec))
        return {"quotient_norm": value}, [f"quotient norm: {value}"]
    #  colimit
    chain_raw = ser.load_json_file(_require(args, "chain_path", "--chain"))
    if not isinstance(chain_raw, list) or not chain_raw:
        raise ParseError("chain", "expected a non-empty JSON list of maps")
    maps = [ser.parse_map(m, f"chain[{i}]") for i, m in enumerate(chain_raw)]
    col = chain_colimit(maps)
    stage_norms = []
    for i, stage in enumerate(col.stages):
        basis_norms = []
        for j in range(stage.dim):
            v = basis_vector(stage, j)
            basis_norms.append(format_magnitude(col.colimit_norm(i, v)))
        stage_norms.append(basis_norms)
    result = {
        "colimit": ser.space_to_json(col.colimit),
        "cocone": [ser.map_to_json(m) for m in col.cocone],
        "stage_basis_colimit_norms": stage_norms,
    }
    return result, [f"colimit: dimension {col.colimit.dim}"]


def _cmd_classify(args):
    f = ser.parse_map(ser.load_json_file(args.map_path))
    record = classify_morphism(f)
    result = {
        "classification": record.as_dict(),
        "operator_norm": format_magnitude(operator_norm(f)),
    }
    flags = ", ".join(k for k, v in record.as_dict().items() if v) or "none"
    return result, [f"classification: {flags}"]


def _cmd_audit(args):
    C = ser.parse_instance(ser.load_json_file(args.instance_path))
    budget = Budget(args.budget, "audit")  # the axiom and obscure audits share it
    report = audit_axioms(C, total=not args.no_total, budget=budget)
    reports = [report]
    if args.obscure:
        reports.append(audit_obscure(C, budget=budget))
    entries = [e for r in reports for e in r.entries]
    result = {
        "instance": C.describe(),
        "bounds": report.bounds,
        "passed": all(r.passed for r in reports),
        "entries": [e.as_dict() for e in entries],
    }
    lines = [f"{e.axiom}: {e.verdict}" for e in entries]
    return result, lines


def _cmd_counterexamples(args):
    report = counterexample_suite()
    result = report.as_dict()
    lines = [f"{e.axiom}: {e.verdict}" for e in report.entries]
    return result, lines


def _load_generators(args, C) -> GeneratingSet:
    if args.generators_path:
        raw = ser.load_json_file(args.generators_path)
        if not isinstance(raw, list):
            raise ParseError("generators", "expected a JSON list of morphisms")
        gens = [ser.parse_morphism(C, m, f"generators[{i}]") for i, m in enumerate(raw)]
        return GeneratingSet.of(C, gens)
    return GeneratingSet.of(C, admissible_monos(C))


def _cmd_factor(args):
    C = ser.parse_instance(ser.load_json_file(args.instance_path))
    G = _load_generators(args, C)
    if args.mode == "map":
        f = ser.parse_morphism(C, ser.load_json_file(_require(args, "map_path", "--map")), "map")
        cert = factor_map(C, f, G, args.fuel, args.budget)
        result = {
            "mode": "map",
            "certificate": ser.certificate_to_json(C, cert),
        }
        lines = [f"factored in {len(cert.steps)} steps; right leg RLP verified"]
        return result, lines
    X = ser.parse_object(C, ser.load_json_file(_require(args, "object_path", "--object")))
    if args.mode == "preenvelope":
        res = special_preenvelope(C, X, G, args.fuel, args.budget)
        result = {
            "mode": "preenvelope",
            "envelope": ser.morphism_to_json(C, res.envelope),
            "mono_admissible": res.mono_admissible,
            "codomain_orthogonal": res.codomain_orthogonal,
            "certificate": ser.certificate_to_json(C, res.certificate),
        }
        lines = [
            f"preenvelope in {len(res.certificate.steps)} steps; "
            f"admissible mono: {res.mono_admissible}"
        ]
        return result, lines
    res = precover(C, X, G, args.fuel, args.budget)
    result = {
        "mode": "precover",
        "cover": ser.morphism_to_json(C, res.cover),
        "hom_surjective": res.hom_surjective,
        "certificate": ser.certificate_to_json(C, res.certificate),
    }
    lines = [
        f"precover in {len(res.certificate.steps)} steps; "
        f"hom-surjective: {res.hom_surjective}"
    ]
    return result, lines


def _cmd_verify_cert(args):
    C = ser.parse_instance(ser.load_json_file(args.instance_path))
    G = _load_generators(args, C)
    cert = ser.parse_certificate(C, ser.load_json_file(args.cert_path), len(G.generators))
    ok = cert.replay(C, G)
    result = {"replayed": ok, "steps": len(cert.steps)}
    return result, [f"certificate replay: {'pass' if ok else 'fail'}"]


def _cmd_oracle_check(args):
    rng = random.Random(args.seed)
    checks = []

    # quotient norms: algorithmic value against the finite-coset minimum
    F2 = PrimeField(2)
    weights = (MAG_ONE, Magnitude.of(1), Magnitude.of(2))
    C = FinWeightedVec(F2, weights, max_dim=args.max_dim)
    # subspaces(S) spans every generator tuple of S: sum_r C(2^d, r) * 2^r sums at d = dim S,
    # and C(|W| + d - 1, d) spaces have dimension d, so the bound needs no space listed
    spans = 0
    for d in range(args.max_dim + 1):
        per_space = sum(math.comb(2**d, r) * 2**r for r in range(d + 1))
        spans += math.comb(len(weights) + d - 1, d) * per_space
        if spans > ENUMERATION_CAP:
            raise BudgetExceeded(f"more than {ENUMERATION_CAP} subspace spans requested")
    spaces = C.objects()
    compared = 0
    mismatches = 0
    for space in spaces:
        vectors = C.vectors(space)
        for gens in C.subspaces(space):
            basis = orthogonalize(space, list(gens))
            for m in vectors:
                compared += 1
                if quotient_norm(basis, m) != C.brute_quotient_norm(list(gens), m):
                    mismatches += 1
    checks.append(
        {"check": "quotient_norm_vs_coset_minimum", "cases": compared, "mismatches": mismatches}
    )

    # generator-order reversal on random p-adic instances
    flips = 0
    for _ in range(args.trials):
        field = PAdicRationals(rng.choice([2, 3]))
        space = random_space(field, rng, max_dim=3, allow_null=True)
        gens = [random_vector(space, rng) for _ in range(rng.randint(0, 3))]
        m = random_vector(space, rng)
        a = quotient_norm(orthogonalize(space, gens), m)
        b = quotient_norm(orthogonalize(space, list(reversed(gens))), m)
        if a != b:
            flips += 1
    checks.append(
        {"check": "quotient_norm_order_reversal", "cases": args.trials, "mismatches": flips}
    )

    # pointed sets: closed-form strictness against kernel-cokernel classification
    P = FinPointedSet(max_size=3)
    disagreements = 0
    scanned = 0
    for X in P.objects():
        for Y in P.objects():
            for f in P.morphisms(X, Y):
                scanned += 1
                if classify_strictness(P, f) != P.strictness(f):
                    disagreements += 1
    checks.append(
        {
            "check": "pointed_strictness_closed_form",
            "cases": scanned,
            "mismatches": disagreements,
        }
    )

    # rescaling adjunction on random p-adic maps
    bad = 0
    for _ in range(args.trials):
        field = PAdicRationals(rng.choice([2, 3]))
        M = random_space(field, rng, max_dim=3)
        N = random_space(field, rng, max_dim=3)
        delta = Magnitude.of(rng.randint(-3, 3))
        g = random_bounded_map(M, N, rng)
        rescaled = bounded_map(rescale(M, delta), N, g.rows())
        if (operator_norm(g) <= delta) != (operator_norm(rescaled) <= MAG_ONE):
            bad += 1
    checks.append(
        {"check": "rescaling_adjunction", "cases": args.trials, "mismatches": bad}
    )

    passed = all(c["mismatches"] == 0 for c in checks)
    result = {"passed": passed, "checks": checks}
    lines = [
        f"{c['check']}: {c['cases']} cases, {c['mismatches']} mismatches" for c in checks
    ]
    return result, lines


_HANDLERS = {
    "compute": _cmd_compute,
    "classify": _cmd_classify,
    "audit": _cmd_audit,
    "counterexamples": _cmd_counterexamples,
    "factor": _cmd_factor,
    "verify-cert": _cmd_verify_cert,
    "oracle-check": _cmd_oracle_check,
}


def _options_of(args) -> dict:
    skip = {"command", "output", "format"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        result, lines = handler(args)
    except (FuelExhausted, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ProtexError as exc:  # every other package error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = ser.make_report(args.command, _options_of(args), result)
    payload = ser.dump_report(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
