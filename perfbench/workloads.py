"""The four benchmark workloads: their fixed inputs, the seeded input
generator, and the body of one timed repetition.

Why these four (measured with cProfile on a 2-core Xeon, Python 3.11):

* ``audit-finvec`` -- ``protex audit --obscure`` on the criterion-3
  instance.  Strictness classification dominates (about 5900
  ``strictness`` calls on 721 distinct maps); factorization does nothing.
* ``precover-sweep`` -- ``factor --mode precover`` then ``verify-cert`` for
  every object of a smaller finvec instance.  The lifting search
  dominates (``spaces.compose``), pushout spaces grow past ``max_dim``,
  and certificates are written and replayed.
* ``padic-constructions`` -- seeded random pullbacks, pushouts, kernels,
  cokernels, classifications and quotient norms over the p-adic
  rationals.  Exact scalar arithmetic dominates; nothing is enumerated
  or memoised.
* ``audit-pointed`` -- the same audit engine on finite pointed sets, with
  closed-form strictness and no linear algebra at all.

Nothing in the input generator imports ``protex``: the program receives
only the generated inputs, which are a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import calib

FINVEC_AUDIT = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1", "g^2"], "max_dim": 2}
FINVEC_SWEEP = {"kind": "finvec", "p": 2, "weights": ["g^0", "g^1"], "max_dim": 2}
POINTED_AUDIT = {"kind": "pointed", "max_size": 4}

# Every object of FINVEC_SWEEP, as the instance enumerates them (weights
# sorted decreasingly, dimension 0 to 2).
SWEEP_OBJECTS = [
    [],
    ["g^1"],
    ["g^0"],
    ["g^1", "g^1"],
    ["g^1", "g^0"],
    ["g^0", "g^0"],
]

PADIC_CASES = 1000
DEFAULT_SEED = 1


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Files a repetition reads (written once per run, before any timing)
# ---------------------------------------------------------------------------


def input_files(workload: str) -> dict:
    """File name -> JSON content for the workload's command-line inputs."""
    if workload == "audit-finvec":
        return {"instance.json": FINVEC_AUDIT}
    if workload == "audit-pointed":
        return {"instance.json": POINTED_AUDIT}
    if workload == "precover-sweep":
        files = {"instance.json": FINVEC_SWEEP}
        for k, weights in enumerate(SWEEP_OBJECTS):
            files[f"object_{k}.json"] = {"field": {"trivial": "F2"}, "weights": weights}
        return files
    return {}


# ---------------------------------------------------------------------------
# Seeded p-adic inputs (pure Python, no protex)
# ---------------------------------------------------------------------------

# Case shapes cycle through a fixed schedule so that every seed gets the
# same mix of dimensions and primes; the seed draws weights and entries.
# (codomain dim, extra dim) of the strict epi, dim of the pullback leg,
# (domain dim, extra dim) of the strict mono, dim of the pushout leg,
# (domain, codomain) of the plain map, (ambient dim, generators).
_SHAPES = [
    ((1, 1), 2, (1, 1), 2, (2, 2), (2, 1)),
    ((2, 1), 1, (2, 1), 1, (3, 2), (3, 2)),
    ((1, 2), 3, (1, 2), 3, (2, 3), (3, 1)),
    ((2, 0), 2, (2, 0), 2, (3, 3), (2, 2)),
    ((0, 2), 2, (3, 0), 1, (1, 3), (3, 3)),
    ((3, 0), 1, (0, 2), 2, (3, 1), (1, 1)),
    ((1, 0), 3, (1, 0), 3, (2, 1), (3, 0)),
    ((2, 1), 2, (1, 2), 2, (3, 3), (2, 1)),
]


class _Gen:
    """Draws weights and entries in the formats protex parses."""

    def __init__(self, rng: random.Random, p: int):
        self.rng = rng
        self.p = p

    def weight(self):
        """None for a null direction, else a rational exponent q of g^q."""
        if self.rng.random() < 0.2:
            return None
        return Fraction(self.rng.randint(-3, 3), self.rng.choice([1, 1, 2]))

    def weights(self, dim: int) -> list:
        return [self.weight() for _ in range(dim)]

    def unit(self) -> int:
        u = 0
        while u % self.p == 0:
            u = self.rng.randint(1, 9)
        return -u if self.rng.random() < 0.5 else u

    def element(self, min_valuation=None) -> Fraction:
        """Random element of valuation at least ``min_valuation`` (any if None)."""
        low = -2 if min_valuation is None else min_valuation
        k = low + self.rng.randint(0, 2)
        return Fraction(self.unit()) * Fraction(self.p) ** k

    def entry(self, dom_w, cod_w) -> Fraction:
        """Entry from a basis vector of weight dom_w into one of weight cod_w,
        keeping |a| * cod_w <= dom_w (a map that is non-expanding there)."""
        if self.rng.random() < 0.25:
            return Fraction(0)
        if cod_w is None:
            return self.element()
        if dom_w is None:
            return Fraction(0)
        # |a| = g^(-v): need -v + cod_w <= dom_w
        need = cod_w - dom_w
        v = -((-need.numerator) // need.denominator)  # ceil
        return self.element(v)

    def nonexpanding(self, dom: list, cod: list) -> list:
        return [[self.entry(dw, cw) for dw in dom] for cw in cod]

    def vector(self, dim: int) -> list:
        return [Fraction(0) if self.rng.random() < 0.2 else self.element() for _ in range(dim)]


def _space(p: int, weights: list) -> dict:
    return {
        "field": {"padic": p},
        "weights": ["0" if w is None else f"g^{w}" for w in weights],
    }


def _map(p: int, dom: list, cod: list, rows: list) -> dict:
    return {
        "domain": _space(p, dom),
        "codomain": _space(p, cod),
        "matrix": [[str(x) for x in row] for row in rows],
    }


def _strict_epi(g: _Gen, z: int, extra: int):
    """[D | B] up to a column shuffle: D a diagonal of units, B non-expanding.

    The (z, 0) representative realises the quotient norm of every target
    vector, so the map is a strict epimorphism.
    """
    Z = g.weights(z)
    W = g.weights(extra)
    B = g.nonexpanding(W, Z)
    cols = [([g.unit() if r == c else 0 for r in range(z)], Z[c]) for c in range(z)]
    cols += [([B[r][c] for r in range(z)], W[c]) for c in range(extra)]
    g.rng.shuffle(cols)
    dom = [w for _, w in cols]
    rows = [[col[r] for col, _ in cols] for r in range(z)]
    return dom, Z, rows


def _strict_mono(g: _Gen, k: int, extra: int):
    """[D ; C] up to a row shuffle: an isometry onto its image."""
    K = g.weights(k)
    W = g.weights(extra)
    C = g.nonexpanding(K, W)
    rows = [([g.unit() if r == c else 0 for c in range(k)], K[r]) for r in range(k)]
    rows += [(C[r], W[r]) for r in range(extra)]
    g.rng.shuffle(rows)
    return K, [w for _, w in rows], [row for row, _ in rows]


def padic_inputs(seed: int, count: int = PADIC_CASES) -> list:
    """``count`` cases as JSON-ready dicts; a pure function of the seed."""
    rng = random.Random(f"padic-constructions:{seed}")
    cases = []
    for n in range(count):
        p = (2, 3)[n % 2]
        (z, ze), l, (k, ke), l2, (a, b), (s, ngens) = _SHAPES[(n // 2) % len(_SHAPES)]
        g = _Gen(rng, p)
        e_dom, Z, e_rows = _strict_epi(g, z, ze)
        L = g.weights(l)
        K, M, i_rows = _strict_mono(g, k, ke)
        L2 = g.weights(l2)
        A, Bw = g.weights(a), g.weights(b)
        S = g.weights(s)
        cases.append(
            {
                "epi": _map(p, e_dom, Z, e_rows),
                "along": _map(p, L, Z, g.nonexpanding(L, Z)),
                "mono": _map(p, K, M, i_rows),
                "push_along": _map(p, K, L2, g.nonexpanding(K, L2)),
                "map": _map(p, A, Bw, g.nonexpanding(A, Bw)),
                "space": _space(p, S),
                "generators": [[str(x) for x in g.vector(s)] for _ in range(ngens)],
                "vector": [str(x) for x in g.vector(s)],
            }
        )
    return cases


# ---------------------------------------------------------------------------
# One repetition, inside a fresh interpreter
# ---------------------------------------------------------------------------


class Outcome:
    """What a repetition did: per-case work-clock spans, digests and failures."""

    def __init__(self):
        self.case_spans: list = []  # [start, end] on calib.work_time
        self.digests: list[str] = []
        self.failures: list = []  # [case index, message]

    def close_case(self, start: float) -> None:
        self.case_spans.append([start, calib.work_time()])

    def fail(self, case: int, message: str) -> None:
        self.failures.append([case, message])

    def as_dict(self) -> dict:
        return {
            "case_spans": self.case_spans,
            "digests": self.digests,
            "failures": self.failures,
        }


def prepare(workload: str, seed: int):
    """Set-up inside the repetition: import the program, parse inputs."""
    import protex.cli  # noqa: F401  (the command every workload but one drives)

    if workload != "padic-constructions":
        return None
    return parse_padic(padic_inputs(seed))


def parse_padic(cases: list) -> list:
    """The generated cases as protex objects, through the input parsers."""
    from protex import serialize as ser

    parsed = []
    for c in cases:
        space = ser.parse_space(c["space"])
        parsed.append(
            (
                ser.parse_map(c["epi"]),
                ser.parse_map(c["along"]),
                ser.parse_map(c["mono"]),
                ser.parse_map(c["push_along"]),
                ser.parse_map(c["map"]),
                space,
                [ser.parse_vector(v, space) for v in c["generators"]],
                ser.parse_vector(c["vector"], space),
            )
        )
    return parsed


def _cli(argv: list) -> int:
    # looked up at call time, so a traced run sees the wrapped entry point
    import protex.cli

    return protex.cli.main(argv)


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return short_digest(handle.read())


def run_audit(out: Outcome) -> int:
    t0 = calib.work_time()
    code = _cli(["audit", "--instance", "instance.json", "--obscure", "--output", "report.json"])
    out.close_case(t0)
    return code


def check_audit(out: Outcome, code: int) -> None:
    if code != 0:
        out.fail(0, f"audit exited {code}")
        out.digests.append("")
        return
    out.digests.append(_file_digest("report.json"))


def run_precover_sweep(out: Outcome) -> list:
    codes = []
    for k in range(len(SWEEP_OBJECTS)):
        t0 = calib.work_time()
        code = _cli(
            [
                "factor", "--instance", "instance.json", "--object", f"object_{k}.json",
                "--mode", "precover", "--output", f"factor_{k}.json",
            ]
        )
        if code == 0:
            with open(f"factor_{k}.json", encoding="utf-8") as handle:
                cert = json.load(handle)["result"]["certificate"]
            with open(f"cert_{k}.json", "w", encoding="utf-8") as handle:
                json.dump(cert, handle)
            vcode = _cli(
                ["verify-cert", "--instance", "instance.json", "--cert", f"cert_{k}.json",
                 "--output", f"verify_{k}.json"]
            )
        else:
            vcode = None
        out.close_case(t0)
        codes.append((code, vcode))
    return codes


def check_precover_sweep(out: Outcome, codes: list) -> None:
    for k, (code, vcode) in enumerate(codes):
        if code != 0 or vcode != 0:
            out.fail(k, f"factor exited {code}, verify-cert exited {vcode}")
            out.digests.append("")
            continue
        with open(f"factor_{k}.json", encoding="utf-8") as handle:
            factor = json.load(handle)["result"]
        with open(f"verify_{k}.json", encoding="utf-8") as handle:
            verify = json.load(handle)["result"]
        if factor.get("hom_surjective") is not True:
            out.fail(k, "precover not hom-surjective")
        if verify.get("replayed") is not True:
            out.fail(k, "certificate did not replay")
        out.digests.append(_file_digest(f"factor_{k}.json") + _file_digest(f"verify_{k}.json"))


def run_padic(out: Outcome, parsed: list) -> list:
    from protex import constructions as con
    from protex import ortho

    results = []
    for epi, along, mono, push_along, f, space, gens, v in parsed:
        t0 = calib.work_time()
        try:
            pb = con.pullback(epi, along)
            c_p2 = con.classify_morphism(pb.p2)
            po = con.pushout(mono, push_along)
            c_j2 = con.classify_morphism(po.j2)
            ker = con.kernel(f)
            cok = con.cokernel(f)
            c_f = con.classify_morphism(f)
            q = ortho.quotient_norm(ortho.orthogonalize(space, gens), v)
        except Exception as exc:  # a failed case counts against error_rate
            out.close_case(t0)
            results.append(exc)
            continue
        out.close_case(t0)
        results.append((c_p2, c_j2, ker, cok, c_f, q, v))
    return results


def check_padic(out: Outcome, results: list) -> None:
    from protex import serialize as ser
    from protex.scalars import format_magnitude
    from protex.spaces import norm

    for n, r in enumerate(results):
        if isinstance(r, Exception):
            out.fail(n, f"{type(r).__name__}: {r}")
            out.digests.append("")
            continue
        c_p2, c_j2, ker, cok, c_f, q, v = r
        if not c_p2.strict_epi:
            out.fail(n, "pullback of a strict epi is not a strict epi")
        if not c_j2.strict_mono:
            out.fail(n, "pushout of a strict mono is not a strict mono")
        if q > norm(v):
            out.fail(n, "quotient norm exceeds the norm")
        record = {
            "p2": c_p2.as_dict(),
            "j2": c_j2.as_dict(),
            "map": c_f.as_dict(),
            "kernel": ser.map_to_json(ker[1]),
            "cokernel": ser.map_to_json(cok[1]),
            "quotient_norm": format_magnitude(q),
        }
        out.digests.append(short_digest(canonical(record)))


def run(workload: str, parsed, out: Outcome):
    """The timed section; returns what :func:`check` needs."""
    if workload in ("audit-finvec", "audit-pointed"):
        return run_audit(out)
    if workload == "precover-sweep":
        return run_precover_sweep(out)
    return run_padic(out, parsed)


def check(workload: str, out: Outcome, raw) -> None:
    """Digests and for-any-seed facts, after the timed section."""
    if workload in ("audit-finvec", "audit-pointed"):
        check_audit(out, raw)
    elif workload == "precover-sweep":
        check_precover_sweep(out, raw)
    else:
        check_padic(out, raw)


WORKLOADS = ("audit-finvec", "precover-sweep", "padic-constructions", "audit-pointed")


def case_count(workload: str) -> int:
    """Cases in one repetition."""
    if workload == "precover-sweep":
        return len(SWEEP_OBJECTS)
    if workload == "padic-constructions":
        return PADIC_CASES
    return 1
