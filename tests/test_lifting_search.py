"""Differential check of the indexed lifting search against the plain double loop.

The reference functions below scan every (top, bottom) pair of every
generator, compare ``r o u`` with ``v o g`` and look for a filler by
trying each ``d`` in turn.  ``factor_map`` and ``has_rlp`` must agree with
them on the first problem, the square counts, the witnesses and the
budget at which ``BudgetExceeded`` fires.
"""

import json

import pytest

from protex import factorization as fz
from protex import FinPointedSet, FinWeightedVec, GeneratingSet, has_rlp
from protex.category import RlpResult, admissible_monos
from protex.errors import BudgetExceeded
from protex.scalars import MAG_ONE, Magnitude, PrimeField


def reference_lift(C, g, u, r, v):
    for d in C.morphisms(C.cod(g), C.dom(r)):
        if C.compose(d, g) == u and C.compose(r, d) == v:
            return True
    return False


def reference_first_problem(C, r, G, budget, used):
    W, Y = C.dom(r), C.cod(r)
    problems = []
    for a, g in enumerate(G.generators):
        A, B = C.dom(g), C.cod(g)
        for u in C.morphisms(A, W):
            ru = C.compose(r, u)
            for v in C.morphisms(B, Y):
                if ru != C.compose(v, g):
                    continue
                used[0] += 1
                if budget is not None and used[0] > budget:
                    raise BudgetExceeded(f"lifting budget {budget} exceeded")
                if reference_lift(C, g, u, r, v):
                    continue
                order = [json.dumps(C.describe_morphism(m), sort_keys=True) for m in (u, v)]
                problems.append((a, *order, u, v))
    if not problems:
        return None
    problems.sort(key=lambda item: item[:3])
    a, _, _, u, v = problems[0]
    return a, u, v


def reference_has_rlp(C, f, against, budget=None):
    checked = 0
    X, Y = C.dom(f), C.cod(f)
    for g in against:
        decided, ok = C.solve_rlp(f, g)
        if decided:
            checked += 1
            if not ok:
                return RlpResult(False, {"generator": C.describe_morphism(g)}, checked)
            continue
        A, B = C.dom(g), C.cod(g)
        for u in C.morphisms(A, X):
            ru = C.compose(f, u)
            for v in C.morphisms(B, Y):
                if ru != C.compose(v, g):
                    continue
                checked += 1
                if budget is not None and checked > budget:
                    raise BudgetExceeded(f"lifting budget {budget} exceeded")
                if not reference_lift(C, g, u, f, v):
                    witness = {
                        "generator": C.describe_morphism(g),
                        "top": C.describe_morphism(u),
                        "bottom": C.describe_morphism(v),
                    }
                    return RlpResult(False, witness, checked)
    return RlpResult(True, None, checked)


INSTANCES = {
    "finvec": FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2),
    "pointed": FinPointedSet(max_size=2),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def universe(request):
    C = INSTANCES[request.param]
    return C, GeneratingSet.of(C, "all-admissible-monos", admissible_monos(C))


def maps_to_factor(C):
    zero = C.zero_object()
    for X in C.objects():
        yield C.zero_morphism(zero, X)  # precover
        yield C.zero_morphism(X, zero)  # special preenvelope


def test_first_problem_matches_reference(universe):
    C, G = universe
    for f in maps_to_factor(C):
        used_ref, used = [0], [0]
        expected = reference_first_problem(C, f, G, None, used_ref)
        assert fz._first_problem(C, f, G, None, used) == expected
        assert used == used_ref


def test_factor_map_matches_reference(universe, monkeypatch):
    C, G = universe
    steps = 0
    for f in maps_to_factor(C):
        cert = fz.factor_map(C, f, G)
        steps += len(cert.steps)
        if cert.steps:  # a step-free run is one first-problem search, compared above
            with monkeypatch.context() as m:
                m.setattr(fz, "_first_problem", reference_first_problem)
                assert fz.factor_map(C, f, G) == cert
        n = cert.problems_checked
        assert n > 0
        with pytest.raises(BudgetExceeded):
            fz.factor_map(C, f, G, budget=n - 1)
        assert fz.factor_map(C, f, G, budget=n) == cert
    assert steps > 0


def test_empty_generating_set_never_exceeds_budget(universe):
    C, _ = universe
    G = GeneratingSet.of(C, "empty", [])
    f = C.identity(C.zero_object())
    assert fz.factor_map(C, f, G, budget=-1).problems_checked == 0


def rlp_targets(C):
    objects = C.objects()
    for X in objects:
        yield C.identity(X)
        yield C.zero_morphism(X, C.zero_object())
        yield C.zero_morphism(C.zero_object(), X)
    if isinstance(C, FinPointedSet):
        for X in objects:
            for Y in objects:
                yield from C.morphisms(X, Y)


def test_has_rlp_matches_reference(universe):
    C, G = universe
    failures = 0
    for f in rlp_targets(C):
        expected = reference_has_rlp(C, f, G.generators)
        result = has_rlp(C, f, G.generators)
        assert result == expected
        failures += not result.ok
        n = result.squares_checked
        with pytest.raises(BudgetExceeded):
            has_rlp(C, f, G.generators, budget=n - 1)
        assert has_rlp(C, f, G.generators, budget=n) == result
    assert failures > 0  # the witnesses were compared, not just the passes
