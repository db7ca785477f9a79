"""Differential check of the indexed lifting search against the plain double loop.

The reference functions below scan every (top, bottom) pair of every
generator, compare ``r o u`` with ``v o g`` and look for a filler by
trying each ``d`` in turn.  ``factor_map`` and ``has_rlp`` both read the
one search ``_first_problem``; they must agree with the references on the
first problem, the square counts, the witnesses and the budget at which
``BudgetExceeded`` fires.  A failing ``has_rlp`` names the problem that
``factor_map`` attaches first.
"""

import json
from collections import Counter

import pytest

from protex import factorization as fz
from protex import FinPointedSet, FinWeightedVec, GeneratingSet, has_rlp
from protex.category import Budget, RlpResult, _first_problem, admissible_monos
from protex.errors import BudgetExceeded, FuelExhausted
from protex.scalars import MAG_ONE, Magnitude, PrimeField
from protex.spaces import WeightedSpace


def reference_lift(C, g, u, r, v):
    for d in C.morphisms(C.cod(g), C.dom(r)):
        if C.compose(d, g) == u and C.compose(r, d) == v:
            return True
    return False


def reference_first_problem(C, r, generators, budget):
    W, Y = C.dom(r), C.cod(r)
    problems = []
    for a, g in enumerate(generators):
        A, B = C.dom(g), C.cod(g)
        for u in C.morphisms(A, W):
            ru = C.compose(r, u)
            for v in C.morphisms(B, Y):
                if ru != C.compose(v, g):
                    continue
                budget.tick()
                if reference_lift(C, g, u, r, v):
                    continue
                order = [json.dumps(C.describe_morphism(m), sort_keys=True) for m in (u, v)]
                problems.append((a, *order, u, v))
    if not problems:
        return None
    problems.sort(key=lambda item: item[:3])
    a, _, _, u, v = problems[0]
    return a, u, v


def reference_has_rlp(C, f, against):
    budget = Budget(None, "lifting")
    problem = reference_first_problem(C, f, against, budget)
    if problem is None:
        return RlpResult(True, None, budget.used)
    a, u, v = problem
    witness = {
        "generator": C.describe_morphism(against[a]),
        "top": C.describe_morphism(u),
        "bottom": C.describe_morphism(v),
    }
    return RlpResult(False, witness, budget.used)


INSTANCES = {
    "finvec": FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2),
    "pointed": FinPointedSet(max_size=2),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def universe(request):
    C = INSTANCES[request.param]
    return C, GeneratingSet.of(C, admissible_monos(C))


def maps_to_factor(C):
    zero = C.zero_object()
    for X in C.objects():
        yield C.zero_morphism(zero, X)  # precover
        yield C.zero_morphism(X, zero)  # special preenvelope


def test_first_problem_matches_reference(universe):
    C, G = universe
    for f in maps_to_factor(C):
        used_ref, used = Budget(None, "lifting"), Budget(None, "lifting")
        expected = reference_first_problem(C, f, G.generators, used_ref)
        assert _first_problem(C, f, G.generators, used) == expected
        assert used.used == used_ref.used


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
    G = GeneratingSet.of(C, [])
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
        if not result.ok:
            failures += 1
            # the witness is the problem that factor_map attaches first
            try:
                cert = fz.factor_map(C, f, G, fuel=1)
            except FuelExhausted as exc:
                cert = exc.certificate
            step = cert.steps[0]
            generator = G.generators[step.generator_index]
            assert result.witness["generator"] == C.describe_morphism(generator)
            assert result.witness["top"] == C.describe_morphism(step.attach)
        n = result.squares_checked
        with pytest.raises(BudgetExceeded):
            has_rlp(C, f, G.generators, budget=n - 1)
        assert has_rlp(C, f, G.generators, budget=n) == result
    assert failures > 0  # the witnesses were compared, not just the passes


def test_shared_composites_match_reference_on_reordered_generators(universe, monkeypatch):
    """The generators reversed, with one listed twice: every generator end and one
    v o g bucket are then read by more than one search of a round."""
    C, G = universe
    gens = G.generators[::-1]
    H = GeneratingSet.of(C, (*gens, gens[len(gens) // 2]))
    for f in maps_to_factor(C):
        used_ref, used = Budget(None, "lifting"), Budget(None, "lifting")
        expected = reference_first_problem(C, f, H.generators, used_ref)
        assert _first_problem(C, f, H.generators, used) == expected
        assert used.used == used_ref.used
        cert = fz.factor_map(C, f, H)
        if cert.steps:
            with monkeypatch.context() as m:
                m.setattr(fz, "_first_problem", reference_first_problem)
                assert fz.factor_map(C, f, H) == cert
        with pytest.raises(BudgetExceeded):
            fz.factor_map(C, f, H, budget=cert.problems_checked - 1)
    for f in rlp_targets(C):
        assert has_rlp(C, f, H.generators) == reference_has_rlp(C, f, H.generators)


def test_no_composite_is_computed_twice(monkeypatch):
    """A precover composes each r o x once per round and each v o g once per instance.

    A round is one ``_first_problem`` call, with its right leg r: W -> Y;
    the precover of X keeps Y = X, so v o g is a pair (v, g) with cod v = X.
    """
    C = FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2)
    G = GeneratingSet.of(C, admissible_monos(C))
    X = WeightedSpace(C.field, (MAG_ONE, MAG_ONE))
    rounds, current = [], []
    first_problem, compose = fz._first_problem, FinWeightedVec.compose

    def round_of(C, r, generators, budget):
        rounds.append((r, []))
        current.append(rounds[-1][1])
        try:
            return first_problem(C, r, generators, budget)
        finally:
            current.pop()

    def record(self, a, b):
        if current:
            current[-1].append((a, b))
        return compose(self, a, b)

    monkeypatch.setattr(fz, "_first_problem", round_of)
    monkeypatch.setattr(FinWeightedVec, "compose", record)
    assert len(fz.precover(C, X, G).certificate.steps) == 4
    assert len(rounds) == 5
    gens = set(G.generators)
    for r, calls in rounds:
        assert C.cod(r) == X and C.dom(r) != X
        after_r = Counter(x for a, x in calls if a == r)
        # where W = cod g, r o g is also the bottom v o g with v = r: once more, once per instance
        assert after_r and all(n == 1 or (n == 2 and x in gens) for x, n in after_r.items())
    bottoms = [
        (a, b) for r, calls in rounds for a, b in calls if b in gens and C.cod(a) == X and a != r
    ]
    assert bottoms and len(set(bottoms)) == len(bottoms)
