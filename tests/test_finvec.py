import itertools

import pytest

from protex import constructions as con
from protex import ortho
from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    FinWeightedVec,
    PrimeField,
    WeightedSpace,
    classify_morphism,
    norm,
    operator_norm,
    quotient_norm,
    orthogonalize,
    parse_magnitude,
    rank_one,
    vector,
)
from protex.errors import InvariantViolation
from protex.scalars import PAdicRationals

F2 = PrimeField(2)
E0, E1, E2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)


class TestEnumeration:
    def test_objects_are_canonical(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        objs = C.objects()
        assert len(objs) == 1 + 2 + 3
        assert all(tuple(sorted(o.weights, reverse=True)) == o.weights for o in objs)

    def test_requires_prime_field_and_weights(self):
        with pytest.raises(InvariantViolation):
            FinWeightedVec(PAdicRationals(2), (E0,), max_dim=1)
        with pytest.raises(InvariantViolation):
            FinWeightedVec(F2, (), max_dim=1)

    def test_repeated_weight_is_refused(self):
        with pytest.raises(InvariantViolation, match="weights: g\\^0 is listed twice"):
            FinWeightedVec(F2, (E0, E1, E0), max_dim=1)
        with pytest.raises(InvariantViolation, match="weights: g\\^1 is listed twice"):
            FinWeightedVec(F2, (E1, parse_magnitude("g^2/2")), max_dim=1)

    def test_hom_set_counts(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        low, high = rank_one(F2, E0), rank_one(F2, E1)
        # scalars of norm at most g^0 into weight g^1: only zero
        assert len(C.morphisms(low, high)) == 1
        # the other direction admits both scalars
        assert len(C.morphisms(high, low)) == 2
        X = WeightedSpace(F2, (E1, E0))
        assert len(C.morphisms(X, X)) == 2 * 4  # columns: 2 then 4 options

    def test_all_maps_are_valid_morphisms(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        for X in C.objects():
            for Y in C.objects():
                maps = C.morphisms(X, Y)
                assert len(set(maps)) == len(maps)
                for f in maps:
                    assert operator_norm(f) <= MAG_ONE

    def test_caches_are_per_instance(self):
        first = FinWeightedVec(F2, (E0, E1), max_dim=2)
        for X in first.objects():
            for Y in first.objects():
                first.morphisms(X, Y)
        fresh = FinWeightedVec(F2, (E0, E1), max_dim=2)
        assert vars(fresh).get("_memo_tables", {}) == {}
        # the memo tables are no fields
        assert first == fresh and hash(first) == hash(fresh) and repr(first) == repr(fresh)
        X = WeightedSpace(F2, (E1, E0))
        homs = fresh.morphisms(X, X)
        assert homs == first.morphisms(X, X) and homs is not first.morphisms(X, X)
        assert fresh.morphisms(X, X) is homs
        # the caches take no part in the instance's value
        assert fresh == first and hash(fresh) == hash(first) and repr(fresh) == repr(first)


class TestBruteQuotient:
    def test_trivial_cases(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        X = WeightedSpace(F2, (E0, E0))
        m = vector(X, (1, 0))
        assert C.brute_quotient_norm([], m) == norm(m)
        assert C.brute_quotient_norm([m], m) == MAG_ZERO

    def test_worked_example(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        X = WeightedSpace(F2, (E0, E0))
        assert C.brute_quotient_norm([vector(X, (1, 1))], vector(X, (1, 0))) == E0

    def test_matches_algorithm_on_dim3(self):
        C = FinWeightedVec(F2, (E0, E1, E2), max_dim=3)
        space = WeightedSpace(F2, (E2, E1, E0))
        for gens in C.subspaces(space):
            basis = orthogonalize(space, list(gens))
            for m in C.vectors(space):
                assert quotient_norm(basis, m) == C.brute_quotient_norm(list(gens), m)


class TestSemiNormedInstance:
    def test_zero_weights_supported(self):
        C = FinWeightedVec(F2, (E0, MAG_ZERO), max_dim=2)
        objs = C.objects()
        assert any(MAG_ZERO in o.weights for o in objs)
        for X in objs:
            for Y in objs:
                for f in C.morphisms(X, Y):
                    record = classify_morphism(f)  # must not raise
                    if record.iso:
                        assert record.strict_mono and record.strict_epi


def definitional_strictness(f):
    """Strict flags of f straight from the definitions, over the finite vector sets.

    Strict mono: injective and norm-preserving.  Strict epi: surjective, and
    every y has a preimage of norm norm(y) (the minimum over preimages is
    the quotient norm).  Iso: bijective and norm-preserving.  Only map
    application and ``norm`` are used.
    """
    p = f.domain.field.p
    best = {}  # image -> least preimage norm
    isometric = True
    for coords in itertools.product(range(p), repeat=f.domain.dim):
        v = vector(f.domain, coords)
        y = f.apply(v)
        isometric = isometric and norm(y) == norm(v)
        if y not in best or norm(v) < best[y]:
            best[y] = norm(v)
    injective = len(best) == p ** f.domain.dim
    surjective = len(best) == p ** f.codomain.dim
    strict_mono = injective and isometric
    strict_epi = surjective and all(n == norm(y) for y, n in best.items())
    return strict_mono, strict_epi, strict_mono and surjective


class TestDefinitionalStrictness:
    @pytest.mark.parametrize(
        "p, weights",
        [(2, (E0, E1, E2)), (3, (E0, E1)), (2, (E0, MAG_ZERO))],
    )
    def test_strictness_matches_brute_force(self, monkeypatch, p, weights):
        C = FinWeightedVec(PrimeField(p), weights, max_dim=2)
        maps = [f for X in C.objects() for Y in C.objects() for f in C.morphisms(X, Y)]
        with monkeypatch.context() as m:
            # the oracle must be independent of the (co)kernel machinery
            for name in ("kernel", "cokernel", "orthogonalize"):
                m.setattr(con, name, _forbidden)
            m.setattr(ortho, "orthogonalize", _forbidden)
            expected = [definitional_strictness(f) for f in maps]
        got = [(C.strictness(f).strict_mono, C.strictness(f).strict_epi, C.is_iso(f)) for f in maps]
        assert got == expected
        assert len({flags[:2] for flags in expected}) == 4  # every strictness combination occurs


def _forbidden(*args, **kwargs):
    raise AssertionError("the definitional oracle used the algorithmic machinery")
