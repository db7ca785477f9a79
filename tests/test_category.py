import random
from collections import Counter
from fractions import Fraction

import pytest

import proptools
from protex import (
    MAG_ONE,
    Magnitude,
    PAdicRationals,
    PrimeField,
    ShortExactSequence,
    WeightedModuleCategory,
    WeightedSpace,
    audit_axioms,
    audit_obscure,
    biproduct,
    bounded_map,
    classify_morphism,
    classify_strictness,
    compose,
    has_rlp,
    identity_between,
    identity_map,
    is_injective_object,
    rescale,
    validate_ses,
    zero_map,
)
from protex import FinPointedSet, FinWeightedVec
from protex import constructions as con
from protex import linalg
from protex.category import LiftingSearch, Strictness, admissible_monos
from protex.errors import BudgetExceeded, NotComposable, SolverUnavailable
from protex.pointed_sets import PointedMap, PointedSet
from proptools import random_nonexpanding_map, random_strict_epi, random_strict_mono
from protex.randgen import random_space

Q2 = PAdicRationals(2)
F2 = PrimeField(2)
E0, E1, E2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)
CW = WeightedModuleCategory(Q2)


class TestClassifyStrictness:
    def test_identity_is_both(self):
        X = WeightedSpace(Q2, (E0, E1))
        s = classify_strictness(CW, identity_map(X))
        assert s.label == "both"

    def test_map_to_zero_is_strict_epi(self):
        X = WeightedSpace(Q2, (E0,))
        f = zero_map(X, CW.zero_object())
        assert classify_strictness(CW, f).strict_epi

    def test_pointed_collapse_is_neither(self):
        # collapse of all non-base elements: an epi that is not strict
        C = FinPointedSet(4)
        Y, X = PointedSet(2), PointedSet(1)
        g = PointedMap(Y, X, (0, 1, 1))
        s = classify_strictness(C, g)
        assert s.label == "neither"

    def test_agrees_with_native_weighted(self):
        rng = random.Random(88)
        for _ in range(120):
            X = random_space(Q2, rng, 3, allow_null=True)
            Y = random_space(Q2, rng, 3, allow_null=True)
            f = random_nonexpanding_map(X, Y, rng)
            record = classify_morphism(f)
            s = classify_strictness(CW, f)
            assert s.strict_mono == record.strict_mono
            assert s.strict_epi == record.strict_epi
            assert CW.strictness(f) == s

    def test_agrees_with_native_on_finvec(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        for X in C.objects():
            for Y in C.objects():
                for f in C.morphisms(X, Y):
                    s = classify_strictness(C, f)
                    record = classify_morphism(f)
                    assert (s.strict_mono, s.strict_epi) == (
                        record.strict_mono,
                        record.strict_epi,
                    )
                    assert C.strictness(f) == s

    def test_instance_strictness_matches_classification_on_random_maps(self):
        # the maps the randomized law checkers draw, over Q_2 and Q_3
        rng = random.Random(41)
        for _ in range(60):
            field = proptools.random_field(rng)
            C = WeightedModuleCategory(field)
            X = random_space(field, rng, 3, allow_null=True)
            Y = random_space(field, rng, 3, allow_null=True)
            for f in (
                random_nonexpanding_map(X, Y, rng),
                random_strict_mono(field, rng, max_dim=3, allow_null=True),
                random_strict_epi(field, rng, max_dim=3, allow_null=True),
            ):
                record = classify_morphism(f)
                expected = Strictness(record.strict_mono, record.strict_epi)
                assert C.strictness(f) == expected
                assert C.strictness(f) == expected  # answered by the memo


class TestStrictnessMemo:
    def test_each_map_is_analysed_once_per_instance(self, monkeypatch):
        # the audits, the leg read-offs and the lift solver share one analysis per map
        runs = Counter()
        init = con._MapAnalysis.__init__

        def counted(self, f):
            runs[f] += 1
            init(self, f)

        monkeypatch.setattr(con._MapAnalysis, "__init__", counted)
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        assert audit_axioms(C, total=True).passed
        assert audit_obscure(C).passed
        for X in C.objects():
            is_injective_object(C, X)
        assert runs and max(runs.values()) == 1

    def test_is_mono_and_is_epi_read_the_memoized_rank(self, monkeypatch):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        maps = [f for X in C.objects() for Y in C.objects() for f in C.morphisms(X, Y)]
        ranks = [linalg.rank(F2, f.rows()) for f in maps]
        expected = [(r == f.domain.dim, r == f.codomain.dim) for r, f in zip(ranks, maps)]
        assert set(expected) == {(a, b) for a in (False, True) for b in (False, True)}
        for f in maps:
            C.strictness(f)
        calls = []
        rref = linalg.rref

        def counted(F, a):
            calls.append(a)
            return rref(F, a)

        monkeypatch.setattr(linalg, "rref", counted)
        assert [(C.is_mono(f), C.is_epi(f)) for f in maps] == expected
        assert calls == []

    def test_each_retraction_is_built_once_per_instance(self, monkeypatch):
        # the lift solver reads the retraction of each strict mono off its
        # analysis: one candidate per generator over the whole sweep
        built = []
        contraction = con._contraction

        def counted(domain, codomain, rows):
            built.append((domain, codomain))
            return contraction(domain, codomain, rows)

        monkeypatch.setattr(con, "_contraction", counted)
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        monos = admissible_monos(C)
        for X in C.objects():
            assert is_injective_object(C, X).ok
        assert len(monos) == len(built) == 31
        assert set(built) == {(g.codomain, g.domain) for g in monos}


class TestValidateSes:
    def test_biproduct_sequence(self):
        A = WeightedSpace(Q2, (E0,))
        B = WeightedSpace(Q2, (E2,))
        bp = biproduct([A, B])
        ses = ShortExactSequence(bp.injections[0], bp.projections[1])
        assert validate_ses(CW, ses).ok

    def test_identity_to_zero(self):
        A = WeightedSpace(Q2, (E0,))
        ses = ShortExactSequence(identity_map(A), zero_map(A, CW.zero_object()))
        assert validate_ses(CW, ses).ok

    def test_nonzero_composite_fails(self):
        A = WeightedSpace(Q2, (E0,))
        ses = ShortExactSequence(identity_map(A), identity_map(A))
        verdict = validate_ses(CW, ses)
        assert not verdict.ok and verdict.failing_clause == "compose_nonzero"

    def test_non_kernel_first_map_fails(self):
        A = WeightedSpace(Q2, (E0,))
        B = WeightedSpace(Q2, (E0, E0))
        bp = biproduct([A, A])
        f = zero_map(A, bp.space)
        verdict = validate_ses(CW, ShortExactSequence(f, bp.projections[1]))
        assert not verdict.ok and verdict.failing_clause == "first_map_not_kernel"

    def test_rescaled_projection_not_cokernel(self):
        A = WeightedSpace(Q2, (E0,))
        B = WeightedSpace(Q2, (E1,))
        bp = biproduct([A, B])
        shrunk = identity_between(B, rescale(B, Magnitude.of(-1)))
        g = CW.compose(shrunk, bp.projections[1])
        verdict = validate_ses(CW, ShortExactSequence(bp.injections[0], g))
        assert not verdict.ok and verdict.failing_clause == "second_map_not_cokernel"

    def test_noncomposable_raises(self):
        A = WeightedSpace(Q2, (E0,))
        B = WeightedSpace(Q2, (E1,))
        with pytest.raises(NotComposable):
            validate_ses(CW, ShortExactSequence(identity_map(A), identity_map(B)))


@pytest.mark.parametrize(
    "make", [lambda: FinPointedSet(2), lambda: FinWeightedVec(F2, (E0,), max_dim=2)], ids=["pointed", "finvec"]
)
def test_mismatched_legs_are_not_composable(make):
    """Identities of two different objects share no object to compose or glue along."""
    C = make()
    X, Y = C.objects()[1:3]
    f, g = C.identity(X), C.identity(Y)
    with pytest.raises(NotComposable):
        C.compose(g, f)
    with pytest.raises(NotComposable):
        C.pullback(f, g)
    with pytest.raises(NotComposable):
        C.pushout(f, g)


class TestUniversalProperties:
    def test_kernel_universal_property_enumerated(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=1)
        objs = C.objects()
        for X in objs:
            for Y in objs:
                for f in C.morphisms(X, Y):
                    K, k = C.kernel(f)
                    for T in objs:
                        for t in C.morphisms(T, X):
                            if not C.is_zero_morphism(C.compose(f, t)):
                                continue
                            v = C.factor_through_kernel(k, t)
                            assert v is not None
                            assert C.compose(k, v) == t

    def test_composition_laws_spot_checked(self):
        C = FinPointedSet(2)
        objs = C.objects()
        rng = random.Random(4)
        for _ in range(300):
            X, Y, Z, W = (rng.choice(objs) for _ in range(4))
            f = rng.choice(C.morphisms(X, Y))
            g = rng.choice(C.morphisms(Y, Z))
            h = rng.choice(C.morphisms(Z, W))
            assert C.compose(h, C.compose(g, f)) == C.compose(C.compose(h, g), f)
            assert C.compose(f, C.identity(X)) == f
            assert C.compose(C.identity(Y), f) == f


class TestAudits:
    def test_zero_category_passes_vacuously(self):
        C = FinPointedSet(0)
        assert audit_axioms(C, total=True).passed
        assert audit_obscure(C).passed

    def test_pointed_sets_proto_exact_but_not_right_total(self):
        C = FinPointedSet(2)
        report = audit_axioms(C, total=True)
        by_name = {e.axiom: e for e in report.entries}
        assert by_name["identity_admissible"].verdict == "pass"
        assert by_name["mono_composition"].verdict == "pass"
        assert by_name["epi_composition"].verdict == "pass"
        assert by_name["epi_pullback_along_mono"].verdict == "pass"
        assert by_name["mono_pushout_along_epi"].verdict == "pass"
        assert by_name["mono_pushout_total"].verdict == "pass"  # left total
        failure = by_name["epi_pullback_total"]
        assert failure.verdict == "fail" and failure.witness is not None

    def test_finvec_small_instance_fully_total(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        assert audit_axioms(C, total=True).passed
        assert audit_obscure(C).passed

    def test_budget_exceeded(self):
        from protex.errors import BudgetExceeded

        C = FinPointedSet(2)
        with pytest.raises(BudgetExceeded):
            audit_axioms(C, total=True, budget=5)

    @pytest.mark.parametrize(
        "make, total, n",
        [
            (lambda: FinPointedSet(3), True, 2464),
            (lambda: FinPointedSet(3), False, 612),
            (lambda: FinWeightedVec(F2, (E0, E1), max_dim=2), True, 2180),
            (lambda: FinWeightedVec(F2, (E0, E1), max_dim=2), False, 646),
        ],
    )
    def test_budget_threshold(self, make, total, n):
        # n is the exact number of cases the audit charges; pins its tick order
        from protex.errors import BudgetExceeded

        C = make()
        report = audit_axioms(C, total=total)
        assert audit_axioms(C, total=total, budget=n).entries == report.entries
        with pytest.raises(BudgetExceeded):
            audit_axioms(C, total=total, budget=n - 1)


class TestRlp:
    def test_empty_against_is_true(self):
        X = WeightedSpace(Q2, (E0,))
        f = identity_map(X)
        assert has_rlp(CW, f, []).ok

    def test_map_to_zero_against_zero_inclusions(self):
        C = FinPointedSet(3)
        X = PointedSet(2)
        f = C.zero_morphism(X, C.zero_object())
        G = PointedSet(2)
        incl = C.zero_morphism(C.zero_object(), G)
        assert has_rlp(C, f, [incl]).ok

    def test_pointed_collapse_has_rlp_against_its_section(self):
        C = FinPointedSet(3)
        X, Y = PointedSet(1), PointedSet(2)
        incl = PointedMap(X, Y, (0, 1))
        collapse = PointedMap(Y, X, (0, 1, 1))
        assert has_rlp(C, collapse, [incl]).ok

    def test_every_pointed_set_is_injective(self):
        C = FinPointedSet(2)
        for X in C.objects():
            assert is_injective_object(C, X).ok

    def test_every_bounded_finvec_object_is_injective(self):
        # the weighted shortcut decides each generator: one square each
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        monos = admissible_monos(C)
        for X in C.objects():
            f = C.zero_morphism(X, C.zero_object())
            result = is_injective_object(C, X)
            assert (result.ok, result.squares_checked) == (True, len(monos))
            # the shortcut's verdict, by enumerating every square
            for g in monos:
                search = LiftingSearch(C, g, f)
                assert all(search.lifts(u, v) for u, v in search.squares)

    def test_weighted_shortcut_decides_strict_mono_against_map_to_zero(self, monkeypatch):
        def unused(f):
            raise AssertionError("the shortcut reads the instance strictness")

        monkeypatch.setattr(con, "classify_morphism", unused)
        C = WeightedModuleCategory(Q2)
        rng = random.Random(5)
        for _ in range(20):
            g = random_strict_mono(Q2, rng, max_dim=3, allow_null=True)
            X = random_space(Q2, rng, 2, allow_null=True)
            result = has_rlp(C, zero_map(X, C.zero_object()), [g])
            assert (result.ok, result.squares_checked) == (True, 1)
            # correct: a retraction r exists, so u o r fills every square over 0
            r = con.retraction(g)
            assert r is not None and compose(r, g) == identity_map(g.domain)

    def test_decided_generators_are_charged_to_the_budget(self):
        C = WeightedModuleCategory(Q2)
        X = WeightedSpace(Q2, (E0,))
        f, against = zero_map(X, C.zero_object()), [identity_map(X)] * 3
        result = has_rlp(C, f, against)
        assert (result.ok, result.squares_checked) == (True, 3)
        with pytest.raises(BudgetExceeded, match="^lifting budget 2 exceeded$"):
            has_rlp(C, f, against, budget=2)
        assert has_rlp(C, f, against, budget=3) == result

    def test_weighted_shortcut_falls_through_for_non_strict_mono(self):
        C = WeightedModuleCategory(Q2)
        A, B = WeightedSpace(Q2, (E1,)), WeightedSpace(Q2, (E0,))
        g = bounded_map(A, B, [[1]])  # injective, but shrinks the norm
        assert not C.strictness(g).strict_mono
        with pytest.raises(SolverUnavailable):
            has_rlp(C, zero_map(B, C.zero_object()), [g])

    def test_weighted_instance_not_enumerable(self):
        X = WeightedSpace(Q2, (E0,))
        with pytest.raises(SolverUnavailable):
            CW.morphisms(X, X)
        # but the lift solver handles squares over the zero object
        gens = [identity_map(X)]
        f = zero_map(X, CW.zero_object())
        assert has_rlp(CW, f, gens).ok


class TestSplitImpliesAdmissibleWhereStrongObscureHolds:
    def test_finvec_split_maps_are_admissible(self):
        C = FinWeightedVec(F2, (E0, E1), max_dim=2)
        assert audit_obscure(C).passed
        objs = C.objects()
        for X in objs:
            for Y in objs:
                for f in C.morphisms(X, Y):
                    record = classify_morphism(f)
                    if record.split_mono:
                        assert record.strict_mono
                    if record.split_epi:
                        assert record.strict_epi

    def test_pointed_split_monos_admissible_epis_not(self):
        # left obscure holds so split monos are strict; split epis need not be
        C = FinPointedSet(2)
        found_nonstrict_split_epi = False
        for X in C.objects():
            for Y in C.objects():
                for f in C.morphisms(X, Y):
                    has_retr = any(
                        C.compose(r, f) == C.identity(X) for r in C.morphisms(Y, X)
                    )
                    has_sect = any(
                        C.compose(f, s) == C.identity(Y) for s in C.morphisms(Y, X)
                    )
                    if has_retr:
                        assert C.strictness(f).strict_mono
                    if has_sect and not C.strictness(f).strict_epi:
                        found_nonstrict_split_epi = True
        assert found_nonstrict_split_epi

    def test_every_pointed_epi_is_split(self):
        C = FinPointedSet(3)
        for X in C.objects():
            for Y in C.objects():
                for f in C.morphisms(X, Y):
                    if C.is_epi(f):
                        assert any(
                            C.compose(f, s) == C.identity(Y)
                            for s in C.morphisms(Y, X)
                        )


def test_rlp_generating_class_detects_admissible_epis():
    # morphisms with RLP against every admissible mono are admissible epis
    # (their kernels land in the right orthogonal, here everything)
    C = FinWeightedVec(F2, (E0, E1), max_dim=1)
    gens = admissible_monos(C)
    for X in C.objects():
        for Y in C.objects():
            for f in C.morphisms(X, Y):
                if has_rlp(C, f, gens).ok:
                    assert classify_morphism(f).strict_epi
