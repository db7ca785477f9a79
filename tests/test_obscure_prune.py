"""Differential check of the pruned obscure audits against the plain double loops.

The reference functions below compose and classify every pair (i, j) whose
first factor is not a strict mono (left) or whose second factor is not a
strict epi (right).  The audit skips the factors that are not even a mono
(an epi), since no composite through them can be a strict mono (a strict
epi); it must still agree with the reference on verdicts, witnesses, the
number of budget ticks and where ``BudgetExceeded`` fires.  The skip rests
on ``is_mono``/``is_epi``, which are checked here against their definition.
"""

import pytest

from protex import FinPointedSet, FinWeightedVec, WeightedSpace
from protex import finvec as finvec_module
from protex.category import (
    AuditEntry,
    Budget,
    Strictness,
    _obscure_cases,
    _Opposite,
    _scan,
    _witness,
    audit_obscure,
)
from protex.errors import BudgetExceeded
from protex.scalars import MAG_ONE, Magnitude, PrimeField


def reference_left(C, objs, counter):
    for Y in objs:
        for X in objs:
            for i in C.morphisms(X, Y):
                if C.strictness(i).strict_mono:
                    continue
                for Z in objs:
                    for j in C.morphisms(Y, Z):
                        counter.tick()
                        if C.strictness(C.compose(j, i)).strict_mono:
                            return AuditEntry(
                                "left_obscure", "fail", _witness(C, first=i, second=j)
                            )
    return AuditEntry("left_obscure", "pass")


def reference_right(C, objs, counter):
    for Y in objs:
        for Z in objs:
            for e in C.morphisms(Y, Z):
                if C.strictness(e).strict_epi:
                    continue
                for X in objs:
                    for j in C.morphisms(X, Y):
                        counter.tick()
                        if C.strictness(C.compose(e, j)).strict_epi:
                            return AuditEntry(
                                "right_obscure", "fail", _witness(C, second=e, first=j)
                            )
    return AuditEntry("right_obscure", "pass")


def audit_left(C, objs, counter):
    return _scan("left_obscure", counter, _obscure_cases(C, objs, ("first", "second")))


def audit_right(C, objs, counter):
    """The right audit: the left one run on the opposite category."""
    return _scan("right_obscure", counter, _obscure_cases(_Opposite(C), objs, ("second", "first")))


SIDES = [(audit_left, reference_left), (audit_right, reference_right)]


def finvec():
    return FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2)


INSTANCES = {
    "finvec": finvec(),
    "pointed": FinPointedSet(max_size=3),
}
MAP_COUNTS = {"finite-weighted-vec": 153, "finite-pointed-sets": 144}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]


def all_maps(C):
    objs = C.objects()
    return [f for X in objs for Y in objs for f in C.morphisms(X, Y)]


@pytest.mark.parametrize("audit, reference", SIDES)
def test_each_side_matches_reference(instance, audit, reference):
    C = instance
    objs = C.objects()
    ref_counter, counter = Budget(None, "audit"), Budget(None, "audit")
    assert audit(C, objs, counter) == reference(C, objs, ref_counter)
    assert counter.used == ref_counter.used > 0


def test_audit_obscure_matches_reference_and_budget(instance):
    C = instance
    objs = C.objects()
    counter = Budget(None, "audit")
    left = reference_left(C, objs, counter)
    right = reference_right(C, objs, counter)
    report = audit_obscure(C)
    assert report.entry("left_obscure") == left
    assert report.entry("right_obscure") == right
    if isinstance(C, FinPointedSet):
        # the right obscure axiom fails, so its witness is compared too
        assert right.verdict == "fail" and right.witness is not None
    n = counter.used
    with pytest.raises(BudgetExceeded):
        audit_obscure(C, budget=n - 1)
    assert audit_obscure(C, budget=n).entries == report.entries


class LyingFinVec(FinWeightedVec):
    """Also reports the monos into LOW and the epis out of HIGH as strict.

    Strict still implies plain, so the skip stays sound, but both obscure
    axioms now fail, and only at pairs whose factor is a mono (an epi): the
    audit must compose those and report the reference's witness.
    """

    def strictness(self, f):
        s = super().strictness(f)
        return Strictness(
            s.strict_mono or (f.codomain == LOW and self.is_mono(f)),
            s.strict_epi or (f.domain == HIGH and self.is_epi(f)),
        )


LOW = WeightedSpace(PrimeField(2), (MAG_ONE, MAG_ONE))
HIGH = WeightedSpace(PrimeField(2), (Magnitude.of(1), Magnitude.of(1)))


@pytest.mark.parametrize("audit, reference", SIDES)
def test_failing_pairs_past_the_skip_are_found(audit, reference):
    C = LyingFinVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2)
    objs = C.objects()
    ref_counter, counter = Budget(None, "audit"), Budget(None, "audit")
    expected = reference(C, objs, ref_counter)
    assert expected.verdict == "fail"
    assert audit(C, objs, counter) == expected
    assert counter.used == ref_counter.used


def outcome(audit, C, objs, budget):
    try:
        counter = Budget(budget, "audit")
        return audit(C, objs, counter), counter.used
    except BudgetExceeded as exc:
        return "raised", str(exc)


# (cap, budget): at (2, 32) and (4, 350) the audit budget runs out while
# a skipped factor is charged, before a later hom-set of it hits the cap
@pytest.mark.parametrize(
    "cap, budget",
    [(2, 32), (4, None), (4, 0), (4, 200), (4, 350), (4, 1000), (16, None), (16, 200)],
)
@pytest.mark.parametrize("audit, reference", SIDES)
def test_hom_cap_and_budget_fire_in_reference_order(monkeypatch, audit, reference, cap, budget):
    # each side gets fresh instances, so the hom-set cap fires on first enumeration;
    # the 6 objects are listed before the cap is lowered, since it bounds them too
    objs = finvec().objects()
    assert len(objs) == 6
    monkeypatch.setattr(finvec_module, "ENUMERATION_CAP", cap)
    expected = outcome(reference, finvec(), objs, budget)
    assert outcome(audit, finvec(), objs, budget) == expected


def test_is_mono_and_is_epi_match_their_definition(instance):
    """f mono iff a -> f o a is injective on every Hom(W, dom f); dually for epis."""
    C = instance
    objs = C.objects()
    maps = all_maps(C)
    for f in maps:
        X, Y = C.dom(f), C.cod(f)
        post = all(
            len({C.compose(f, a) for a in C.morphisms(W, X)}) == len(C.morphisms(W, X))
            for W in objs
        )
        pre = all(
            len({C.compose(b, f) for b in C.morphisms(Y, W)}) == len(C.morphisms(Y, W))
            for W in objs
        )
        assert C.is_mono(f) == post
        assert C.is_epi(f) == pre
    assert any(not C.is_mono(f) for f in maps) and any(not C.is_epi(f) for f in maps)
    assert len(maps) == MAP_COUNTS[C.name]


def test_strict_implies_plain(instance):
    C = instance
    for f in all_maps(C):
        s = C.strictness(f)
        assert not s.strict_mono or C.is_mono(f)
        assert not s.strict_epi or C.is_epi(f)


def test_skipped_factors_compose_nothing(monkeypatch):
    """On pointed sets every mono is strict, so the left audit composes no pair."""
    C = FinPointedSet(max_size=3)
    calls = []
    original = FinPointedSet.compose
    monkeypatch.setattr(
        FinPointedSet, "compose", lambda self, g, f: calls.append(1) or original(self, g, f)
    )
    assert audit_left(C, C.objects(), Budget(None, "audit")).verdict == "pass"
    assert calls == []
