"""Differential check of the total square audits against the plain loops.

The total audits of ``audit_axioms`` skip the squares whose second leg is
a strict mono (pullbacks) or a strict epi (pushouts) when the restricted
audit passed, since those are its cases.  The reference below builds every
total case, as the audit did before the skip; verdicts, witnesses and the
budget threshold must agree, including on an instance whose restricted
audit fails, where nothing may be skipped.
"""

import pytest

from protex import FinPointedSet, FinWeightedVec, audit_axioms
from protex.category import (
    AuditEntry,
    Budget,
    Strictness,
    _composition_cases,
    _identity_cases,
    _maps,
    _scan,
    _witness,
)
from protex.errors import BudgetExceeded
from protex.pointed_sets import PointedMap, PointedSet
from protex.scalars import MAG_ONE, Magnitude, PrimeField

# (name, flag of the first leg, flag of the second leg when restricted, corner)
PULLBACK = ("epi_pullback", "strict_epi", "strict_mono", "into")
PUSHOUT = ("mono_pushout", "strict_mono", "strict_epi", "source")


def reference_squares(C, objs, counter, side, total):
    name, flag, along, end = side
    cases = []
    for Z in objs:
        others = _maps(C, objs, None if total else along, **{end: Z})
        for f in _maps(C, objs, flag, **{end: Z}):
            for g in others:
                cases.append((f, g))
    counter.tick(len(cases))
    suffix = "total" if total else ("along_mono" if side is PULLBACK else "along_epi")
    for f, g in cases:
        if side is PULLBACK:
            ok = C.strictness(C.pullback(f, g).p2).strict_epi
            keys = {"epi": f, "along": g}
        else:
            ok = C.strictness(C.pushout(f, g).j2).strict_mono
            keys = {"mono": f, "along": g}
        if not ok:
            return AuditEntry(f"{name}_{suffix}", "fail", _witness(C, **keys))
    return AuditEntry(f"{name}_{suffix}", "pass")


def reference_audit(C):
    """The entries of ``audit_axioms(C, total=True)`` and its budget ticks."""
    objs = C.objects()
    counter = Budget(None, "audit")
    entries = (
        _scan("identity_admissible", counter, _identity_cases(C, objs)),
        _scan("mono_composition", counter, _composition_cases(C, objs, "strict_mono")),
        _scan("epi_composition", counter, _composition_cases(C, objs, "strict_epi")),
        reference_squares(C, objs, counter, PULLBACK, total=False),
        reference_squares(C, objs, counter, PUSHOUT, total=False),
        reference_squares(C, objs, counter, PULLBACK, total=True),
        reference_squares(C, objs, counter, PUSHOUT, total=True),
    )
    return entries, counter.used


COLLAPSE = PointedMap(PointedSet(2), PointedSet(1), (0, 1, 1))


class LyingPointed(FinPointedSet):
    """Also reports the collapse (0, 1, 1) as a strict mono.

    Its pushout along the strict epi (0, 0, 1) glues everything to the base,
    so the restricted pushout audit fails, and the first failure of the
    total pushout audit is that same shared case.
    """

    def strictness(self, f):
        s = super().strictness(f)
        return Strictness(s.strict_mono or f == COLLAPSE, s.strict_epi)


INSTANCES = {
    "pointed": lambda: FinPointedSet(max_size=3),
    "finvec": lambda: FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2),
    "lying-pointed": lambda: LyingPointed(max_size=2),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    C = INSTANCES[request.param]()
    entries, ticks = reference_audit(C)
    return request.param, C, entries, ticks


def test_total_audit_matches_reference(case):
    _, C, entries, ticks = case
    report = audit_axioms(C, total=True)
    assert report.entries == entries
    assert audit_axioms(C, total=True, budget=ticks).entries == entries
    with pytest.raises(BudgetExceeded):
        audit_axioms(C, total=True, budget=ticks - 1)


def test_failed_restricted_audit_is_rescanned():
    C = LyingPointed(max_size=2)
    entries, _ = reference_audit(C)
    by_name = {e.axiom: e for e in entries}
    assert by_name["mono_pushout_along_epi"].verdict == "fail"
    total = by_name["mono_pushout_total"]
    # the total witness is a shared case: its second leg is a strict epi
    assert total.verdict == "fail"
    along = total.witness["along"]
    g = PointedMap(PointedSet(along["dom"]), PointedSet(along["cod"]), tuple(along["images"]))
    assert C.strictness(g).strict_epi
    assert audit_axioms(C, total=True).entry("mono_pushout_total") == total


def test_no_square_is_built_twice(monkeypatch):
    """With both restricted audits passing, the total audits rebuild none of their squares."""
    C = FinPointedSet(max_size=3)
    built = {"pullback": [], "pushout": []}
    for kind in built:
        original = getattr(FinPointedSet, kind)

        def record(self, f, g, original=original, kind=kind):
            built[kind].append((f, g))
            return original(self, f, g)

        monkeypatch.setattr(FinPointedSet, kind, record)
    report = audit_axioms(C, total=True)
    assert report.entry("epi_pullback_along_mono").verdict == "pass"
    assert report.entry("mono_pushout_along_epi").verdict == "pass"
    for kind, squares in built.items():
        assert squares and len(set(squares)) == len(squares), kind
