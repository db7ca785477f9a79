"""The opposite-category view that the dual audits run on, checked against C.

``_Opposite(C)`` must reverse hom-sets and composition, swap the strict
flags and the plain mono/epi notions, and read its pullback legs as the
pushout legs of C (checked in ``test_leg_strictness.py``); the pushout and
right obscure audits rest on exactly these.
"""

import pytest

from protex import FinPointedSet, FinWeightedVec
from protex.category import Strictness, _Opposite
from protex.scalars import MAG_ONE, Magnitude, PrimeField

INSTANCES = {
    "finvec": lambda: FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2),
    "pointed": lambda: FinPointedSet(max_size=3),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def test_hom_sets_and_composition_are_reversed(instance):
    C, op = instance, _Opposite(instance)
    objs = C.objects()
    for X in objs:
        for Y in objs:
            assert op.morphisms(X, Y) == C.morphisms(Y, X)
    composed = 0
    for X in objs[:3]:
        for Y in objs[:3]:
            for Z in objs[:3]:
                for f in C.morphisms(X, Y):
                    for g in C.morphisms(Y, Z):
                        assert op.compose(f, g) == C.compose(g, f)
                        composed += 1
    assert composed > 0


def test_flags_are_swapped(instance):
    C, op = instance, _Opposite(instance)
    objs = C.objects()
    seen = set()
    for X in objs:
        for Y in objs:
            for f in C.morphisms(X, Y):
                s = C.strictness(f)
                assert op.strictness(f) == Strictness(s.strict_epi, s.strict_mono)
                assert op.is_mono(f) == C.is_epi(f)
                assert op.describe_morphism(f) == C.describe_morphism(f)
                seen.add(s.label)
    assert seen == {"both", "strict_mono", "strict_epi", "neither"}

