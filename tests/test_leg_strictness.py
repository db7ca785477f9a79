"""The square audits' leg read-offs against the strictness of the built leg.

``pullback_leg_strictness(f, g)`` must equal the strictness of the leg p2
of the built pullback, and ``pushout_leg_strictness(i, g)`` that of the
leg j2 of the built pushout.  The pointed instance decides both from image
tuples without building the square; finvec keeps the defaults.  Every pair
with a common codomain (pullbacks) or domain (pushouts) is checked, over
all maps.  The built legs are validated maps, and their strictness is
checked once more against the generic kernel-cokernel classifier, so the
oracle does not rest on the closed form that the read-off and
``strictness`` share.
"""

import pytest

from protex import FinPointedSet, FinWeightedVec
from protex.category import CategoryInstance, Strictness, _Opposite, classify_strictness
from protex.scalars import MAG_ONE, Magnitude, PrimeField

INSTANCES = {
    "pointed": lambda: FinPointedSet(max_size=3),
    "finvec": lambda: FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2),
}

# (read-off, square constructor, leg, corner the two maps share)
PULLBACK = ("pullback_leg_strictness", "pullback", "p2", "cod")
PUSHOUT = ("pushout_leg_strictness", "pushout", "j2", "dom")


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def corner_pairs(C, corner):
    """Every (f, g) of maps that share their codomain ("cod") or domain ("dom")."""
    objs = C.objects()
    for Z in objs:
        maps = [
            f for X in objs for f in (C.morphisms(X, Z) if corner == "cod" else C.morphisms(Z, X))
        ]
        for f in maps:
            for g in maps:
                yield f, g


@pytest.mark.parametrize("side", [PULLBACK, PUSHOUT], ids=["pullback", "pushout"])
def test_leg_read_off_matches_the_built_leg(instance, side):
    C = instance
    read_off, construct, leg_name, corner = side
    legs, labels, pairs = set(), set(), 0
    for f, g in corner_pairs(C, corner):
        leg = getattr(getattr(C, construct)(f, g), leg_name)
        s = getattr(C, read_off)(f, g)
        assert s == C.strictness(leg), (f, g)
        legs.add(leg)
        labels.add(s.label)
        pairs += 1
    assert pairs > 1000
    assert labels == {"both", "strict_mono", "strict_epi", "neither"}
    for leg in legs:
        assert C.strictness(leg) == classify_strictness(C, leg), leg


def test_finvec_reads_legs_through_the_defaults():
    C = INSTANCES["finvec"]()
    for name in (PULLBACK[0], PUSHOUT[0]):
        assert getattr(type(C), name) is getattr(CategoryInstance, name)


def test_opposite_pullback_leg_is_the_swapped_pushout_leg(instance):
    C, op = instance, _Opposite(instance)
    seen = set()
    for i, g in corner_pairs(C, "dom"):
        s = C.strictness(C.pushout(i, g).j2)
        assert op.pullback_leg_strictness(i, g) == Strictness(s.strict_epi, s.strict_mono)
        seen.add(s.label)
    assert seen == {"both", "strict_mono", "strict_epi", "neither"}
