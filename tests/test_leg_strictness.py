"""The square audits' leg read-offs against the strictness of the built leg.

``pullback_leg_strictness(f, g)`` must equal the strictness of the leg p2
of the built pullback, and ``pushout_leg_strictness(i, g)`` that of the
leg j2 of the built pushout.  The pointed instance decides both from image
tuples without building the square.  finvec reads p2 off the quotient norm
of an epi f and j2 off the image norm of a mono i, and builds the square
for the other pairs.  Every pair with a common codomain (pullbacks) or
domain (pushouts) is checked, over all maps.  The built legs are validated
maps, and their strictness is checked once more against the generic
kernel-cokernel classifier, so the oracle does not rest on the closed form
that the read-off and ``strictness`` share.  Over Q_2 and Q_3, where
nothing is enumerable, random epis and monos are checked against the
built legs.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proptools
from protex import (
    FinPointedSet,
    FinWeightedVec,
    WeightedModuleCategory,
    audit_axioms,
    audit_obscure,
    compose,
)
from protex import constructions as con
from protex.category import CategoryInstance, Strictness, _Opposite, classify_strictness
from protex.randgen import random_space
from protex.scalars import MAG_ONE, MAG_ZERO, Magnitude, PrimeField

G0, G1, G2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)
HALF = Magnitude.of(Fraction(1, 2))

INSTANCES = {
    "pointed": lambda: FinPointedSet(max_size=3),
    "finvec": lambda: FinWeightedVec(PrimeField(2), (G0, G1), max_dim=2),
    # null and half-integer weights
    "finvec-null": lambda: FinWeightedVec(PrimeField(2), (MAG_ZERO, HALF), max_dim=2),
    "finvec-f3": lambda: FinWeightedVec(PrimeField(3), (MAG_ZERO, G0, G1), max_dim=1),
}
# pairs with a common codomain and pairs with a common domain, per instance
PAIRS = {
    "pointed": (9066, 11016),
    "finvec": (5649, 5649),
    "finvec-null": (5649, 5649),
    "finvec-f3": (216, 216),
}

# (read-off, square constructor, leg, corner the two maps share)
PULLBACK = ("pullback_leg_strictness", "pullback", "p2", "cod")
PUSHOUT = ("pushout_leg_strictness", "pushout", "j2", "dom")


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def named(request):
    return request.param, INSTANCES[request.param]()


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
def test_leg_read_off_matches_the_built_leg(named, side):
    name, C = named
    read_off, construct, leg_name, corner = side
    legs, labels, pairs = set(), set(), 0
    for f, g in corner_pairs(C, corner):
        leg = getattr(getattr(C, construct)(f, g), leg_name)
        s = getattr(C, read_off)(f, g)
        assert s == C.strictness(leg), (f, g)
        legs.add(leg)
        labels.add(s.label)
        pairs += 1
    assert pairs == PAIRS[name][corner == "dom"]
    assert labels == {"both", "strict_mono", "strict_epi", "neither"}
    for leg in legs:
        assert C.strictness(leg) == classify_strictness(C, leg), leg


def test_weighted_modules_override_both_leg_read_offs():
    for name in (PULLBACK[0], PUSHOUT[0]):
        assert getattr(WeightedModuleCategory, name) is not getattr(CategoryInstance, name)
        assert getattr(FinWeightedVec, name) is getattr(WeightedModuleCategory, name)


def test_finvec_audits_build_no_square(monkeypatch):
    """Every square the audits read has a strict epi or mono first map: all read off."""

    def refuse(*args):
        raise AssertionError("a square was built")

    monkeypatch.setattr(con, "pullback", refuse)
    monkeypatch.setattr(con, "pushout", refuse)
    C = FinWeightedVec(PrimeField(2), (G0, G1, G2), max_dim=2)
    for report in (audit_axioms(C, total=True), audit_obscure(C)):
        assert [e.verdict for e in report.entries] == ["pass"] * len(report.entries)


def _epi_or_mono(rng, kind):
    """A strict epi (mono), or one composed with a random map that may keep it epi (mono)."""
    field = proptools.random_field(rng)
    if kind == "epi":
        f = proptools.random_strict_epi(field, rng, max_dim=3, allow_null=True)
        if rng.random() < 0.5:
            f = compose(proptools.random_nonexpanding_map(f.codomain, f.codomain, rng), f)
        return f
    i = proptools.random_strict_mono(field, rng, max_dim=3, allow_null=True)
    if rng.random() < 0.5:
        i = compose(i, proptools.random_nonexpanding_map(i.domain, i.domain, rng))
    return i


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_padic_pullback_leg_read_off_matches_the_built_leg(seed):
    rng = random.Random(seed)
    f = _epi_or_mono(rng, "epi")
    C = WeightedModuleCategory(f.domain.field)
    assume(C.is_epi(f))
    W = random_space(f.domain.field, rng, 3, allow_null=True)
    g = proptools.random_nonexpanding_map(W, f.codomain, rng)
    assert C.pullback_leg_strictness(f, g) == C.strictness(con.pullback(f, g).p2)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_padic_pushout_leg_read_off_matches_the_built_leg(seed):
    rng = random.Random(seed)
    i = _epi_or_mono(rng, "mono")
    C = WeightedModuleCategory(i.domain.field)
    assume(C.is_mono(i))
    L = random_space(i.domain.field, rng, 3, allow_null=True)
    g = proptools.random_nonexpanding_map(i.domain, L, rng)
    assert C.pushout_leg_strictness(i, g) == C.strictness(con.pushout(i, g).j2)


def test_opposite_pullback_leg_is_the_swapped_pushout_leg(named):
    _, C = named
    op = _Opposite(C)
    seen = set()
    for i, g in corner_pairs(C, "dom"):
        s = C.strictness(C.pushout(i, g).j2)
        assert op.pullback_leg_strictness(i, g) == Strictness(s.strict_epi, s.strict_mono)
        seen.add(s.label)
    assert seen == {"both", "strict_mono", "strict_epi", "neither"}
