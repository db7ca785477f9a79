"""Presentations read off the unit pivots against the arithmetic they replaced.

Every basis vector of an ``OrthoBasis`` is exactly one at its exclusive
pivot, so the cokernel, the coordinate change onto an image and the legs
of both squares are read off without division or composition.  The
references below compute them as before: residuals that divide by each
pivot entry, coordinates divided by the pivot entries, and square legs
composed with the biproduct projections and injections.  Both must give
the same values on every field, 0-dimensional spaces and null weights
included.
"""

import random

import pytest

from protex import PAdicRationals, PrimeField, TrivialRationals, WeightedSpace, orthogonalize
from protex import constructions
from protex.constructions import _MapAnalysis, cokernel, kernel, pullback, pushout
from protex.ortho import image
from protex.randgen import random_bounded_map, random_space, random_vector
from protex.spaces import basis_vector, biproduct, bounded_map, compose

FIELDS = [PAdicRationals(2), PAdicRationals(3), TrivialRationals(), PrimeField(2), PrimeField(3)]


def reference_residual(ob, m):
    F = ob.ambient.field
    coords = list(m.coords)
    for v, p in zip(ob.vectors, ob.pivots):
        factor = F.div(coords[p], v.coords[p])
        if F.is_zero(factor):
            continue
        for i, c in enumerate(v.coords):
            coords[i] = F.sub(coords[i], F.mul(factor, c))
    return coords


def reference_quotient(ob):
    """The quotient space and map: residuals of the coordinate vectors off the pivots."""
    Y = ob.ambient
    used = set(ob.pivots)
    complement = [d for d in range(Y.dim) if d not in used]
    space = WeightedSpace(Y.field, tuple(Y.weights[d] for d in complement))
    residuals = [reference_residual(ob, basis_vector(Y, c)) for c in range(Y.dim)]
    rows = [[r[d] for r in residuals] for d in complement]
    return space, bounded_map(Y, space, rows)


def reference_change(f):
    F, ob = f.domain.field, image(f)
    return [
        [F.div(x, v.coords[p]) for x in f.matrix[p]]
        for v, p in zip(ob.vectors, ob.pivots)
    ]


def reference_pullback_legs(f, g):
    F = f.domain.field
    bp = biproduct([f.domain, g.domain])
    rows = [list(f.matrix[i]) + [F.neg(x) for x in g.matrix[i]] for i in range(f.codomain.dim)]
    _, incl = kernel(bounded_map(bp.space, f.codomain, rows))
    return compose(bp.projections[0], incl), compose(bp.projections[1], incl)


def reference_pushout_legs(i, g):
    F = i.domain.field
    bp = biproduct([i.codomain, g.codomain])
    rows = [list(r) for r in i.matrix] + [[F.neg(x) for x in r] for r in g.matrix]
    _, proj = cokernel(bounded_map(i.domain, bp.space, rows))
    return compose(proj, bp.injections[0]), compose(proj, bp.injections[1])


def spaces(F, rng, count, tally):
    """``count`` random spaces of dimension 0 to 3, some with null weights."""
    out = [random_space(F, rng, 3, allow_null=True) for _ in range(count)]
    tally["empty"] += any(X.dim == 0 for X in out)
    tally["null"] += any(w.is_zero for X in out for w in X.weights)
    return out


def assert_coverage(tally):
    assert tally["empty"] >= 20 and tally["null"] >= 40


@pytest.mark.parametrize("F", FIELDS, ids=str)
class TestAgainstTheDividingCode:
    def test_quotient_of_a_span(self, F):
        rng = random.Random(f"quotient-{F}")
        tally = {"empty": 0, "null": 0, "null_rows": 0}
        for _ in range(200):
            (Y,) = spaces(F, rng, 1, tally)
            gens = [random_vector(Y, rng) for _ in range(rng.randint(0, Y.dim + 1))]
            ob = orthogonalize(Y, gens)
            tally["null_rows"] += any(Y.weights[p].is_zero for p in ob.pivots)
            space, proj = reference_quotient(ob)
            assert ob.quotient_space() == space
            assert ob.projection() == proj
            m = random_vector(Y, rng)
            assert list(ob.residual(m).coords) == reference_residual(ob, m)
        assert_coverage(tally)
        assert tally["null_rows"] >= 20

    def test_cokernel_and_change(self, F):
        rng = random.Random(f"cokernel-{F}")
        tally = {"empty": 0, "null": 0}
        for _ in range(200):
            X, Y = spaces(F, rng, 2, tally)
            f = random_bounded_map(X, Y, rng)
            assert cokernel(f) == reference_quotient(image(f))
            assert _MapAnalysis(f).change == reference_change(f)
        assert_coverage(tally)

    def test_square_legs(self, F):
        rng = random.Random(f"squares-{F}")
        tally = {"empty": 0, "null": 0}
        for _ in range(200):
            X, Y, Z = spaces(F, rng, 3, tally)
            f, g = random_bounded_map(X, Z, rng), random_bounded_map(Y, Z, rng)
            square = pullback(f, g)
            assert (square.p1, square.p2) == reference_pullback_legs(f, g)
            i, g = random_bounded_map(Z, X, rng), random_bounded_map(Z, Y, rng)
            square = pushout(i, g)
            assert (square.j1, square.j2) == reference_pushout_legs(i, g)
        assert_coverage(tally)


def test_squares_build_no_biproduct_and_compose_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a square leg was composed")

    monkeypatch.setattr(constructions, "biproduct", refuse)
    monkeypatch.setattr(constructions, "compose", refuse)
    F = PAdicRationals(3)
    rng = random.Random(3)
    X, Y, Z = (random_space(F, rng, 3, allow_null=True, min_dim=1) for _ in range(3))
    pullback(random_bounded_map(X, Z, rng), random_bounded_map(Y, Z, rng))
    pushout(random_bounded_map(Z, X, rng), random_bounded_map(Z, Y, rng))
