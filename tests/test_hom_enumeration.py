"""FinWeightedVec hom-sets against the definition, into codomains in any weight order.

The instance lists Hom(X, Y) column by column, freeing a coordinate of Y
exactly where its weight is at most the column's domain weight.  Pushout
objects met during factorization are not sorted (a precover of
``(g^0, g^1)`` reaches ``(g^0, g^1, g^1)``), so the rule is checked here on
universe objects, every reordering of their weights, and those pushout
objects, against a brute force over all matrices.
"""

import itertools
from fractions import Fraction

import pytest

from protex import MAG_ONE, MAG_ZERO, FinWeightedVec, Magnitude, PrimeField, WeightedSpace
from protex.category import admissible_monos, audit_obscure
from protex.errors import InvariantViolation
from protex.factorization import GeneratingSet, precover
from protex.spaces import bounded_map, is_nonexpanding

E0, E1 = MAG_ONE, Magnitude.of(1)
# a null weight and a rational one, interleaved with the weights pushouts reach
WEIGHTS = (MAG_ZERO, E0, Magnitude.of(Fraction(1, 2)), E1)


def _precover_of_g0_g1():
    C = FinWeightedVec(PrimeField(2), (E0, E1), max_dim=2)
    G = GeneratingSet.of(C, "all-admissible-monos", admissible_monos(C))
    return precover(C, WeightedSpace(C.field, (E0, E1)), G)


def _pushout_objects() -> list[tuple[Magnitude, ...]]:
    """Codomain weights of each step; over F3 the same precover reaches the same ones."""
    steps = _precover_of_g0_g1().certificate.steps
    return [s.step_mono.codomain.weights for s in steps]


def _brute_hom(X: WeightedSpace, Y: WeightedSpace) -> list:
    """Every matrix over range(p), columns in order, kept when it is a morphism."""
    out = []
    for entries in itertools.product(range(X.field.p), repeat=X.dim * Y.dim):
        rows = [[entries[j * Y.dim + i] for j in range(X.dim)] for i in range(Y.dim)]
        try:
            f = bounded_map(X, Y, rows)
        except InvariantViolation:  # a null direction with a non-null image
            continue
        if is_nonexpanding(f):
            out.append(f)
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_hom_sets_match_brute_force_in_any_weight_order(p):
    C = FinWeightedVec(PrimeField(p), WEIGHTS, max_dim=2)
    universe = C.objects()
    pushouts = _pushout_objects()
    assert (E0, E1, E1) in pushouts  # not sorted
    orders = {w for Y in universe for w in itertools.permutations(Y.weights)}
    weights = sorted(orders | set(pushouts), key=repr)
    codomains = [WeightedSpace(C.field, w) for w in weights]
    assert len(codomains) > len(universe)
    for X in universe:
        for Y in codomains:
            assert list(C.morphisms(X, Y)) == _brute_hom(X, Y), (X.weights, Y.weights)


def test_hom_path_never_lists_the_vector_universe(monkeypatch):
    C = FinWeightedVec(PrimeField(2), (E0, E1), max_dim=2)
    assert len(C.vectors(WeightedSpace(C.field, (E1, E0)))) == 4
    assert "vectors" not in vars(C).get("_memo_tables", {})

    def no_universe(self, space):
        raise AssertionError("the vector universe was listed")

    monkeypatch.setattr(FinWeightedVec, "vectors", no_universe)
    assert audit_obscure(C).passed
    assert _precover_of_g0_g1().hom_surjective
