import itertools
from fractions import Fraction

import pytest

from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    PAdicRationals,
    PrimeField,
    WeightedSpace,
    basis_vector,
    biproduct,
    bounded_map,
    compose,
    identity_between,
    identity_map,
    norm,
    operator_norm,
    rank_one,
    rescale,
    separation,
    vector,
    zero_map,
    zero_vector,
)
from protex.errors import InvariantViolation, NotComposable, UnboundedError
from protex.spaces import BoundedMap, is_nonexpanding

Q2 = PAdicRationals(2)
F2 = PrimeField(2)
E0, E1, E2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)


class TestNorm:
    def test_zero_vector(self):
        X = WeightedSpace(Q2, (E0, E1))
        assert norm(zero_vector(X)) == MAG_ZERO

    def test_basis_vectors_realize_weights(self):
        X = WeightedSpace(Q2, (E0, E1, MAG_ZERO))
        for i in range(3):
            assert norm(basis_vector(X, i)) == X.weights[i]

    def test_worked_example(self):
        # |3| = g^0 and |1/2| = g^1; terms g^0 and g^2; max is g^2
        X = WeightedSpace(Q2, (E0, E1))
        v = vector(X, (Fraction(3), Fraction(1, 2)))
        assert norm(v) == E2


class TestBoundedMap:
    def test_shape_validation(self):
        X = WeightedSpace(Q2, (E0, E1))
        Y = WeightedSpace(Q2, (E0,))
        with pytest.raises(InvariantViolation):
            bounded_map(X, Y, [[Fraction(1)]])
        with pytest.raises(InvariantViolation):
            bounded_map(X, Y, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])

    def test_null_direction_invariant(self):
        X = WeightedSpace(Q2, (MAG_ZERO, E0))
        Y = WeightedSpace(Q2, (E0,))
        with pytest.raises(InvariantViolation, match="basis index 0"):
            bounded_map(X, Y, [[Fraction(1), Fraction(0)]])
        # null to null is fine
        Z = WeightedSpace(Q2, (MAG_ZERO,))
        bounded_map(X, Z, [[Fraction(1), Fraction(0)]])

    def test_unbounded_error_on_unchecked_map(self):
        X = WeightedSpace(Q2, (MAG_ZERO,))
        Y = WeightedSpace(Q2, (E0,))
        bad = bounded_map(X, Y, [[Fraction(1)]], check=False)
        with pytest.raises(UnboundedError):
            operator_norm(bad)

    def test_compose_requires_matching_spaces(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E1,))
        with pytest.raises(NotComposable):
            compose(identity_map(X), identity_map(Y))


class TestOperatorNorm:
    def test_zero_and_identity(self):
        X = WeightedSpace(Q2, (E0, E1))
        Y = WeightedSpace(Q2, (E2,))
        assert operator_norm(zero_map(X, Y)) == MAG_ZERO
        assert operator_norm(identity_map(X)) == MAG_ONE

    def test_rescaling_identity_norm(self):
        # the identity from an eps-rescaling to a delta-rescaling has norm delta/eps
        M = WeightedSpace(Q2, (E0, E1))
        eps, delta = Magnitude.of(3), Magnitude.of(1)
        f = identity_between(rescale(M, eps), rescale(M, delta))
        assert operator_norm(f) == delta / eps

    def test_sup_realized_on_random_vectors(self):
        import random

        from proptools import random_nonexpanding_map
        from protex.randgen import random_space, random_vector

        rng = random.Random(3)
        for _ in range(200):
            X = random_space(Q2, rng, 3, allow_null=True)
            Y = random_space(Q2, rng, 3, allow_null=True)
            f = random_nonexpanding_map(X, Y, rng)
            bound = operator_norm(f)
            for _ in range(10):
                v = random_vector(X, rng)
                assert norm(f.apply(v)) <= bound * norm(v)


class TestRescaleSeparationBiproduct:
    def test_rescale_identity_and_composition(self):
        M = WeightedSpace(Q2, (E0, E1))
        assert rescale(M, MAG_ONE) == M
        d, e = Magnitude.of(1), Magnitude.of(Fraction(1, 2))
        assert rescale(rescale(M, d), e) == rescale(M, d * e)
        with pytest.raises(InvariantViolation):
            rescale(M, MAG_ZERO)

    def test_closed_ball_counts_hom_sets(self):
        # non-expanding maps R_delta -> M correspond to vectors of norm <= delta
        M = WeightedSpace(F2, (E0,))
        delta = E1
        R = rank_one(F2, delta)
        maps = [
            rows
            for rows in ([[0]], [[1]])
            if operator_norm(bounded_map(R, M, rows)) <= MAG_ONE
        ]
        ball = [
            v
            for coords in itertools.product([0, 1], repeat=1)
            if norm(v := vector(M, coords)) <= delta
        ]
        assert len(maps) == len(ball) == 2

    def test_separation(self):
        M = WeightedSpace(Q2, (E0, MAG_ZERO))
        S, proj = separation(M)
        assert S.weights == (E0,)
        assert operator_norm(proj) <= MAG_ONE
        S2, proj2 = separation(S)
        assert S2 == S and proj2 == identity_map(S)
        allnull = WeightedSpace(Q2, (MAG_ZERO, MAG_ZERO))
        S3, _ = separation(allnull)
        assert S3.dim == 0
        no_null = WeightedSpace(Q2, (E0, E1))
        S4, proj4 = separation(no_null)
        assert proj4 == identity_map(no_null)

    def test_biproduct_norms_and_legs(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E2,))
        bp = biproduct([X, Y])
        assert bp.space.weights == (E0, E2)
        v = vector(bp.space, (Fraction(1), Fraction(1)))
        assert norm(v) == E2
        for inj in bp.injections:
            assert operator_norm(inj) <= MAG_ONE
        for proj in bp.projections:
            assert operator_norm(proj) <= MAG_ONE
        assert compose(bp.projections[0], bp.injections[0]) == identity_map(X)
        assert compose(bp.projections[1], bp.injections[0]) == zero_map(X, Y)

    def test_biproduct_with_zero_factor(self):
        X = WeightedSpace(Q2, (E0, E1))
        Z = WeightedSpace(Q2, ())
        bp = biproduct([X, Z])
        assert bp.space.weights == X.weights
