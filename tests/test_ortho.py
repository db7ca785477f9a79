import itertools
import random
from fractions import Fraction

import pytest

from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    OrthoBasis,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    WeightedSpace,
    basis_vector,
    norm,
    orthogonalize,
    quotient_norm,
    vector,
)
from proptools import add_vectors, reference_orthogonalize, scale_vector
from protex.errors import InvariantViolation
from protex.randgen import random_space, random_vector
from protex.spaces import Vector, zero_vector

F2 = PrimeField(2)
Q2 = PAdicRationals(2)
E0, E1, E2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)


def f2_span_norms(space, generators):
    """Oracle: all combinations of the generators with their norms."""
    out = {}
    gens = [g.coords for g in generators]
    for coeffs in itertools.product([0, 1], repeat=len(gens)):
        coords = [0] * space.dim
        for c, g in zip(coeffs, gens):
            if c:
                coords = [(a + b) % 2 for a, b in zip(coords, g)]
        out[tuple(coords)] = norm(Vector(space, tuple(coords)))
    return out


class TestOrthogonalize:
    def test_standard_basis_is_fixed(self):
        X = WeightedSpace(Q2, (E0, E1, E2))
        gens = [basis_vector(X, i) for i in range(3)]
        ob = orthogonalize(X, gens)
        assert ob.pivots == (0, 1, 2)
        assert [v.coords for v in ob.vectors] == [g.coords for g in gens]

    def test_dependent_generators_collapse(self):
        X = WeightedSpace(Q2, (E0, E0))
        v = vector(X, (Fraction(1), Fraction(2)))
        w = scale_vector(Fraction(3), v)
        ob = orthogonalize(X, [v, w])
        assert len(ob.vectors) == 1 and norm(ob.vectors[0]) == E0

    def test_worked_f2_example(self):
        # brute-force oracle over all combinations confirms the basis and norms
        X = WeightedSpace(F2, (E0, E1, E2))
        gens = [vector(X, (1, 1, 0)), vector(X, (0, 1, 1))]
        ob = orthogonalize(X, gens)
        assert [(v.coords, p) for v, p in zip(ob.vectors, ob.pivots)] == [
            ((1, 1, 0), 1),
            ((1, 0, 1), 2),
        ]
        assert [norm(v) for v in ob.vectors] == [E1, E2]
        oracle = f2_span_norms(X, gens)
        assert set(oracle) == {
            (0, 0, 0),
            (1, 1, 0),
            (0, 1, 1),
            (1, 0, 1),
        }
        for v in ob.vectors:
            assert oracle[v.coords] == norm(v)

    def test_empty_input(self):
        X = WeightedSpace(Q2, (E0,))
        ob = orthogonalize(X, [])
        assert ob.vectors == () and ob.pivots == ()

    def test_null_directions_split_off(self):
        X = WeightedSpace(Q2, (E0, MAG_ZERO, MAG_ZERO))
        gens = [
            vector(X, (Fraction(1), Fraction(1), Fraction(0))),
            vector(X, (Fraction(0), Fraction(1), Fraction(1))),
            vector(X, (Fraction(0), Fraction(0), Fraction(3))),
        ]
        ob = orthogonalize(X, gens)
        assert [norm(v) for v in ob.vectors] == [E0, MAG_ZERO, MAG_ZERO]

    def test_certificate_is_validated(self):
        X = WeightedSpace(Q2, (E0, E0))
        good = orthogonalize(X, [vector(X, (Fraction(1), Fraction(0)))])
        with pytest.raises(InvariantViolation):
            OrthoBasis(
                ambient=X,
                vectors=(vector(X, (Fraction(1), Fraction(1))),) + good.vectors,
                pivots=(1,) + good.pivots,
            )

    def test_null_rows_come_last(self):
        X = WeightedSpace(Q2, (MAG_ZERO, E0))
        null, weighted = basis_vector(X, 0), basis_vector(X, 1)
        assert OrthoBasis(X, (weighted, null), (1, 0)).pivots == (1, 0)
        with pytest.raises(InvariantViolation, match="weighted row 1 follows a null row"):
            OrthoBasis(X, (null, weighted), (0, 1))

    @pytest.mark.parametrize("weight", [E0, MAG_ZERO], ids=["weighted", "null"])
    def test_pivot_entry_must_be_one(self, weight):
        # |2| = 1 in Q3, so the norm is attained at the pivot; the entry is still not one
        X = WeightedSpace(PAdicRationals(3), (weight,))
        for entry, ok in ((Fraction(1), True), (Fraction(2), False)):
            row, pivot = (vector(X, (entry,)),), (0,)
            if ok:
                OrthoBasis(X, row, pivot)
            else:
                with pytest.raises(InvariantViolation, match="pivot 0 of row 0 is not one"):
                    OrthoBasis(X, row, pivot)

    def test_orthogonality_certificate_random(self):
        rng = random.Random(21)
        for _ in range(150):
            sp = random_space(Q2, rng, 4, allow_null=True)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, sp.dim + 1))]
            ob = orthogonalize(sp, gens)  # post-init validates the certificate
            for _ in range(20):
                coeffs = [Q2.random_element(rng) for _ in ob.vectors]
                combo = zero_vector(sp)
                expected = MAG_ZERO
                for a, w in zip(coeffs, ob.vectors):
                    combo = add_vectors(combo, scale_vector(a, w))
                    expected = max(expected, Q2.abs_value(a) * norm(w))
                assert norm(combo) == expected

    def test_span_preserved(self):
        rng = random.Random(33)
        for _ in range(100):
            sp = random_space(F2, rng, 3, allow_null=False)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, 3))]
            ob = orthogonalize(sp, gens)
            oracle = f2_span_norms(sp, gens)
            reproduced = f2_span_norms(sp, list(ob.vectors))
            assert oracle == reproduced


class TestTwoPhaseReference:
    @pytest.mark.parametrize(
        "field", [Q2, PAdicRationals(3), TrivialRationals(), F2, PrimeField(3)], ids=str
    )
    def test_same_basis_as_the_two_phase_loop(self, field):
        rng = random.Random(f"ortho-reference-{field}")
        null_bases = 0
        for _ in range(120):
            sp = random_space(field, rng, 4, allow_null=True)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, sp.dim + 1))]
            if gens and rng.random() < 0.5:
                # a dependent generator and a zero one
                a, b = rng.choice(gens), rng.choice(gens)
                gens.append(add_vectors(a, scale_vector(field.random_element(rng), b)))
                gens.insert(rng.randint(0, len(gens)), zero_vector(sp))
            ob = orthogonalize(sp, gens)
            assert ob == reference_orthogonalize(sp, gens)
            null_bases += any(norm(v).is_zero for v in ob.vectors)
        assert null_bases >= 10


class TestQuotientNorm:
    def test_quotient_by_zero(self):
        X = WeightedSpace(Q2, (E0, E1))
        sub = orthogonalize(X, [])
        m = vector(X, (Fraction(3), Fraction(1, 2)))
        assert quotient_norm(sub, m) == norm(m)

    def test_member_of_span_has_zero_class(self):
        X = WeightedSpace(Q2, (E0, E1))
        v = vector(X, (Fraction(1), Fraction(2)))
        sub = orthogonalize(X, [v])
        assert quotient_norm(sub, scale_vector(Fraction(5), v)) == MAG_ZERO

    def test_worked_f2_example(self):
        # coset {(1,0), (0,1)}, both of norm g^0
        X = WeightedSpace(F2, (E0, E0))
        sub = orthogonalize(X, [vector(X, (1, 1))])
        assert quotient_norm(sub, vector(X, (1, 0))) == E0

    def test_exhaustive_f2_coset_minimum(self):
        # every coset of every subspace in small spaces, against the literal minimum
        from protex import FinWeightedVec

        C = FinWeightedVec(F2, (E0, E1, E2), max_dim=2)
        for space in C.objects():
            for gens in C.subspaces(space):
                basis = orthogonalize(space, list(gens))
                for m in C.vectors(space):
                    assert quotient_norm(basis, m) == C.brute_quotient_norm(list(gens), m)

    def test_generator_order_irrelevant(self):
        rng = random.Random(44)
        for _ in range(200):
            sp = random_space(Q2, rng, 3, allow_null=True)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, 3))]
            m = random_vector(sp, rng)
            a = quotient_norm(orthogonalize(sp, gens), m)
            b = quotient_norm(orthogonalize(sp, list(reversed(gens))), m)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            c = quotient_norm(orthogonalize(sp, shuffled), m)
            assert a == b == c

    def test_residual_is_in_the_coset(self):
        rng = random.Random(55)
        for _ in range(100):
            sp = random_space(Q2, rng, 3, allow_null=True)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, 3))]
            ob = orthogonalize(sp, gens)
            m = random_vector(sp, rng)
            r = ob.residual(m)
            # difference lies in the span
            diff = add_vectors(m, scale_vector(Fraction(-1), r))
            assert ob.residual(diff).is_zero
            assert quotient_norm(ob, m) == norm(r)
