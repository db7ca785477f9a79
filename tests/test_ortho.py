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
from protex.errors import InvariantViolation
from protex.randgen import random_space, random_vector
from protex.spaces import Vector, add_vectors, scale_vector, zero_vector

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
        assert len(ob.vectors) == 1 and not ob.null_vectors

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
        assert ob.vectors == () and ob.null_vectors == ()

    def test_null_directions_split_off(self):
        X = WeightedSpace(Q2, (E0, MAG_ZERO, MAG_ZERO))
        gens = [
            vector(X, (Fraction(1), Fraction(1), Fraction(0))),
            vector(X, (Fraction(0), Fraction(1), Fraction(1))),
            vector(X, (Fraction(0), Fraction(0), Fraction(3))),
        ]
        ob = orthogonalize(X, gens)
        assert len(ob.vectors) == 1 and len(ob.null_vectors) == 2
        for nv in ob.null_vectors:
            assert norm(nv) == MAG_ZERO
        assert ob.subspace_dim == 3

    def test_certificate_is_validated(self):
        X = WeightedSpace(Q2, (E0, E0))
        good = orthogonalize(X, [vector(X, (Fraction(1), Fraction(0)))])
        with pytest.raises(InvariantViolation):
            OrthoBasis(
                ambient=X,
                vectors=(vector(X, (Fraction(1), Fraction(1))),) + good.vectors,
                pivots=(1,) + good.pivots,
                null_vectors=(),
                null_pivots=(),
            )

    def test_orthogonality_certificate_random(self):
        rng = random.Random(21)
        for _ in range(150):
            sp = random_space(Q2, rng, 4, allow_null=True)
            gens = [random_vector(sp, rng) for _ in range(rng.randint(0, sp.dim + 1))]
            ob = orthogonalize(sp, gens)  # post-init validates the certificate
            rows = ob.vectors + ob.null_vectors
            for _ in range(20):
                coeffs = [Q2.random_element(rng) for _ in rows]
                combo = zero_vector(sp)
                expected = MAG_ZERO
                for a, w in zip(coeffs, rows):
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
            reproduced = f2_span_norms(sp, list(ob.vectors + ob.null_vectors))
            assert oracle == reproduced


def two_phase_orthogonalize(space, generators):
    """The former two-phase loop, kept as a reference for the shared pivot step.

    Weighted pivots are chosen by the largest |entry| * weight; rows left on
    weight-zero coordinates are then reduced by plain Gaussian elimination.
    """
    F = space.field
    rows = [list(g.coords) for g in generators if not g.is_zero]
    live = list(range(len(rows)))
    processed = []

    def reduce_row(row, pivot, prow):
        factor = F.div(row[pivot], prow[pivot])
        if not F.is_zero(factor):
            for i in range(len(row)):
                row[i] = F.sub(row[i], F.mul(factor, prow[i]))

    while True:
        best = None
        for idx in live:
            for c, entry in enumerate(rows[idx]):
                if F.is_zero(entry):
                    continue
                mag = F.abs_value(entry) * space.weights[c]
                if mag.is_zero:
                    continue
                key = (mag, -c, -idx)
                if best is None or (key[0] > best[0][0]) or (
                    key[0] == best[0][0] and key[1:] > best[0][1:]
                ):
                    best = (key, c, idx)
        if best is None:
            break
        _, c, idx = best
        row = rows[idx]
        inv = F.div(F.one, row[c])
        for i in range(len(row)):
            row[i] = F.mul(inv, row[i])
        live.remove(idx)
        for _, prow in processed:
            reduce_row(prow, c, row)
        for other in live:
            reduce_row(rows[other], c, row)
        processed.append((c, row))

    null_rows = []
    for idx in live:
        row = rows[idx]
        pivot = next((c for c, entry in enumerate(row) if not F.is_zero(entry)), None)
        if pivot is None:
            continue
        inv = F.div(F.one, row[pivot])
        for i in range(len(row)):
            row[i] = F.mul(inv, row[i])
        for _, prow in processed + null_rows:
            reduce_row(prow, pivot, row)
        for other in live:
            if rows[other] is not row:
                reduce_row(rows[other], pivot, row)
        null_rows.append((pivot, row))

    processed.sort(key=lambda pr: pr[0])
    null_rows.sort(key=lambda pr: pr[0])
    return OrthoBasis(
        ambient=space,
        vectors=tuple(Vector(space, tuple(r)) for _, r in processed),
        pivots=tuple(p for p, _ in processed),
        null_vectors=tuple(Vector(space, tuple(r)) for _, r in null_rows),
        null_pivots=tuple(p for p, _ in null_rows),
    )


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
            assert ob == two_phase_orthogonalize(sp, gens)
            null_bases += bool(ob.null_vectors)
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
            assert ob.contains(diff)
            assert quotient_norm(ob, m) == norm(r)
