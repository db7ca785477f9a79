"""The integer-row loops against the element-wise loops they replaced.

``linalg.rref``, ``linalg.mat_mul`` (which ``spaces.compose`` calls) and
``ortho.orthogonalize`` run on the field's integer-row form.  The
references below, and ``proptools.reference_orthogonalize``, are the former
loops, which make one field call per entry operation; both must give the
same values on every field.
"""

import random
from fractions import Fraction

import pytest

from protex import (
    MAG_ZERO,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    WeightedSpace,
    orthogonalize,
)
from protex import linalg
from protex.randgen import random_space
from protex.spaces import Vector, norm
from proptools import reference_orthogonalize

FIELDS = [PAdicRationals(2), PAdicRationals(3), TrivialRationals(), PrimeField(2), PrimeField(3)]


def reference_rref(F, a):
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if not F.is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.div(F.one, rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not F.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def reference_compose(F, g, f, n):
    """The rows of ``g f`` for f with n columns."""
    prod = [[F.zero] * n for _ in g]
    for i, row in enumerate(g):
        for k, gik in enumerate(row):
            if F.is_zero(gik):
                continue
            for j in range(n):
                prod[i][j] = F.add(prod[i][j], F.mul(gik, f[k][j]))
    return prod


def big(F, rng):
    """A rational with numerator and denominator past 2^64, of varied valuation."""
    num = rng.getrandbits(80) | 2**64
    den = rng.getrandbits(80) | 2**64
    if isinstance(F, PAdicRationals):
        k = rng.randint(-3, 3)
        num, den = (num * F.p**k, den) if k >= 0 else (num, den * F.p**-k)
    return Fraction(-num if rng.random() < 0.5 else num, den)


def entry(F, rng, tally):
    if not isinstance(F, PrimeField) and rng.random() < 0.2:
        tally["big"] += 1
        return big(F, rng)
    return F.random_element(rng)


def random_rows(F, rng, m, n, tally):
    """m rows of length n, some of them zero or dependent on earlier ones."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            rows.append([F.zero] * n)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s = entry(F, rng, tally)
            rows.append([F.add(x, F.mul(s, y)) for x, y in zip(a, b)])
        else:
            rows.append([entry(F, rng, tally) for _ in range(n)])
    return rows


def negative_pivot(F, row):
    first = next((x for x in row if not F.is_zero(x)), None)
    return first is not None and not isinstance(F, PrimeField) and first < 0


@pytest.mark.parametrize("F", FIELDS, ids=str)
class TestAgainstTheElementWiseLoops:
    def test_rref(self, F):
        rng = random.Random(f"rref-{F}")
        tally = {"big": 0, "negative": 0, "dependent": 0}
        for _ in range(300):
            m, n = rng.randint(0, 4), rng.randint(0, 5)
            a = random_rows(F, rng, m, n, tally)
            before = [list(r) for r in a]
            red, pivots = linalg.rref(F, a)
            assert a == before  # F_p rows are their own integer form: not to be touched
            assert (red, pivots) == reference_rref(F, a)
            tally["negative"] += any(negative_pivot(F, r) for r in a)
            tally["dependent"] += len(pivots) < m
        assert tally["dependent"] >= 50
        assert tally["negative"] >= (0 if isinstance(F, PrimeField) else 50)
        assert tally["big"] >= (0 if isinstance(F, PrimeField) else 100)

    def test_rref_empty_shapes(self, F):
        assert linalg.rref(F, []) == ([], [])
        assert linalg.rref(F, [[], []]) == ([[], []], [])
        assert linalg.rref(F, [[F.zero] * 3] * 2) == reference_rref(F, [[F.zero] * 3] * 2)

    def test_compose(self, F):
        rng = random.Random(f"compose-{F}")
        tally = {"big": 0}
        for _ in range(300):
            X, Y, Z = (random_space(F, rng, 3, allow_null=True) for _ in range(3))
            # raw rows: a null direction may have a non-null image, which no map allows
            f = random_rows(F, rng, Y.dim, X.dim, tally)
            g = random_rows(F, rng, Z.dim, Y.dim, tally)
            assert linalg.mat_mul(F, g, f, X.dim) == reference_compose(F, g, f, X.dim)
        assert tally["big"] >= (0 if isinstance(F, PrimeField) else 100)

    def test_orthogonalize(self, F):
        rng = random.Random(f"ortho-{F}")
        tally = {"big": 0, "null": 0, "negative": 0}
        for _ in range(300):
            sp = random_space(F, rng, 4, allow_null=True)
            rows = random_rows(F, rng, rng.randint(0, sp.dim + 2), sp.dim, tally)
            gens = [Vector(sp, tuple(r)) for r in rows]
            ob = orthogonalize(sp, gens)
            assert ob == reference_orthogonalize(sp, gens)
            tally["null"] += any(norm(v).is_zero for v in ob.vectors)
            tally["negative"] += any(negative_pivot(F, r) for r in rows)
        assert tally["null"] >= 20
        assert tally["big"] >= (0 if isinstance(F, PrimeField) else 100)
        assert tally["negative"] >= (0 if isinstance(F, PrimeField) else 50)

    def test_orthogonalize_empty_shapes(self, F):
        empty = WeightedSpace(F, ())
        assert orthogonalize(empty, []) == reference_orthogonalize(empty, [])
        assert orthogonalize(empty, [Vector(empty, ())]).vectors == ()
        null = WeightedSpace(F, (MAG_ZERO, MAG_ZERO))
        gens = [Vector(null, (F.one, F.one)), Vector(null, (F.zero, F.one))]
        ob = orthogonalize(null, gens)
        assert ob == reference_orthogonalize(null, gens)
        assert ob.pivots == (0, 1)
