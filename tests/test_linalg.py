import itertools
import random
from fractions import Fraction

import pytest

from protex import PAdicRationals, PrimeField
from protex import linalg


def brute_rank_f2(rows):
    # oracle: dimension of the row span by enumerating all combinations
    F = PrimeField(2)
    n = len(rows[0]) if rows else 0
    span = set()
    for coeffs in itertools.product([0, 1], repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % 2 for j in range(n)
        )
        span.add(v)
    size = len(span)
    rank = 0
    while 2**rank < size:
        rank += 1
    return rank


def test_rank_against_brute_force():
    F = PrimeField(2)
    rng = random.Random(11)
    for _ in range(200):
        m, n = rng.randint(0, 3), rng.randint(1, 4)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        assert linalg.rank(F, rows) == brute_rank_f2(rows)


def test_solve_and_nullspace_rationals():
    F = PAdicRationals(2)
    rng = random.Random(5)
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = [[F.random_element(rng) for _ in range(n)] for _ in range(m)]
        x = [F.random_element(rng) for _ in range(n)]
        b = linalg.mat_vec(F, a, x)
        sol = linalg.solve(F, a, b)
        assert sol is not None
        assert linalg.mat_vec(F, a, sol) == b
        for v in linalg.nullspace(F, a, ncols=n):
            assert all(e == 0 for e in linalg.mat_vec(F, a, v))
        # nullspace dimension = n - rank
        assert len(linalg.nullspace(F, a, ncols=n)) == n - linalg.rank(F, a)


def test_solve_detects_inconsistency():
    F = PrimeField(3)
    a = [[1, 0], [1, 0]]
    assert linalg.solve(F, a, [1, 2]) is None
    assert linalg.solve(F, a, [2, 2]) is not None


def test_inverse():
    F = PAdicRationals(3)
    rng = random.Random(9)
    found = 0
    for _ in range(200):
        n = rng.randint(0, 3)
        a = [[F.random_element(rng) for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(F, a)
        if inv is None:
            assert linalg.rank(F, a) < n
            continue
        found += 1
        ident = linalg.identity(F, n)
        assert linalg.mat_mul(F, a, inv) == ident
        assert linalg.mat_mul(F, inv, a) == ident
    assert found > 50


def test_empty_shapes():
    F = PrimeField(2)
    assert linalg.rank(F, []) == 0
    assert linalg.nullspace(F, []) == []
    assert len(linalg.nullspace(F, [], ncols=3)) == 3
    assert linalg.inverse(F, []) == []
    assert linalg.solve_matrix(F, [], []) == []
    assert linalg.mat_vec(F, [], []) == []


def _random_padic_matrices(count):
    """(field, matrix) pairs up to 4 x 5, empty shapes and low ranks included."""
    rng = random.Random(2718)
    for k in range(count):
        F = PAdicRationals((2, 3)[k % 2])
        m, n = rng.randint(0, 4), rng.randint(0, 5)
        if k % 3 == 0 and m and n:
            # a product through a narrow middle, so that the rank drops
            inner = rng.randint(0, min(m, n) - 1)
            left = [[F.random_element(rng) for _ in range(inner)] for _ in range(m)]
            right = [[F.random_element(rng) for _ in range(n)] for _ in range(inner)]
            a = linalg.mat_mul(F, left, right) if inner else [[F.zero] * n for _ in range(m)]
        else:
            a = [[F.random_element(rng) for _ in range(n)] for _ in range(m)]
        yield F, a, n


def test_elimination_against_sympy():
    # independent oracle: sympy's exact rational matrices
    sympy = pytest.importorskip("sympy")

    def to_sympy(a, n):
        return sympy.Matrix(len(a), n, [sympy.Rational(x.numerator, x.denominator) for r in a for x in r])

    def to_fractions(M):
        return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]

    ranks = set()
    singular = invertible = 0
    for F, a, n in _random_padic_matrices(400):
        M = to_sympy(a, n)
        rank = linalg.rank(F, a)
        assert rank == M.rank()
        ranks.add((rank, len(a), n))
        red, pivots = linalg.rref(F, a)
        R, sym_pivots = M.rref()
        assert pivots == list(sym_pivots)
        assert red == to_fractions(R)
        ours = linalg.nullspace(F, a, ncols=n)
        theirs = [to_fractions(v.T)[0] for v in M.nullspace()]
        assert ours == theirs
        if len(a) == n:
            inv = linalg.inverse(F, a)
            if n and M.det() == 0:
                singular += 1
                assert inv is None
            else:
                invertible += 1
                assert inv == (to_fractions(M.inv()) if n else [])
    assert singular > 10 and invertible > 10
    # full-rank and rank-deficient shapes, and both empty directions
    assert any(r < min(m, n) for r, m, n in ranks)
    assert any(m == 0 for _, m, _ in ranks) and any(n == 0 for _, _, n in ranks)
