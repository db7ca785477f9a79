"""The exponent-space contraction test and the direct cokernel projection.

``spaces.contracts`` and ``spaces.operator_norm`` read entry exponents off
a matrix.  The references below are the former routines, which built one
column ``Vector`` per domain direction and divided magnitudes; a further
brute force over every vector of small finite spaces checks ``contracts``
against its definition.  ``OrthoBasis.projection`` reads its columns off
the basis; its reference takes one residual per coordinate vector.
"""

import itertools
import random
from fractions import Fraction

import pytest

from protex import constructions as con
from protex.errors import InvariantViolation, UnboundedError
from protex.ortho import OrthoBasis, orthogonalize
from protex.randgen import random_space, random_vector
from protex.scalars import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
)
from protex.spaces import (
    BoundedMap,
    Vector,
    WeightedSpace,
    basis_vector,
    bounded_map,
    contracts,
    norm,
    operator_norm,
)

FIELDS = [PAdicRationals(2), PAdicRationals(3), TrivialRationals(), PrimeField(2), PrimeField(3)]


def reference_operator_norm(f):
    best = MAG_ZERO
    for i, w in enumerate(f.domain.weights):
        col_norm = norm(f.column(i))
        if w.is_zero:
            if not col_norm.is_zero:
                raise UnboundedError(f"null direction at basis index {i} has a non-null image")
            continue
        ratio = col_norm / w
        if ratio > best:
            best = ratio
    return best


def reference_contracts(domain, codomain, rows):
    try:
        g = bounded_map(domain, codomain, rows)
    except InvariantViolation:
        return False
    return reference_operator_norm(g) <= MAG_ONE


def brute_contracts(domain, codomain, rows):
    """Every vector x of the finite domain has ``norm(f x) <= norm(x)``."""
    f = bounded_map(domain, codomain, rows, check=False)
    vectors = itertools.product(range(domain.field.p), repeat=domain.dim)
    return all(norm(f.apply(x)) <= norm(x) for x in (Vector(domain, xs) for xs in vectors))


def random_rows(F, domain, codomain, rng):
    """Half the entries zero, so null columns are kept null about as often as not."""
    return [
        [F.random_element(rng) if rng.random() < 0.5 else F.zero for _ in domain.weights]
        for _ in codomain.weights
    ]


def outcome(call):
    try:
        return call()
    except UnboundedError as exc:
        return str(exc)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_operator_norm_and_contracts_match_the_references(F):
    rng = random.Random(f"contracts {F!r}")
    verdicts = {True: 0, False: 0}
    unbounded = 0
    for _ in range(200):
        X = random_space(F, rng, max_dim=3, allow_null=True)
        Y = random_space(F, rng, max_dim=3, allow_null=True)
        rows = random_rows(F, X, Y, rng)
        f = bounded_map(X, Y, rows, check=False)
        got, want = outcome(lambda: operator_norm(f)), outcome(lambda: reference_operator_norm(f))
        assert got == want, (X, Y, rows)
        unbounded += isinstance(want, str)
        verdict = contracts(X, Y, rows)
        assert verdict == reference_contracts(X, Y, rows), (X, Y, rows)
        verdicts[verdict] += 1
    # the draw reaches both verdicts, an unbounded map and a rational exponent
    assert min(verdicts.values()) >= 10 and unbounded >= 10


def test_rational_exponents_and_zero_dimensional_spaces():
    F = PAdicRationals(2)
    half, zero_dim = Magnitude.of(Fraction(1, 2)), WeightedSpace(F, ())
    X, Y = WeightedSpace(F, (half,)), WeightedSpace(F, (MAG_ONE, MAG_ZERO))
    f = bounded_map(X, Y, [[Fraction(1, 2)], [Fraction(5)]])
    assert operator_norm(f) == reference_operator_norm(f) == Magnitude.of(Fraction(1, 2))
    assert not contracts(X, Y, f.matrix) and contracts(Y, X, [[Fraction(2), Fraction(0)]])
    assert not contracts(Y, X, [[Fraction(2), Fraction(7)]])  # 7 is a non-null image of a null
    for A, B in [(zero_dim, X), (X, zero_dim), (zero_dim, zero_dim)]:
        rows = [[F.one] * A.dim for _ in B.weights]
        assert contracts(A, B, rows)
        assert operator_norm(bounded_map(A, B, rows)) == MAG_ZERO


def test_unbounded_error_names_the_first_null_direction():
    F = PAdicRationals(3)
    X = WeightedSpace(F, (MAG_ONE, MAG_ZERO, MAG_ZERO))
    Y = WeightedSpace(F, (MAG_ONE, MAG_ONE))
    # row 0 hits null column 2 before row 1 hits null column 1
    f = bounded_map(X, Y, [[0, 0, 1], [0, 1, 0]], check=False)
    with pytest.raises(UnboundedError, match="basis index 1 has"):
        operator_norm(f)
    with pytest.raises(UnboundedError, match="basis index 1 has"):
        reference_operator_norm(f)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3)], ids=repr)
def test_contracts_is_its_definition_on_finite_spaces(F):
    weights = [MAG_ZERO, MAG_ONE, Magnitude.of(1), Magnitude.of(Fraction(1, 2))]
    spaces = [WeightedSpace(F, ws) for d in range(3) for ws in itertools.product(weights, repeat=d)]
    rng = random.Random(f"brute {F!r}")
    pairs = list(itertools.product(spaces, repeat=2))
    if F.p > 2:
        pairs = rng.sample(pairs, 120)
    checked = 0
    for X, Y in pairs:
        for entries in itertools.product(range(F.p), repeat=X.dim * Y.dim):
            rows = [list(entries[i * X.dim : (i + 1) * X.dim]) for i in range(Y.dim)]
            assert contracts(X, Y, rows) == brute_contracts(X, Y, rows), (X, Y, rows)
            checked += 1
    assert checked > 1000


def reference_projection(ob):
    residuals = [ob.residual(basis_vector(ob.ambient, c)) for c in range(ob.ambient.dim)]
    rows = [[r.coords[d] for r in residuals] for d in ob.complement]
    return bounded_map(ob.ambient, ob.quotient_space(), rows, check=False)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_projection_matches_the_residual_per_coordinate(F):
    rng = random.Random(f"projection {F!r}")
    for _ in range(100):
        space = random_space(F, rng, max_dim=4, allow_null=True)
        ob = orthogonalize(space, [random_vector(space, rng) for _ in range(rng.randint(0, 4))])
        got, want = ob.projection(), reference_projection(ob)
        assert got == want and repr(got.matrix) == repr(want.matrix)


def test_the_fast_paths_build_nothing_they_throw_away(monkeypatch):
    F = PAdicRationals(2)
    X = WeightedSpace(F, (MAG_ONE, Magnitude.of(1)))
    rows = [[F.one, F.zero], [F.zero, F.one]]
    ob = orthogonalize(X, [Vector(X, (F.one, Fraction(1, 2)))])

    def forbidden(*args):
        raise AssertionError("built or called on a fast path")

    f, want = bounded_map(X, X, rows), reference_projection(ob)
    monkeypatch.setattr(Vector, "__post_init__", forbidden)
    assert operator_norm(f) == MAG_ONE
    monkeypatch.undo()
    monkeypatch.setattr(OrthoBasis, "residual", forbidden)
    assert ob.projection() == want
    monkeypatch.undo()
    monkeypatch.setattr(BoundedMap, "__post_init__", forbidden)
    assert con._isometric_iso(X, X, rows, rows)


def test_shape_and_null_checks_keep_their_messages():
    F = PAdicRationals(2)
    X, Y = WeightedSpace(F, (MAG_ONE, MAG_ZERO)), WeightedSpace(F, (MAG_ONE,))
    cases = [
        (lambda: Vector(X, (F.one,)), "vector has 1 coordinates in a 2-dimensional space"),
        (lambda: bounded_map(X, Y, []), "matrix has 0 rows, codomain dimension is 1"),
        (lambda: bounded_map(X, Y, [[1]]), "matrix row 0 has 1 entries, domain dimension is 2"),
        (
            lambda: bounded_map(X, Y, [[0, 1]]),
            "null direction at basis index 1 has a non-null image",
        ),
        (
            lambda: bounded_map(X, WeightedSpace(PrimeField(2), ()), []),
            "domain and codomain live over different fields",
        ),
    ]
    for build, message in cases:
        with pytest.raises(InvariantViolation) as info:
            build()
        assert str(info.value) == message
