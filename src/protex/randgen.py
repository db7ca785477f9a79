"""Seeded random instances for oracle checks and randomized law testing.

Everything takes an explicit ``random.Random`` so runs are reproducible;
maps are repaired column by column to respect null directions and the
non-expanding bound exactly (p-adic columns are rescaled by a power of p,
trivially valued columns have oversized entries zeroed).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .constructions import cokernel
from .ortho import orthogonalize
from .scalars import MAG_ONE, MAG_ZERO, Magnitude, PAdicRationals, ValuedField
from .spaces import (
    BoundedMap,
    Vector,
    WeightedSpace,
    bounded_map,
    norm,
)


def random_magnitude(rng: random.Random, allow_zero: bool = False) -> Magnitude:
    if allow_zero and rng.random() < 0.25:
        return MAG_ZERO
    return Magnitude.of(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])))


def random_space(
    field: ValuedField,
    rng: random.Random,
    max_dim: int = 3,
    allow_null: bool = False,
    min_dim: int = 0,
) -> WeightedSpace:
    dim = rng.randint(min_dim, max_dim)
    return WeightedSpace(
        field, tuple(random_magnitude(rng, allow_null) for _ in range(dim))
    )


def random_vector(space: WeightedSpace, rng: random.Random) -> Vector:
    return Vector(
        space, tuple(space.field.random_element(rng) for _ in range(space.dim))
    )


def _fit_column(field: ValuedField, column, target: WeightedSpace, bound: Magnitude):
    """Adjust a coordinate list so its norm is at most ``bound``."""
    coords = list(column)
    if bound.is_zero:
        # only the null directions of the target may carry entries
        for i in range(len(coords)):
            if not target.weights[i].is_zero:
                coords[i] = field.zero
        return coords
    if isinstance(field, PAdicRationals):
        col_norm = norm(Vector(target, tuple(coords)))
        if col_norm > bound:
            # multiplying by p^k scales the absolute value by g^-k
            shift = math.ceil(col_norm.exponent - bound.exponent)
            scale = Fraction(field.p**shift)
            coords = [field.mul(scale, c) for c in coords]
        return coords
    # trivially valued: entries cannot be shrunk, drop the oversized ones
    for i in range(len(coords)):
        if field.abs_value(coords[i]) * target.weights[i] > bound:
            coords[i] = field.zero
    return coords


def random_nonexpanding_map(
    domain: WeightedSpace, codomain: WeightedSpace, rng: random.Random
) -> BoundedMap:
    field = domain.field
    cols = []
    for j in range(domain.dim):
        raw = [field.random_element(rng) for _ in range(codomain.dim)]
        cols.append(_fit_column(field, raw, codomain, domain.weights[j]))
    rows = [[cols[j][i] for j in range(domain.dim)] for i in range(codomain.dim)]
    return bounded_map(domain, codomain, rows)


def random_bounded_map(
    domain: WeightedSpace, codomain: WeightedSpace, rng: random.Random
) -> BoundedMap:
    """Bounded but not necessarily non-expanding; null directions respected."""
    field = domain.field
    cols = []
    for j in range(domain.dim):
        raw = [field.random_element(rng) for _ in range(codomain.dim)]
        bound = domain.weights[j]
        if bound.is_zero:
            cols.append(_fit_column(field, raw, codomain, bound))
        else:
            cols.append(raw)
    rows = [[cols[j][i] for j in range(domain.dim)] for i in range(codomain.dim)]
    return bounded_map(domain, codomain, rows)


def random_strict_mono(
    field: ValuedField,
    rng: random.Random,
    max_dim: int = 3,
    allow_null: bool = False,
) -> BoundedMap:
    """Inclusion of the orthogonal span of a few random vectors."""
    ambient = random_space(field, rng, max_dim, allow_null)
    count = rng.randint(0, ambient.dim)
    ob = orthogonalize(ambient, [random_vector(ambient, rng) for _ in range(count)])
    return ob.inclusion()


def random_strict_epi(
    field: ValuedField,
    rng: random.Random,
    max_dim: int = 3,
    allow_null: bool = False,
) -> BoundedMap:
    """Quotient projection by the orthogonal span of a few random vectors."""
    ambient = random_space(field, rng, max_dim, allow_null)
    count = rng.randint(0, ambient.dim)
    ob = orthogonalize(ambient, [random_vector(ambient, rng) for _ in range(count)])
    _, proj = cokernel(ob.inclusion())
    return proj


def random_isometric_auto(space: WeightedSpace, rng: random.Random) -> BoundedMap:
    """Isometric automorphism: a product of unit scalings and legal shears.

    A shear e_j -> e_j + c e_i keeps the map and its inverse non-expanding
    exactly when |c| * w_i <= w_j, so each factor is an isometry.
    """
    field = space.field
    n = space.dim
    rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def unit(ring_rng):
        u = field.random_element(ring_rng, allow_zero=False)
        if isinstance(field, PAdicRationals):
            v = field.abs_value(u)
            if not v.is_zero and v != MAG_ONE:
                u = field.mul(u, Fraction(field.p) ** int(v.exponent))
        return u

    for j in range(n):
        u = unit(rng)
        for i in range(n):
            rows[i][j] = field.mul(rows[i][j], u)
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = field.random_element(rng)
        if field.is_zero(c):
            continue
        if field.abs_value(c) * space.weights[i] > space.weights[j]:
            if not isinstance(field, PAdicRationals) or space.weights[i].is_zero:
                continue
            if space.weights[j].is_zero:
                continue
            gap = field.abs_value(c) * space.weights[i] / space.weights[j]
            c = field.mul(c, Fraction(field.p ** math.ceil(gap.exponent)))
        for r in range(n):
            rows[r][j] = field.add(rows[r][j], field.mul(c, rows[r][i]))
    return bounded_map(space, space, rows)
