"""Seeded random inputs for ``oracle-check``.

Everything takes an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import MAG_ZERO, Magnitude, ValuedField
from .spaces import BoundedMap, Vector, WeightedSpace, bounded_map


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


def random_bounded_map(
    domain: WeightedSpace, codomain: WeightedSpace, rng: random.Random
) -> BoundedMap:
    """Bounded but not necessarily non-expanding; null directions respected."""
    field = domain.field
    cols = []
    for j in range(domain.dim):
        col = [field.random_element(rng) for _ in range(codomain.dim)]
        if domain.weights[j].is_zero:
            # a null direction may only land in the null directions of the codomain
            col = [c if w.is_zero else field.zero for c, w in zip(col, codomain.weights)]
        cols.append(col)
    rows = [[cols[j][i] for j in range(domain.dim)] for i in range(codomain.dim)]
    return bounded_map(domain, codomain, rows)
