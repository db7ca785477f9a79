"""Finite-dimensional weighted (semi-)normed modules and bounded maps.

A weighted space fixes a basis and a weight per basis vector; the norm of
a vector is the max of ``|coordinate| * weight``.  Weight zero encodes a
semi-normed null direction.  Every construction below is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import InvariantViolation, NotComposable
from .scalars import MAG_ZERO, Magnitude, ValuedField, _magnitude


@dataclass(frozen=True)
class WeightedSpace:
    field: ValuedField
    weights: tuple[Magnitude, ...]
    label: Optional[str] = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        tag = self.label or "space"
        return f"{tag}(dim={self.dim})"


def rank_one(field: ValuedField, delta: Magnitude) -> WeightedSpace:
    """The free rank-one module with its single weight ``delta``."""
    return WeightedSpace(field, (delta,))


@dataclass(frozen=True)
class Vector:
    space: WeightedSpace
    coords: tuple

    def __post_init__(self):
        n = len(self.space.weights)
        if len(self.coords) != n:
            raise InvariantViolation(
                f"vector has {len(self.coords)} coordinates in a {n}-dimensional space"
            )

    @property
    def is_zero(self) -> bool:
        F = self.space.field
        return all(F.is_zero(c) for c in self.coords)


def vector(space: WeightedSpace, coords) -> Vector:
    return Vector(space, tuple(coords))


def zero_vector(space: WeightedSpace) -> Vector:
    return Vector(space, (space.field.zero,) * space.dim)


def basis_vector(space: WeightedSpace, i: int) -> Vector:
    F = space.field
    return Vector(space, tuple(F.one if j == i else F.zero for j in range(space.dim)))


def norm(v: Vector) -> Magnitude:
    """max over coordinates of |coordinate| * weight; zero for the zero vector.

    The max is taken over exponents, ``e(coordinate) + e(weight)``.
    """
    F = v.space.field
    best = None
    for c, w in zip(v.coords, v.space.weights):
        if w.exponent is not None:
            e = F.abs_exponent(c)
            if e is not None and (best is None or e + w.exponent > best):
                best = e + w.exponent
    return MAG_ZERO if best is None else _magnitude(best)


# ---------------------------------------------------------------------------
# Bounded maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedMap:
    """Module map as an exact matrix (codomain.dim rows x domain.dim columns).

    Construction checks the shape and, for every map, read or built, that a
    basis vector of weight zero lands on a vector of norm zero; otherwise
    no finite operator norm exists.
    """

    domain: WeightedSpace
    codomain: WeightedSpace
    matrix: tuple[tuple, ...]

    def __post_init__(self):
        F, cod = self.domain.field, self.codomain.weights
        if F != self.codomain.field:
            raise InvariantViolation("domain and codomain live over different fields")
        m, n = len(cod), len(self.domain.weights)
        if len(self.matrix) != m:
            raise InvariantViolation(
                f"matrix has {len(self.matrix)} rows, codomain dimension is {m}"
            )
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise InvariantViolation(
                    f"matrix row {i} has {len(row)} entries, domain dimension is {n}"
                )
        # null columns in the outer loop, so the error names the least such index
        for j, w in enumerate(self.domain.weights):
            if w.exponent is None and any(
                not F.is_zero(r[j]) for v, r in zip(cod, self.matrix) if v.exponent is not None
            ):
                raise InvariantViolation(f"null direction at basis index {j} has a non-null image")

    def column(self, j: int) -> Vector:
        return Vector(self.codomain, tuple(row[j] for row in self.matrix))

    def apply(self, v: Vector) -> Vector:
        if v.space != self.domain:
            raise InvariantViolation("vector does not belong to the domain")
        F = self.domain.field
        coords = linalg.mat_vec(F, self.matrix, v.coords)
        return Vector(self.codomain, tuple(coords))

    def rows(self):
        return [list(r) for r in self.matrix]


def bounded_map(domain: WeightedSpace, codomain: WeightedSpace, rows) -> BoundedMap:
    return BoundedMap(domain, codomain, tuple(tuple(r) for r in rows))


def identity_map(space: WeightedSpace) -> BoundedMap:
    return bounded_map(space, space, linalg.identity(space.field, space.dim))


def identity_between(domain: WeightedSpace, codomain: WeightedSpace) -> BoundedMap:
    """Identity matrix between two spaces on the same underlying module."""
    if domain.dim != codomain.dim or domain.field != codomain.field:
        raise InvariantViolation("identity requires equal dimension over one field")
    return bounded_map(domain, codomain, linalg.identity(domain.field, domain.dim))


def zero_map(domain: WeightedSpace, codomain: WeightedSpace) -> BoundedMap:
    F = domain.field
    return bounded_map(domain, codomain, [[F.zero] * domain.dim for _ in range(codomain.dim)])


def compose(g: BoundedMap, f: BoundedMap) -> BoundedMap:
    """g after f; shapes are taken from the spaces so empty matrices are safe."""
    if f.codomain != g.domain:
        raise NotComposable("codomain of the first map must equal domain of the second")
    prod = linalg.mat_mul(f.domain.field, g.matrix, f.matrix, f.domain.dim)
    return bounded_map(f.domain, g.codomain, prod)


def _stretches(domain: WeightedSpace, codomain: WeightedSpace, rows):
    """``(j, s)`` per non-zero ``|x| w_i``, x in column j: s = e(|x| w_i / w_j), None if w_j = 0."""
    F = domain.field
    dom = [w.exponent for w in domain.weights]
    for w, row in zip(codomain.weights, rows):
        ec = w.exponent
        if ec is not None:
            for j, x in enumerate(row):
                e = F.abs_exponent(x) if x else None
                if e is not None:
                    yield j, None if dom[j] is None else e + ec - dom[j]


def contracts(domain: WeightedSpace, codomain: WeightedSpace, rows) -> bool:
    """Whether the matrix ``rows`` keeps null directions null and has operator norm <= 1."""
    return all(s is not None and s <= 0 for _, s in _stretches(domain, codomain, rows))


def operator_norm(f: BoundedMap) -> Magnitude:
    """sup of ||f(x)|| / ||x||: the max of ||f(e_i)|| / w_i over non-null w_i (orthogonal basis)."""
    best = max((s for _, s in _stretches(f.domain, f.codomain, f.matrix)), default=None)
    return MAG_ZERO if best is None else _magnitude(best)


def is_nonexpanding(f: BoundedMap) -> bool:
    return contracts(f.domain, f.codomain, f.matrix)


# ---------------------------------------------------------------------------
# Rescaling, separation, biproducts
# ---------------------------------------------------------------------------


def rescale(space: WeightedSpace, delta: Magnitude) -> WeightedSpace:
    """Same module, every weight multiplied by a non-zero magnitude."""
    if delta.is_zero:
        raise InvariantViolation("rescaling factor must be non-zero")
    return WeightedSpace(space.field, tuple(w * delta for w in space.weights), space.label)


def separation(space: WeightedSpace) -> tuple[WeightedSpace, BoundedMap]:
    """Quotient by the null directions; returns the space and the projection."""
    keep = [i for i, w in enumerate(space.weights) if not w.is_zero]
    sep = WeightedSpace(space.field, tuple(space.weights[i] for i in keep), space.label)
    F = space.field
    rows = [[F.one if j == i else F.zero for j in range(space.dim)] for i in keep]
    return sep, bounded_map(space, sep, rows)


@dataclass(frozen=True)
class Biproduct:
    space: WeightedSpace
    injections: tuple[BoundedMap, ...]
    projections: tuple[BoundedMap, ...]


def biproduct(spaces: list[WeightedSpace]) -> Biproduct:
    """Concatenated weights with the max norm; coproduct and product at once."""
    if not spaces:
        raise InvariantViolation("biproduct needs at least one factor; use a zero space")
    F = spaces[0].field
    if any(s.field != F for s in spaces):
        raise InvariantViolation("biproduct factors must share the base field")
    weights: tuple[Magnitude, ...] = ()
    offsets = []
    for s in spaces:
        offsets.append(len(weights))
        weights = weights + s.weights
    total = WeightedSpace(F, weights)
    injections = []
    projections = []
    n = len(weights)
    for s, off in zip(spaces, offsets):
        inj = [[F.one if (i == off + j) else F.zero for j in range(s.dim)] for i in range(n)]
        proj = [[F.one if (j == off + i) else F.zero for j in range(n)] for i in range(s.dim)]
        injections.append(bounded_map(s, total, inj))
        projections.append(bounded_map(total, s, proj))
    return Biproduct(total, tuple(injections), tuple(projections))
