"""Weighted modules as a category instance, plus the bounded enumerable one.

``WeightedModuleCategory`` adapts the exact linear algebra to the abstract
contract (kernels, cokernels, solvers, squares).  ``FinWeightedVec``
restricts to a finite universe over a prime field with a fixed weight set
and dimension bound, where every hom-set is finite: morphism enumeration
builds columns from the vectors of small enough norm, so the non-expanding
and null-direction constraints are enforced by construction.  It also
carries the brute-force quotient-norm oracle used against the algorithmic
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import constructions as con
from . import linalg
from .category import CategoryInstance, Strictness
from .errors import BudgetExceeded, InvariantViolation, SolverUnavailable
from .scalars import MAG_ZERO, Magnitude, PrimeField, ValuedField, format_magnitude
from .spaces import (
    BoundedMap,
    Vector,
    WeightedSpace,
    bounded_map,
    compose,
    identity_map,
    norm,
    zero_map,
)


@dataclass(frozen=True)
class WeightedModuleCategory(CategoryInstance):
    """Finite-dimensional weighted modules over a fixed valued field."""

    field: ValuedField

    name = "weighted-modules"

    def bounds_descriptor(self) -> dict:
        return {"kind": "weighted", "field": repr(self.field)}

    def zero_object(self) -> WeightedSpace:
        return WeightedSpace(self.field, ())

    def identity(self, X: WeightedSpace) -> BoundedMap:
        return identity_map(X)

    def compose(self, g: BoundedMap, f: BoundedMap) -> BoundedMap:
        return compose(g, f)

    def dom(self, f: BoundedMap) -> WeightedSpace:
        return f.domain

    def cod(self, f: BoundedMap) -> WeightedSpace:
        return f.codomain

    def zero_morphism(self, X: WeightedSpace, Y: WeightedSpace) -> BoundedMap:
        return zero_map(X, Y)

    def kernel(self, f: BoundedMap):
        return con.kernel(f)

    def cokernel(self, f: BoundedMap):
        return con.cokernel(f)

    def factor_through_kernel(self, k_incl, f):
        return con.factor_through_kernel(k_incl, f)

    def factor_through_cokernel(self, q_proj, f):
        return con.factor_through_cokernel(q_proj, f)

    def is_iso(self, f: BoundedMap) -> bool:
        return con.is_iso_nonexpanding(f)

    def is_mono(self, f: BoundedMap) -> bool:
        return linalg.rank(f.domain.field, f.rows()) == f.domain.dim

    def is_epi(self, f: BoundedMap) -> bool:
        return linalg.rank(f.domain.field, f.rows()) == f.codomain.dim

    def strictness(self, f: BoundedMap) -> Strictness:
        return self._memoized("strictness", f, _strictness)

    def pullback(self, f, g):
        return con.pullback(f, g)

    def pushout(self, i, g):
        return con.pushout(i, g)

    def solve_rlp(self, f, g):
        # strict monos split here, so the retraction fills every square over 0
        if f.codomain.dim == 0 and self.strictness(g).strict_mono:
            return True, con.retraction(g) is not None
        return False, False

    def describe_object(self, X: WeightedSpace) -> dict:
        return {"weights": [format_magnitude(w) for w in X.weights]}

    def describe_morphism(self, f: BoundedMap) -> dict:
        F = self.field
        return {
            "domain": self.describe_object(f.domain),
            "codomain": self.describe_object(f.codomain),
            "matrix": [[F.format_element(x) for x in row] for row in f.matrix],
        }


def _strictness(f: BoundedMap) -> Strictness:
    _, strict_mono, strict_epi = con.strict_flags(f)
    return Strictness(strict_mono, strict_epi)


@dataclass(frozen=True)
class FinWeightedVec(WeightedModuleCategory):
    """All spaces of dimension <= max_dim with weights from a fixed finite set.

    Objects are canonical up to isometric isomorphism: weight tuples are
    kept sorted in decreasing order.
    """

    weights: tuple[Magnitude, ...] = ()
    max_dim: int = 2
    hom_budget: int = 1_000_000

    def __post_init__(self):
        if not isinstance(self.field, PrimeField):
            raise InvariantViolation("the enumerable instance needs a prime field")
        if not self.weights:
            raise InvariantViolation("the enumerable instance needs a weight set")

    name = "finite-weighted-vec"

    def solve_rlp(self, f, g):
        # hom-sets are finite; lifting problems are answered by enumeration
        return False, False

    def bounds_descriptor(self) -> dict:
        return {
            "kind": "finvec",
            "p": self.field.p,
            "weights": [format_magnitude(w) for w in self.weights],
            "max_dim": self.max_dim,
        }

    def objects(self) -> list[WeightedSpace]:
        out = []
        for d in range(self.max_dim + 1):
            for combo in itertools.combinations_with_replacement(
                sorted(self.weights, reverse=True), d
            ):
                out.append(WeightedSpace(self.field, combo))
        return out

    def vectors(self, space: WeightedSpace) -> tuple[Vector, ...]:
        return self._memoized("vectors", space, self._all_vectors)

    def _all_vectors(self, space: WeightedSpace) -> tuple[Vector, ...]:
        return tuple(
            Vector(space, coords)
            for coords in itertools.product(range(self.field.p), repeat=space.dim)
        )

    def morphisms(self, X: WeightedSpace, Y: WeightedSpace) -> tuple[BoundedMap, ...]:
        return self._memoized("homs", (X, Y), self._hom_set)

    def _hom_set(self, ends) -> tuple[BoundedMap, ...]:
        X, Y = ends
        # the trivial absolute value makes norm(v) the largest weight in the
        # support of v, so a column of weight w has p ** #{weights <= w} choices
        count = 1
        for w in X.weights:
            count *= self.field.p ** sum(1 for y in Y.weights if y <= w)
            if count > self.hom_budget:
                raise BudgetExceeded(
                    f"hom-set of more than {self.hom_budget} maps requested"
                )
        columns = [[v for v in self.vectors(Y) if norm(v) <= w] for w in X.weights]
        return tuple(
            bounded_map(X, Y, [[col.coords[i] for col in combo] for i in range(Y.dim)], check=False)
            for combo in itertools.product(*columns)
        )

    def brute_quotient_norm(self, sub_generators: list[Vector], m: Vector) -> Magnitude:
        """Literal minimum of the norm over the finite coset m + span(generators)."""
        F = self.field
        space = m.space
        for g in sub_generators:
            if g.space != space:
                raise InvariantViolation("subspace generator outside the ambient space")
        best = None
        coords_m = m.coords
        gens = [g.coords for g in sub_generators]
        for coeffs in itertools.product(range(F.p), repeat=len(gens)):
            coords = list(coords_m)
            for a, g in zip(coeffs, gens):
                if a == 0:
                    continue
                for i, c in enumerate(g):
                    coords[i] = F.add(coords[i], F.mul(a, c))
            n = norm(Vector(space, tuple(coords)))
            if best is None or n < best:
                best = n
        return best if best is not None else norm(m)

    def subspaces(self, space: WeightedSpace) -> list[tuple[Vector, ...]]:
        """Generator tuples for every distinct subspace (by brute enumeration)."""
        seen = set()
        out = []
        all_vectors = self.vectors(space)
        for r in range(space.dim + 1):
            for gens in itertools.combinations(all_vectors, r):
                span = frozenset(self._span(gens, space))
                if span not in seen:
                    seen.add(span)
                    out.append(gens)
        return out

    def _span(self, gens, space) -> set:
        F = self.field
        result = set()
        for coeffs in itertools.product(range(F.p), repeat=len(gens)):
            coords = [F.zero] * space.dim
            for a, g in zip(coeffs, gens):
                for i, c in enumerate(g.coords):
                    coords[i] = F.add(coords[i], F.mul(a, c))
            result.add(tuple(coords))
        return result


def enumerate_morphisms(instance: FinWeightedVec, X: WeightedSpace, Y: WeightedSpace):
    """Complete, duplicate-free list of non-expanding maps X -> Y."""
    return instance.morphisms(X, Y)
