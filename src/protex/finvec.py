"""Weighted modules as a category instance, plus the bounded enumerable one.

``WeightedModuleCategory`` adapts the exact linear algebra to the
abstract contract (kernels, cokernels, solvers, squares).  Each distinct
map is analysed once per instance: mono, epi, both strict flags and the
leg read-offs read that one analysis; only ``is_iso``, the generic
classifier's test, stays apart from it.  The square audits read one leg
per square without building it: the pullback p2 of an epi f off the
quotient norm of f, the pushout j2 of a mono i off the image norm of i;
only a non-epi f or a non-mono i gets its square built.
``FinWeightedVec`` restricts to a finite universe over a prime field
with a fixed weight set and dimension bound, where every hom-set is
finite: morphism enumeration frees each column entry only where the
codomain weight is at most the domain weight, so the non-expanding and
null-direction constraints are enforced by construction.  It also
carries the brute-force quotient-norm oracle used against the
algorithmic one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import constructions as con
from .category import _STRICTNESS, CategoryInstance, Strictness
from .errors import ENUMERATION_CAP, BudgetExceeded, InvariantViolation
from .scalars import Magnitude, PrimeField, ValuedField, format_magnitude
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
        return self._analysis(f).mono

    def is_epi(self, f: BoundedMap) -> bool:
        return self._analysis(f).epi

    def strictness(self, f: BoundedMap) -> Strictness:
        a = self._analysis(f)
        return _STRICTNESS[a.strict_mono][a.strict_epi]

    def _analysis(self, f: BoundedMap) -> con._MapAnalysis:
        return self._memoized("analysis", f, con.map_analysis)

    def pullback(self, f, g):
        return con.pullback(f, g)

    def pushout(self, i, g):
        return con.pushout(i, g)

    def pullback_leg_strictness(self, f, g) -> Strictness:
        """Read off f's quotient norm when f is onto; otherwise build the square."""
        if not self.is_epi(f):
            return super().pullback_leg_strictness(f, g)
        return Strictness(*self._analysis(f).pullback_leg_flags(g))

    def pushout_leg_strictness(self, i, g) -> Strictness:
        """Read off i's image norm when i is injective; otherwise build the square."""
        if not self.is_mono(i):
            return super().pushout_leg_strictness(i, g)
        return Strictness(*self._analysis(i).pushout_leg_flags(g))

    def describe_object(self, X: WeightedSpace) -> dict:
        return {"weights": [format_magnitude(w) for w in X.weights]}

    def describe_morphism(self, f: BoundedMap) -> dict:
        F = self.field
        return {
            "domain": self.describe_object(f.domain),
            "codomain": self.describe_object(f.codomain),
            "matrix": [[F.format_element(x) for x in row] for row in f.matrix],
        }


@dataclass(frozen=True)
class FinWeightedVec(WeightedModuleCategory):
    """All spaces of dimension <= max_dim with weights from a fixed finite set.

    Objects are canonical up to isometric isomorphism: weight tuples are
    kept sorted in decreasing order.
    """

    weights: tuple[Magnitude, ...] = ()
    max_dim: int = 2

    def __post_init__(self):
        if not isinstance(self.field, PrimeField):
            raise InvariantViolation("the enumerable instance needs a prime field")
        if not self.weights:
            raise InvariantViolation("the enumerable instance needs a weight set")
        for i, w in enumerate(self.weights):
            if w in self.weights[:i]:
                # a repeated weight would list the same space twice
                raise InvariantViolation(f"weights: {format_magnitude(w)} is listed twice")

    name = "finite-weighted-vec"

    def describe(self) -> dict:
        return {
            "kind": "finvec",
            "p": self.field.p,
            "weights": [format_magnitude(w) for w in self.weights],
            "max_dim": self.max_dim,
        }

    def objects(self) -> list[WeightedSpace]:
        count = math.comb(len(self.weights) + self.max_dim, self.max_dim)  # weight multisets
        if count > ENUMERATION_CAP:
            raise BudgetExceeded(f"{count} objects exceed the enumeration cap")
        out = []
        for d in range(self.max_dim + 1):
            for combo in itertools.combinations_with_replacement(
                sorted(self.weights, reverse=True), d
            ):
                out.append(WeightedSpace(self.field, combo))
        return out

    def vectors(self, space: WeightedSpace) -> tuple[Vector, ...]:
        return tuple(
            Vector(space, coords)
            for coords in itertools.product(range(self.field.p), repeat=space.dim)
        )

    def morphisms(self, X: WeightedSpace, Y: WeightedSpace) -> tuple[BoundedMap, ...]:
        return self._memoized("homs", (X, Y), self._hom_set)

    def _hom_set(self, ends) -> tuple[BoundedMap, ...]:
        X, Y = ends
        # the trivial absolute value makes norm(v) the largest weight in the
        # support of v, so a column of weight w is free exactly where y <= w
        p = self.field.p
        choices = [[range(p) if y <= w else (0,) for y in Y.weights] for w in X.weights]
        if math.prod(len(c) for column in choices for c in column) > ENUMERATION_CAP:
            raise BudgetExceeded(f"hom-set of more than {ENUMERATION_CAP} maps requested")
        columns = (itertools.product(*column) for column in choices)
        return tuple(
            bounded_map(X, Y, [[col[i] for col in combo] for i in range(Y.dim)])
            for combo in itertools.product(*columns)
        )

    def brute_quotient_norm(self, sub_generators: list[Vector], m: Vector) -> Magnitude:
        """Literal minimum of the norm over the finite coset m + span(generators)."""
        F = self.field
        space = m.space
        for g in sub_generators:
            if g.space != space:
                raise InvariantViolation("subspace generator outside the ambient space")
        return min(
            norm(Vector(space, tuple(F.add(a, b) for a, b in zip(m.coords, s))))
            for s in self._span(sub_generators, space)
        )

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
