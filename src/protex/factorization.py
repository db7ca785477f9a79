"""Finite-fuel small-object-argument factorizations with replayable certificates.

``factor_map`` factors f as (right leg with the right lifting property
against the generators) after (finite composite of pushouts of
generators).  One lifting problem is attached per step, chosen in the
deterministic lexicographic order of (generator index, serialized top
leg, serialized bottom leg), so runs are reproducible.  Exhausting the
fuel raises with the partial certificate attached.

Special preenvelopes factor X -> 0; precovers factor 0 -> X and verify
hom-surjectivity from the generator cokernels within the instance bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .category import CategoryInstance, LiftingSearch, Mor, Obj
from .errors import BudgetExceeded, FuelExhausted, InvariantViolation

fuel_default = 100


@dataclass(frozen=True)
class GeneratingSet:
    """Finite list of admissible monomorphisms closed to factor against."""

    label: str
    generators: tuple[Mor, ...]

    @staticmethod
    def of(C: CategoryInstance, label: str, generators) -> "GeneratingSet":
        gens = tuple(generators)
        for g in gens:
            if not C.strictness(g).strict_mono:
                raise InvariantViolation(
                    f"generating set {label!r} contains a non-admissible map"
                )
        return GeneratingSet(label, gens)


@dataclass(frozen=True)
class FactorizationStep:
    generator_index: int
    attach: Mor  # A -> W_k, the top leg of the filled square
    cell: Mor  # B -> W_{k+1}
    step_mono: Mor  # W_k -> W_{k+1}, pushout of the generator along attach


@dataclass(frozen=True)
class FactorizationCertificate:
    factored: Mor
    left: Mor
    right: Mor
    steps: tuple[FactorizationStep, ...]
    rlp_verified: bool  # right leg has no unfilled problems within bounds
    problems_checked: int

    def replay(self, C: CategoryInstance, G: GeneratingSet) -> bool:
        """Recompute every pushout step and recompose both legs exactly."""
        W = C.dom(self.factored)
        left = C.identity(W)
        for step in self.steps:
            gen = G.generators[step.generator_index]
            if C.dom(step.attach) != C.dom(gen) or C.cod(step.attach) != W:
                return False
            square = C.pushout(gen, step.attach)
            if square.j1 != step.cell or square.j2 != step.step_mono:
                return False
            left = C.compose(step.step_mono, left)
            W = C.cod(step.step_mono)
        if left != self.left:
            return False
        return C.compose(self.right, self.left) == self.factored


def _serialize_for_order(C: CategoryInstance, f: Mor) -> str:
    return json.dumps(C.describe_morphism(f), sort_keys=True)


def _first_problem(
    C: CategoryInstance, r: Mor, G: GeneratingSet, budget: Optional[int], used: list[int]
):
    """First unfilled lifting problem against the generators, or None.

    Every commuting square of every generator counts against the budget,
    but lifts are tested only up to the first generator with an unfilled
    square, because the generator index leads the problem order.
    """
    first = None
    for a, g in enumerate(G.generators):
        search = LiftingSearch(C, g, r)
        used[0] += len(search.squares)
        if search.squares and budget is not None and used[0] > budget:
            raise BudgetExceeded(f"lifting budget {budget} exceeded")
        if first is not None:
            continue
        unfilled = [(u, v) for u, v in search.squares if not search.lifts(u, v)]
        if unfilled:
            u, v = min(unfilled, key=lambda s: [_serialize_for_order(C, m) for m in s])
            first = a, u, v
    return first


def factor_map(
    C: CategoryInstance,
    f: Mor,
    G: GeneratingSet,
    fuel: int = fuel_default,
    budget: Optional[int] = None,
) -> FactorizationCertificate:
    """Factor f = right o left with left a finite composite of generator pushouts.

    Raises FuelExhausted (with the partial certificate attached) when
    unfilled lifting problems remain at the fuel bound.
    """
    if fuel < 0:
        raise InvariantViolation("fuel must be non-negative")
    W = C.dom(f)
    left = C.identity(W)
    right = f
    steps: list[FactorizationStep] = []
    used = [0]
    while True:
        problem = _first_problem(C, right, G, budget, used)
        if problem is None:
            return FactorizationCertificate(
                f, left, right, tuple(steps), True, used[0]
            )
        if len(steps) >= fuel:
            partial = FactorizationCertificate(
                f, left, right, tuple(steps), False, used[0]
            )
            raise FuelExhausted(
                f"unfilled lifting problems remain after {fuel} steps", partial
            )
        a, u, v = problem
        gen = G.generators[a]
        square = C.pushout(gen, u)
        new_right = square.mediate(v, right)
        if new_right is None:
            raise InvariantViolation("pushout mediator failed on a commuting square")
        steps.append(FactorizationStep(a, u, square.j1, square.j2))
        left = C.compose(square.j2, left)
        right = new_right
        W = square.space


@dataclass(frozen=True)
class PreenvelopeResult:
    envelope: Mor  # admissible mono X -> B
    certificate: FactorizationCertificate
    mono_admissible: bool
    codomain_orthogonal: bool  # B -> 0 kept the lifting property within bounds


def special_preenvelope(
    C: CategoryInstance,
    X: Obj,
    G: GeneratingSet,
    fuel: int = fuel_default,
    budget: Optional[int] = None,
) -> PreenvelopeResult:
    """Factor X -> 0; the left leg is the special preenvelope."""
    f = C.zero_morphism(X, C.zero_object())
    cert = factor_map(C, f, G, fuel, budget)
    mono_ok = C.strictness(cert.left).strict_mono
    return PreenvelopeResult(cert.left, cert, mono_ok, cert.rlp_verified)


@dataclass(frozen=True)
class PrecoverResult:
    cover: Mor  # A -> X
    certificate: FactorizationCertificate
    hom_surjective: bool  # Hom(A', A) -> Hom(A', X) onto for generator cokernels A'


def precover(
    C: CategoryInstance,
    X: Obj,
    G: GeneratingSet,
    fuel: int = fuel_default,
    budget: Optional[int] = None,
) -> PrecoverResult:
    """Factor 0 -> X; the right leg is the precover, built from generator cells."""
    f = C.zero_morphism(C.zero_object(), X)
    cert = factor_map(C, f, G, fuel, budget)
    cover = cert.right
    A = C.dom(cover)
    surjective = True
    for g in G.generators:
        cok, _ = C.cokernel(g)
        homs = C.morphisms(cok, X)
        if not {C.compose(cover, h) for h in C.morphisms(cok, A)}.issuperset(homs):
            surjective = False
            break
    return PrecoverResult(cover, cert, surjective)
