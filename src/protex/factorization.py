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

from dataclasses import dataclass
from typing import Optional

from .category import Budget, CategoryInstance, Mor, Obj, _first_problem
from .errors import FuelExhausted, InvariantViolation

fuel_default = 100


@dataclass(frozen=True)
class GeneratingSet:
    """Finite list of admissible monomorphisms closed to factor against."""

    generators: tuple[Mor, ...]

    @staticmethod
    def of(C: CategoryInstance, generators) -> "GeneratingSet":
        gens = tuple(generators)
        for k, g in enumerate(gens):
            if not C.strictness(g).strict_mono:
                raise InvariantViolation(f"generators[{k}]: not an admissible monomorphism")
        return GeneratingSet(gens)


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
    left = C.identity(C.dom(f))
    right = f
    steps: list[FactorizationStep] = []
    counter = Budget(budget, "lifting")
    while True:
        problem = _first_problem(C, right, G.generators, counter)
        if problem is None:
            return FactorizationCertificate(f, left, right, tuple(steps), True, counter.used)
        if len(steps) >= fuel:
            partial = FactorizationCertificate(f, left, right, tuple(steps), False, counter.used)
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
    checked = set()  # generators often share a cokernel object; each is checked once
    for g in G.generators:
        cok, _ = C.cokernel(g)
        if cok in checked:
            continue
        checked.add(cok)
        homs = C.morphisms(cok, X)
        if not {C.compose(cover, h) for h in C.morphisms(cok, A)}.issuperset(homs):
            surjective = False
            break
    return PrecoverResult(cover, cert, surjective)
