"""Abstract pointed-category contract, strictness classification and audits.

A :class:`CategoryInstance` packages a pointed category with computable
kernels and cokernels, mediating-map solvers, and (for the finite
instances) exhaustive enumerators.  On top of that contract this module
implements the generic machinery: classification of strict
monomorphisms/epimorphisms from kernel-cokernel comparisons, validation
of short exact sequences, lifting-property checks, and exhaustive audits
of the proto-exact, totality and obscure axioms with replayable failure
witnesses.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .errors import BudgetExceeded, NotComposable, SolverUnavailable

Obj = Any
Mor = Any


@dataclass(frozen=True)
class Strictness:
    strict_mono: bool
    strict_epi: bool

    @property
    def label(self) -> str:
        if self.strict_mono and self.strict_epi:
            return "both"
        if self.strict_mono:
            return "strict_mono"
        if self.strict_epi:
            return "strict_epi"
        return "neither"


class CategoryInstance(ABC):
    """Pointed category with computable kernels, cokernels and solvers.

    Morphisms are hashable values: ``==`` is morphism equality and equal
    morphisms hash alike, so searches may index them in sets and dicts.
    Objects are compared by identity of presentation.  Implementations
    must be immutable.

    ``strictness`` must be a pure function of the morphism value, memoized
    per instance (with ``_memoized``), so that all callers sharing an
    instance classify each distinct map once.

    ``is_mono(f)`` and ``is_epi(f)`` decide the plain notions: f is a mono
    iff ``a -> f o a`` is injective on every Hom(W, dom f), and an epi iff
    ``b -> b o f`` is injective on every Hom(cod f, W).  Every strict mono
    must be a mono and every strict epi an epi: the obscure audits rely on
    this "strict implies plain" to skip the factors that cannot fail.

    ``pullback_leg_strictness(f, g)`` must equal ``strictness`` of the
    pullback's second leg p2, and ``pushout_leg_strictness(i, g)`` that of
    the pushout's second leg j2; the square audits read only these.  An
    instance may decide them without building the square.  A subclass of an
    instance that overrides ``strictness`` must override them too (the
    defaults here build the square and read the leg through ``strictness``).

    ``describe_object`` and ``describe_morphism`` give the JSON that reports
    and witnesses print, and that orders lifting problems.
    """

    name: str = "category"

    @abstractmethod
    def zero_object(self) -> Obj: ...

    @abstractmethod
    def identity(self, X: Obj) -> Mor: ...

    @abstractmethod
    def compose(self, g: Mor, f: Mor) -> Mor: ...

    @abstractmethod
    def dom(self, f: Mor) -> Obj: ...

    @abstractmethod
    def cod(self, f: Mor) -> Obj: ...

    @abstractmethod
    def zero_morphism(self, X: Obj, Y: Obj) -> Mor: ...

    @abstractmethod
    def kernel(self, f: Mor) -> tuple[Obj, Mor]: ...

    @abstractmethod
    def cokernel(self, f: Mor) -> tuple[Obj, Mor]: ...

    @abstractmethod
    def factor_through_kernel(self, k_incl: Mor, f: Mor) -> Optional[Mor]:
        """v with k_incl o v = f, or None if no such morphism exists."""

    @abstractmethod
    def factor_through_cokernel(self, q_proj: Mor, f: Mor) -> Optional[Mor]:
        """u with u o q_proj = f, or None if no such morphism exists."""

    @abstractmethod
    def is_iso(self, f: Mor) -> bool: ...

    @abstractmethod
    def is_mono(self, f: Mor) -> bool: ...

    @abstractmethod
    def is_epi(self, f: Mor) -> bool: ...

    def is_zero_morphism(self, f: Mor) -> bool:
        return f == self.zero_morphism(self.dom(f), self.cod(f))

    # description and enumeration; only the finite instances provide these
    def describe(self) -> dict:
        """The instance JSON that ``serialize.parse_instance`` reads back."""
        raise SolverUnavailable(f"{self.name} has no instance description")

    def objects(self) -> list[Obj]:
        raise SolverUnavailable(f"{self.name} cannot enumerate objects")

    def morphisms(self, X: Obj, Y: Obj) -> tuple[Mor, ...]:
        raise SolverUnavailable(f"{self.name} cannot enumerate morphisms")

    # squares; results expose .mediate(leg1, leg2)
    @abstractmethod
    def pullback(self, f: Mor, g: Mor): ...

    @abstractmethod
    def pushout(self, i: Mor, g: Mor): ...

    def pullback_leg_strictness(self, f: Mor, g: Mor) -> Strictness:
        """Strictness of the pullback square's leg p2, the pullback of f along g."""
        return self.strictness(self.pullback(f, g).p2)

    def pushout_leg_strictness(self, i: Mor, g: Mor) -> Strictness:
        """Strictness of the pushout square's leg j2, the pushout of i along g."""
        return self.strictness(self.pushout(i, g).j2)

    @abstractmethod
    def strictness(self, f: Mor) -> Strictness:
        """Instance classification; it must agree with :func:`classify_strictness`."""

    def _memoized(self, table: str, key, compute: Callable):
        """compute(key), remembered in this instance's memo table ``table``.

        The tables live as long as the instance.  They are not fields, so
        they take no part in ``==``, hash or repr.  ``compute`` must be pure.
        """
        try:
            memo = self.__dict__["_memo_tables"][table]
        except KeyError:  # the first lookup in this table makes it
            memo = self.__dict__.setdefault("_memo_tables", {}).setdefault(table, {})
        try:
            return memo[key]
        except KeyError:
            memo[key] = value = compute(key)
            return value

    @abstractmethod
    def describe_object(self, X: Obj) -> Any: ...

    @abstractmethod
    def describe_morphism(self, f: Mor) -> Any: ...


# ---------------------------------------------------------------------------
# Generic classification and sequence validation
# ---------------------------------------------------------------------------


def classify_strictness(C: CategoryInstance, f: Mor) -> Strictness:
    """Strictness from kernel-cokernel comparison maps.

    f is a strict mono iff it is a kernel of its cokernel, and a strict
    epi iff it is a cokernel of its kernel.
    """
    return Strictness(_is_kernel(C, f, C.cokernel(f)[1]), _is_cokernel(C, f, C.kernel(f)[1]))


def _is_kernel(C: CategoryInstance, f: Mor, g: Mor) -> bool:
    """The comparison from dom f to Ker g exists and is an iso."""
    v = C.factor_through_kernel(C.kernel(g)[1], f)
    return v is not None and C.is_iso(v)


def _is_cokernel(C: CategoryInstance, g: Mor, f: Mor) -> bool:
    """The comparison from Coker f to cod g exists and is an iso."""
    u = C.factor_through_cokernel(C.cokernel(f)[1], g)
    return u is not None and C.is_iso(u)


@dataclass(frozen=True)
class ShortExactSequence:
    f: Mor
    g: Mor


@dataclass(frozen=True)
class SesVerdict:
    ok: bool
    failing_clause: Optional[str] = None


def validate_ses(C: CategoryInstance, ses: ShortExactSequence) -> SesVerdict:
    """Checks g o f = 0, f = Ker(g) and g = Coker(f) up to isomorphism."""
    f, g = ses.f, ses.g
    if C.cod(f) != C.dom(g):
        raise NotComposable("the two maps of the sequence do not compose")
    gf = C.compose(g, f)
    if not C.is_zero_morphism(gf):
        return SesVerdict(False, "compose_nonzero")
    if not _is_kernel(C, f, g):
        return SesVerdict(False, "first_map_not_kernel")
    if not _is_cokernel(C, g, f):
        return SesVerdict(False, "second_map_not_cokernel")
    return SesVerdict(True)


# ---------------------------------------------------------------------------
# Lifting properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RlpResult:
    ok: bool
    witness: Optional[dict]
    squares_checked: int


class LiftingSearch:
    """Commuting squares from a generator g: A -> B to r: W -> Y, indexed once.

    Hom(B, Y) is bucketed by v o g, once per (g, Y) per instance (memo
    table ``bottoms``), so the squares over a top leg u are one lookup of
    r o u; they come out u-outer, v-inner in hom enumeration order.  A
    square lifts iff it is among the fillers {(d o g, r o d) : d in Hom(B, W)},
    built once on first need.

    ``composites`` maps an object Z to [r o x for x in Hom(Z, W)] in hom
    order.  Searches against the same r may share one dict, so each such
    composite is computed once for the tops and fillers of every generator
    with an end Z; the caller drops it when r changes.  Sharing saves
    compositions only: every square is still listed, and each hom-set is
    still listed where an unshared search lists it.
    """

    def __init__(self, C: CategoryInstance, g: Mor, r: Mor, composites: dict):
        self.C, self.g, self.r = C, g, r
        self._composites = composites
        A = C.dom(g)
        tops = C.morphisms(A, C.dom(r))
        bottoms = C._memoized(
            "bottoms", (g, C.cod(r)), lambda ends: _bucket_by_precomposite(C, *ends)
        )
        self.squares = [
            (u, v) for u, ru in zip(tops, self._after_r(A, tops)) for v in bottoms.get(ru, ())
        ]
        self._fillers: Optional[set] = None

    def _after_r(self, Z: Obj, homs: tuple) -> list:
        """[r o x for x in homs], where homs is Hom(Z, W), computed once per shared dict."""
        out = self._composites.get(Z)
        if out is None:
            C, r = self.C, self.r
            out = self._composites[Z] = [C.compose(r, x) for x in homs]
        return out

    def lifts(self, u: Mor, v: Mor) -> bool:
        if self._fillers is None:
            C, g = self.C, self.g
            B = C.cod(g)
            ds = C.morphisms(B, C.dom(self.r))
            self._fillers = set(zip([C.compose(d, g) for d in ds], self._after_r(B, ds)))
        return (u, v) in self._fillers


def _bucket_by_precomposite(C: CategoryInstance, g: Mor, Y: Obj) -> dict:
    """Hom(cod g, Y) grouped by v o g, each group in hom enumeration order."""
    bottoms: dict = {}
    for v in C.morphisms(C.cod(g), Y):
        bottoms.setdefault(C.compose(v, g), []).append(v)
    return bottoms


def _serialize_for_order(C: CategoryInstance, f: Mor) -> str:
    return json.dumps(C.describe_morphism(f), sort_keys=True)


def _first_problem(C: CategoryInstance, r: Mor, generators: tuple, budget: Budget):
    """First unfilled lifting problem (index, top, bottom) against the generators, or None.

    Problems are ordered by (generator index, serialized top leg,
    serialized bottom leg).  Every commuting square of every generator is
    charged to the budget, but lifts are tested only up to the first
    generator with an unfilled square, because the generator index leads
    the order.
    """
    first = None
    composites: dict = {}  # this round's r o x, shared by every generator's search
    for a, g in enumerate(generators):
        search = LiftingSearch(C, g, r, composites)
        budget.tick(len(search.squares))
        if first is not None:
            continue
        unfilled = [(u, v) for u, v in search.squares if not search.lifts(u, v)]
        if unfilled:
            u, v = min(unfilled, key=lambda s: [_serialize_for_order(C, m) for m in s])
            first = a, u, v
    return first


def has_rlp(
    C: CategoryInstance,
    f: Mor,
    against: Iterable[Mor],
    budget: Optional[int] = None,
) -> RlpResult:
    """True iff every commutative square from `against` to f has a diagonal filler.

    Squares are enumerated exhaustively, so the instance must be
    enumerable unless ``against`` is empty.  On failure the witness is the
    first unfilled problem in ``factor_map``'s order, the one it would
    attach next.  Every square of every map in ``against`` is one unit of
    ``budget``.
    """
    generators = tuple(against)
    counter = Budget(budget, "lifting")
    problem = _first_problem(C, f, generators, counter)
    if problem is None:
        return RlpResult(True, None, counter.used)
    a, u, v = problem
    return RlpResult(False, _witness(C, generator=generators[a], top=u, bottom=v), counter.used)


def admissible_monos(C: CategoryInstance) -> list[Mor]:
    """All strict monomorphisms between enumerated objects."""
    objs = C.objects()
    return [g for A in objs for g in _maps(C, objs, "strict_mono", source=A)]


def is_injective_object(C: CategoryInstance, I: Obj, budget: Optional[int] = None) -> RlpResult:
    """Right lifting property of I -> 0 against every admissible mono in bounds."""
    f = C.zero_morphism(I, C.zero_object())
    return has_rlp(C, f, admissible_monos(C), budget)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    axiom: str
    verdict: str  # "pass" | "fail"; a failure carries a witness
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return {"axiom": self.axiom, "verdict": self.verdict, "witness": self.witness}


@dataclass(frozen=True)
class AuditReport:
    instance: str
    bounds: dict
    entries: tuple[AuditEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries)

    def entry(self, axiom: str) -> AuditEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "bounds": self.bounds,
            "passed": self.passed,
            "entries": [e.as_dict() for e in self.entries],
        }


def _maps(C, objects, flag: Optional[str] = None, *, into=None, source=None) -> list:
    """Maps into ``into`` or out of ``source``, in object order.

    With ``flag`` ("strict_mono" or "strict_epi"), only the maps whose
    strictness has that flag.
    """
    ends = [(X, into) if source is None else (source, X) for X in objects]
    return [
        f
        for X, Y in ends
        for f in C.morphisms(X, Y)
        if flag is None or getattr(C.strictness(f), flag)
    ]


def _witness(C, **mors) -> dict:
    return {k: C.describe_morphism(m) for k, m in mors.items()}


def audit_axioms(
    C: CategoryInstance,
    total: bool = True,
    budget: Optional[int | Budget] = None,
) -> AuditReport:
    """Exhaustive audit of the proto-exact axioms for the canonical strict class.

    Checks identity admissibility, closure of the admissible classes under
    composition, stability of admissible epis under pullback along
    admissible monos (along all morphisms when ``total``), and dually for
    pushouts.  The instance must enumerate its objects and hom-sets
    (others raise ``SolverUnavailable``).  Every failure carries a
    replayable witness.

    The pushout audits are the pullback audits of the opposite category.
    Each square case reads one leg's strictness (``pullback_leg_strictness``,
    ``pushout_leg_strictness``).  A total audit whose restricted audit passed
    reads no square along a strict mono (epi): those are the restricted
    cases, known to pass.  They are still charged to the budget, so its
    threshold does not change.

    ``budget`` is a limit, or a ``Budget`` that several audits charge in turn.
    """
    objs, op = C.objects(), _Opposite(C)
    counter = _audit_budget(budget)
    entries = [
        _scan("identity_admissible", counter, _identity_cases(C, objs)),
        _scan("mono_composition", counter, _composition_cases(C, objs, "strict_mono")),
        _scan("epi_composition", counter, _composition_cases(C, objs, "strict_epi")),
        _scan("epi_pullback_along_mono", counter, _pullback_cases(C, objs, "epi")),
        _scan("mono_pushout_along_epi", counter, _pullback_cases(op, objs, "mono")),
    ]
    if total:
        along_mono, along_epi = entries[3:]
        entries += [
            _scan("epi_pullback_total", counter, _pullback_cases(C, objs, "epi", along_mono)),
            _scan("mono_pushout_total", counter, _pullback_cases(op, objs, "mono", along_epi)),
        ]
    return AuditReport(C.name, _bounds_of(C, counter.limit), tuple(entries))


def audit_obscure(C: CategoryInstance, budget: Optional[int | Budget] = None) -> AuditReport:
    """Exhaustive audit of the left/right obscure axioms and their strong variants.

    The instances shipped here are finitely complete and cocomplete, so
    the plain and strong variants coincide; the scan is shared and the
    verdicts are reported under both names.  The instance must enumerate
    its objects and hom-sets (others raise ``SolverUnavailable``).

    A first factor that is not a mono (a second factor that is not an
    epi) cannot fail, since j o i mono forces i mono (e o j epi forces e
    epi); its pairs are counted against the budget but not composed.  The
    right audit is the left audit of the opposite category.  ``budget`` is
    as in :func:`audit_axioms`.
    """
    objs = C.objects()
    counter = _audit_budget(budget)
    left = _scan("left_obscure", counter, _obscure_cases(C, objs, ("first", "second")))
    right = _scan("right_obscure", counter, _obscure_cases(_Opposite(C), objs, ("second", "first")))
    entries = (
        left,
        right,
        AuditEntry("strong_left_obscure", left.verdict, left.witness),
        AuditEntry("strong_right_obscure", right.verdict, right.witness),
    )
    return AuditReport(C.name, _bounds_of(C, counter.limit), entries)


def _audit_budget(budget: Optional[int | Budget]) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget, "audit")


class Budget:
    """Units of work charged against an optional limit; ``noun`` names it in the error."""

    def __init__(self, limit: Optional[int], noun: str):
        self.limit, self.noun, self.used = limit, noun, 0

    def tick(self, n: int = 1) -> None:
        """Charge n units; past the limit raise ``BudgetExceeded``.  A zero charge never raises."""
        self.used += n
        if n and self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"{self.noun} budget {self.limit} exceeded")


def _scan(name: str, budget: Budget, cases: Iterable[tuple[int, Optional[dict]]]) -> AuditEntry:
    """The verdict of one exhaustive check from its case source.

    The source yields ``(charge, witness)`` pairs.  Each charge is ticked
    before its witness is read; the first witness that is not None fails
    the check, and the source is not resumed.  A source yields its charges
    before any work that can raise (a hom-set cap), so errors come in the
    order of a scan that ticks every case in turn.
    """
    for charge, witness in cases:
        budget.tick(charge)
        if witness is not None:
            return AuditEntry(name, "fail", witness)
    return AuditEntry(name, "pass")


# the four flag pairs, indexed [strict_mono][strict_epi]
_STRICTNESS = tuple(tuple(Strictness(m, e) for e in (False, True)) for m in (False, True))


def _swapped(s: Strictness) -> Strictness:
    return _STRICTNESS[s.strict_epi][s.strict_mono]


@dataclass(frozen=True)
class _Opposite:
    """C^op, as far as the audits read it: each dual audit is the primal
    audit run here.  Hom-sets and composition are reversed, strict monos
    and strict epis (and monos and epis) swap, and a pullback leg is a
    pushout leg of C.  The morphisms are C's own, so witnesses describe
    them as C does.
    """

    C: CategoryInstance

    def morphisms(self, X: Obj, Y: Obj) -> tuple[Mor, ...]:
        return self.C.morphisms(Y, X)

    def compose(self, g: Mor, f: Mor) -> Mor:
        return self.C.compose(f, g)

    def strictness(self, f: Mor) -> Strictness:
        return _swapped(self.C.strictness(f))

    def is_mono(self, f: Mor) -> bool:
        return self.C.is_epi(f)

    def pullback_leg_strictness(self, f: Mor, g: Mor) -> Strictness:
        return _swapped(self.C.pushout_leg_strictness(f, g))

    def describe_morphism(self, f: Mor) -> Any:
        return self.C.describe_morphism(f)


def _bounds_of(C, budget) -> dict:
    return {"budget": budget, **C.describe()}


def _identity_cases(C, objs: list):
    for X in objs:
        s = C.strictness(C.identity(X))
        yield 1, None if s.strict_mono and s.strict_epi else {"object": C.describe_object(X)}


def _composition_cases(C, objs: list, flag: str):
    """Closure under composition of the maps with ``flag``; one charge per first factor."""
    for Y in objs:
        outgoing = _maps(C, objs, flag, source=Y)
        for f in _maps(C, objs, flag, into=Y):
            for n, g in enumerate(outgoing, 1):
                if not getattr(C.strictness(C.compose(g, f)), flag):
                    yield n, _witness(C, first=f, second=g)
            yield len(outgoing), None


def _pullback_cases(C, objs: list, key: str, restricted=None):
    """Pullbacks of strict epis e along maps g with the same codomain.

    Without ``restricted`` g runs over the strict monos; with it (the
    restricted audit's entry) over every map.  If that audit passed, the
    pairs whose g is a strict mono are its cases, known to pass: they are
    charged to the budget in the one charge, but not read.  On
    ``_Opposite(C)`` this audits pushouts of strict monos in C.  A failure's
    witness names e by ``key`` and g by ``along``.
    """
    cases, charged = [], 0
    for Z in objs:
        others = _maps(C, objs, "strict_mono" if restricted is None else None, into=Z)
        todo = others
        if restricted is not None and restricted.verdict == "pass":
            todo = [g for g in others if not C.strictness(g).strict_mono]
        for e in _maps(C, objs, "strict_epi", into=Z):
            charged += len(others)
            cases += [(e, g) for g in todo]
    yield charged, None
    for e, g in cases:
        if not C.pullback_leg_strictness(e, g).strict_epi:
            yield 0, _witness(C, **{key: e, "along": g})


def _obscure_cases(C, objs: list, keys: tuple):
    """Left obscure axiom: j o i a strict mono forces i to be one.

    On ``_Opposite(C)`` this is the right obscure axiom of C.  A failure's
    witness names i and j by ``keys``.  Each (i, Hom(Y, Z)) is one charge,
    taken once that hom-set is enumerated and its pairs are checked.
    """
    for Y in objs:
        for X in objs:
            for i in C.morphisms(X, Y):
                if C.strictness(i).strict_mono:
                    continue
                mono = C.is_mono(i)
                for Z in objs:
                    homs = C.morphisms(Y, Z)
                    # j o i is no mono if i is none, so no strict mono: charge, don't compose
                    for n, j in enumerate(homs if mono else (), 1):
                        if C.strictness(C.compose(j, i)).strict_mono:
                            yield n, _witness(C, **{keys[0]: i, keys[1]: j})
                    yield len(homs), None
