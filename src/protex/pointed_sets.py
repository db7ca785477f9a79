"""Finite pointed sets: a fully enumerable instance with closed-form strictness.

Objects are canonical pointed sets {0, 1, ..., n} with basepoint 0; maps
are image tuples.  A map is a strict mono iff it is injective, and a
strict epi iff it is surjective and injective away from the fiber of the
basepoint.  The instance doubles as the home of the two executable
counterexamples: the pullback of a strict epi along an arbitrary map need
not be strict (the category is not right total), and a composite can be a
strict epi while its second factor is not (the right obscure axiom fails).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .category import AuditEntry, AuditReport, CategoryInstance, Strictness, audit_obscure
from .errors import ENUMERATION_CAP, BudgetExceeded, InvariantViolation, NotComposable


@dataclass(frozen=True)
class PointedSet:
    """Canonical pointed set with ``size`` non-base elements, labelled 1..size."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise InvariantViolation("a pointed set cannot have negative size")

    @property
    def elements(self) -> range:
        return range(self.size + 1)


@dataclass(frozen=True)
class PointedMap:
    dom: PointedSet
    cod: PointedSet
    images: tuple[int, ...]  # images[x] for every x including the basepoint

    def __post_init__(self):
        if len(self.images) != self.dom.size + 1:
            raise InvariantViolation("image tuple length must match the domain")
        if self.images and self.images[0] != 0:
            raise InvariantViolation("a pointed map must preserve the basepoint")
        for x, y in enumerate(self.images):
            if not 0 <= y <= self.cod.size:
                raise InvariantViolation(f"image of {x} is outside the codomain")

    def __call__(self, x: int) -> int:
        return self.images[x]


def _image_strictness(images: tuple[int, ...], cod_size: int) -> Strictness:
    """Strictness of the pointed map with these images into {0, ..., cod_size}.

    A strict mono is injective.  A strict epi is surjective and injective
    when restricted to the complement of f^{-1}(0): since the basepoint maps
    to 0, its values are all of the codomain, and the non-base values are
    hit once each.
    """
    hit = len(set(images))
    return Strictness(
        hit == len(images),
        hit == cod_size + 1 and len(images) - images.count(0) == hit - 1,
    )


def is_strict_mono_map(f: PointedMap) -> bool:
    return _image_strictness(f.images, f.cod.size).strict_mono


def is_strict_epi_map(f: PointedMap) -> bool:
    return _image_strictness(f.images, f.cod.size).strict_epi


def is_epi_map(f: PointedMap) -> bool:
    return set(f.images) == set(f.cod.elements)


def _strictness(f: PointedMap) -> Strictness:
    return _image_strictness(f.images, f.cod.size)


def _hom_set(ends: tuple[PointedSet, PointedSet]) -> tuple[PointedMap, ...]:
    X, Y = ends
    count = (Y.size + 1) ** X.size
    if count > ENUMERATION_CAP:
        raise BudgetExceeded(f"{count} candidate maps exceed the enumeration cap")
    return tuple(
        PointedMap(X, Y, (0, *tail)) for tail in itertools.product(range(Y.size + 1), repeat=X.size)
    )


def _pullback_pairs(f: PointedMap, g: PointedMap) -> list[tuple[int, int]]:
    """The elements of the pullback of f and g: the pairs (x, y) with f(x) = g(y).

    The base pair (0, 0) comes first, then the others with x outer, y inner.
    """
    if f.cod != g.cod:
        raise NotComposable("pullback needs a common codomain")
    pairs = [(0, 0)]
    pairs += [
        (x, y)
        for x, a in enumerate(f.images)
        for y, b in enumerate(g.images)
        if a == b and (x or y)
    ]
    return pairs


def _pushout_labels(i: PointedMap, g: PointedMap) -> tuple[list[int], int]:
    """The pushout class of each node, and the number of non-base classes.

    Node 0 is the base, 1..n the elements of i's target and n+1..n+m those
    of g's.  Classes are numbered in order of their smallest nodes, so the
    base class is 0.
    """
    if i.dom != g.dom:
        raise NotComposable("pushout needs a common domain")
    # every parent link points to a smaller node, so each root is the
    # smallest node of its class
    n = i.cod.size
    parent = list(range(n + g.cod.size + 1))
    for a, b in zip(i.images, g.images):
        if b:
            b += n
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
    # a node's parent is smaller, so its label is already known
    label = []
    count = 0
    for v, p in enumerate(parent):
        if p == v:
            label.append(count)
            count += 1
        else:
            label.append(label[p])
    return label, count - 1


@dataclass(frozen=True)
class _PSetPullback:
    space: PointedSet
    pairs: tuple[tuple[int, int], ...]
    p1: PointedMap
    p2: PointedMap

    def mediate(self, q1: PointedMap, q2: PointedMap) -> Optional[PointedMap]:
        if q1.dom != q2.dom:
            return None
        if q1.cod != self.p1.cod or q2.cod != self.p2.cod:
            raise NotComposable("the legs do not end at the corners of the square")
        # the pairs are exactly the (x, y) with f(x) = g(y): a missing pair is a
        # cone that does not commute
        index = {pair: i for i, pair in enumerate(self.pairs)}
        images = []
        for t in q1.dom.elements:
            pair = (q1(t), q2(t))
            if pair not in index:
                return None
            images.append(index[pair])
        return PointedMap(q1.dom, self.space, tuple(images))


@dataclass(frozen=True)
class _PSetPushout:
    space: PointedSet
    j1: PointedMap
    j2: PointedMap

    def mediate(self, q1: PointedMap, q2: PointedMap) -> Optional[PointedMap]:
        if q1.cod != q2.cod:
            return None
        if q1.dom != self.j1.dom or q2.dom != self.j2.dom:
            raise NotComposable("the legs do not start at the corners of the square")
        # the classes are generated by i(k) ~ g(k), so a class with two values
        # is a cone that does not commute
        images: dict = {}
        for cls, val in zip(self.j1.images + self.j2.images, q1.images + q2.images):
            if images.setdefault(cls, val) != val:
                return None
        return PointedMap(self.space, q1.cod, tuple(images[c] for c in self.space.elements))


@dataclass(frozen=True)
class FinPointedSet(CategoryInstance):
    """Pointed sets with at most ``max_size`` non-base elements."""

    max_size: int = 4

    name = "finite-pointed-sets"

    def describe(self) -> dict:
        return {"kind": "pointed", "max_size": self.max_size}

    def zero_object(self) -> PointedSet:
        return PointedSet(0)

    def identity(self, X: PointedSet) -> PointedMap:
        return PointedMap(X, X, tuple(X.elements))

    def compose(self, g: PointedMap, f: PointedMap) -> PointedMap:
        if f.cod != g.dom:
            raise NotComposable("maps do not compose")
        return PointedMap(f.dom, g.cod, tuple(g(f(x)) for x in f.dom.elements))

    def dom(self, f: PointedMap) -> PointedSet:
        return f.dom

    def cod(self, f: PointedMap) -> PointedSet:
        return f.cod

    def zero_morphism(self, X: PointedSet, Y: PointedSet) -> PointedMap:
        return PointedMap(X, Y, (0,) * (X.size + 1))

    def kernel(self, f: PointedMap) -> tuple[PointedSet, PointedMap]:
        fiber = [x for x in f.dom.elements if x != 0 and f(x) == 0]
        K = PointedSet(len(fiber))
        return K, PointedMap(K, f.dom, (0, *fiber))

    def cokernel(self, f: PointedMap) -> tuple[PointedSet, PointedMap]:
        hit = {f(x) for x in f.dom.elements} - {0}
        survivors = [y for y in f.cod.elements if y != 0 and y not in hit]
        Q = PointedSet(len(survivors))
        relabel = {y: i + 1 for i, y in enumerate(survivors)}
        images = tuple(relabel.get(y, 0) for y in f.cod.elements)
        return Q, PointedMap(f.cod, Q, images)

    def factor_through_kernel(self, k_incl: PointedMap, f: PointedMap) -> Optional[PointedMap]:
        back = {k_incl(k): k for k in k_incl.dom.elements}
        images = []
        for x in f.dom.elements:
            y = f(x)
            if y not in back:
                return None
            images.append(back[y])
        return PointedMap(f.dom, k_incl.dom, tuple(images))

    def factor_through_cokernel(self, q_proj: PointedMap, f: PointedMap) -> Optional[PointedMap]:
        images = [0] * (q_proj.cod.size + 1)
        assigned = [False] * (q_proj.cod.size + 1)
        for y in q_proj.dom.elements:
            cls, val = q_proj(y), f(y)
            if assigned[cls] and images[cls] != val:
                return None
            images[cls], assigned[cls] = val, True
        if not all(assigned):
            return None
        return PointedMap(q_proj.cod, f.cod, tuple(images))

    def is_iso(self, f: PointedMap) -> bool:
        return f.dom.size == f.cod.size and is_strict_mono_map(f)

    def is_mono(self, f: PointedMap) -> bool:
        return is_strict_mono_map(f)  # injective; every mono here is strict

    def is_epi(self, f: PointedMap) -> bool:
        return is_epi_map(f)

    def strictness(self, f: PointedMap) -> Strictness:
        return self._memoized("strictness", f, _strictness)

    def objects(self) -> list[PointedSet]:
        if self.max_size + 1 > ENUMERATION_CAP:
            raise BudgetExceeded(f"{self.max_size + 1} objects exceed the enumeration cap")
        return [PointedSet(n) for n in range(self.max_size + 1)]

    def morphisms(self, X: PointedSet, Y: PointedSet) -> tuple[PointedMap, ...]:
        return self._memoized("homs", (X, Y), _hom_set)

    def pullback(self, f: PointedMap, g: PointedMap) -> _PSetPullback:
        pairs = _pullback_pairs(f, g)
        P = PointedSet(len(pairs) - 1)
        p1 = PointedMap(P, f.dom, tuple(x for x, _ in pairs))
        p2 = PointedMap(P, g.dom, tuple(y for _, y in pairs))
        return _PSetPullback(P, tuple(pairs), p1, p2)

    def pushout(self, i: PointedMap, g: PointedMap) -> _PSetPushout:
        label, size = _pushout_labels(i, g)
        n = i.cod.size
        Q = PointedSet(size)
        j1 = PointedMap(i.cod, Q, tuple(label[: n + 1]))
        j2 = PointedMap(g.cod, Q, (0, *label[n + 1 :]))
        return _PSetPushout(Q, j1, j2)

    def pullback_leg_strictness(self, f: PointedMap, g: PointedMap) -> Strictness:
        """Read off p2's image tuple, the y of the pairs; no square is built."""
        return _image_strictness(tuple(y for _, y in _pullback_pairs(f, g)), g.dom.size)

    def pushout_leg_strictness(self, i: PointedMap, g: PointedMap) -> Strictness:
        """Read off j2's image tuple from the class labels; no square is built."""
        label, size = _pushout_labels(i, g)
        return _image_strictness((0, *label[i.cod.size + 1 :]), size)

    def describe_object(self, X: PointedSet) -> dict:
        return {"size": X.size}

    def describe_morphism(self, f: PointedMap) -> dict:
        return {"dom": f.dom.size, "cod": f.cod.size, "images": list(f.images)}


# ---------------------------------------------------------------------------
# Executable counterexamples
# ---------------------------------------------------------------------------


def load_counterexample_fixtures() -> dict:
    text = resources.files("protex").joinpath("fixtures/counterexamples.json").read_text()
    return json.loads(text)


def _map_from_fixture(data: dict) -> PointedMap:
    return PointedMap(
        PointedSet(data["dom"]), PointedSet(data["cod"]), tuple(data["images"])
    )


def counterexample_suite() -> AuditReport:
    """Replays the two pointed-set counterexamples and asserts the verdicts.

    Case one: two collapse maps onto the zero object are both strict epis,
    yet the pullback projection is an epi that is not strict, so the
    instance is not right total.  Case two: a composite equal to the
    identity whose second factor collapses every non-base element, so the
    right obscure axiom fails.  The left obscure axiom passes on the
    bounded instance.
    """
    fixtures = load_counterexample_fixtures()
    C = FinPointedSet(max_size=4)
    entries = []

    case1 = fixtures["pullback_not_strict"]
    f = _map_from_fixture(case1["f"])
    g = _map_from_fixture(case1["g"])
    square = C.pullback(f, g)
    proj = square.p2
    expected = (
        is_strict_epi_map(f)
        and is_strict_epi_map(g)
        and is_epi_map(proj)
        and not is_strict_epi_map(proj)
        and not C.strictness(proj).strict_epi
    )
    entries.append(
        AuditEntry(
            "pullback_projection_not_strict",
            "pass" if expected else "fail",
            None if expected else {"projection": C.describe_morphism(proj)},
        )
    )

    case2 = fixtures["right_obscure_failure"]
    incl = _map_from_fixture(case2["f"])
    collapse = _map_from_fixture(case2["g"])
    composite = C.compose(collapse, incl)
    expected = (
        composite == C.identity(incl.dom)
        and is_strict_epi_map(composite)
        and not is_strict_epi_map(collapse)
        and not C.strictness(collapse).strict_epi
    )
    entries.append(
        AuditEntry(
            "right_obscure_failure",
            "pass" if expected else "fail",
            None if expected else {"collapse": C.describe_morphism(collapse)},
        )
    )

    small = FinPointedSet(max_size=3)
    left = audit_obscure(small).entry("left_obscure")
    entries.append(AuditEntry("left_obscure_holds", left.verdict, left.witness))

    return AuditReport(C.name, C.describe(), tuple(entries))
