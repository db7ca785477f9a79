import itertools

import pytest

from protex import FinPointedSet, classify_strictness, counterexample_suite
from protex.errors import InvariantViolation, NotComposable
from protex.pointed_sets import (
    PointedMap,
    PointedSet,
    is_epi_map,
    is_strict_epi_map,
    is_strict_mono_map,
)

C = FinPointedSet(max_size=4)


class TestBasics:
    def test_map_validation(self):
        with pytest.raises(InvariantViolation):
            PointedMap(PointedSet(1), PointedSet(1), (1, 0))  # moves the basepoint
        with pytest.raises(InvariantViolation):
            PointedMap(PointedSet(1), PointedSet(1), (0, 5))

    def test_morphism_counts(self):
        zero = PointedSet(0)
        assert C.morphisms(zero, zero) == (PointedMap(zero, zero, (0,)),)
        one = PointedSet(1)
        assert len(C.morphisms(one, one)) == 2  # a -> 0 and a -> b
        assert len(C.morphisms(PointedSet(2), PointedSet(2))) == 9

    def test_kernel_cokernel(self):
        X, Y = PointedSet(3), PointedSet(2)
        f = PointedMap(X, Y, (0, 1, 0, 2))
        K, k = C.kernel(f)
        assert K.size == 1 and k.images == (0, 2)
        Q, q = C.cokernel(f)
        assert Q.size == 0  # f is surjective
        g = PointedMap(X, Y, (0, 1, 1, 1))
        Q2, q2 = C.cokernel(g)
        assert Q2.size == 1 and q2.images == (0, 0, 1)

    def test_pullback_of_collapses(self):
        X, Z, Y = PointedSet(2), PointedSet(1), PointedSet(0)
        f = C.zero_morphism(X, Y)
        g = C.zero_morphism(Z, Y)
        square = C.pullback(f, g)
        assert square.space.size == (X.size + 1) * (Z.size + 1) - 1

    def test_pushout_glues(self):
        K = PointedSet(1)
        X, Y = PointedSet(2), PointedSet(2)
        i = PointedMap(K, X, (0, 1))
        g = PointedMap(K, Y, (0, 2))
        square = C.pushout(i, g)
        # x1 ~ y2 glued; elements: {x1=y2, x2, y1}
        assert square.space.size == 3
        assert square.j1(1) == square.j2(2)
        med = square.mediate(
            PointedMap(X, PointedSet(1), (0, 1, 0)), PointedMap(Y, PointedSet(1), (0, 0, 1))
        )
        assert med is not None

    def test_pushout_collapse_to_base(self):
        K, X = PointedSet(1), PointedSet(2)
        i = PointedMap(K, X, (0, 1))
        g = C.zero_morphism(K, PointedSet(0))
        square = C.pushout(i, g)
        assert square.space.size == 1  # x1 dies, x2 survives


def pointed_maps(X, Y):
    """Every pointed map X -> Y, enumerated here rather than by the instance."""
    return [PointedMap(X, Y, (0, *t)) for t in itertools.product(Y.elements, repeat=X.size)]


def glued_classes(i, g):
    """The pushout's classes by breadth-first search over the gluing graph.

    Nodes are ("x", x) and ("y", y); i(k) and g(k) are joined for every k,
    the basepoints included.  Classes come back ordered by their smallest
    node, x-nodes before y-nodes, so the base class is first.
    """
    nodes = [("x", x) for x in i.cod.elements] + [("y", y) for y in g.cod.elements]
    edges = {node: [] for node in nodes}
    for k in i.dom.elements:
        a, b = ("x", i(k)), ("y", g(k))
        edges[a].append(b)
        edges[b].append(a)
    seen, classes = set(), []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        cls, frontier = [start], [start]
        while frontier:
            frontier = list({m for n in frontier for m in edges[n] if m not in seen})
            seen.update(frontier)
            cls += frontier
        classes.append(cls)
    return sorted(classes, key=min)


SMALL = [PointedSet(n) for n in range(4)]
SPANS = [
    (i, g)
    for K in SMALL
    for X in SMALL
    for Y in SMALL
    for i in pointed_maps(K, X)
    for g in pointed_maps(K, Y)
]


class TestPushoutOracle:
    def test_pushout_matches_the_glued_classes(self):
        small = FinPointedSet(max_size=3)
        for i, g in SPANS:
            square = small.pushout(i, g)
            classes = glued_classes(i, g)
            label = {node: c for c, cls in enumerate(classes) for node in cls}
            assert square.space == PointedSet(len(classes) - 1)
            assert square.j1.images == tuple(label["x", x] for x in i.cod.elements)
            assert square.j2.images == tuple(label["y", y] for y in g.cod.elements)
            assert small.compose(square.j1, i) == small.compose(square.j2, g)
        assert len(SPANS) == 11016

    def test_mediate_is_the_unique_factorization(self):
        small = FinPointedSet(max_size=3)
        W = PointedSet(1)
        checked = 0
        for i, g in SPANS:
            if i.dom.size > 2:
                continue
            square = small.pushout(i, g)
            # (u o j1, u o j2) for every u: Q -> W, by images
            factors = {}
            for u in pointed_maps(square.space, W):
                legs = (tuple(u(c) for c in square.j1.images), tuple(u(c) for c in square.j2.images))
                factors.setdefault(legs, []).append(u)
            for q1 in pointed_maps(i.cod, W):
                for q2 in pointed_maps(g.cod, W):
                    commutes = all(q1(i(k)) == q2(g(k)) for k in i.dom.elements)
                    found = factors.get((q1.images, q2.images), [])
                    assert len(found) == (1 if commutes else 0)
                    assert square.mediate(q1, q2) == (found[0] if commutes else None)
                    checked += commutes
        assert checked > 1000


class TestSquareMediators:
    # i: P1 -> P2 includes, g: P1 -> P1 is the identity
    P1, P2 = PointedSet(1), PointedSet(2)

    def square(self):
        i = PointedMap(self.P1, self.P2, (0, 1))
        g = C.identity(self.P1)
        return C.pushout(i, g)

    def test_pushout_mediate_rejects_a_leg_off_the_square(self):
        square = self.square()
        q2 = PointedMap(self.P1, self.P1, (0, 1))
        with pytest.raises(NotComposable):
            # q1 starts at P1, not at j1's domain P2
            square.mediate(PointedMap(self.P1, self.P1, (0, 1)), q2)
        with pytest.raises(NotComposable):
            square.mediate(PointedMap(self.P2, self.P1, (0, 1, 0)), PointedMap(self.P2, self.P1, (0, 1, 0)))

    def test_pushout_mediate_none_without_a_common_codomain_or_commuting(self):
        square = self.square()
        q1 = PointedMap(self.P2, self.P1, (0, 1, 0))
        assert square.mediate(q1, PointedMap(self.P1, self.P2, (0, 1))) is None
        assert square.mediate(q1, PointedMap(self.P1, self.P1, (0, 0))) is None
        med = square.mediate(q1, PointedMap(self.P1, self.P1, (0, 1)))
        assert C.compose(med, square.j1) == q1

    def test_pullback_mediate_rejects_mismatched_legs(self):
        f = PointedMap(self.P2, self.P1, (0, 1, 1))
        g = C.identity(self.P1)
        square = C.pullback(f, g)
        q1 = PointedMap(self.P1, self.P2, (0, 2))
        q2 = PointedMap(self.P1, self.P1, (0, 1))
        assert square.mediate(q1, PointedMap(self.P2, self.P1, (0, 1, 1))) is None  # domains differ
        assert square.mediate(q1, PointedMap(self.P1, self.P1, (0, 0))) is None  # does not commute
        with pytest.raises(NotComposable):
            square.mediate(q1, PointedMap(self.P1, self.P2, (0, 1)))  # q2 misses g's domain
        with pytest.raises(NotComposable):
            square.mediate(PointedMap(self.P1, self.P1, (0, 1)), q2)  # q1 misses f's domain
        med = square.mediate(q1, q2)
        assert C.compose(square.p1, med) == q1 and C.compose(square.p2, med) == q2


class TestStrictness:
    def test_closed_forms(self):
        X, Y = PointedSet(2), PointedSet(1)
        collapse = PointedMap(X, Y, (0, 1, 1))
        assert is_epi_map(collapse)
        assert not is_strict_epi_map(collapse)
        to_zero = PointedMap(X, Y, (0, 0, 0))
        assert not is_strict_epi_map(to_zero)  # not surjective onto 1 element
        onto = PointedMap(X, Y, (0, 0, 1))
        assert is_strict_epi_map(onto)
        incl = PointedMap(Y, X, (0, 2))
        assert is_strict_mono_map(incl)

    def test_generic_matches_closed_form_everywhere(self):
        small = FinPointedSet(max_size=3)
        for X in small.objects():
            for Y in small.objects():
                for f in small.morphisms(X, Y):
                    s = classify_strictness(small, f)
                    assert s.strict_mono == is_strict_mono_map(f)
                    assert s.strict_epi == is_strict_epi_map(f)

    def test_strictnessequiv_third_condition(self):
        # strict epi iff f appears as the cokernel of one of its zero-composites
        small = FinPointedSet(max_size=2)
        objs = small.objects()
        for X in objs:
            for Y in objs:
                for f in small.morphisms(X, Y):
                    direct = classify_strictness(small, f).strict_epi
                    exists = False
                    for K in objs:
                        for g in small.morphisms(K, X):
                            if not small.is_zero_morphism(small.compose(f, g)):
                                continue
                            _, q = small.cokernel(g)
                            u = small.factor_through_cokernel(q, f)
                            if u is not None and small.is_iso(u):
                                exists = True
                                break
                        if exists:
                            break
                    assert exists == direct


class TestCounterexampleSuite:
    def test_all_expected_verdicts_hold(self):
        report = counterexample_suite()
        assert report.passed
        names = [e.axiom for e in report.entries]
        assert names == [
            "pullback_projection_not_strict",
            "right_obscure_failure",
            "left_obscure_holds",
        ]

    def test_first_case_details(self):
        # X = {0, x1, x2}, Z = {0, z}, Y = {0}: both legs strict epi, the
        # pullback projection onto Z is epi but not strict
        X, Z, Y = PointedSet(2), PointedSet(1), PointedSet(0)
        f = C.zero_morphism(X, Y)
        g = C.zero_morphism(Z, Y)
        assert is_strict_epi_map(f) and is_strict_epi_map(g)
        proj = C.pullback(f, g).p2
        assert is_epi_map(proj) and not is_strict_epi_map(proj)

    def test_second_case_details(self):
        # the identity factors through a bigger set; the collapse is not strict
        X = PointedSet(1)
        Y = PointedSet(2)
        incl = PointedMap(X, Y, (0, 1))
        collapse = PointedMap(Y, X, (0, 1, 1))
        assert C.compose(collapse, incl) == C.identity(X)
        assert not is_strict_epi_map(collapse)
