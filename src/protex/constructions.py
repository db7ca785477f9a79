"""Kernels, cokernels, squares and morphism classification for weighted modules.

Kernels carry the subspace norm through an orthogonal presentation of the
matrix nullspace; cokernels are presented on the coordinates complementary
to the pivots of the image, where the residual representative realizes the
quotient norm exactly.  Both squares come with mediating-map solvers, so
universal properties are decidable facts rather than conventions.

Classification reads one analysis per map: a single elimination gives the
rank, the kernel and the preimages that the strict-epi test and the
section share, and one image basis with its coordinate change serves the
strict-mono test and the retraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import linalg
from .errors import InvariantViolation, NotComposable, NotNonExpanding, NotSpanning
from .ortho import OrthoBasis, image, orthogonalize
from .scalars import Magnitude
from .spaces import (
    Biproduct,
    BoundedMap,
    Vector,
    WeightedSpace,
    biproduct,
    bounded_map,
    compose,
    contracts,
    identity_map,
    is_nonexpanding,
    norm,
    rank_one,
    zero_map,
)


def kernel(f: BoundedMap) -> tuple[WeightedSpace, BoundedMap]:
    """Nullspace with the subspace norm; the inclusion is a strict mono."""
    basis = linalg.nullspace(f.domain.field, f.rows(), ncols=f.domain.dim)
    ob = _span_basis(f.domain, basis)
    return ob.presented_space(), ob.inclusion()


def _span_basis(space: WeightedSpace, rows) -> OrthoBasis:
    """Orthogonal basis of the span of coordinate rows of ``space``."""
    if not rows:
        return OrthoBasis(space, (), (), (), ())
    return orthogonalize(space, [Vector(space, tuple(r)) for r in rows])


def _checked_map(domain: WeightedSpace, codomain: WeightedSpace, rows) -> Optional[BoundedMap]:
    """The bounded map with these rows, or None when a null direction is not kept null."""
    try:
        return bounded_map(domain, codomain, rows)
    except InvariantViolation:
        return None


def cokernel(f: BoundedMap) -> tuple[WeightedSpace, BoundedMap]:
    """Quotient by the image with the quotient semi-norm (attained infimum)."""
    ob = image(f)
    return ob.quotient_space(), ob.projection()


def image_presentation(f: BoundedMap) -> tuple[WeightedSpace, BoundedMap]:
    ob = image(f)
    return ob.presented_space(), ob.inclusion()


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def factor_through_kernel(k_incl: BoundedMap, f: BoundedMap) -> Optional[BoundedMap]:
    """Unique v with k_incl o v = f, or None when f misses the kernel."""
    if f.codomain != k_incl.codomain:
        raise NotComposable("factorization target mismatch")
    F = f.domain.field
    sol = linalg.solve_matrix(F, k_incl.rows(), f.rows())
    if sol is None:
        return None
    cand = _checked_map(f.domain, k_incl.domain, sol)
    if cand is None or compose(k_incl, cand) != f:
        return None
    return cand


def factor_through_cokernel(q_proj: BoundedMap, f: BoundedMap) -> Optional[BoundedMap]:
    """Unique u with u o q_proj = f, or None when f does not kill the kernel of q."""
    if f.domain != q_proj.domain:
        raise NotComposable("factorization source mismatch")
    F = f.domain.field
    src = q_proj.domain.dim
    mid = q_proj.codomain.dim
    tgt = f.codomain.dim
    q_t = [[q_proj.matrix[i][j] for i in range(mid)] for j in range(src)]
    f_t = [[f.matrix[i][j] for i in range(tgt)] for j in range(src)]
    sol_t = linalg.solve_matrix(F, q_t, f_t)
    if sol_t is None:
        return None
    rows = [[sol_t[j][i] for j in range(mid)] for i in range(tgt)]
    cand = _checked_map(q_proj.codomain, f.codomain, rows)
    if cand is None or compose(cand, q_proj) != f:
        return None
    return cand


def inverse_map(f: BoundedMap) -> Optional[BoundedMap]:
    """Inverse as a bounded map, or None (not bijective, or unbounded inverse)."""
    if f.domain.dim != f.codomain.dim:
        return None
    inv = linalg.inverse(f.domain.field, f.rows())
    if inv is None:
        return None
    return _checked_map(f.codomain, f.domain, inv)


def is_iso_nonexpanding(f: BoundedMap) -> bool:
    """Isomorphism in the non-expanding category: bijective, both legs of norm <= 1."""
    if not is_nonexpanding(f):
        return False
    inv = inverse_map(f)
    return inv is not None and is_nonexpanding(inv)


# ---------------------------------------------------------------------------
# Squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackSquare:
    """{(m, l) : f(m) = g(l)} with the max norm, plus the mediating solver."""

    space: WeightedSpace
    p1: BoundedMap
    p2: BoundedMap
    inclusion: BoundedMap  # into the biproduct of the two sources; p1, p2 are its row blocks
    f: BoundedMap
    g: BoundedMap

    def mediate(self, q1: BoundedMap, q2: BoundedMap) -> Optional[BoundedMap]:
        if q1.domain != q2.domain:
            return None
        if compose(self.f, q1) != compose(self.g, q2):
            return None
        rows = q1.rows() + q2.rows()
        stacked = bounded_map(q1.domain, self.inclusion.codomain, rows)
        return factor_through_kernel(self.inclusion, stacked)


def pullback(f: BoundedMap, g: BoundedMap) -> PullbackSquare:
    if f.codomain != g.codomain:
        raise NotComposable("pullback needs a common codomain")
    F = f.domain.field
    both = WeightedSpace(F, f.domain.weights + g.domain.weights)
    diff_rows = [list(r) + [F.neg(x) for x in s] for r, s in zip(f.matrix, g.matrix)]
    _, incl = kernel(bounded_map(both, f.codomain, diff_rows))
    n = f.domain.dim
    p1 = bounded_map(incl.domain, f.domain, incl.matrix[:n])
    p2 = bounded_map(incl.domain, g.domain, incl.matrix[n:])
    return PullbackSquare(incl.domain, p1, p2, incl, f, g)


@dataclass(frozen=True)
class PushoutSquare:
    """(M + L) / {(i(k), -g(k))} with the quotient norm, plus the solver."""

    space: WeightedSpace
    j1: BoundedMap
    j2: BoundedMap
    projection: BoundedMap  # from the biproduct of the two targets; j1, j2 its column blocks
    i: BoundedMap
    g: BoundedMap

    def mediate(self, q1: BoundedMap, q2: BoundedMap) -> Optional[BoundedMap]:
        if q1.codomain != q2.codomain:
            return None
        if compose(q1, self.i) != compose(q2, self.g):
            return None
        full_rows = [list(a) + list(b) for a, b in zip(q1.rows(), q2.rows())]
        full = bounded_map(self.projection.domain, q1.codomain, full_rows)
        return factor_through_cokernel(self.projection, full)


def pushout(i: BoundedMap, g: BoundedMap) -> PushoutSquare:
    if i.domain != g.domain:
        raise NotComposable("pushout needs a common domain")
    F = i.domain.field
    both = WeightedSpace(F, i.codomain.weights + g.codomain.weights)
    rows = [list(r) for r in i.matrix] + [[F.neg(x) for x in r] for r in g.matrix]
    _, proj = cokernel(bounded_map(i.domain, both, rows))
    n = i.codomain.dim
    j1 = bounded_map(i.codomain, proj.codomain, [r[:n] for r in proj.matrix])
    j2 = bounded_map(g.codomain, proj.codomain, [r[n:] for r in proj.matrix])
    return PushoutSquare(proj.codomain, j1, j2, proj, i, g)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphismClassification:
    mono: bool
    epi: bool
    strict_mono: bool
    strict_epi: bool
    iso: bool
    split_mono: bool
    split_epi: bool

    def as_dict(self) -> dict:
        """The flags by name, in field order (the ``classify`` text lists them so)."""
        return dict(vars(self))


class _MapAnalysis:
    """What the classification reads of one map, each part filled at first use.

    One elimination of ``[f | I]`` gives the rank, the pivots and the
    kernel (the left block is the reduced form of f) and, when f is onto,
    a preimage of each codomain basis vector (the right block).  The image
    basis needs no elimination for the coordinate change onto the image:
    its pivots are exclusive, so a coordinate is read off at each pivot.

    Full rank gives closed forms.  When f is onto, the only basis of the
    whole codomain with exclusive unit pivots is its coordinate basis, so
    that is the image basis; when f is also injective, the elimination has
    reduced ``[f | I]`` to ``[I | f^-1]``, and since the coordinate change
    takes the rows of f in pivot order, its inverse is f^-1 with the
    columns in that order.  When f is injective, the nullspace is empty and
    so is the kernel basis.  ``OrthoBasis`` still checks each closed form.

    The strict flags are read only through ``map_analysis``, whose gate
    (norm <= 1) implies the forward half of both isometric isos: the change
    onto the image is f read through the isometric inclusion of the image,
    the induced map on the quotient is f on the residual representatives;
    so each strict test checks only the inverse direction.
    """

    def __init__(self, f: BoundedMap):
        self.f = f
        self.F = F = f.domain.field
        n, m = f.domain.dim, f.codomain.dim
        ident = linalg.identity(F, m)
        self.reduced, self.pivots = linalg.rref(F, [list(f.matrix[i]) + ident[i] for i in range(m)])
        self.rank = sum(1 for c in self.pivots if c < n)
        self.mono = self.rank == n
        self.epi = self.rank == m

    @cached_property
    def image_basis(self) -> OrthoBasis:
        if self.epi:
            return _coordinate_basis(self.f.codomain)
        return image(self.f)

    @cached_property
    def change(self) -> list:
        """Coordinates of the columns of f in the image basis: the rows of f at
        the image pivots, since each basis vector is one at its exclusive pivot."""
        ob = self.image_basis
        return [list(self.f.matrix[p]) for p in ob.pivots + ob.null_pivots]

    @cached_property
    def change_inverse(self) -> list:
        """Inverse of the coordinate change; f mono makes the change invertible."""
        if not (self.mono and self.epi):
            return linalg.inverse(self.F, self.change)
        n, ob = self.f.domain.dim, self.image_basis
        return [[row[n + p] for p in ob.pivots + ob.null_pivots] for row in self.reduced]

    @cached_property
    def kernel_basis(self) -> OrthoBasis:
        n = self.f.domain.dim
        return _span_basis(self.f.domain, linalg.echelon_nullspace(self.F, self.reduced, self.pivots, n))

    @cached_property
    def min_preimages(self) -> list:
        """Per codomain basis vector, its norm-minimal preimage (f onto).

        The residual of any preimage modulo the kernel basis is minimal in
        its coset, which is the set of all preimages.
        """
        f = self.f
        n, m = f.domain.dim, f.codomain.dim
        # onto: every pivot lies in the block of f, so [f | I] solves f X = I
        pre = linalg.echelon_solution(self.F, self.reduced, self.pivots, n, m)
        return [
            self.kernel_basis.residual(Vector(f.domain, tuple(row[d] for row in pre))).coords
            for d in range(m)
        ]

    @cached_property
    def strict_mono(self) -> bool:
        """Injective and an isometry onto the image: the inverse change has norm <= 1."""
        return self.mono and contracts(
            self.image_basis.presented_space(), self.f.domain, self.change_inverse
        )

    @cached_property
    def strict_epi(self) -> bool:
        """Onto, with the induced map domain/kernel -> codomain an isometric iso.

        The quotient sits on the coordinates off the kernel pivots, where
        the norm-minimal preimages (zero at those pivots) give the inverse.
        """
        return self.epi and contracts(
            self.f.codomain, self.kernel_basis.quotient_space(), self.lift
        )

    @cached_property
    def lift(self) -> list:
        """Rows of the inverse of the induced map domain/kernel -> codomain (f onto):
        each codomain basis vector to its norm-minimal preimage, read on the
        quotient's coordinates."""
        return [[col[c] for col in self.min_preimages] for c in self.kernel_basis.complement]

    def pullback_leg_flags(self, g: BoundedMap) -> tuple[bool, bool]:
        """(strict mono, strict epi) of the leg p2 of the pullback of f (onto) along g.

        p2 is onto, and its quotient norm of w is ``max(|w|, |g w|_f)``,
        where ``|z|_f`` is the least norm of a preimage of z under f, the
        quotient norm of ``lift(z)``.  So p2 is a strict epi iff ``lift o g``
        has norm <= 1.  The kernel of p2 is that of f; when it is zero, p2
        is an isometry iff ``lift o g`` has norm <= 1 again.
        """
        if g.codomain != self.f.codomain:
            raise NotComposable("pullback needs a common codomain")
        rows = linalg.mat_mul(self.F, self.lift, g.matrix, g.domain.dim)
        c = contracts(g.domain, self.kernel_basis.quotient_space(), rows)
        return self.mono and c, c

    def pushout_leg_flags(self, g: BoundedMap) -> tuple[bool, bool]:
        """(strict mono, strict epi) of the leg j2 of the pushout of f (injective) along g.

        j2 is injective, and an isometry iff ``|g k| <= |f k|`` for every k:
        iff g, read on the image of f through the inverse coordinate change,
        has norm <= 1.  j2 is onto iff f is, and a bijective isometry is a
        strict epi.
        """
        if g.domain != self.f.domain:
            raise NotComposable("pushout needs a common domain")
        rows = linalg.mat_mul(self.F, g.matrix, self.change_inverse, self.f.domain.dim)
        c = contracts(self.image_basis.presented_space(), g.codomain, rows)
        return c, self.epi and c

    @cached_property
    def retraction(self) -> Optional[BoundedMap]:
        if not self.mono:
            return None
        f, F, ob = self.f, self.F, self.image_basis
        # the inverse coordinate change, read at the image pivots, zero elsewhere
        rows = [[F.zero] * f.codomain.dim for _ in range(f.domain.dim)]
        for k, p in enumerate(ob.pivots + ob.null_pivots):
            for i, row in enumerate(self.change_inverse):
                rows[i][p] = row[k]
        cand = _contraction(f.codomain, f.domain, rows)
        if cand is None or compose(cand, f) != identity_map(f.domain):
            return None
        return cand

    @cached_property
    def section(self) -> Optional[BoundedMap]:
        if not self.epi:
            return None
        f = self.f
        rows = [[col[i] for col in self.min_preimages] for i in range(f.domain.dim)]
        cand = _contraction(f.codomain, f.domain, rows)
        if cand is None or compose(f, cand) != identity_map(f.codomain):
            return None
        return cand


def _coordinate_basis(space: WeightedSpace) -> OrthoBasis:
    """The unit vectors of ``space``, weighted coordinates first: the only
    basis of the whole space with exclusive unit pivots."""
    units = [Vector(space, tuple(row)) for row in linalg.identity(space.field, space.dim)]
    weighted = tuple(d for d, w in enumerate(space.weights) if not w.is_zero)
    null = tuple(d for d, w in enumerate(space.weights) if w.is_zero)
    return OrthoBasis(
        space, tuple(units[d] for d in weighted), weighted, tuple(units[d] for d in null), null
    )


def _contraction(domain: WeightedSpace, codomain: WeightedSpace, rows) -> Optional[BoundedMap]:
    """The bounded map with these rows if it has operator norm <= 1, else None."""
    return bounded_map(domain, codomain, rows) if contracts(domain, codomain, rows) else None


def map_analysis(f: BoundedMap) -> _MapAnalysis:
    """The analysis that every classification flag of f reads (f non-expanding)."""
    if not contracts(f.domain, f.codomain, f.matrix):
        raise NotNonExpanding("classification applies to maps of operator norm <= 1")
    return _MapAnalysis(f)


def retraction(f: BoundedMap) -> Optional[BoundedMap]:
    """Left inverse of minimal operator norm, or None if f is not split mono.

    The zero extension along the orthogonal complement of the image has the
    smallest possible norm among retractions, so testing it decides the flag.
    """
    return _MapAnalysis(f).retraction


def section(f: BoundedMap) -> Optional[BoundedMap]:
    """Right inverse of minimal operator norm, or None if f is not split epi.

    Per codomain basis vector the residual-reduced preimage modulo the kernel
    is the norm-minimal preimage, and the operator norm is decided per basis
    vector, so minimizing columns independently is globally optimal.
    """
    return _MapAnalysis(f).section


def classify_morphism(f: BoundedMap) -> MorphismClassification:
    """Classification in the non-expanding category; exact in every entry.

    Every flag reads one analysis of f.  A mono strict epi has kernel zero,
    so its quotient comparison is f itself and the strict-epi test is the
    isomorphism test.

    The split flags are the strict flags.  A retraction r of norm <= 1
    gives ``|x| = |r f x| <= |f x|``, and a section s of norm <= 1 bounds
    the quotient norm of y by ``|s y| <= |y|``; so split implies strict.
    Conversely, for f a strict mono the residual retraction (the inverse
    coordinate change on the image pivots, zero elsewhere) sends y to the
    preimage of ``sum_k y_(p_k) v_k``, whose norm ``max |y_(p_k)| w_(p_k)``
    is at most ``|y|``; for f a strict epi the norm-minimal preimage of
    each ``e_d`` has the quotient norm ``w_d``, and the ultrametric
    inequality bounds every column combination.  ``retraction(f)`` and
    ``section(f)`` construct these inverses.
    """
    a = map_analysis(f)
    return MorphismClassification(
        mono=a.mono,
        epi=a.epi,
        strict_mono=a.strict_mono,
        strict_epi=a.strict_epi,
        iso=a.mono and a.strict_epi,
        split_mono=a.strict_mono,
        split_epi=a.strict_epi,
    )


# ---------------------------------------------------------------------------
# Free covers and chain colimits
# ---------------------------------------------------------------------------


def free_cover(M: WeightedSpace, spanning: list[Vector]) -> BoundedMap:
    """Strict epi from a biproduct of rank-one modules, one per spanning vector.

    The x-th factor carries weight ||x|| and its unit maps to x, so the map
    is non-expanding and realizes every norm on the nose.  The vectors must
    span the whole module (null directions included); otherwise no
    epimorphism exists and NotSpanning is raised.
    """
    F = M.field
    for v in spanning:
        if v.space != M:
            raise InvariantViolation("spanning vector outside the module")
    cols = [list(v.coords) for v in spanning]
    rows = [[col[i] for col in cols] for i in range(M.dim)]
    if linalg.rank(F, rows) < M.dim:
        raise NotSpanning("the given vectors do not span the module")
    if spanning:
        domain = biproduct([rank_one(F, norm(v)) for v in spanning]).space
    else:
        domain = WeightedSpace(F, ())
    return bounded_map(domain, M, rows)


@dataclass(frozen=True)
class ChainColimit:
    """Finite chain colimit: the last object with suffix-composition cocone."""

    stages: tuple[WeightedSpace, ...]
    maps: tuple[BoundedMap, ...]
    colimit: WeightedSpace
    cocone: tuple[BoundedMap, ...]

    def colimit_norm(self, stage: int, v: Vector) -> Magnitude:
        """inf over later stages of the norm of the image of ``v``.

        The maps are non-expanding, so the infimum is attained at the last
        stage; it is still computed literally over every suffix.
        """
        if v.space != self.stages[stage]:
            raise InvariantViolation("vector does not live at the given stage")
        best = norm(v)
        current = v
        for f in self.maps[stage:]:
            current = f.apply(current)
            n = norm(current)
            if n < best:
                best = n
        return best


def chain_colimit(maps: list[BoundedMap]) -> ChainColimit:
    if not maps:
        raise NotComposable("a chain needs at least one map; use an identity")
    for a, b in zip(maps, maps[1:]):
        if a.codomain != b.domain:
            raise NotComposable("consecutive chain maps do not compose")
    for f in maps:
        if not is_nonexpanding(f):
            raise NotNonExpanding("chain maps must be non-expanding")
    stages = tuple([maps[0].domain] + [f.codomain for f in maps])
    colimit = stages[-1]
    cocone = []
    for i in range(len(stages)):
        acc = identity_map(stages[i])
        for f in maps[i:]:
            acc = compose(f, acc)
        cocone.append(acc)
    return ChainColimit(stages, tuple(maps), colimit, tuple(cocone))


def coproduct_mediate(bp: Biproduct, legs: list[BoundedMap]) -> BoundedMap:
    """Unique map out of the coproduct restricting to the given legs."""
    if len(legs) != len(bp.injections):
        raise NotComposable("one leg per coproduct factor required")
    target = legs[0].codomain
    rows = [[x for leg in legs for x in leg.matrix[i]] for i in range(target.dim)]
    return bounded_map(bp.space, target, rows)


def product_mediate(bp: Biproduct, legs: list[BoundedMap]) -> BoundedMap:
    """Unique map into the product whose projections are the given legs."""
    if len(legs) != len(bp.projections):
        raise NotComposable("one leg per product factor required")
    source = legs[0].domain
    rows = [list(r) for leg in legs for r in leg.matrix]
    return bounded_map(source, bp.space, rows)


def coproduct_product_comparison(bp: Biproduct) -> BoundedMap:
    """Canonical coproduct-to-product map of the same factors.

    Built from the two universal properties: the unique map whose i-th
    projection restricted to the j-th injection is delta_ij.
    """
    cone = []
    for k, factor_proj in enumerate(bp.projections):
        deltas = [
            identity_map(inj.domain) if j == k else zero_map(inj.domain, factor_proj.codomain)
            for j, inj in enumerate(bp.injections)
        ]
        cone.append(coproduct_mediate(bp, deltas))
    return product_mediate(bp, cone)
