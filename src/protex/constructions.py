"""Kernels, cokernels, squares and morphism classification for weighted modules.

Kernels carry the subspace norm through an orthogonal presentation of the
matrix nullspace; cokernels are presented on the coordinates complementary
to the pivots of the image, where the residual representative realizes the
quotient norm exactly.  Both squares come with mediating-map solvers, so
universal properties are decidable facts rather than conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import linalg
from .errors import (
    InvariantViolation,
    NotComposable,
    NotNonExpanding,
    NotSpanning,
)
from .ortho import OrthoBasis, image, orthogonalize, quotient_norm
from .scalars import MAG_ONE, MAG_ZERO, Magnitude
from .spaces import (
    Biproduct,
    BoundedMap,
    Vector,
    WeightedSpace,
    basis_vector,
    biproduct,
    bounded_map,
    compose,
    identity_map,
    is_nonexpanding,
    norm,
    operator_norm,
    rank_one,
    zero_map,
)


def kernel(f: BoundedMap) -> tuple[WeightedSpace, BoundedMap]:
    """Nullspace with the subspace norm; the inclusion is a strict mono."""
    F = f.domain.field
    basis = linalg.nullspace(F, f.rows(), ncols=f.domain.dim)
    vectors = [Vector(f.domain, tuple(b)) for b in basis]
    ob = orthogonalize(f.domain, vectors)
    space = ob.presented_space()
    return space, ob.inclusion()


@dataclass(frozen=True)
class CokernelPresentation:
    space: WeightedSpace
    projection: BoundedMap
    image_basis: OrthoBasis
    complement: tuple[int, ...]


def cokernel_presentation(f: BoundedMap) -> CokernelPresentation:
    ob = image(f)
    used = set(ob.pivots) | set(ob.null_pivots)
    complement = tuple(d for d in range(f.codomain.dim) if d not in used)
    space = WeightedSpace(f.codomain.field, tuple(f.codomain.weights[d] for d in complement))
    rows = []
    residuals = [ob.residual(basis_vector(f.codomain, c)) for c in range(f.codomain.dim)]
    for d in complement:
        rows.append([residuals[c].coords[d] for c in range(f.codomain.dim)])
    proj = bounded_map(f.codomain, space, rows, check=False)
    return CokernelPresentation(space, proj, ob, complement)


def cokernel(f: BoundedMap) -> tuple[WeightedSpace, BoundedMap]:
    """Quotient by the image with the quotient semi-norm (attained infimum)."""
    pres = cokernel_presentation(f)
    return pres.space, pres.projection


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
    try:
        cand = bounded_map(f.domain, k_incl.domain, sol)
    except InvariantViolation:
        return None
    if compose(k_incl, cand) != f:
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
    try:
        cand = bounded_map(q_proj.codomain, f.codomain, rows)
    except InvariantViolation:
        return None
    if compose(cand, q_proj) != f:
        return None
    return cand


def inverse_map(f: BoundedMap) -> Optional[BoundedMap]:
    """Inverse as a bounded map, or None (not bijective, or unbounded inverse)."""
    if f.domain.dim != f.codomain.dim:
        return None
    inv = linalg.inverse(f.domain.field, f.rows())
    if inv is None:
        return None
    if f.domain.dim == 0:
        inv = []
    try:
        return bounded_map(f.codomain, f.domain, inv)
    except InvariantViolation:
        return None


def is_iso_nonexpanding(f: BoundedMap) -> bool:
    """Isomorphism in the non-expanding category: bijective, both legs of norm <= 1."""
    if operator_norm(f) > MAG_ONE:
        return False
    inv = inverse_map(f)
    return inv is not None and operator_norm(inv) <= MAG_ONE


# ---------------------------------------------------------------------------
# Squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackSquare:
    """{(m, l) : f(m) = g(l)} with the max norm, plus the mediating solver."""

    space: WeightedSpace
    p1: BoundedMap
    p2: BoundedMap
    inclusion: BoundedMap  # into the biproduct of the two sources
    f: BoundedMap
    g: BoundedMap

    def mediate(self, q1: BoundedMap, q2: BoundedMap) -> Optional[BoundedMap]:
        if q1.domain != q2.domain:
            return None
        if compose(self.f, q1) != compose(self.g, q2):
            return None
        stacked = q1.rows() + q2.rows()
        sol = linalg.solve_matrix(self.space.field, self.inclusion.rows(), stacked)
        if sol is None:
            return None
        return bounded_map(q1.domain, self.space, sol, check=False)


def pullback(f: BoundedMap, g: BoundedMap) -> PullbackSquare:
    if f.codomain != g.codomain:
        raise NotComposable("pullback needs a common codomain")
    F = f.domain.field
    bp = biproduct([f.domain, g.domain])
    diff_rows = [
        list(f.matrix[i]) + [F.neg(x) for x in g.matrix[i]] for i in range(f.codomain.dim)
    ]
    diff = bounded_map(bp.space, f.codomain, diff_rows, check=False)
    _, incl = kernel(diff)
    p1 = compose(bp.projections[0], incl)
    p2 = compose(bp.projections[1], incl)
    return PullbackSquare(incl.domain, p1, p2, incl, f, g)


@dataclass(frozen=True)
class PushoutSquare:
    """(M + L) / {(i(k), -g(k))} with the quotient norm, plus the solver."""

    space: WeightedSpace
    j1: BoundedMap
    j2: BoundedMap
    projection: BoundedMap  # from the biproduct of the two targets
    i: BoundedMap
    g: BoundedMap

    def mediate(self, q1: BoundedMap, q2: BoundedMap) -> Optional[BoundedMap]:
        if q1.codomain != q2.codomain:
            return None
        if compose(q1, self.i) != compose(q2, self.g):
            return None
        full_rows = [list(a) + list(b) for a, b in zip(q1.rows(), q2.rows())]
        full = bounded_map(self.projection.domain, q1.codomain, full_rows, check=False)
        cand = factor_through_cokernel(self.projection, full)
        return cand


def pushout(i: BoundedMap, g: BoundedMap) -> PushoutSquare:
    if i.domain != g.domain:
        raise NotComposable("pushout needs a common domain")
    F = i.domain.field
    bp = biproduct([i.codomain, g.codomain])
    rows = [list(r) for r in i.matrix] + [[F.neg(x) for x in r] for r in g.matrix]
    glue = bounded_map(i.domain, bp.space, rows, check=False)
    _, proj = cokernel(glue)
    j1 = compose(proj, bp.injections[0])
    j2 = compose(proj, bp.injections[1])
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
        return {
            "mono": self.mono,
            "epi": self.epi,
            "strict_mono": self.strict_mono,
            "strict_epi": self.strict_epi,
            "iso": self.iso,
            "split_mono": self.split_mono,
            "split_epi": self.split_epi,
        }


def _isometric_onto_image(f: BoundedMap) -> bool:
    # change of coordinates from the domain to the orthogonal image presentation
    ob = image(f)
    incl = ob.inclusion()
    F = f.domain.field
    sol = linalg.solve_matrix(F, incl.rows(), f.rows())
    if sol is None:
        return False
    if incl.domain.dim == 0:
        sol = []
    try:
        change = bounded_map(f.domain, incl.domain, sol)
    except InvariantViolation:
        return False
    return is_iso_nonexpanding(change)


def _quotient_comparison(f: BoundedMap) -> Optional[BoundedMap]:
    """Induced map domain/kernel -> codomain."""
    _, k = kernel(f)
    pres = cokernel_presentation(k)
    rows = [[f.matrix[i][d] for d in pres.complement] for i in range(f.codomain.dim)]
    try:
        return bounded_map(pres.space, f.codomain, rows)
    except InvariantViolation:
        return None


def retraction(f: BoundedMap) -> Optional[BoundedMap]:
    """Left inverse of minimal operator norm, or None if f is not split mono.

    The zero extension along the orthogonal complement of the image has the
    smallest possible norm among retractions, so testing it decides the flag.
    """
    F = f.domain.field
    if linalg.rank(F, f.rows()) < f.domain.dim:
        return None
    ob = image(f)
    incl = ob.inclusion()
    sol = linalg.solve_matrix(F, incl.rows(), f.rows())
    if sol is None:
        return None
    if incl.domain.dim == 0:
        sol = []
    change_inv = linalg.inverse(F, sol)
    if change_inv is None:
        return None
    # coefficients of the image part of a codomain vector, read off the pivots
    piv = ob.pivots + ob.null_pivots
    coeff_rows = [
        [F.one if c == p else F.zero for c in range(f.codomain.dim)] for p in piv
    ]
    rows = linalg.mat_mul(F, change_inv, coeff_rows)
    if f.domain.dim == 0:
        rows = []
    try:
        cand = bounded_map(f.codomain, f.domain, rows)
    except InvariantViolation:
        return None
    if operator_norm(cand) > MAG_ONE:
        return None
    if compose(cand, f) != identity_map(f.domain):
        return None
    return cand


def section(f: BoundedMap) -> Optional[BoundedMap]:
    """Right inverse of minimal operator norm, or None if f is not split epi.

    Per codomain basis vector the residual-reduced preimage modulo the kernel
    is the norm-minimal preimage, and the operator norm is decided per basis
    vector, so minimizing columns independently is globally optimal.
    """
    F = f.domain.field
    if f.codomain.dim and linalg.rank(F, f.rows()) < f.codomain.dim:
        return None
    ident = linalg.identity(F, f.codomain.dim)
    pre = linalg.solve_matrix(F, f.rows(), ident)
    if pre is None:
        return None
    basis = linalg.nullspace(F, f.rows(), ncols=f.domain.dim)
    ker_basis = orthogonalize(f.domain, [Vector(f.domain, tuple(b)) for b in basis])
    cols = []
    for d in range(f.codomain.dim):
        x = Vector(f.domain, tuple(pre[i][d] for i in range(f.domain.dim)))
        cols.append(ker_basis.residual(x).coords)
    rows = [[cols[d][i] for d in range(f.codomain.dim)] for i in range(f.domain.dim)]
    try:
        cand = bounded_map(f.codomain, f.domain, rows)
    except InvariantViolation:
        return None
    if operator_norm(cand) > MAG_ONE:
        return None
    if compose(f, cand) != identity_map(f.codomain):
        return None
    return cand


def strict_flags(f: BoundedMap) -> tuple[int, bool, bool]:
    """Rank of f, and whether f is a strict mono and whether a strict epi.

    Strict epi: surjective with the induced map domain/kernel -> codomain an
    isometric isomorphism.  Strict mono: injective and an isometry onto the
    image.  The rank comes along so that classify_morphism reuses it.
    """
    if operator_norm(f) > MAG_ONE:
        raise NotNonExpanding("classification applies to maps of operator norm <= 1")
    rk = linalg.rank(f.domain.field, f.rows())
    strict_mono = rk == f.domain.dim and _isometric_onto_image(f)
    strict_epi = False
    if rk == f.codomain.dim:
        comp = _quotient_comparison(f)
        strict_epi = comp is not None and is_iso_nonexpanding(comp)
    return rk, strict_mono, strict_epi


def classify_morphism(f: BoundedMap) -> MorphismClassification:
    """Classification in the non-expanding category; exact in every entry.

    The strict flags come from strict_flags.  Split flags solve for a
    one-sided inverse of norm at most one.
    """
    rk, strict_mono, strict_epi = strict_flags(f)
    mono = rk == f.domain.dim
    epi = rk == f.codomain.dim
    iso = mono and epi and is_iso_nonexpanding(f)
    split_mono = mono and retraction(f) is not None
    split_epi = epi and section(f) is not None
    return MorphismClassification(mono, epi, strict_mono, strict_epi, iso, split_mono, split_epi)


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
    return bounded_map(domain, M, rows, check=False)


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
    return bounded_map(bp.space, target, rows, check=False)


def product_mediate(bp: Biproduct, legs: list[BoundedMap]) -> BoundedMap:
    """Unique map into the product whose projections are the given legs."""
    if len(legs) != len(bp.projections):
        raise NotComposable("one leg per product factor required")
    source = legs[0].domain
    rows = [list(r) for leg in legs for r in leg.matrix]
    return bounded_map(source, bp.space, rows, check=False)


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
