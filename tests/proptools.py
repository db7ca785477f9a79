"""Randomized single-case checkers shared by the unit and acceptance suites.

Each ``case_*`` function draws one random instance from the supplied RNG
and asserts the law under test with exact equality.  The acceptance suite
runs them at the full prescribed counts; unit tests run smaller smoke
counts.  The generators they draw from live here too, except the three
that ``oracle-check`` uses, which stay in ``protex.randgen``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    OrthoBasis,
    ShortExactSequence,
    WeightedModuleCategory,
    WeightedSpace,
    basis_vector,
    biproduct,
    bounded_map,
    chain_colimit,
    classify_morphism,
    cokernel,
    compose,
    coproduct_product_comparison,
    free_cover,
    identity_between,
    identity_map,
    kernel,
    norm,
    operator_norm,
    orthogonalize,
    pullback,
    pushout,
    quotient_norm,
    rescale,
    validate_ses,
    vector,
)
from protex.constructions import (
    factor_through_cokernel,
    factor_through_kernel,
    inverse_map,
    is_iso_nonexpanding,
)
from protex.randgen import random_bounded_map, random_magnitude, random_space, random_vector
from protex.scalars import PAdicRationals, ValuedField
from protex.spaces import BoundedMap, Vector, zero_vector


# -- generators for the law checks ------------------------------------------


def add_vectors(u: Vector, v: Vector) -> Vector:
    F = u.space.field
    return Vector(u.space, tuple(F.add(a, b) for a, b in zip(u.coords, v.coords)))


def scale_vector(a, v: Vector) -> Vector:
    F = v.space.field
    return Vector(v.space, tuple(F.mul(a, c) for c in v.coords))


def reference_orthogonalize(space: WeightedSpace, generators) -> OrthoBasis:
    """The element-arithmetic loop that ``orthogonalize`` replaced: one field
    call per entry operation, with the weighted rows before the null rows.

    Weighted pivots are chosen by the largest |entry| * weight, ties to the
    lowest coordinate, then the lowest row; each row left on weight-zero
    coordinates then pivots on its first non-zero entry, in row order.
    """
    F = space.field
    rows = [list(g.coords) for g in generators if not g.is_zero]
    live = list(range(len(rows)))
    done = []

    def reduce_row(row, c, prow):
        factor = F.div(row[c], prow[c])
        if not F.is_zero(factor):
            for i in range(len(row)):
                row[i] = F.sub(row[i], F.mul(factor, prow[i]))

    def pivot_on(c, row):
        inv = F.div(F.one, row[c])
        for i in range(len(row)):
            row[i] = F.mul(inv, row[i])
        for _, other in done:
            reduce_row(other, c, row)
        for idx in live:
            if rows[idx] is not row:
                reduce_row(rows[idx], c, row)
        done.append((c, row))

    while True:
        best = None
        for idx in live:
            for c, entry in enumerate(rows[idx]):
                mag = F.abs_value(entry) * space.weights[c]
                if mag.is_zero:
                    continue
                key = (mag, -c, -idx)
                if best is None or key[0] > best[0][0] or (
                    key[0] == best[0][0] and key[1:] > best[0][1:]
                ):
                    best = (key, c, idx)
        if best is None:
            break
        _, c, idx = best
        live.remove(idx)
        pivot_on(c, rows[idx])
    weighted = len(done)
    for idx in live:
        c = next((c for c, x in enumerate(rows[idx]) if not F.is_zero(x)), None)
        if c is not None:
            pivot_on(c, rows[idx])
    ordered = sorted(done[:weighted], key=lambda pr: pr[0])
    ordered += sorted(done[weighted:], key=lambda pr: pr[0])
    return OrthoBasis(
        ambient=space,
        vectors=tuple(Vector(space, tuple(r)) for _, r in ordered),
        pivots=tuple(p for p, _ in ordered),
    )


def _fit_column(field: ValuedField, column, target: WeightedSpace, bound: Magnitude):
    """Adjust a coordinate list so its norm is at most ``bound``."""
    coords = list(column)
    if bound.is_zero:
        # only the null directions of the target may carry entries
        for i in range(len(coords)):
            if not target.weights[i].is_zero:
                coords[i] = field.zero
        return coords
    if isinstance(field, PAdicRationals):
        col_norm = norm(Vector(target, tuple(coords)))
        if col_norm > bound:
            # multiplying by p^k scales the absolute value by g^-k
            shift = math.ceil(col_norm.exponent - bound.exponent)
            scale = Fraction(field.p**shift)
            coords = [field.mul(scale, c) for c in coords]
        return coords
    # trivially valued: entries cannot be shrunk, drop the oversized ones
    for i in range(len(coords)):
        if field.abs_value(coords[i]) * target.weights[i] > bound:
            coords[i] = field.zero
    return coords


def random_nonexpanding_map(
    domain: WeightedSpace, codomain: WeightedSpace, rng: random.Random
) -> BoundedMap:
    field = domain.field
    cols = []
    for j in range(domain.dim):
        raw = [field.random_element(rng) for _ in range(codomain.dim)]
        cols.append(_fit_column(field, raw, codomain, domain.weights[j]))
    rows = [[cols[j][i] for j in range(domain.dim)] for i in range(codomain.dim)]
    return bounded_map(domain, codomain, rows)


def random_strict_mono(
    field: ValuedField,
    rng: random.Random,
    max_dim: int = 3,
    allow_null: bool = False,
) -> BoundedMap:
    """Inclusion of the orthogonal span of a few random vectors."""
    ambient = random_space(field, rng, max_dim, allow_null)
    count = rng.randint(0, ambient.dim)
    ob = orthogonalize(ambient, [random_vector(ambient, rng) for _ in range(count)])
    return ob.inclusion()


def random_strict_epi(
    field: ValuedField,
    rng: random.Random,
    max_dim: int = 3,
    allow_null: bool = False,
) -> BoundedMap:
    """Quotient projection by the orthogonal span of a few random vectors."""
    ambient = random_space(field, rng, max_dim, allow_null)
    count = rng.randint(0, ambient.dim)
    ob = orthogonalize(ambient, [random_vector(ambient, rng) for _ in range(count)])
    _, proj = cokernel(ob.inclusion())
    return proj


def random_isometric_auto(space: WeightedSpace, rng: random.Random) -> BoundedMap:
    """Isometric automorphism: a product of unit scalings and legal shears.

    A shear e_j -> e_j + c e_i keeps the map and its inverse non-expanding
    exactly when |c| * w_i <= w_j, so each factor is an isometry.
    """
    field = space.field
    n = space.dim
    rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def unit(ring_rng):
        u = field.random_element(ring_rng, allow_zero=False)
        if isinstance(field, PAdicRationals):
            v = field.abs_value(u)
            if not v.is_zero and v != MAG_ONE:
                u = field.mul(u, Fraction(field.p) ** int(v.exponent))
        return u

    for j in range(n):
        u = unit(rng)
        for i in range(n):
            rows[i][j] = field.mul(rows[i][j], u)
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = field.random_element(rng)
        if field.is_zero(c):
            continue
        if field.abs_value(c) * space.weights[i] > space.weights[j]:
            if not isinstance(field, PAdicRationals) or space.weights[i].is_zero:
                continue
            if space.weights[j].is_zero:
                continue
            gap = field.abs_value(c) * space.weights[i] / space.weights[j]
            c = field.mul(c, Fraction(field.p ** math.ceil(gap.exponent)))
        for r in range(n):
            rows[r][j] = field.add(rows[r][j], field.mul(c, rows[r][i]))
    return bounded_map(space, space, rows)


def random_field(rng: random.Random) -> PAdicRationals:
    return PAdicRationals(rng.choice([2, 3]))


def _category(field) -> WeightedModuleCategory:
    return WeightedModuleCategory(field)


# -- stability theorems ------------------------------------------------------


def case_pullback_of_strict_epi(rng: random.Random) -> None:
    field = random_field(rng)
    f = random_strict_epi(field, rng, max_dim=3, allow_null=True)
    L = random_space(field, rng, max_dim=3, allow_null=True)
    g = random_nonexpanding_map(L, f.codomain, rng)
    square = pullback(f, g)
    assert classify_morphism(square.p2).strict_epi


def case_pushout_of_strict_mono(rng: random.Random) -> None:
    field = random_field(rng)
    i = random_strict_mono(field, rng, max_dim=3, allow_null=True)
    L = random_space(field, rng, max_dim=3, allow_null=True)
    g = random_nonexpanding_map(i.domain, L, rng)
    square = pushout(i, g)
    assert classify_morphism(square.j2).strict_mono


def case_strict_epi_composition(rng: random.Random) -> None:
    field = random_field(rng)
    f = random_strict_epi(field, rng, max_dim=3, allow_null=True)
    N = f.codomain
    gens = [random_vector(N, rng) for _ in range(rng.randint(0, N.dim))]
    _, g = cokernel(orthogonalize(N, gens).inclusion())
    gf = compose(g, f)
    assert classify_morphism(gf).strict_epi


def case_strict_mono_composition(rng: random.Random) -> None:
    field = random_field(rng)
    i = random_strict_mono(field, rng, max_dim=3, allow_null=True)
    M = i.codomain
    W = random_space(field, rng, max_dim=2, allow_null=True)
    bp = biproduct([M, W])
    j = compose(random_isometric_auto(bp.space, rng), bp.injections[0])
    assert classify_morphism(j).strict_mono
    assert classify_morphism(compose(j, i)).strict_mono


def case_epi_cancellation(rng: random.Random) -> None:
    # g o f strict epi forces g strict epi, with f not an epi in general
    field = random_field(rng)
    s = random_strict_epi(field, rng, max_dim=3, allow_null=True)
    X, Z = s.domain, s.codomain
    W = random_space(field, rng, max_dim=2, allow_null=True)
    bp = biproduct([X, W])
    f = bp.injections[0]
    t = random_nonexpanding_map(W, Z, rng)
    rows = [list(a) + list(b) for a, b in zip(s.matrix, t.matrix)]
    g = bounded_map(bp.space, Z, rows)
    assert compose(g, f) == s
    assert classify_morphism(g).strict_epi


def case_mono_cancellation(rng: random.Random) -> None:
    # g o f strict mono forces f strict mono
    field = random_field(rng)
    m = random_strict_mono(field, rng, max_dim=3, allow_null=True)
    X, Y = m.domain, m.codomain
    W = random_space(field, rng, max_dim=2, allow_null=True)
    bp = biproduct([Y, W])
    t = random_nonexpanding_map(X, W, rng)
    rows = [list(r) for r in m.matrix] + [list(r) for r in t.matrix]
    f = bounded_map(X, bp.space, rows)
    g = bp.projections[0]
    assert compose(g, f) == m
    assert classify_morphism(f).strict_mono


# -- kernel and cokernel comparisons ----------------------------------------


def case_pullback_kernel_comparison(rng: random.Random) -> None:
    field = random_field(rng)
    Z = random_space(field, rng, max_dim=3, allow_null=True)
    X = random_space(field, rng, max_dim=3, allow_null=True)
    Y = random_space(field, rng, max_dim=3, allow_null=True)
    f = random_nonexpanding_map(X, Z, rng)
    g = random_nonexpanding_map(Y, Z, rng)
    square = pullback(f, g)
    _, k2 = kernel(square.p2)  # kernel of the base change of f
    comp = compose(square.p1, k2)
    _, kf = kernel(f)
    v = factor_through_kernel(kf, comp)
    assert v is not None and is_iso_nonexpanding(v)


def case_bicartesian_mixed_square(rng: random.Random) -> None:
    field = random_field(rng)
    B = random_space(field, rng, max_dim=3, allow_null=True)
    gens = [random_vector(B, rng) for _ in range(rng.randint(0, B.dim))]
    i = orthogonalize(B, gens).inclusion()  # admissible mono A -> B
    W = random_space(field, rng, max_dim=2, allow_null=True)
    bp = biproduct([B, W])
    f = compose(bp.projections[0], random_isometric_auto(bp.space, rng))
    assert classify_morphism(f).strict_epi
    _, c = cokernel(i)
    e = compose(c, f)
    _, i_prime = kernel(e)
    f_prime = factor_through_kernel(i, compose(f, i_prime))
    assert f_prime is not None
    # the square is a pullback ...
    canonical = pullback(i, f)
    u = canonical.mediate(f_prime, i_prime)
    assert u is not None and is_iso_nonexpanding(u)
    # ... and also a pushout
    po = pushout(f_prime, i_prime)
    m = po.mediate(i, f)
    assert m is not None and is_iso_nonexpanding(m)
    assert classify_morphism(i_prime).strict_mono
    assert classify_morphism(f_prime).strict_epi


def case_cokernel_of_composite(rng: random.Random) -> None:
    field = random_field(rng)
    i = random_strict_mono(field, rng, max_dim=3, allow_null=True)
    M = i.codomain
    W = random_space(field, rng, max_dim=2, allow_null=True)
    bp = biproduct([M, W])
    j = compose(random_isometric_auto(bp.space, rng), bp.injections[0])
    f, g = i, j
    _, qf = cokernel(f)
    _, qgf = cokernel(compose(g, f))
    _, qg = cokernel(g)
    a = factor_through_cokernel(qf, compose(qgf, g))
    b = factor_through_cokernel(qgf, qg)
    assert a is not None and b is not None
    verdict = validate_ses(_category(field), ShortExactSequence(a, b))
    assert verdict.ok, verdict.failing_clause


def case_strict_mono_epi_is_iso(rng: random.Random) -> None:
    field = random_field(rng)
    sp = random_space(field, rng, max_dim=4, allow_null=True)
    f = random_isometric_auto(sp, rng)
    record = classify_morphism(f)
    assert record.strict_mono and record.epi
    assert record.iso
    # opportunistic direction on arbitrary maps
    g = random_nonexpanding_map(
        random_space(field, rng, max_dim=3, allow_null=True),
        random_space(field, rng, max_dim=3, allow_null=True),
        rng,
    )
    rec = classify_morphism(g)
    if rec.strict_mono and rec.epi:
        assert rec.iso


def case_strict_epi_zero_kernel_is_iso(rng: random.Random) -> None:
    field = random_field(rng)
    e = random_strict_epi(field, rng, max_dim=3, allow_null=True)
    K, _ = kernel(e)
    if K.dim == 0:
        assert classify_morphism(e).iso
    iso = random_isometric_auto(random_space(field, rng, max_dim=3, allow_null=True), rng)
    K2, _ = kernel(iso)
    assert K2.dim == 0
    assert classify_morphism(iso).strict_epi and classify_morphism(iso).iso


def case_image_replacement_sequence(rng: random.Random) -> None:
    # bounded, not necessarily non-expanding kernel-cokernel pairs are
    # isomorphic to the image inclusion followed by the quotient projection
    field = random_field(rng)
    Y = random_space(field, rng, max_dim=3, allow_null=True)
    gens = [random_vector(Y, rng) for _ in range(rng.randint(0, Y.dim))]
    incl = orthogonalize(Y, gens).inclusion()
    X = rescale(incl.domain, random_magnitude(rng)) if incl.domain.dim else incl.domain
    f = bounded_map(X, Y, incl.rows())
    Q, q_f = cokernel(f)
    eps = random_magnitude(rng)
    g = compose(identity_between(Q, rescale(Q, eps)), q_f) if Q.dim else q_f

    a = factor_through_kernel(incl, f)  # X -> Im(f)
    assert a is not None and inverse_map(a) is not None
    c = factor_through_cokernel(g, q_f)  # cod(g) -> Y/Im(f)
    assert c is not None and inverse_map(c) is not None
    assert compose(incl, a) == f
    assert compose(c, g) == q_f
    assert operator_norm(identity_map(Y)) <= MAG_ONE
    verdict = validate_ses(_category(field), ShortExactSequence(incl, q_f))
    assert verdict.ok, verdict.failing_clause


# -- norms, covers, colimits -------------------------------------------------


def case_rescaling_adjunction(rng: random.Random) -> None:
    field = random_field(rng)
    M = random_space(field, rng, max_dim=3)
    N = random_space(field, rng, max_dim=3)
    delta = random_magnitude(rng)
    g = random_bounded_map(M, N, rng)
    rescaled = bounded_map(rescale(M, delta), N, g.rows())
    assert (operator_norm(g) <= delta) == (operator_norm(rescaled) <= MAG_ONE)


def case_free_cover(rng: random.Random) -> None:
    field = random_field(rng)
    M = random_space(field, rng, max_dim=3, allow_null=True)
    spanning = [basis_vector(M, i) for i in range(M.dim)]
    spanning += [random_vector(M, rng) for _ in range(rng.randint(0, 2))]
    rng.shuffle(spanning)
    cover = free_cover(M, spanning)
    assert operator_norm(cover) <= MAG_ONE
    assert classify_morphism(cover).strict_epi


def case_chain_colimit_norms(rng: random.Random) -> None:
    field = random_field(rng)
    spaces = [random_space(field, rng, max_dim=3, allow_null=True, min_dim=1)]
    maps = []
    for _ in range(rng.randint(1, 3)):
        nxt = random_space(field, rng, max_dim=3, allow_null=True)
        maps.append(random_nonexpanding_map(spaces[-1], nxt, rng))
        spaces.append(nxt)
    col = chain_colimit(maps)
    for i, stage in enumerate(col.stages):
        for j in range(stage.dim):
            v = basis_vector(stage, j)
            assert col.colimit_norm(i, v) == norm(col.cocone[i].apply(v))
        v = random_vector(stage, rng)
        assert col.colimit_norm(i, v) == norm(col.cocone[i].apply(v))


def case_ortho_certificate_sampled(rng: random.Random, samples: int = 25) -> None:
    field = random_field(rng)
    sp = random_space(field, rng, max_dim=4, allow_null=True)
    gens = [random_vector(sp, rng) for _ in range(rng.randint(0, sp.dim + 1))]
    ob = orthogonalize(sp, gens)
    if not ob.vectors:
        return
    for _ in range(samples):
        coeffs = [field.random_element(rng) for _ in ob.vectors]
        combo = zero_vector(sp)
        expected = MAG_ZERO
        for a, w in zip(coeffs, ob.vectors):
            combo = add_vectors(combo, scale_vector(a, w))
            term = field.abs_value(a) * norm(w)
            if term > expected:
                expected = term
        assert norm(combo) == expected


def case_quotient_order_reversal(rng: random.Random) -> None:
    field = random_field(rng)
    sp = random_space(field, rng, max_dim=3, allow_null=True)
    gens = [random_vector(sp, rng) for _ in range(rng.randint(0, 3))]
    m = random_vector(sp, rng)
    a = quotient_norm(orthogonalize(sp, gens), m)
    b = quotient_norm(orthogonalize(sp, list(reversed(gens))), m)
    assert a == b


def case_biproduct_comparison(rng: random.Random) -> None:
    field = random_field(rng)
    parts = [
        random_space(field, rng, max_dim=2, allow_null=True)
        for _ in range(rng.randint(1, 3))
    ]
    bp = biproduct(parts)
    comparison = coproduct_product_comparison(bp)
    assert comparison == identity_map(bp.space)
    assert classify_morphism(comparison).iso
