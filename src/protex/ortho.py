"""Ultrametric orthogonalization with a machine-checkable certificate.

The algorithm is global-max scaled-pivot elimination with full
cross-reduction:

    repeat:
        among the unprocessed rows pick the (row, coordinate) pair
        maximizing |entry| * weight, breaking ties by lowest coordinate
        index, then lowest original row index;
        normalize the pivot entry to one and eliminate that coordinate
        from every other row, processed rows included.

A pivot's value is the row's norm at selection time and later
eliminations only subtract vectors of no larger norm whose pivot
coordinates the row does not touch, so the pivot term stays the maximal
coordinate term.  Rows whose remaining entries all sit at weight-zero
coordinates can never be selected; afterwards each of them, in row order,
pivots on its first non-zero entry by the same normalize-and-eliminate
step, and they form the null part of the basis.

The exclusive unit-pivot certificate (each basis vector is one at a
coordinate at which all other rows vanish) makes quotient norms exact: the
residual of a vector after zeroing its pivot coordinates is the
norm-minimal member of its coset.  Both presentations are read off it
without division: the span carries the ambient weights of the pivots, the
quotient those of the complementary coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .scalars import Magnitude
from .spaces import BoundedMap, Vector, WeightedSpace, bounded_map, norm


@dataclass(frozen=True)
class OrthoBasis:
    """Orthogonal presentation of a subspace with exclusive unit pivots.

    ``vectors[j]`` is one at ``pivots[j]``, every other row vanishes there,
    and its norm is the ambient weight of that pivot; so the norm of any
    linear combination is the max of the coefficient-scaled pivot weights.
    ``null_vectors`` span the norm-zero part and carry their own unit pivots.
    """

    ambient: WeightedSpace
    vectors: tuple[Vector, ...]
    pivots: tuple[int, ...]
    null_vectors: tuple[Vector, ...]
    null_pivots: tuple[int, ...]

    def __post_init__(self):
        F = self.ambient.field
        if len(self.vectors) != len(self.pivots):
            raise InvariantViolation("one pivot per basis vector required")
        if len(self.null_vectors) != len(self.null_pivots):
            raise InvariantViolation("one pivot per null vector required")
        all_pivots = self.pivots + self.null_pivots
        if len(set(all_pivots)) != len(all_pivots):
            raise InvariantViolation("pivot coordinates must be distinct")
        rows = self.vectors + self.null_vectors
        for j, (v, p) in enumerate(zip(rows, all_pivots)):
            if v.space != self.ambient:
                raise InvariantViolation("basis vector outside the ambient space")
            if v.coords[p] != F.one:
                raise InvariantViolation(f"pivot {p} of row {j} is not one")
            for k, u in enumerate(rows):
                if k != j and not F.is_zero(u.coords[p]):
                    raise InvariantViolation(
                        f"pivot {p} of row {j} is not exclusive (row {k} hits it)"
                    )
            weight = self.ambient.weights[p]
            if norm(v) != weight or weight.is_zero != (j >= len(self.vectors)):
                raise InvariantViolation(f"row {j} does not have the norm of its pivot weight")

    @property
    def complement(self) -> tuple[int, ...]:
        """Ambient coordinates that are no pivot: the quotient's coordinates."""
        used = set(self.pivots + self.null_pivots)
        return tuple(d for d in range(self.ambient.dim) if d not in used)

    def presented_space(self) -> WeightedSpace:
        weights = tuple(self.ambient.weights[p] for p in self.pivots + self.null_pivots)
        return WeightedSpace(self.ambient.field, weights)

    def inclusion(self) -> BoundedMap:
        cols = [list(v.coords) for v in self.vectors + self.null_vectors]
        rows = [[col[i] for col in cols] for i in range(self.ambient.dim)]
        return bounded_map(self.presented_space(), self.ambient, rows)

    def quotient_space(self) -> WeightedSpace:
        weights = tuple(self.ambient.weights[d] for d in self.complement)
        return WeightedSpace(self.ambient.field, weights)

    def projection(self) -> BoundedMap:
        """The quotient map: each coordinate's residual on the complement (minus v at v's pivot)."""
        F, comp = self.ambient.field, self.complement
        rows = [[F.one if c == d else F.zero for c in range(self.ambient.dim)] for d in comp]
        for v, p in zip(self.vectors + self.null_vectors, self.pivots + self.null_pivots):
            for row, d in zip(rows, comp):
                row[p] = F.neg(v.coords[d])
        return bounded_map(self.ambient, self.quotient_space(), rows)

    def residual(self, m: Vector) -> Vector:
        """Representative of the coset of ``m`` with zeros at every pivot."""
        if m.space != self.ambient:
            raise InvariantViolation("vector does not live in the ambient space")
        F = self.ambient.field
        coords = list(m.coords)
        for v, p in zip(self.vectors + self.null_vectors, self.pivots + self.null_pivots):
            factor = coords[p]  # the pivot entry of v is one
            if F.is_zero(factor):
                continue
            for i, c in enumerate(v.coords):
                coords[i] = F.sub(coords[i], F.mul(factor, c))
        return Vector(self.ambient, tuple(coords))


def orthogonalize(space: WeightedSpace, generators) -> OrthoBasis:
    """Orthogonal basis of the span of ``generators`` inside ``space``.

    Rows are in the field's integer-row form, with the denominator as a
    last entry: ``row[:-1] / row[-1]`` are the coordinates.  A processed
    row is read relative to its pivot entry instead, and its last entry is
    zero; so one cross-multiplication, ``pc * o - o[c] * prow`` for a pivot
    row ``prow`` with pivot entry ``pc``, reduces both kinds of row and
    scales a denominator ``od`` to ``od * pc``.
    """
    F = space.field
    exps = [w.exponent for w in space.weights]
    coords = []
    for g in generators:
        if g.space != space:
            raise InvariantViolation("generator outside the target space")
        coords.append(g.coords)
    ints, den = F.to_ints(coords)
    rows = [[*r, den] for r in ints if any(r)]
    live = list(range(len(rows)))  # original indices of unprocessed rows
    done: list[tuple[int, list]] = []  # (pivot coordinate, row), null rows last

    def pivot_on(c: int, row: list):
        """Process ``row`` on pivot c and clear coordinate c from every other row."""
        row[-1] = 0
        row[:] = F.shrink([-x for x in row] if row[c] < 0 else row)
        pc = row[c]
        for other in [r for _, r in done] + [rows[idx] for idx in live]:
            e = other[c]
            if e and other is not row:
                other[:] = F.shrink([pc * x - e * y for x, y in zip(other, row)])
        done.append((c, row))

    while True:
        best = None  # (exponent of |entry| * weight, -coord, -original row index)
        for idx in live:
            row = rows[idx]
            shift = F.abs_exponent(row[-1])
            for c, e in enumerate(exps):
                if e is not None and row[c]:
                    key = (e + F.abs_exponent(row[c]) - shift, -c, -idx)
                    if best is None or key > best:
                        best = key
        if best is None:
            break
        c, idx = -best[1], -best[2]
        live.remove(idx)
        pivot_on(c, rows[idx])

    # leftover rows are supported on weight-zero coordinates: each pivots on
    # its first non-zero entry, in row order
    weighted = len(done)
    for idx in live:
        row = rows[idx]
        c = next((c for c, x in enumerate(row[:-1]) if x), None)
        if c is not None:
            pivot_on(c, row)

    def presented(part):
        """(vectors, pivots) of processed rows in pivot order, each pivot entry one."""
        part = sorted(part, key=lambda pr: pr[0])
        vectors = tuple(Vector(space, tuple(F.from_ints(r[:-1], r[c]))) for c, r in part)
        return vectors, tuple(c for c, _ in part)

    vectors, pivots = presented(done[:weighted])
    null_vectors, null_pivots = presented(done[weighted:])
    return OrthoBasis(space, vectors, pivots, null_vectors, null_pivots)


def quotient_norm(sub: OrthoBasis, m: Vector) -> Magnitude:
    """Exact infimum of the norm over the coset ``m + span(sub)``.

    Any coset member differing from the residual by w in the span has norm
    at least ||w|| at w's dominant pivot coordinate, which forces the
    residual to be minimal; the infimum is attained.
    """
    return norm(sub.residual(m))


def image(f: BoundedMap) -> OrthoBasis:
    """Orthogonal presentation of the set-theoretic image with the subspace norm."""
    return orthogonalize(f.codomain, [f.column(j) for j in range(f.domain.dim)])
