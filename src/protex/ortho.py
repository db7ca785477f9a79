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

The exclusive-pivot certificate (each basis vector owns a coordinate at
which all other rows vanish) is what makes quotient norms exact: the
residual of a vector after zeroing its pivot coordinates is the
norm-minimal member of its coset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .scalars import MAG_ZERO, Magnitude
from .spaces import BoundedMap, Vector, WeightedSpace, bounded_map, norm


@dataclass(frozen=True)
class OrthoBasis:
    """Orthogonal presentation of a subspace with exclusive pivots.

    ``vectors[j]`` has norm ``|vectors[j][pivots[j]]| * weight`` attained at
    its pivot, every other row vanishes there, and the norm of any linear
    combination is the max of the coefficient-scaled member norms.
    ``null_vectors`` span the norm-zero part and carry their own pivots.
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
            for k, u in enumerate(rows):
                if k != j and not F.is_zero(u.coords[p]):
                    raise InvariantViolation(
                        f"pivot {p} of row {j} is not exclusive (row {k} hits it)"
                    )
        for v, p in zip(self.vectors, self.pivots):
            pivot_term = F.abs_value(v.coords[p]) * self.ambient.weights[p]
            if pivot_term.is_zero or norm(v) != pivot_term:
                raise InvariantViolation("norm is not attained at the pivot coordinate")
        for v in self.null_vectors:
            if not norm(v).is_zero:
                raise InvariantViolation("null part contains a vector of non-zero norm")

    @property
    def subspace_dim(self) -> int:
        return len(self.vectors) + len(self.null_vectors)

    def presented_space(self, label=None) -> WeightedSpace:
        weights = tuple(norm(v) for v in self.vectors) + (MAG_ZERO,) * len(self.null_vectors)
        return WeightedSpace(self.ambient.field, weights, label)

    def inclusion(self, label=None) -> BoundedMap:
        src = self.presented_space(label)
        cols = [list(v.coords) for v in self.vectors + self.null_vectors]
        rows = [[col[i] for col in cols] for i in range(self.ambient.dim)]
        return bounded_map(src, self.ambient, rows, check=False)

    def residual(self, m: Vector) -> Vector:
        """Representative of the coset of ``m`` with zeros at every pivot."""
        if m.space != self.ambient:
            raise InvariantViolation("vector does not live in the ambient space")
        F = self.ambient.field
        coords = list(m.coords)
        for v, p in zip(self.vectors + self.null_vectors, self.pivots + self.null_pivots):
            factor = F.div(coords[p], v.coords[p])
            if F.is_zero(factor):
                continue
            for i, c in enumerate(v.coords):
                coords[i] = F.sub(coords[i], F.mul(factor, c))
        return Vector(self.ambient, tuple(coords))

    def contains(self, m: Vector) -> bool:
        return self.residual(m).is_zero


def orthogonalize(space: WeightedSpace, generators) -> OrthoBasis:
    """Orthogonal basis of the span of ``generators`` inside ``space``."""
    F = space.field
    rows = []
    for g in generators:
        if g.space != space:
            raise InvariantViolation("generator outside the target space")
        if not g.is_zero:
            rows.append(list(g.coords))
    live = list(range(len(rows)))  # original indices of unprocessed rows
    done: list[tuple[int, list]] = []  # (pivot coordinate, row), null rows last

    def pivot_on(c: int, row: list):
        """Normalize row[c] to one and clear coordinate c from every other row."""
        inv = F.div(F.one, row[c])
        for i in range(len(row)):
            row[i] = F.mul(inv, row[i])
        for _, other in done:
            _reduce_row(F, other, c, row)
        for idx in live:
            if rows[idx] is not row:
                _reduce_row(F, rows[idx], c, row)
        done.append((c, row))

    while True:
        best = None  # (magnitude, coord, original row index)
        for idx in live:
            for c, entry in enumerate(rows[idx]):
                if F.is_zero(entry):
                    continue
                mag = F.abs_value(entry) * space.weights[c]
                if mag.is_zero:
                    continue
                key = (mag, -c, -idx)
                if best is None or (key[0] > best[0][0]) or (
                    key[0] == best[0][0] and key[1:] > best[0][1:]
                ):
                    best = (key, c, idx)
        if best is None:
            break
        _, c, idx = best
        live.remove(idx)
        pivot_on(c, rows[idx])

    # leftover rows are supported on weight-zero coordinates: each pivots on
    # its first non-zero entry, in row order
    weighted = len(done)
    for idx in live:
        c = next((c for c, entry in enumerate(rows[idx]) if not F.is_zero(entry)), None)
        if c is not None:
            pivot_on(c, rows[idx])

    processed = sorted(done[:weighted], key=lambda pr: pr[0])
    null_rows = sorted(done[weighted:], key=lambda pr: pr[0])
    return OrthoBasis(
        ambient=space,
        vectors=tuple(Vector(space, tuple(r)) for _, r in processed),
        pivots=tuple(p for p, _ in processed),
        null_vectors=tuple(Vector(space, tuple(r)) for _, r in null_rows),
        null_pivots=tuple(p for p, _ in null_rows),
    )


def _reduce_row(F, row, pivot, prow):
    factor = F.div(row[pivot], prow[pivot])
    if F.is_zero(factor):
        return
    for i in range(len(row)):
        row[i] = F.sub(row[i], F.mul(factor, prow[i]))


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
