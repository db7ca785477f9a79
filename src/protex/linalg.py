"""Exact Gaussian elimination over an abstract valued field.

Matrices are lists of row lists of field elements.  Elimination runs on
the integer-row form of the field (see ``scalars``): each row is cleared
of denominators once, a row is reduced by cross-multiplying with the
pivot row (``pv * x - e * y``) and shrunk by the field's hook (the gcd of
its entries over Q, ``% p`` over F_p), and elements are built again only
for the reduced rows returned.  The same loop serves F_p and the
rationals.  Zero-row and zero-column matrices are legal throughout.
"""

from __future__ import annotations

from .scalars import ValuedField


def identity(F: ValuedField, n: int):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def mat_vec(F: ValuedField, a, v):
    out = []
    for row in a:
        acc = F.zero
        for x, y in zip(row, v):
            acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return out


def rref(F: ValuedField, a):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = list(F.to_ints(a)[0])  # a row's scale does not matter here
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(m):
            e = rows[i][c]
            if e and i != r:
                rows[i] = F.shrink([pv * x - e * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    red = [F.from_ints(row, row[c]) for row, c in zip(rows, pivots)]
    return red + [[F.zero] * n for _ in range(m - r)], pivots


def rank(F: ValuedField, a) -> int:
    return len(rref(F, a)[1])


def solve_matrix(F: ValuedField, a, b):
    """Any solution X of a @ X = b, or None when inconsistent.

    Shapes: a is m x n, b is m x k, X is n x k; free variables are set to zero.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    k = len(b[0]) if b else 0
    if len(b) != m:
        raise ValueError("incompatible shapes in solve_matrix")
    if m == 0:
        return [[F.zero] * k for _ in range(n)]
    aug = [list(a[i]) + list(b[i]) for i in range(m)]
    red, pivots = rref(F, aug)
    for c in pivots:
        if c >= n:  # pivot in the augmented block: inconsistent
            return None
    return echelon_solution(F, red, pivots, n, k)


def echelon_solution(F: ValuedField, red, pivots, n: int, k: int):
    """X with a @ X = b, read off the reduced form ``red`` of ``[a | b]``.

    ``a`` has n columns and b has k; every pivot must lie below n (the
    system is consistent).  Free variables are set to zero.
    """
    x = [[F.zero] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        x[c] = red[r][n:n + k]
    return x


def nullspace(F: ValuedField, a, ncols: int = None):
    """Basis of the right nullspace, one vector per free column.

    ``ncols`` is required when ``a`` has no rows (the shape is lost).
    """
    n = len(a[0]) if a else (ncols or 0)
    red, pivots = rref(F, a) if a else ([], [])
    return echelon_nullspace(F, red, pivots, n)


def echelon_nullspace(F: ValuedField, red, pivots, n: int):
    """Nullspace basis of a matrix with n columns, read off its reduced form.

    ``red`` may carry extra columns to the right of the first n (an
    augmented block); only pivots below n belong to the matrix.
    """
    pivots = [c for c in pivots if c < n]
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [F.zero] * n
        vec[free] = F.one
        for r, c in enumerate(pivots):
            vec[c] = F.neg(red[r][free])
        basis.append(vec)
    return basis


def inverse(F: ValuedField, a):
    """Two-sided inverse of a square matrix, or None if singular.

    One elimination of ``[a | I]``: a is invertible exactly when the pivots
    are the first n columns, and then the right-hand block is the inverse.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    if n == 0:
        return []
    ident = identity(F, n)
    red, pivots = rref(F, [list(a[i]) + ident[i] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
