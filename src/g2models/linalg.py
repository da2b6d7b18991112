"""Dense exact linear algebra over Q, Q(i) or Q(sqrt(d)).

Matrices are lists of lists; vectors are tuples.  Everything is small (at most
a few hundred rows).  Over Q the kernels compute in integers: each row (for a
product, each column of the right factor too) is scaled by the LCM of its
denominators, the work is done in ``int``, and one Fraction is built per
output entry.  Elimination is fraction-free Gauss-Jordan after Bareiss
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): every update divides exactly by the
previous pivot, so entries stay minors of the scaled input, and each pivot row
is divided by its own pivot once, at the end.

Type rule for Q inputs: no float is ever produced.  ``mat_mul`` and
``mat_vec`` of all-``int`` inputs return ints; once any entry is a Fraction
every output entry is a Fraction, and ``rref``, ``nullspace``, ``solve``,
``inverse`` and ``det`` always return Fractions.

Matrices with ``GaussianRational`` or ``QuadraticRational`` entries take the
generic field path: Gauss-Jordan elimination that divides at every pivot.
Every kernel is exact, so there is no pivot tolerance and no floating-point
matrix: the pivot of a column is its first nonzero entry on either path, and
reduced echelon bases are canonical.  Equality of matrices is entrywise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import List, Optional, Sequence, Tuple

Row = List
Mat = List[Row]

Q0 = Fraction(0)
_INT = {int}
_RATIONAL = {int, Fraction}


class DegenerateForm(Exception):
    """Symmetric form has nontrivial radical where a nondegenerate one is required."""


class SingularMatrix(Exception):
    """Matrix inversion requested for a singular matrix."""


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Mat:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _promote(m: Sequence[Sequence]) -> Mat:
    # plain ints are promoted so that pivot division stays exact; any other
    # entry type (Fraction, GaussianRational, QuadraticRational) is kept as is
    return [[Fraction(x) if type(x) is int else x for x in row] for row in m]


def _scaled_rows(m: Sequence[Sequence]) -> Optional[Tuple[List[Sequence[int]], List[int], bool]]:
    """Rows of a Q matrix over integers: (rows, scales, has_fraction).

    ``m[i] == rows[i] / scales[i]`` entrywise, each scale being the LCM of its
    row's denominators.  None when an entry is neither an int nor a Fraction;
    such matrices take the generic field path.  All-int rows are returned as
    they are, so callers must replace rows, never mutate them.
    """
    rows: List[Sequence[int]] = []
    scales: List[int] = []
    has_fraction = False
    for row in m:
        kinds = set(map(type, row))
        if kinds <= _INT:
            rows.append(row)
            scales.append(1)
            continue
        if not kinds <= _RATIONAL:
            return None
        has_fraction = True
        d = lcm(*[x.denominator for x in row])
        if d == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales, has_fraction


def transpose(m: Sequence[Sequence]) -> Mat:
    return [list(col) for col in zip(*m)]


def _products(a: Sequence[Sequence], bt: Sequence[Sequence]) -> Mat:
    """Entry (i, j) is the dot product of row i of ``a`` with ``bt[j]``."""
    qa = _scaled_rows(a)
    qb = _scaled_rows(bt) if qa else None
    if qb is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    (ia, da, fa), (ib, db, fb) = qa, qb
    if not (fa or fb):
        return [[sum(map(mul, row, col)) for col in ib] for row in ia]
    return [[Fraction(sum(map(mul, row, col)), s * t) for col, t in zip(ib, db)]
            for row, s in zip(ia, da)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    return _products(a, list(zip(*b)))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(row[0] for row in _products(m, [v]))


def mat_add(a, b) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _fraction_free(a: List[Sequence[int]]) -> Tuple[List[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    The pivot of each column is its first nonzero entry, rows in order, as in
    ``rref``.  At pivot p every other row with entry f in the pivot column
    becomes (p * row - f * pivot_row) / prev, prev being the previous pivot;
    Sylvester's identity makes the division exact.  A row with f == 0 would
    only be scaled by p / prev, so that scaling is deferred: ``level[i]`` is
    the pivot at which row i was last brought up to date, and the row is
    rescaled by prev / level[i] (exact for the same reason) just before it is
    next used.  At the end each pivot row is right up to a nonzero factor and
    the rows below the rank are zero.

    Returns (pivot columns, sign of the row permutation, last pivot).  For a
    nonsingular square matrix the last pivot times the sign is the
    determinant.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    level = [1] * rows
    prev = 1
    sign = 1
    piv_cols: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        best = next((i for i in range(r, rows) if a[i][c]), None)
        if best is None:
            continue
        if best != r:
            a[r], a[best] = a[best], a[r]
            level[r], level[best] = level[best], level[r]
            sign = -sign
        pr = a[r]
        if level[r] != prev:
            s = level[r]
            pr = a[r] = [x * prev // s for x in pr]
        p = pr[c]
        for i in range(rows):
            row = a[i]
            if i == r or not row[c]:
                continue
            s = level[i]
            if s != prev:
                row = [x * prev // s for x in row]
            f = row[c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
            level[i] = p
        level[r] = p
        prev = p
        piv_cols.append(c)
        r += 1
    return piv_cols, sign, prev


def _field_eliminate(a: Mat) -> Tuple[List[int], int, object]:
    """Gauss-Jordan elimination over a field, in place: the generic path.

    The pivot of each column is its first nonzero entry, rows in order, as in
    ``_fraction_free``.  Returns (pivot columns, sign of the row permutation,
    product of pivots).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols: List[int] = []
    sign = 1
    pivots = Fraction(1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        best = next((i for i in range(r, rows) if a[i][c]), None)
        if best is None:
            continue
        if best != r:
            a[r], a[best] = a[best], a[r]
            sign = -sign
        p = a[r][c]
        pivots = pivots * p
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return piv_cols, sign, pivots


def rref(m: Sequence[Sequence]) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form.  Returns (R, pivot column list)."""
    q = _scaled_rows(m)
    if q is None:
        a = _promote(m)
        return a, _field_eliminate(a)[0]
    a = q[0]
    piv_cols = _fraction_free(a)[0]
    cols = len(a[0]) if a else 0
    out: Mat = []
    for t, row in enumerate(a):
        if t < len(piv_cols):
            p = row[piv_cols[t]]
            out.append([Fraction(x, p) if x else Q0 for x in row])
        else:
            out.append([Q0] * cols)
    return out, piv_cols


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def nullspace(m: Sequence[Sequence]) -> List[tuple]:
    """Basis of the kernel as column vectors, free variables in ascending order.

    Exact over Q/Q(i): the vectors span the kernel and rank + len(basis) = cols.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [tuple(Fraction(1) if i == j else Fraction(0) for i in range(cols)) for j in range(cols)]
    r, piv = rref(m)
    one = Fraction(1)
    piv_set = set(piv)
    basis = []
    for free in range(cols):
        if free in piv_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = one
        for row_idx, pc in enumerate(piv):
            v[pc] = -r[row_idx][free]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """One solution of m x = b, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(m[i]) + [b[i]] for i in range(rows)]
    r, piv = rref(aug)
    if cols in piv:
        return None
    x = [Fraction(0)] * cols
    for row_idx, pc in enumerate(piv):
        x[pc] = r[row_idx][cols]
    return tuple(x)


def inverse(m: Sequence[Sequence]) -> Mat:
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    r, piv = rref(aug)
    if piv != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in r]


def det(m: Sequence[Sequence]):
    """Determinant by exact elimination: fraction-free over Q, generic otherwise."""
    n = len(m)
    q = _scaled_rows(m)
    if q is None:
        piv, sign, pivots = _field_eliminate(_promote(m))
        return sign * pivots if len(piv) == n else Fraction(0) * pivots
    a, scales, _ = q
    piv, sign, last = _fraction_free(a)
    if len(piv) < n:
        return Q0
    return Fraction(sign * last, prod(scales))


def sym_diagonalize(m: Sequence[Sequence]) -> Tuple[Mat, List]:
    """Congruence diagonalization of a symmetric matrix: P with P^t m P diagonal.

    Plain symmetric Gaussian elimination over the field; zero pivots are fixed
    by a symmetric row/column swap, or by adding e_i + e_j when the whole
    diagonal block vanishes.  No square roots are taken.  Returns (P, diag).
    """
    n = len(m)
    a = _promote(m)
    p = identity(n)

    def add_col(dst, src, f):
        # column op on a (and p) plus the symmetric row op on a
        for i in range(n):
            a[i][dst] += f * a[i][src]
            p[i][dst] += f * p[i][src]
        for j in range(n):
            a[dst][j] += f * a[src][j]

    def swap_cols(i, j):
        for r_ in range(n):
            a[r_][i], a[r_][j] = a[r_][j], a[r_][i]
            p[r_][i], p[r_][j] = p[r_][j], p[r_][i]
        a[i], a[j] = a[j], a[i]

    for k in range(n):
        if not a[k][k]:
            pivot = None
            for i in range(k + 1, n):
                if a[i][i]:
                    pivot = i
                    break
            if pivot is not None:
                swap_cols(k, pivot)
            else:
                found = False
                for i in range(k + 1, n):
                    if a[k][i]:
                        add_col(k, i, Fraction(1))
                        found = True
                        break
                if not found:
                    continue  # row/col k lies in the radical
        if not a[k][k]:
            continue
        for j in range(k + 1, n):
            if a[k][j]:
                add_col(j, k, -a[k][j] / a[k][k])
    return p, [a[i][i] for i in range(n)]


def sym_signature(m: Sequence[Sequence]) -> Tuple[int, int]:
    """Signature (n_minus, n_plus) of a nondegenerate symmetric matrix.

    Counts negative entries first: diag{-I4, I3} reports (4, 3).  Raises
    DegenerateForm when the rank falls short of the dimension.
    """
    _, d = sym_diagonalize(m)
    n_minus = sum(1 for x in d if x < 0)
    n_plus = sum(1 for x in d if x > 0)
    if n_minus + n_plus < len(d):
        raise DegenerateForm(f"rank {n_minus + n_plus} < dimension {len(d)}")
    return n_minus, n_plus


def span_rref(vectors: Sequence[Sequence]) -> Tuple[tuple, ...]:
    """Canonical form of a span: nonzero RREF rows, usable for subspace equality."""
    if not vectors:
        return ()
    r, piv = rref([list(v) for v in vectors])
    return tuple(tuple(row) for row in r[: len(piv)])


def same_span(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    return span_rref(a) == span_rref(b)


def span_contains(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """True when v is a linear combination of the given vectors."""
    if not any(v):
        return True
    cols = [list(col) for col in zip(*vectors)] if vectors else [[] for _ in v]
    return solve(cols, list(v)) is not None


def coords_in_basis(basis: Sequence[Sequence], v: Sequence) -> Optional[tuple]:
    """Coordinates of v in the given (independent) spanning set, or None."""
    cols = [list(col) for col in zip(*basis)]
    return solve(cols, list(v))
