"""The two real octonion algebras built over their 7-dimensional cross products.

A CrossProductSpace carries a nondegenerate norm n on Q^7 and a bilinear cross
product compatible with it in the composition sense:

    n(u x v, u) = n(u x v, v) = 0,
    n(u x v, u x v) = n(u)n(v) - n(u,v)^2.

The split space uses the block norm (-1 on the first axis, the -2I pairing
between the E and F triples) with the cross product

    (s,u,v) x (t,x,y) = (2u.y - 2v.x,  sx - tu - 2 v x y,  -sy + tv + 2 u x x),

and the division space uses the identity norm with the Fano-plane table.  The
octonion algebra on F + V is then xy = -n(x,y)1 + x x y for x, y in V; every
basis product table is generated from the cross product and the norm, never
stored independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .algebra import AlgebraTable
from .linalg import _scaled_rows, nullspace

Vec7 = Tuple[Fraction, ...]
Q0 = Fraction(0)
Q1 = Fraction(1)


class NotUnitNorm(Exception):
    """Operation requires an exactly-unit-norm octonion."""


class NonisotropicSearchFailed(Exception):
    """No nonisotropic vector found where nondegeneracy guarantees one."""


def _tighten(x: Fraction):
    # exact integers stay plain ints: mixed int/Fraction arithmetic is exact
    # in Python and integer coordinates make the product tables much faster
    return int(x) if x.denominator == 1 else x


def vec_to_json(v: Sequence) -> List[str]:
    """7-vectors serialize as arrays of rational strings."""
    from .scalars import fmt_q

    return [fmt_q(Fraction(x)) for x in v]


def vec_from_json(data: Sequence[str]) -> Vec7:
    from .scalars import parse_q

    v = tuple(parse_q(x) for x in data)
    if len(v) != 7:
        raise ValueError("need 7 coordinates")
    return v


def basis_vec(i: int) -> Vec7:
    return tuple(Q1 if j == i else Q0 for j in range(7))


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# oriented Fano lines: (a, b, c) means e_a e_b = e_c cyclically
FANO_LINES = ((1, 2, 3), (1, 4, 7), (2, 5, 7), (3, 6, 7), (1, 6, 5), (2, 4, 6), (3, 5, 4))


class CrossProductSpace:
    """Seven-dimensional cross-product space; instances SPLIT and DIVISION below."""

    def __init__(self, name: str, norm_matrix: Sequence[Sequence[Fraction]],
                 cross_table: Sequence[Sequence[Vec7]]):
        self.name = name
        self.norm_matrix = tuple(tuple(_tighten(Fraction(x)) for x in row) for row in norm_matrix)
        self.cross_table = tuple(tuple(tuple(_tighten(Fraction(x)) for x in cross_table[i][j])
                                       for j in range(7)) for i in range(7))
        # octonion basis products over (1, e_1..e_7), derived from cross and n
        self._oct = self._build_oct_table()
        # the same table over integers: every constant times _oct_den
        self._oct_den = lcm(*(Fraction(v).denominator for row in self._oct
                              for terms in row for _, v in terms))
        self._oct_int = tuple(tuple(tuple((k, int(v * self._oct_den)) for k, v in terms)
                                    for terms in row) for row in self._oct)

    def norm_b(self, u: Sequence, v: Sequence):
        """Polar form n(u, v) with n(u, u) = n(u)."""
        total = 0
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.norm_matrix[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    total += ui * row[j] * vj
        return total

    def norm_q(self, u: Sequence):
        return self.norm_b(u, u)

    def cross(self, u: Sequence, v: Sequence) -> Vec7:
        out = [0] * 7
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                s = ui * vj
                t = self.cross_table[i][j]
                for k in range(7):
                    if t[k]:
                        out[k] += s * t[k]
        return tuple(out)

    def triple(self, u: Sequence, v: Sequence, w: Sequence):
        """{u, v, w} = n(u x v, w), alternating and trilinear."""
        return self.norm_b(self.cross(u, v), w)

    def _build_oct_table(self) -> Tuple[Tuple[Tuple[Tuple[int, Fraction], ...], ...], ...]:
        tab: List[List[Tuple[Tuple[int, Fraction], ...]]] = []
        for i in range(8):
            row = []
            for j in range(8):
                if i == 0:
                    prod = {j: Q1}
                elif j == 0:
                    prod = {i: Q1}
                else:
                    prod = {}
                    nb = self.norm_b(basis_vec(i - 1), basis_vec(j - 1))
                    if nb:
                        prod[0] = -nb
                    cr = self.cross_table[i - 1][j - 1]
                    for k in range(7):
                        if cr[k]:
                            prod[k + 1] = cr[k]
                row.append(tuple(sorted(prod.items())))
            tab.append(row)
        return tuple(tuple(r) for r in tab)

    def octonion(self, scalar, vec: Sequence) -> "Octonion":
        coerce = lambda x: x if isinstance(x, int) else Fraction(x)  # noqa: E731
        return Octonion(self, coerce(scalar), tuple(coerce(x) for x in vec))

    def unit(self) -> "Octonion":
        return self.octonion(1, (0,) * 7)

    def basis_octonion(self, i: int) -> "Octonion":
        """i = 0 gives the unit; i = 1..7 the vector basis."""
        if i == 0:
            return self.unit()
        return self.octonion(0, basis_vec(i - 1))

    def oct_mul_coeffs(self, x: Sequence, y: Sequence) -> Tuple[Fraction, ...]:
        """Product in coefficient form over (1, e_1..e_7).

        Rational coefficients are multiplied as integers over one shared
        denominator and every output entry is a Fraction; other coefficient
        types go through the Fraction table as they are.
        """
        q = _scaled_rows((x, y))
        if q is None:
            return tuple(_table_product(self._oct, x, y))
        (ix, iy), (dx, dy), _ = q
        d = dx * dy * self._oct_den
        return tuple(Fraction(v, d) for v in _table_product(self._oct_int, ix, iy))


def _table_product(table, x: Sequence, y: Sequence) -> list:
    out = [0] * 8
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            s = xi * yj
            for k, cv in row[j]:
                out[k] += s * cv
    return out


def _split_norm() -> List[List[Fraction]]:
    n = [[Q0] * 7 for _ in range(7)]
    n[0][0] = Fraction(-1)
    for i in range(3):
        n[1 + i][4 + i] = Fraction(-2)
        n[4 + i][1 + i] = Fraction(-2)
    return n


def _split_cross_raw(u: Vec7, v: Vec7) -> Vec7:
    s, a, b = u[0], u[1:4], u[4:7]
    t, x, y = v[0], v[1:4], v[4:7]
    first = 2 * _dot3(a, y) - 2 * _dot3(b, x)
    c3 = _cross3(b, y)
    mid = tuple(s * x[i] - t * a[i] - 2 * c3[i] for i in range(3))
    d3 = _cross3(a, x)
    last = tuple(-s * y[i] + t * b[i] + 2 * d3[i] for i in range(3))
    return (first,) + mid + last


def _division_cross_table() -> List[List[Vec7]]:
    tab = [[(Q0,) * 7 for _ in range(7)] for _ in range(7)]

    def put(i, j, k, sign):
        v = [Q0] * 7
        v[k - 1] = Fraction(sign)
        tab[i - 1][j - 1] = tuple(v)

    for a, b, c in FANO_LINES:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            put(i, j, k, 1)
            put(j, i, k, -1)
    return tab


def _split_space() -> CrossProductSpace:
    table = [[_split_cross_raw(basis_vec(i), basis_vec(j)) for j in range(7)] for i in range(7)]
    return CrossProductSpace("split", _split_norm(), table)


def _division_space() -> CrossProductSpace:
    ident = [[Q1 if i == j else Q0 for j in range(7)] for i in range(7)]
    return CrossProductSpace("division", ident, _division_cross_table())


SPLIT = _split_space()
DIVISION = _division_space()

# canonical split basis octonions: B_c = {E0, E1, E2, E3, F1, F2, F3} spans V
E0 = basis_vec(0)
E = (None, basis_vec(1), basis_vec(2), basis_vec(3))
F = (None, basis_vec(4), basis_vec(5), basis_vec(6))


@dataclass(frozen=True)
class Octonion:
    space: CrossProductSpace
    scalar: Fraction
    vec: Vec7

    def coeffs(self) -> Tuple[Fraction, ...]:
        return (self.scalar,) + self.vec

    def __add__(self, other: "Octonion") -> "Octonion":
        self._same(other)
        return Octonion(self.space, self.scalar + other.scalar,
                        tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        self._same(other)
        return Octonion(self.space, self.scalar - other.scalar,
                        tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "Octonion":
        return Octonion(self.space, -self.scalar, tuple(-a for a in self.vec))

    def scale(self, c) -> "Octonion":
        c = Fraction(c)
        return Octonion(self.space, c * self.scalar, tuple(c * a for a in self.vec))

    def __mul__(self, other: "Octonion") -> "Octonion":
        self._same(other)
        out = self.space.oct_mul_coeffs(self.coeffs(), other.coeffs())
        return Octonion(self.space, out[0], out[1:])

    def conjugate(self) -> "Octonion":
        return Octonion(self.space, self.scalar, tuple(-a for a in self.vec))

    def trace(self) -> Fraction:
        return 2 * self.scalar

    def norm(self) -> Fraction:
        return self.scalar * self.scalar + self.space.norm_q(self.vec)

    def norm_b(self, other: "Octonion") -> Fraction:
        self._same(other)
        return self.scalar * other.scalar + self.space.norm_b(self.vec, other.vec)

    def inverse(self) -> "Octonion":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("isotropic octonion has no inverse")
        return self.conjugate().scale(Fraction(1) / n)

    def is_zero(self) -> bool:
        return not self.scalar and not any(self.vec)

    def _same(self, other: "Octonion"):
        if self.space is not other.space:
            raise ValueError("octonions from different algebras")

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return (self.space is other.space and self.scalar == other.scalar
                and self.vec == other.vec)

    def __hash__(self):
        return hash((id(self.space), self.scalar, self.vec))


def associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    return (x * y) * z - x * (y * z)


def commutator(x: Octonion, y: Octonion) -> Octonion:
    return x * y - y * x


def basis_table(kind: str) -> AlgebraTable:
    """Full 8x8 product table over (1, e_1..e_7), generated from cross and norm."""
    if kind == "split":
        space = SPLIT
        names = ("1", "E0", "E1", "E2", "E3", "F1", "F2", "F3")
    elif kind == "division":
        space = DIVISION
        names = ("1",) + tuple(f"e{i}" for i in range(1, 8))
    else:
        raise ValueError(f"unknown octonion kind {kind!r}")

    def product(i, j):
        out = [Q0] * 8
        for k, v in space._oct[i][j]:
            out[k] = v
        return out

    return AlgebraTable.from_function(8, product, names)


def left_mult_matrix(space: CrossProductSpace, v: Sequence) -> List[List[Fraction]]:
    """8x8 matrix of x -> v x on the basis (e_1..e_7, 1); v is a 7-vector."""
    cols = []
    x = (Q0,) + tuple(Fraction(a) for a in v)
    for j in list(range(1, 8)) + [0]:
        basis = [Q0] * 8
        basis[j] = Q1
        prod = space.oct_mul_coeffs(x, basis)
        cols.append(tuple(prod[1:]) + (prod[0],))
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def _orthogonal_complement(space: CrossProductSpace, elems: Sequence[Octonion]) -> List[Octonion]:
    """Basis of the n-orthogonal complement of a family inside the full algebra."""
    rows = []
    for q in elems:
        row = []
        for k in range(8):
            b = space.basis_octonion(k)
            row.append(q.norm_b(b))
        rows.append(row)
    return [Octonion(space, v[0], tuple(v[1:])) for v in nullspace(rows)]


def _first_nonisotropic(cands: Sequence[Octonion]) -> Optional[Octonion]:
    for c in cands:
        if c.norm():
            return c
    return None


def _nonisotropic_in_span(basis: Sequence[Octonion]) -> Optional[Octonion]:
    # basis vectors first, then pairwise sums; if all of those are isotropic
    # the span is totally isotropic, so this search is exhaustive
    w = _first_nonisotropic(basis)
    if w is None:
        w = _first_nonisotropic([a + b for a, b in itertools.combinations(basis, 2)])
    return w


def factor_unit(x: Octonion) -> Tuple[Octonion, Octonion]:
    """Write a unit-norm octonion as a product of two trace-zero ones.

    Deterministic search order: plain basis products first (so e7 factors as
    e1 e4), then the quaternion-complement construction b = conj(x) w,
    x = w * (conj(b)/n(b)) with w picked from the orthocomplement basis and,
    failing that, from its pairwise sums.
    """
    space = x.space
    if x.norm() != 1:
        raise NotUnitNorm(f"norm {x.norm()} != 1")
    u_part = x.vec
    if not x.scalar and any(u_part):
        # fast path: x equal to a single basis product e_i e_j
        for i in range(1, 8):
            for j in range(1, 8):
                if i == j:
                    continue
                a = space.basis_octonion(i)
                b = space.basis_octonion(j)
                if a * b == x:
                    return a, b
    if not any(u_part):
        v = _first_nonisotropic([space.basis_octonion(i) for i in range(1, 8)])
        assert v is not None, "nondegenerate norm must have a nonisotropic basis vector"
        b = v.scale(-Fraction(1) / v.norm()) if x.scalar == 1 else v.scale(Fraction(1) / v.norm())
        return v, b
    u = space.octonion(0, u_part)
    if u.norm():
        # v orthogonal to u, nonisotropic
        v = _nonisotropic_in_span(_orthogonal_complement(space, [space.unit(), u]))
    else:
        # isotropic u: any v with n(u, v) != 0 keeps the quaternion algebra nondegenerate
        v = None
        for i in range(1, 8):
            cand = space.basis_octonion(i)
            if u.norm_b(cand):
                v = cand
                break
    if v is None:
        raise NonisotropicSearchFailed("no usable partner for the quaternion subalgebra")
    quat = [space.unit(), u, v, space.octonion(0, space.cross(u.vec, v.vec))]
    w = _nonisotropic_in_span(_orthogonal_complement(space, quat))
    if w is None:
        raise NonisotropicSearchFailed("orthocomplement of the quaternion subalgebra is isotropic")
    b = x.conjugate() * w
    second = b.conjugate().scale(Fraction(1) / b.norm())
    return w, second


def find_zero_divisor(space: CrossProductSpace) -> Optional[Tuple[Octonion, Octonion]]:
    """A pair of nonzero octonions with xy = 0, when the norm is isotropic."""
    cands = [space.basis_octonion(i) for i in range(1, 8)]
    sums = [a + b for a, b in itertools.combinations(cands, 2)]
    for a in cands + sums:
        for b in cands + sums:
            if not a.is_zero() and not b.is_zero() and (a * b).is_zero():
                return a, b
    return None
