"""The compact real form as su(3) + C^3 over Gaussian rationals.

Elements pair a skew-Hermitian traceless phi with a vector w in W = C^3; the
bracket rules are

    [phi, psi] = phi psi - psi phi,
    [phi, u]   = phi(u),
    [u, v]     = (3 sigma_{u,v} - tr(sigma_{u,v}) id) + 2 conj(u x v),

with sigma(u, v) = sum u_i conj(v_i) and sigma_{u,v}(x) = sigma(x,u) v -
sigma(x,v) u.  The natural module is R + W with phi.1 = 0, phi.u = phi(u),
u.1 = -2iu and u.v = -2 Im sigma(u,v) - conj(u x v).  Everything lives in
Q(i), so the compact form is verified fully exactly.

Realification convention, fixed once: the module R + W is identified with R^7
through the ordered basis (1, e1, e2, e3, i e1, i e2, i e3), and the transport
isomorphism from 7x7 derivation matrices reads off mu-coordinates from the
last column (the 3-form side keeps its own basis (e1..e6, e7), with e7
playing the role of the complex unit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraTable, killing_signature as _table_killing_signature
from .forms import KForm
from .linalg import coords_in_basis, mat_vec
from .scalars import GaussianRational as GR

Q0 = Fraction(0)
Q1 = Fraction(1)
GR0 = GR(Q0, Q0)
GR1 = GR(Q1, Q0)
GRi = GR(Q0, Q1)

Vec3C = Tuple[GR, GR, GR]
Mat3C = Tuple[Vec3C, Vec3C, Vec3C]


class TransportMismatch(Exception):
    """Derivation matrix does not decompose per the transport conventions."""


def _grify(x) -> GR:
    return x if isinstance(x, GR) else GR(Fraction(x), Q0)


def sigma(u: Sequence[GR], v: Sequence[GR]) -> GR:
    out = GR0
    for a, b in zip(u, v):
        out = out + a * b.conjugate()
    return out


def sigma_op(u: Sequence[GR], v: Sequence[GR]) -> Mat3C:
    """Matrix of x -> sigma(x, u) v - sigma(x, v) u; spans u(3) as u, v vary."""
    cols = []
    for j in range(3):
        cu = u[j].conjugate()
        cv = v[j].conjugate()
        cols.append(tuple(cu * v[i] - cv * u[i] for i in range(3)))
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


def cross3c(u: Sequence[GR], v: Sequence[GR]) -> Vec3C:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def det3c(u, v, w) -> GR:
    return sigma(cross3c(u, v), tuple(x.conjugate() for x in w))  # trick: sum (u x v)_i w_i


@dataclass(frozen=True)
class CompactElement:
    phi: Mat3C
    w: Vec3C

    def __post_init__(self):
        tr = self.phi[0][0] + self.phi[1][1] + self.phi[2][2]
        if tr != 0:
            raise ValueError("phi must be traceless")
        for i in range(3):
            for j in range(3):
                if self.phi[i][j] + self.phi[j][i].conjugate() != 0:
                    raise ValueError("phi must be skew-Hermitian")

    @staticmethod
    def of(phi, w) -> "CompactElement":
        return CompactElement(tuple(tuple(_grify(x) for x in row) for row in phi),
                              tuple(_grify(x) for x in w))

    @staticmethod
    def zero() -> "CompactElement":
        z = ((GR0,) * 3,) * 3
        return CompactElement(z, (GR0,) * 3)

    def __add__(self, other: "CompactElement") -> "CompactElement":
        return CompactElement(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.phi, other.phi)),
            tuple(a + b for a, b in zip(self.w, other.w)),
        )

    def scale(self, c) -> "CompactElement":
        c = Fraction(c)
        return CompactElement(tuple(tuple(c * x for x in row) for row in self.phi),
                              tuple(c * x for x in self.w))

    def __sub__(self, other):
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return all(not x for row in self.phi for x in row) and not any(self.w)

    def real_coords(self) -> Tuple[Fraction, ...]:
        out: List[Fraction] = []
        for row in self.phi:
            for x in row:
                out.extend((x.re, x.im))
        for x in self.w:
            out.extend((x.re, x.im))
        return tuple(out)


@dataclass(frozen=True)
class CompactVector:
    s: Fraction
    u: Vec3C

    @staticmethod
    def of(s, u) -> "CompactVector":
        return CompactVector(Fraction(s), tuple(_grify(x) for x in u))

    def norm(self) -> Fraction:
        n = sigma(self.u, self.u)
        assert n.im == 0
        return self.s * self.s + n.re

    def __add__(self, other):
        return CompactVector(self.s + other.s, tuple(a + b for a, b in zip(self.u, other.u)))

    def __sub__(self, other):
        return CompactVector(self.s - other.s, tuple(a - b for a, b in zip(self.u, other.u)))

    def __eq__(self, other):
        if not isinstance(other, CompactVector):
            return NotImplemented
        return self.s == other.s and self.u == other.u

    def __hash__(self):
        return hash((self.s, self.u))


def bracket_L(a: CompactElement, b: CompactElement) -> CompactElement:
    """The anticommutative product of the compact model."""
    phi1, u = a.phi, a.w
    phi2, v = b.phi, b.w
    comm = [[GR0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = GR0
            for k in range(3):
                acc = acc + phi1[i][k] * phi2[k][j] - phi2[i][k] * phi1[k][j]
            comm[i][j] = acc
    suv = sigma_op(u, v)
    tr = suv[0][0] + suv[1][1] + suv[2][2]
    phi_part = tuple(
        tuple(comm[i][j] + 3 * Q1 * suv[i][j] - (tr if i == j else GR0) for j in range(3))
        for i in range(3)
    )
    phi1v = tuple(sum((phi1[i][k] * v[k] for k in range(3)), GR0) for i in range(3))
    phi2u = tuple(sum((phi2[i][k] * u[k] for k in range(3)), GR0) for i in range(3))
    cr = cross3c(u, v)
    w_part = tuple(phi1v[i] - phi2u[i] + 2 * Q1 * cr[i].conjugate() for i in range(3))
    return CompactElement(phi_part, w_part)


def action_on_V(a: CompactElement, x: CompactVector) -> CompactVector:
    """The representation on R + W."""
    phi, u = a.phi, a.w
    s, v = x.s, x.u
    phiv = tuple(sum((phi[i][k] * v[k] for k in range(3)), GR0) for i in range(3))
    suv = sigma(u, v)
    s_part = -2 * suv.im
    cr = cross3c(u, v)
    minus2isu = tuple(GR(Q0, -2 * s) * u[i] for i in range(3))
    w_part = tuple(phiv[i] + minus2isu[i] - cr[i].conjugate() for i in range(3))
    return CompactVector(s_part, w_part)


# fixed real basis of the model:8 su(3) directions then (e_j, i e_j)
SU_BASIS: Tuple[Mat3C, ...] = (
    ((GRi, GR0, GR0), (GR0, -GRi, GR0), (GR0, GR0, GR0)),
    ((GR0, GR0, GR0), (GR0, GRi, GR0), (GR0, GR0, -GRi)),
    ((GR0, GR1, GR0), (-GR1, GR0, GR0), (GR0, GR0, GR0)),
    ((GR0, GRi, GR0), (GRi, GR0, GR0), (GR0, GR0, GR0)),
    ((GR0, GR0, GR1), (GR0, GR0, GR0), (-GR1, GR0, GR0)),
    ((GR0, GR0, GRi), (GR0, GR0, GR0), (GRi, GR0, GR0)),
    ((GR0, GR0, GR0), (GR0, GR0, GR1), (GR0, -GR1, GR0)),
    ((GR0, GR0, GR0), (GR0, GR0, GRi), (GR0, GRi, GR0)),
)


def _w_basis_vec(k: int) -> Vec3C:
    out = [GR0, GR0, GR0]
    out[k % 3] = GR1 if k < 3 else GRi
    return tuple(out)


COMPACT_BASIS: Tuple[CompactElement, ...] = tuple(
    [CompactElement(m, (GR0,) * 3) for m in SU_BASIS]
    + [CompactElement(((GR0,) * 3,) * 3, _w_basis_vec(k)) for k in range(6)]
)

BASIS_NAMES = ("su1", "su2", "su3", "su4", "su5", "su6", "su7", "su8",
               "w1", "w2", "w3", "iw1", "iw2", "iw3")

# module basis (1, e1, e2, e3, i e1, i e2, i e3)
MODULE_BASIS: Tuple[CompactVector, ...] = tuple(
    [CompactVector(Q1, (GR0,) * 3)]
    + [CompactVector(Q0, _w_basis_vec(k)) for k in range(6)]
)


def element_coords(a: CompactElement) -> Tuple[Fraction, ...]:
    coords = coords_in_basis([b.real_coords() for b in COMPACT_BASIS], a.real_coords())
    if coords is None:
        raise ValueError("element is outside the model")
    return coords


def vector_coords(x: CompactVector) -> Tuple[Fraction, ...]:
    return (x.s,) + tuple(y.re for y in x.u) + tuple(y.im for y in x.u)


def vector_from_coords(c: Sequence[Fraction]) -> CompactVector:
    return CompactVector(Fraction(c[0]), tuple(GR(Fraction(c[1 + i]), Fraction(c[4 + i]))
                                               for i in range(3)))


_TABLE: Optional[AlgebraTable] = None


def structure_table() -> AlgebraTable:
    """Realified 14x14 structure constants (rational, computed once)."""
    global _TABLE
    if _TABLE is None:
        _TABLE = AlgebraTable.from_function(
            14,
            lambda i, j: element_coords(bracket_L(COMPACT_BASIS[i], COMPACT_BASIS[j])),
            BASIS_NAMES,
        )
    return _TABLE


def killing_signature() -> Tuple[int, int]:
    """(14, 0): the Killing form of the compact model is negative definite."""
    return _table_killing_signature(structure_table())


def real_action_matrix(a: CompactElement) -> List[List[Fraction]]:
    """7x7 matrix of the module action in the fixed real basis."""
    cols = [vector_coords(action_on_V(a, mb)) for mb in MODULE_BASIS]
    return [[cols[j][i] for j in range(7)] for i in range(7)]


def model_norm_matrix() -> List[List[Fraction]]:
    g = [[Q0] * 7 for _ in range(7)]
    for i, bi in enumerate(MODULE_BASIS):
        for j, bj in enumerate(MODULE_BASIS):
            # polarize n(s + u) = s^2 + sigma(u, u)
            g[i][j] = Fraction((bi + bj).norm() - bi.norm() - bj.norm(), 2)
    return g


def model_cross(x: CompactVector, y: CompactVector) -> CompactVector:
    """(s+u) x (t+v) = -Im sigma(u,v) + (isv - itu + conj(u x v))."""
    s, u = x.s, x.u
    t, v = y.s, y.u
    suv = sigma(u, v)
    cr = cross3c(u, v)
    w = tuple(GR(Q0, s) * v[i] - GR(Q0, t) * u[i] + cr[i].conjugate() for i in range(3))
    return CompactVector(-suv.im, w)


def model_three_form() -> KForm:
    """Omega(x, y, z) = -Im(s sigma(v,w) + t sigma(w,u) + r sigma(u,v)) + Re det(u,v,w)."""
    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    for idx in itertools.combinations(range(7), 3):
        x, y, z = (MODULE_BASIS[i] for i in idx)
        val = _omega_value(x, y, z)
        if val:
            coeffs[tuple(i + 1 for i in idx)] = val
    return KForm(3, coeffs)


def model_forms():
    """The model's 3-form, norm matrix, and cross product on the real basis.

    The returned cross product takes and returns 7-coordinate vectors; the
    3-form lies in the compact orbit and the norm matrix is I7.
    """
    om = model_three_form()
    n = model_norm_matrix()

    def cross(u: Sequence[Fraction], v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        out = model_cross(vector_from_coords(list(u)), vector_from_coords(list(v)))
        return vector_coords(out)

    return om, n, cross


def _omega_value(x: CompactVector, y: CompactVector, z: CompactVector) -> Fraction:
    s, u = x.s, x.u
    t, v = y.s, y.u
    r, w = z.s, z.u
    acc = s * sigma(v, w).im + t * sigma(w, u).im + r * sigma(u, v).im
    d = det3c(u, v, w)
    return -acc + d.re


# ---------------------------------------------------------------------------
# transport from 7x7 derivation matrices (3-form side) to the model
# ---------------------------------------------------------------------------

def _l3(x: Sequence[Fraction]) -> List[List[Fraction]]:
    return [[Q0, -x[2], x[1]], [x[2], Q0, -x[0]], [-x[1], x[0], Q0]]


def mu_matrix(x: Sequence[Fraction], y: Sequence[Fraction]) -> List[List[Fraction]]:
    """The complement piece with last column (2x, 2y, 0) in the (e1..e6, e7) basis."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    lx, ly = _l3(x), _l3(y)
    m = [[Q0] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            m[i][j] = ly[i][j]
            m[i][3 + j] = lx[i][j]
            m[3 + i][j] = lx[i][j]
            m[3 + i][3 + j] = -ly[i][j]
        m[i][6] = 2 * x[i]
        m[3 + i][6] = 2 * y[i]
        m[6][i] = -2 * x[i]
        m[6][3 + i] = -2 * y[i]
    return m


def split_h_mu(d: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Split a derivation matrix into its stabilizer block and mu coordinates.

    Raises TransportMismatch when the remainder is not of the block shape
    [[a, b, 0], [-b^t, a, 0], [0, 0, 0]] with a skew and b symmetric traceless.
    """
    x = tuple(Fraction(d[i][6], 2) for i in range(3))
    y = tuple(Fraction(d[3 + i][6], 2) for i in range(3))
    mu = mu_matrix(x, y)
    h = [[Fraction(d[i][j]) - mu[i][j] for j in range(7)] for i in range(7)]
    a = [[h[i][j] for j in range(3)] for i in range(3)]
    b = [[h[i][3 + j] for j in range(3)] for i in range(3)]
    ok = all(not h[6][j] and not h[j][6] for j in range(7))
    ok = ok and all(h[3 + i][3 + j] == a[i][j] for i in range(3) for j in range(3))
    ok = ok and all(h[3 + i][j] == -b[j][i] for i in range(3) for j in range(3))
    ok = ok and all(a[i][j] == -a[j][i] for i in range(3) for j in range(3))
    ok = ok and all(b[i][j] == b[j][i] for i in range(3) for j in range(3))
    ok = ok and (b[0][0] + b[1][1] + b[2][2] == 0)
    if not ok:
        raise TransportMismatch("matrix does not split as stabilizer + mu")
    return h, x, y


def psi(d: Sequence[Sequence[Fraction]]) -> CompactElement:
    """The transport isomorphism: h-block to a + ib, mu_{x,y} to -y - ix."""
    h, x, y = split_h_mu(d)
    phi = tuple(
        tuple(GR(h[i][j], h[i][3 + j]) for j in range(3))
        for i in range(3)
    )
    w = tuple(GR(-y[i], -x[i]) for i in range(3))
    return CompactElement(phi, w)


def psi_prime(v: Sequence[Fraction]) -> CompactVector:
    """psi'(x, y, s) = s - x + iy for a 7-vector in blocks (x, y, s)."""
    v = [Fraction(t) for t in v]
    return CompactVector(v[6], tuple(GR(-v[i], v[3 + i]) for i in range(3)))


def transport_check(derivation_basis: Sequence[Sequence[Sequence[Fraction]]]) -> bool:
    """psi(d) . psi'(X) = psi'(d X) over all basis derivations and basis vectors."""
    for d in derivation_basis:
        a = psi(d)
        for j in range(7):
            e = [Q1 if r == j else Q0 for r in range(7)]
            lhs = action_on_V(a, psi_prime(e))
            rhs = psi_prime(mat_vec(d, e))
            if lhs != rhs:
                return False
    return True


def psi_transport(derivation_basis: Sequence[Sequence[Sequence[Fraction]]]):
    """Verified transport data: returns (psi, psi_prime) after the full check.

    Raises TransportMismatch if any of the dim x 7 intertwining equations
    psi(d) . psi'(X) = psi'(d X) fails (it must not for a correct basis).
    """
    if not transport_check(derivation_basis):
        raise TransportMismatch("transport equations fail on the given basis")
    return psi, psi_prime
