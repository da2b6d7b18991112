"""Stabilizer subalgebras and reductive decompositions at rational base points.

Compact side (division cross product, base point X = e7 by default): the
stabilizer h = {d : d(X) = 0} is an su(3), and the complement is spanned by
the derivations

    phi_Y(Z) = X x (Y x Z) - Y x (X x Z) + (X x Y) x Z,      phi_Y(X) = 2Y,

for Y running over X-perp.  Split side (base point E0, n(E0) = -1): f = X x -
squares to the identity on X-perp and its totally isotropic eigenspaces W+-
carry the sl(3) stabilizer action.  Base points are rational basis vectors so
every check below is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebra import killing_gram
from .derivations import DerivationAlgebra, annihilator_stabilizer, derivations_of_form
from .forms import OMEGA0, OMEGA1, KForm, transform
from .linalg import coords_in_basis, inverse, mat_mul, mat_vec, nullspace, span_contains
from .octonions import DIVISION, SPLIT, CrossProductSpace, NotUnitNorm, basis_vec
from .scalars import GaussianRational

Q0 = Fraction(0)
Q1 = Fraction(1)
Vec7 = Tuple[Fraction, ...]


class NotOrthogonal(Exception):
    """phi_Y requires Y orthogonal to the base point."""


class WrongNorm(Exception):
    """Base point norm does not match the requested stabilizer picture."""


class NotBasicTriple(Exception):
    """Triple fails orthonormality or the vanishing 3-form condition."""


def _as_vec(v) -> Vec7:
    return tuple(Fraction(x) for x in v)


E7: Vec7 = basis_vec(6)
E0_SPLIT: Vec7 = basis_vec(0)


def phi_derivation(y, x=E7, space: CrossProductSpace = DIVISION) -> List[List[Fraction]]:
    """The derivation phi_Y at base point X; requires Y perpendicular to X."""
    y = _as_vec(y)
    x = _as_vec(x)
    if space.norm_b(x, y) != 0:
        raise NotOrthogonal("phi_Y needs n(X, Y) = 0")
    xy = space.cross(x, y)
    cols = []
    for j in range(7):
        z = basis_vec(j)
        val = [a - b + c for a, b, c in zip(
            space.cross(x, space.cross(y, z)),
            space.cross(y, space.cross(x, z)),
            space.cross(xy, z),
        )]
        cols.append(val)
    return [[cols[j][i] for j in range(7)] for i in range(7)]


def compact_derivations() -> DerivationAlgebra:
    """Der(V, OMEGA1) as 7x7 matrices: the compact real form."""
    return derivations_of_form(OMEGA1)


def split_derivations() -> DerivationAlgebra:
    return derivations_of_form(OMEGA0)


@dataclass(frozen=True)
class ReductiveSplit:
    """g = h (stabilizer, dim 8) + m (phi-image of X-perp, dim 6)."""

    h: DerivationAlgebra
    m: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    base_point: Vec7
    perp_basis: Tuple[Vec7, ...]

    @property
    def m_matrices(self) -> List[List[List[Fraction]]]:
        return [[list(r) for r in m] for m in self.m]


def orthogonal_complement(space: CrossProductSpace, x) -> List[Vec7]:
    x = _as_vec(x)
    row = [space.norm_b(x, basis_vec(k)) for k in range(7)]
    return [tuple(v) for v in nullspace([row])]


def reductive_decomposition(g_c: Optional[DerivationAlgebra] = None, x=E7,
                            space: CrossProductSpace = DIVISION) -> ReductiveSplit:
    """Stabilizer h plus the phi-complement m, with the bracket checks run."""
    if g_c is None:
        g_c = compact_derivations()
    x = _as_vec(x)
    if space.norm_q(x) == 0:
        raise WrongNorm("base point must be nonisotropic")
    h = annihilator_stabilizer(g_c, x)
    perp = orthogonal_complement(space, x)
    m = [phi_derivation(y, x, space) for y in perp]
    if h.dim != 8 or len(m) != 6:
        raise AssertionError(f"unexpected dimensions h={h.dim}, m={len(m)}")
    flat_h = [tuple(v for row in b for v in row) for b in h.basis]
    flat_m = [tuple(v for row in b for v in row) for b in m]
    if len(nullspace([list(col) for col in zip(*(flat_h + flat_m))])) != 0:
        raise AssertionError("h and m overlap")
    for mm in m:
        if not g_c.contains(mm):
            raise AssertionError("phi image must consist of derivations")
    for hb in h.matrices():
        for mb in m:
            comm = mat_mul(hb, mb)
            comm = [[comm[i][j] - sum(mb[i][k] * hb[k][j] for k in range(7)) for j in range(7)]
                    for i in range(7)]
            if not span_contains(flat_m, tuple(v for row in comm for v in row)):
                raise AssertionError("[h, m] escapes m")
    return ReductiveSplit(h, tuple(tuple(tuple(r) for r in mm) for mm in m), x, tuple(perp))


def combined_killing_gram(split: ReductiveSplit) -> List[List[Fraction]]:
    """Killing Gram of g in the ordered basis (h basis, m basis)."""
    mats = split.h.matrices() + split.m_matrices
    alg = DerivationAlgebra.from_matrices(mats, 7)
    return killing_gram(alg.bracket_table())


@dataclass(frozen=True)
class UnitaryData:
    """Complex structure J = X x - on X-perp and the Hermitian form it carries."""

    base_point: Vec7
    j_matrix: Tuple[Tuple[Fraction, ...], ...]  # 7x7, zero on the base line
    w_basis: Tuple[Vec7, ...]                   # real basis (b1, b2, b3, Jb1, Jb2, Jb3)
    space: CrossProductSpace

    def sigma(self, y, z) -> GaussianRational:
        """sigma(Y, Z) = n(Y, Z) - i n(JY, Z); Hermitian, sigma(Y, Y) = n(Y)."""
        jy = mat_vec(self.j_matrix, y)
        return GaussianRational(self.space.norm_b(y, z), -self.space.norm_b(jy, z))

    def complex_matrix(self, d: Sequence[Sequence[Fraction]]):
        """3x3 matrix of a J-commuting operator in the complex basis (b1, b2, b3)."""
        cols = []
        basis = [list(v) for v in self.w_basis]
        for j in range(3):
            img = mat_vec(d, basis[j])
            coords = coords_in_basis(basis, img)
            if coords is None:
                raise ValueError("operator does not preserve W")
            cols.append([GaussianRational(coords[i], coords[3 + i]) for i in range(3)])
        return [[cols[j][i] for j in range(3)] for i in range(3)]


def unitary_stabilizer_data(g_c: Optional[DerivationAlgebra] = None, x=E7,
                            space: CrossProductSpace = DIVISION) -> UnitaryData:
    x = _as_vec(x)
    if space.norm_q(x) != 1:
        raise NotUnitNorm("unitary picture needs n(X) = 1")
    j = [[Q0] * 7 for _ in range(7)]
    nx = [space.norm_b(x, basis_vec(k)) for k in range(7)]
    for c in range(7):
        ec = basis_vec(c)
        proj = tuple(ec[i] - nx[c] * x[i] for i in range(7))
        col = space.cross(x, proj)
        for r in range(7):
            j[r][c] = col[r]
    perp = orthogonal_complement(space, x)
    # greedy complex frame: b, Jb pairs
    chosen: List[Vec7] = []
    span: List[Vec7] = []
    for cand in perp:
        if span_contains(span, cand):
            continue
        jc = tuple(mat_vec(j, cand))
        chosen.append(tuple(cand))
        span.extend([tuple(cand), jc])
        if len(chosen) == 3:
            break
    w_basis = tuple(chosen) + tuple(tuple(mat_vec(j, b)) for b in chosen)
    return UnitaryData(x, tuple(tuple(r) for r in j), w_basis, space)


@dataclass(frozen=True)
class SplitStabilizerData:
    base_point: Vec7
    w_plus: Tuple[Vec7, ...]
    w_minus: Tuple[Vec7, ...]
    h: DerivationAlgebra


def split_stabilizer_data(g_split: Optional[DerivationAlgebra] = None, x=E0_SPLIT,
                          space: CrossProductSpace = SPLIT) -> SplitStabilizerData:
    x = _as_vec(x)
    if space.norm_q(x) != -1:
        raise WrongNorm("split picture needs n(X) = -1")
    if g_split is None:
        g_split = split_derivations()
    fhat = [[Q0] * 7 for _ in range(7)]
    for c in range(7):
        col = space.cross(x, basis_vec(c))
        for r in range(7):
            fhat[r][c] = col[r]
    plus = nullspace([[fhat[i][j] - (Q1 if i == j else Q0) for j in range(7)] for i in range(7)])
    minus = nullspace([[fhat[i][j] + (Q1 if i == j else Q0) for j in range(7)] for i in range(7)])
    if len(plus) != 3 or len(minus) != 3:
        raise AssertionError("eigenspaces of X x - must both have dimension 3")
    for w in list(plus) + list(minus):
        for w2 in (plus if w in plus else minus):
            if space.norm_b(w, w2) != 0:
                raise AssertionError("eigenspaces must be totally isotropic")
    h = annihilator_stabilizer(g_split, x)
    return SplitStabilizerData(x, tuple(map(tuple, plus)), tuple(map(tuple, minus)), h)


# ---------------------------------------------------------------------------
# basic triples and exact symmetry witnesses
# ---------------------------------------------------------------------------

def frame_of_triple(a, b, c, space: CrossProductSpace = DIVISION) -> List[Vec7]:
    a, b, c = _as_vec(a), _as_vec(b), _as_vec(c)
    ab = space.cross(a, b)
    ac = space.cross(a, c)
    bc = space.cross(b, c)
    abc = space.cross(a, bc)
    return [a, b, c, ab, ac, bc, abc]


CANONICAL_TRIPLE = (basis_vec(0), basis_vec(1), basis_vec(6))


def basic_triple_to_g2(x0, x1, x2, space: CrossProductSpace = DIVISION,
                       omega: KForm = OMEGA1) -> List[List[Fraction]]:
    """Map the canonical frame of (e1, e2, e7) onto the frame of the given triple.

    The result fixes the 3-form exactly for rational input triples; raises
    NotBasicTriple when orthonormality or the vanishing condition fails.
    """
    x0, x1, x2 = _as_vec(x0), _as_vec(x1), _as_vec(x2)
    pts = (x0, x1, x2)
    for i in range(3):
        for j in range(3):
            want = Q1 if i == j else Q0
            if space.norm_b(pts[i], pts[j]) != want:
                raise NotBasicTriple("triple is not orthonormal")
    if omega.evaluate([list(x0), list(x1), list(x2)]) != 0:
        raise NotBasicTriple("3-form does not vanish on the triple")
    src = frame_of_triple(*CANONICAL_TRIPLE, space=space)
    dst = frame_of_triple(x0, x1, x2, space=space)
    m_src = [[src[c][r] for c in range(7)] for r in range(7)]
    m_dst = [[dst[c][r] for c in range(7)] for r in range(7)]
    g = mat_mul(m_dst, inverse(m_src))
    if transform(g, omega) != omega:
        raise AssertionError("frame map failed to preserve the 3-form")
    return g


def split_transitivity_witness(y, space: CrossProductSpace = SPLIT) -> List[List[Fraction]]:
    """Exact rational symmetry of OMEGA0 moving (E1 + F1)/2 to a given point.

    Input: y with n(y) = -1 and y orthogonal to E0.  Mirrors the eigenspace
    recipe Y1 = Y + f(Y), Z1 = Y - f(Y) with f = E0 x -.
    """
    y = _as_vec(y)
    x = E0_SPLIT
    if space.norm_q(y) != -1:
        raise WrongNorm("target must satisfy n(Y) = -1")
    if space.norm_b(x, y) != 0:
        raise NotOrthogonal("target must be orthogonal to the base point E0")
    fy = space.cross(x, y)
    y1 = tuple(a + b for a, b in zip(y, fy))
    z1_expect = tuple(a - b for a, b in zip(y, fy))
    data = split_stabilizer_data(space=space)
    rows = [[space.norm_b(z1_expect, basis_vec(k)) for k in range(7)]]
    # W+ intersected with the orthogonal of <Y, f(Y)>: one linear condition on W+
    combos = nullspace([[sum(rows[0][k] * w[k] for k in range(7)) for w in data.w_plus]])
    cand = [tuple(sum(Fraction(c[i]) * data.w_plus[i][k] for i in range(3)) for k in range(7))
            for c in combos]
    if len(cand) != 2:
        raise AssertionError("expected a 2-dimensional choice space")
    u1, u2 = cand
    t = OMEGA0.evaluate([list(y1), list(u1), list(u2)])
    if t == 0:
        raise AssertionError("top form degenerated; triple should be a basis of W+")
    y2 = tuple(Fraction(-4) / t * v for v in u1)
    y3 = u2
    ys = (y1, y2, y3)
    zs = [tuple(Fraction(1, 2) * v for v in space.cross(ys[(i + 1) % 3], ys[(i + 2) % 3]))
          for i in range(3)]
    if zs[0] != z1_expect:
        raise AssertionError("Z1 must reproduce Y - f(Y)")
    cols = [x, ys[0], ys[1], ys[2], zs[0], zs[1], zs[2]]
    g = [[cols[c][r] for c in range(7)] for r in range(7)]
    if transform(g, OMEGA0) != OMEGA0:
        raise AssertionError("constructed witness must preserve the 3-form")
    return g
