"""Clifford algebra Cl(V, -n) on 7 generators and the spin picture of G2.

Basis monomials are 7-bit masks (bit i = generator g_{i+1}); the product of
masks A, B is

    e_A e_B = (-1)^{#{(i,j) in A x B : i > j}} * prod_{i in A and B} q_i * e_{A xor B},

where q_i = -n(g_i) is the square of the i-th generator.  Worked examples of
the sign rule: e1 e2 = +e_{12}, e2 e1 = -e_{12}, and (e1 e2)(e2 e3) =
q_2 e_{13} = -n(e2) e1 e3.

The even part acts on the octonions through iterated left multiplications
kappa_i = L_{g_i}; the stabilizer of the unit spinor inside the bivector span
is carved out by seven linear equations and is the compact (or split) form of
G2, depending on the metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .derivations import DerivationAlgebra
from .linalg import mat_mul, nullspace
from .octonions import (DIVISION, SPLIT, CrossProductSpace, Octonion,
                        basis_vec, factor_unit, left_mult_matrix)

Q0 = Fraction(0)
Q1 = Fraction(1)
Vec7 = Tuple[Fraction, ...]
FULL_MASK = (1 << 7) - 1


class OddPart(Exception):
    """Even-part isomorphism applied to an element with odd monomials."""


class IsotropicFactor(Exception):
    """Spin factors must be nonisotropic vectors."""


def _merge_sign(a: int, b: int) -> int:
    swaps = 0
    rest = a
    while rest:
        i = rest & -rest
        swaps += bin(b & (i - 1)).count("1")
        rest ^= i
    return -1 if swaps & 1 else 1


@dataclass(frozen=True)
class CliffordAlgebra:
    """Cl of a diagonal metric; metric[i] is the square of generator i+1."""

    metric: Tuple[Fraction, ...]

    def mul_masks(self, a: int, b: int) -> Tuple[int, Fraction]:
        sign = Fraction(_merge_sign(a, b))
        common = a & b
        i = 0
        while common:
            if common & 1:
                sign *= self.metric[i]
            common >>= 1
            i += 1
        return a ^ b, sign

    def mul(self, x: Dict[int, Fraction], y: Dict[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for ma, ca in x.items():
            for mb, cb in y.items():
                m, s = self.mul_masks(ma, mb)
                v = out.get(m, Q0) + s * ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out

    def element(self, coeffs: Dict[int, Fraction]) -> "CliffordElement":
        return CliffordElement(self, {m: Fraction(c) for m, c in coeffs.items() if c})

    def generator(self, i: int) -> "CliffordElement":
        """Generator g_i for i = 1..7."""
        return self.element({1 << (i - 1): Q1})

    def center_basis(self) -> List[int]:
        """Masks commuting with every generator; for dim 7 this is {0, full}."""
        out = []
        for m in range(1 << 7):
            central = True
            for i in range(7):
                g = 1 << i
                _, s1 = self.mul_masks(m, g)
                _, s2 = self.mul_masks(g, m)
                if s1 != s2:
                    central = False
                    break
            if central:
                out.append(m)
        return out


@dataclass(frozen=True)
class CliffordElement:
    algebra: CliffordAlgebra
    coeffs: Dict[int, Fraction]

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(self.algebra, self.algebra.mul(self.coeffs, other.coeffs))

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.get(m, Q0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return CliffordElement(self.algebra, out)

    def scale(self, t) -> "CliffordElement":
        t = Fraction(t)
        return CliffordElement(self.algebra, {m: t * c for m, c in self.coeffs.items() if t})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra.metric, tuple(sorted(self.coeffs.items()))))

    def is_even(self) -> bool:
        return all(bin(m).count("1") % 2 == 0 for m in self.coeffs)


# generator frames: orthogonal vectors diagonalizing the norm
DIVISION_GENERATORS: Tuple[Vec7, ...] = tuple(basis_vec(i) for i in range(7))


def _split_generators() -> Tuple[Vec7, ...]:
    half = Fraction(1, 2)
    gens = [basis_vec(0)]
    for i in range(3):
        gens.append(tuple((basis_vec(1 + i)[k] + basis_vec(4 + i)[k]) * half for k in range(7)))
    for i in range(3):
        gens.append(tuple((basis_vec(1 + i)[k] - basis_vec(4 + i)[k]) * half for k in range(7)))
    return tuple(gens)


SPLIT_GENERATORS: Tuple[Vec7, ...] = _split_generators()


def generators_for(space: CrossProductSpace) -> Tuple[Vec7, ...]:
    return DIVISION_GENERATORS if space is DIVISION else SPLIT_GENERATORS


def clifford_for(space: CrossProductSpace) -> CliffordAlgebra:
    """Cl(V, -n) on the orthogonal generator frame of the space."""
    gens = generators_for(space)
    return CliffordAlgebra(tuple(-space.norm_q(g) for g in gens))


def kappa_matrices(space: CrossProductSpace = DIVISION) -> List[List[List[Fraction]]]:
    """kappa_i = octonionic left multiplication by the i-th generator, on (e1..e7, 1)."""
    return [left_mult_matrix(space, g) for g in generators_for(space)]


def rho_matrix_of_mask(mask: int, kappas: Sequence[Sequence[Sequence[Fraction]]]) -> List[List[Fraction]]:
    out = [[Q1 if i == j else Q0 for j in range(8)] for i in range(8)]
    for i in range(7):
        if mask & (1 << i):
            out = mat_mul(out, kappas[i])
    return out


def even_iso_rho(x: CliffordElement, space: CrossProductSpace = DIVISION) -> List[List[Fraction]]:
    """The algebra isomorphism Cl_even -> End(octonions) by left multiplications."""
    if not x.is_even():
        raise OddPart("rho tilde is defined on the even part only")
    kappas = kappa_matrices(space)
    out = [[Q0] * 8 for _ in range(8)]
    for mask, c in x.coeffs.items():
        m = rho_matrix_of_mask(mask, kappas)
        for i in range(8):
            for j in range(8):
                if m[i][j]:
                    out[i][j] += c * m[i][j]
    return out


@dataclass(frozen=True)
class SpinElement:
    """+-(a_1 ... a_2r) with vector factors whose norms multiply to 1."""

    space: CrossProductSpace
    sign: int
    factors: Tuple[Vec7, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if len(self.factors) % 2:
            raise ValueError("spin elements have an even number of factors")
        prod = Fraction(1)
        for f in self.factors:
            nf = self.space.norm_q(f)
            if nf == 0:
                raise IsotropicFactor("factors must be nonisotropic")
            prod *= nf
        if prod != 1:
            raise ValueError("product of factor norms must be 1")

    @staticmethod
    def of(space: CrossProductSpace, factors: Sequence[Sequence], sign: int = 1) -> "SpinElement":
        return SpinElement(space, sign, tuple(tuple(Fraction(x) for x in f) for f in factors))


def spin_action(g: SpinElement, x: Octonion) -> Octonion:
    """g . x = +- a_1 (a_2 ( .. (a_2r x))); an isometry of the octonions."""
    if x.space is not g.space:
        raise ValueError("octonion and spin element live in different algebras")
    y = x
    for f in reversed(g.factors):
        y = g.space.octonion(0, f) * y
    return -y if g.sign < 0 else y


def factor_unit_spin(x: Octonion) -> SpinElement:
    """A two-factor spin element with g . 1 = x, from the unit factorization."""
    a, b = factor_unit(x)
    return SpinElement.of(x.space, (a.vec, b.vec))


def octonion_triple(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """<x, y, z> = (x conj(y)) z; recovers the product as <x, 1, y>."""
    return (x * y.conjugate()) * z


def reflection_matrix(space: CrossProductSpace, a: Vec7) -> List[List[Fraction]]:
    """tau_a(v) = v - 2 n(a, v)/n(a) a, the hyperplane reflection at a."""
    na = space.norm_q(a)
    if not na:
        raise IsotropicFactor("reflections need a nonisotropic axis")
    cols = []
    for j in range(7):
        e = basis_vec(j)
        c = Fraction(2) * space.norm_b(a, e) / na
        cols.append(tuple(e[i] - c * a[i] for i in range(7)))
    return [[cols[j][i] for j in range(7)] for i in range(7)]


def vector_rep(g: SpinElement) -> List[List[Fraction]]:
    """The 7x7 image under the double cover: products of factor reflections.

    Both signs of g map to the same matrix, the image is an isometry of
    determinant 1, and it differs from the spin action (which lives on the
    8-dimensional spinor space).
    """
    out = [[Q1 if i == j else Q0 for j in range(7)] for i in range(7)]
    for f in g.factors:
        out = mat_mul(out, reflection_matrix(g.space, f))
    return out


BIVECTOR_PAIRS: Tuple[Tuple[int, int], ...] = tuple(itertools.combinations(range(1, 8), 2))


@dataclass(frozen=True)
class SpinStabilizer:
    """Solution data of {d in spin(V, -n) : d(unit spinor) = 0}."""

    space: CrossProductSpace
    pairs: Tuple[Tuple[int, int], ...]
    coeff_basis: Tuple[Tuple[Fraction, ...], ...]   # 14 vectors of 21 bivector coords
    constraint_rows: Tuple[Tuple[Fraction, ...], ...]
    algebra: DerivationAlgebra                       # 8x8 matrices on (e1..e7, 1)

    def matrix_of(self, coeffs: Sequence[Fraction]) -> List[List[Fraction]]:
        kappas = kappa_matrices(self.space)
        out = [[Q0] * 8 for _ in range(8)]
        for c, (i, j) in zip(coeffs, self.pairs):
            if not c:
                continue
            m = mat_mul(kappas[i - 1], kappas[j - 1])
            for r in range(8):
                for s in range(8):
                    if m[r][s]:
                        out[r][s] += c * m[r][s]
        return out


def spin_g2_equations(metric: str = "definite") -> SpinStabilizer:
    """Solve d(e8) = 0 for d = sum a_ij kappa_i kappa_j over the 21 bivectors.

    metric "definite" reproduces the seven printed equations of the compact
    case; "split" runs the identical pipeline on the split octonion table.
    """
    if metric == "definite":
        space = DIVISION
    elif metric == "split":
        space = SPLIT
    else:
        raise ValueError("metric must be 'definite' or 'split'")
    kappas = kappa_matrices(space)
    unit = [Q0] * 7 + [Q1]
    images = []
    for (i, j) in BIVECTOR_PAIRS:
        m = mat_mul(kappas[i - 1], kappas[j - 1])
        images.append([sum(m[r][c] * unit[c] for c in range(8)) for r in range(8)])
    rows = []
    for r in range(8):
        row = [images[k][r] for k in range(21)]
        if any(row):
            rows.append(tuple(row))
    coeffs = nullspace([list(r) for r in rows])
    mats = []
    stab = SpinStabilizer(space, BIVECTOR_PAIRS, tuple(coeffs), tuple(rows),
                          DerivationAlgebra.from_matrices([], 8))
    for c in coeffs:
        mats.append(stab.matrix_of(c))
    return SpinStabilizer(space, BIVECTOR_PAIRS, tuple(coeffs), tuple(rows),
                          DerivationAlgebra.from_matrices(mats, 8))


# ---------------------------------------------------------------------------
# the Z2^3 grading of the octonion basis and the seven planes of g_c
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z23Grading:
    """Degree map plus the seven planes W_i and their stabilizer 2-planes W_i'."""

    degrees: Dict[int, Tuple[int, int, int]]
    planes: Dict[int, List[Tuple[int, int]]]
    stabilizer_planes: Dict[int, List[Tuple[Fraction, ...]]]


def z23_grading() -> Z23Grading:
    """The full grading package; the W_i' planes sum to the spin stabilizer."""
    return Z23Grading(z23_degrees(), grading_planes(), graded_stabilizer_planes())


def z23_degrees() -> Dict[int, Tuple[int, int, int]]:
    """Degrees of e_1..e_7 generated from deg(e1), deg(e2), deg(e7)."""
    deg = {1: (1, 0, 0), 2: (0, 1, 0), 7: (0, 0, 1)}
    space = DIVISION
    while len(deg) < 7:
        for i, j in itertools.permutations(list(deg), 2):
            prod = space.cross(basis_vec(i - 1), basis_vec(j - 1))
            k = next((t + 1 for t in range(7) if prod[t]), None)
            if k is not None and k not in deg:
                deg[k] = tuple((a + b) % 2 for a, b in zip(deg[i], deg[j]))
    return deg


def grading_planes() -> Dict[int, List[Tuple[int, int]]]:
    """W_i = span{e^{jk} : e_j e_k = +-e_i}; three pairs per index."""
    space = DIVISION
    out: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(1, 8)}
    for (j, k) in BIVECTOR_PAIRS:
        prod = space.cross(basis_vec(j - 1), basis_vec(k - 1))
        i = next(t + 1 for t in range(7) if prod[t])
        out[i].append((j, k))
    return out


def graded_stabilizer_planes() -> Dict[int, List[Tuple[Fraction, ...]]]:
    """W_i' = {alpha in W_i : alpha . e8 = 0}, each a 2-plane inside g_c.

    Coefficients are 21-vectors over the bivector pairs, so the direct sum can
    be compared with spin_g2_equations verbatim.
    """
    space = DIVISION
    planes = grading_planes()
    pair_index = {p: t for t, p in enumerate(BIVECTOR_PAIRS)}
    out: Dict[int, List[Tuple[Fraction, ...]]] = {}
    for i, pairs in planes.items():
        # alpha . e8 = sum a_{jk} (e_j e_k) lands in the e_i line
        row = []
        for (j, k) in pairs:
            prod = space.cross(basis_vec(j - 1), basis_vec(k - 1))
            row.append(prod[i - 1])
        combos = nullspace([row])
        vecs = []
        for c in combos:
            v = [Q0] * 21
            for coef, p in zip(c, pairs):
                v[pair_index[p]] = coef
            vecs.append(tuple(v))
        out[i] = vecs
    return out
