"""Derivation algebras of bilinear products and alternating 3-forms.

Both solvers are exact rational nullspace computations.  For an algebra with
structure constants c, the unknown matrix d (entry d[l][k], column k = image
coordinates of e_k) satisfies the Leibniz rows

    sum_k c[i][j][k] d[l][k] - sum_p c[p][j][l] d[p][i] - sum_q c[i][q][l] d[q][j] = 0

over all (i, j, l); for a 3-form the rows range over basis triples i < j < k:

    sum_p f[p][i] W(p,j,k) + sum_p f[p][j] W(i,p,k) + sum_p f[p][k] W(i,j,p) = 0.

Constraint rows are assembled in a fixed row-major order and deduplicated up
to scale, so the reduced echelon nullspace basis is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebra import AlgebraTable
from .linalg import (coords_in_basis, mat_mul, mat_sub, mat_vec, nullspace,
                     same_span, span_contains)

Q0 = Fraction(0)
Matrix = List[List[Fraction]]


def _flatten(m: Sequence[Sequence[Fraction]]) -> Tuple[Fraction, ...]:
    return tuple(x for row in m for x in row)


def _unflatten(v: Sequence[Fraction], n: int) -> Matrix:
    return [list(v[r * n:(r + 1) * n]) for r in range(n)]


def _dedup_rows(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    seen = set()
    out = []
    for row in rows:
        lead = next((x for x in row if x), None)
        if lead is None:
            continue
        key = tuple((c, x / lead) for c, x in enumerate(row) if x)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


@dataclass(frozen=True)
class DerivationAlgebra:
    """A bracket-closed space of ambient_dim x ambient_dim matrices."""

    ambient_dim: int
    basis: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    @staticmethod
    def from_matrices(mats: Sequence[Sequence[Sequence[Fraction]]], ambient_dim: int) -> "DerivationAlgebra":
        return DerivationAlgebra(ambient_dim, tuple(tuple(tuple(r) for r in m) for m in mats))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrices(self) -> List[Matrix]:
        return [[list(r) for r in m] for m in self.basis]

    def contains(self, m: Sequence[Sequence[Fraction]]) -> bool:
        return span_contains([_flatten(b) for b in self.basis], _flatten(m))

    def coords_of(self, m: Sequence[Sequence[Fraction]]) -> Optional[Tuple[Fraction, ...]]:
        return coords_in_basis([_flatten(b) for b in self.basis], _flatten(m))

    def same_space(self, other: "DerivationAlgebra") -> bool:
        return same_span([_flatten(b) for b in self.basis], [_flatten(b) for b in other.basis])

    def is_bracket_closed(self) -> bool:
        flats = [_flatten(b) for b in self.basis]
        for i, a in enumerate(self.basis):
            am = [list(r) for r in a]
            for b in self.basis[i + 1:]:
                bm = [list(r) for r in b]
                comm = mat_sub(mat_mul(am, bm), mat_mul(bm, am))
                if not span_contains(flats, _flatten(comm)):
                    return False
        return True

    def bracket_table(self) -> AlgebraTable:
        """Structure constants of the commutator in this basis."""
        n = self.dim

        def product(i, j):
            a = [list(r) for r in self.basis[i]]
            b = [list(r) for r in self.basis[j]]
            comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
            coords = self.coords_of(comm)
            if coords is None:
                raise ValueError("basis is not bracket-closed")
            return coords

        return AlgebraTable.from_function(n, product)

    def element(self, coords: Sequence[Fraction]) -> Matrix:
        n = self.ambient_dim
        out = [[Q0] * n for _ in range(n)]
        for c, b in zip(coords, self.basis):
            if c:
                for i in range(n):
                    for j in range(n):
                        if b[i][j]:
                            out[i][j] += c * b[i][j]
        return out

    def restricted(self, indices: Sequence[int]) -> "DerivationAlgebra":
        """Submatrices on the given index set (e.g. the trace-zero part of an octonion algebra)."""
        mats = [[[m[i][j] for j in indices] for i in indices] for m in self.matrices()]
        return DerivationAlgebra.from_matrices(mats, len(indices))


def derivations_of_algebra(t: AlgebraTable) -> DerivationAlgebra:
    """All matrices d with d(uv) = d(u)v + u d(v), from the structure constants."""
    m = t.dim
    rows: List[List[Fraction]] = []
    for i in range(m):
        for j in range(m):
            # one vector equation per pair; component l gives one scalar row
            for l in range(m):
                row = [Q0] * (m * m)
                changed = False
                for k, v in t.c[i][j]:
                    row[l * m + k] += v
                    changed = True
                for p in range(m):
                    cpl = t.coeff(p, j, l)
                    if cpl:
                        row[p * m + i] -= cpl
                        changed = True
                    cql = t.coeff(i, p, l)
                    if cql:
                        row[p * m + j] -= cql
                        changed = True
                if changed:
                    rows.append(row)
    rows = _dedup_rows(rows)
    vecs = nullspace(rows) if rows else nullspace([[Q0] * (m * m)])
    return DerivationAlgebra.from_matrices([_unflatten(v, m) for v in vecs], m)


def derivations_of_form(omega) -> DerivationAlgebra:
    """Derivations of an alternating 3-form on F^7.

    ``omega`` may be a KForm or a nested 7x7x7 table of basis values.
    """
    table = omega.basis_table3() if hasattr(omega, "basis_table3") else omega
    n = len(table)
    rows: List[List[Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = [Q0] * (n * n)
                any_nz = False
                for p in range(n):
                    v1 = table[p][j][k]
                    if v1:
                        row[p * n + i] += v1
                        any_nz = True
                    v2 = table[i][p][k]
                    if v2:
                        row[p * n + j] += v2
                        any_nz = True
                    v3 = table[i][j][p]
                    if v3:
                        row[p * n + k] += v3
                        any_nz = True
                if any_nz:
                    rows.append(row)
    rows = _dedup_rows(rows)
    vecs = nullspace(rows) if rows else nullspace([[Q0] * (n * n)])
    return DerivationAlgebra.from_matrices([_unflatten(v, n) for v in vecs], n)


def annihilator_stabilizer(d_alg: DerivationAlgebra, x: Sequence[Fraction]) -> DerivationAlgebra:
    """The subalgebra {d in d_alg : d(x) = 0}, bracket-closed by construction."""
    cols = []
    for b in d_alg.basis:
        cols.append(mat_vec(b, x))
    rows = [[cols[j][i] for j in range(d_alg.dim)] for i in range(d_alg.ambient_dim)]
    combos = nullspace(rows)
    mats = [d_alg.element(c) for c in combos]
    return DerivationAlgebra.from_matrices(mats, d_alg.ambient_dim)


def skew_adjoint_ok(d: Sequence[Sequence[Fraction]], gram: Sequence[Sequence[Fraction]]) -> bool:
    """d^t G + G d = 0, i.e. d lies in so of the form with Gram matrix G."""
    n = len(gram)
    for i in range(n):
        for j in range(n):
            s = sum(d[k][i] * gram[k][j] + gram[i][k] * d[k][j] for k in range(n))
            if s:
                return False
    return True
