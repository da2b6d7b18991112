"""Structure-constant tables for finite-dimensional (possibly nonassociative) algebras.

An AlgebraTable stores e_i e_j = sum_k c[i][j][k] e_k sparsely.  Nothing is
assumed about the product (no associativity, no anticommutativity); the same
table type carries octonion algebras, cross-product algebras, and the two real
forms' Lie brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .linalg import sym_signature
from .scalars import fmt_q

Term = Tuple[int, Fraction]
SparseRow = Tuple[Term, ...]


@dataclass(frozen=True)
class AlgebraTable:
    dim: int
    c: Tuple[Tuple[SparseRow, ...], ...]
    basis_names: Tuple[str, ...] = ()

    @staticmethod
    def from_function(dim: int, product: Callable[[int, int], Sequence],
                      basis_names: Sequence[str] = ()) -> "AlgebraTable":
        """Build from product(i, j) -> coefficient vector of e_i e_j."""
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                vec = product(i, j)
                row.append(tuple((k, Fraction(v)) for k, v in enumerate(vec) if v))
            rows.append(tuple(row))
        return AlgebraTable(dim, tuple(rows), tuple(basis_names))

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        for kk, v in self.c[i][j]:
            if kk == k:
                return v
        return Fraction(0)

    def product_vec(self, i: int, j: int) -> Tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dim
        for k, v in self.c[i][j]:
            out[k] = v
        return tuple(out)

    def mul(self, u: Sequence, v: Sequence) -> Tuple[Fraction, ...]:
        """Product of coefficient vectors."""
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.c[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                s = ui * vj
                for k, cv in row[j]:
                    out[k] += s * cv
        return tuple(out)

    def ad(self, i: int) -> List[List[Fraction]]:
        """Matrix of left multiplication by e_i (the adjoint map for Lie tables)."""
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, v in self.c[i][j]:
                m[k][j] = v
        return m

    def to_json(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in self.c[i][j]:
                    entries.append({"i": i, "j": j, "k": k, "c": fmt_q(v)})
        d = {"dim": self.dim, "entries": entries}
        if self.basis_names:
            d["basis"] = list(self.basis_names)
        return d


def jacobi_defect(t: AlgebraTable, i: int, j: int, k: int) -> Tuple[Fraction, ...]:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] from structure constants."""
    dim = t.dim
    out = [Fraction(0)] * dim
    for a, b, c3 in ((i, j, k), (j, k, i), (k, i, j)):
        for m, v in t.c[a][b]:
            for l, w in t.c[m][c3]:
                out[l] += v * w
    return tuple(out)


def jacobi_holds_everywhere(t: AlgebraTable) -> bool:
    """Exact Jacobi identity on every basis triple (dim^3 of them)."""
    n = t.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if any(jacobi_defect(t, i, j, k)):
                    return False
    return True


def anticommutative(t: AlgebraTable) -> bool:
    n = t.dim
    for i in range(n):
        for j in range(n):
            lhs = dict(t.c[i][j])
            rhs = dict(t.c[j][i])
            if {k: -v for k, v in rhs.items() if v} != {k: v for k, v in lhs.items() if v}:
                return False
    return True


def killing_gram(t: AlgebraTable) -> List[List[Fraction]]:
    """kappa(e_i, e_j) = tr(ad e_i ad e_j), exact."""
    ads = [t.ad(i) for i in range(t.dim)]
    n = t.dim
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = Fraction(0)
            a, b = ads[i], ads[j]
            for p in range(n):
                tr += sum(a[p][q] * b[q][p] for q in range(n))
            g[i][j] = tr
            g[j][i] = tr
    return g


def killing_signature(t: AlgebraTable) -> Tuple[int, int]:
    """Signature (n_minus, n_plus) of the Killing form; DegenerateForm if not semisimple."""
    return sym_signature(killing_gram(t))


def generated_ideal_dim(t: AlgebraTable, seed_index: int) -> int:
    """Dimension of the ideal generated by one basis element (multiply until stable)."""
    from .linalg import rref

    vecs = [[Fraction(1) if i == seed_index else Fraction(0) for i in range(t.dim)]]
    while True:
        r, piv = rref(vecs)
        basis = [list(r[i]) for i in range(len(piv))]
        grown = list(basis)
        for v in basis:
            for g in range(t.dim):
                gen = [Fraction(1) if i == g else Fraction(0) for i in range(t.dim)]
                grown.append(list(t.mul(gen, v)))
        r2, piv2 = rref(grown)
        if len(piv2) == len(piv):
            return len(piv)
        vecs = [list(r2[i]) for i in range(len(piv2))]
