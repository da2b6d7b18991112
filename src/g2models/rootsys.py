"""Finite root systems rebuilt from Cartan matrices.

The reconstruction runs by induction on height: a positive root beta grows to
beta + alpha_i exactly when the alpha_i-string through beta has q = r - <beta,
alpha_i> > 0, where r counts how far the string extends backwards.  The inner
form is recovered from the symmetrization d_i C_ij with short roots pinned to
squared length 2, which keeps every pairing rational.

Entry convention: C[i][j] = <alpha_i, alpha_j> = 2(alpha_i, alpha_j) /
(alpha_j, alpha_j), so the -3 of the G2 matrix [[2, -1], [-3, 2]] sits in the
long root's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import List, Sequence, Tuple

MAX_HEIGHT = 64  # E8's highest root has height 29; anything deeper is not finite type


class UnknownType(Exception):
    """Family/rank pair does not name a finite-type diagram."""


class NotFiniteType(Exception):
    """Height induction failed to close up; the matrix is not of finite type."""


@dataclass(frozen=True)
class CartanMatrix:
    entries: Tuple[Tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
        n = len(self.entries)
        for i in range(n):
            if len(self.entries[i]) != n:
                raise ValueError("Cartan matrix must be square")
            if self.entries[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] not in (0, -1, -2, -3):
                        raise ValueError("off-diagonal entries must lie in {0,-1,-2,-3}")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class Root:
    coords: Tuple[int, ...]
    height: int

    @staticmethod
    def of(coords: Sequence[int]) -> "Root":
        cs = tuple(int(c) for c in coords)
        return Root(cs, sum(cs))


def cartan_of_type(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a finite type, arrows pointing long -> short.

    Node numbering follows the usual chain ordering; for D/E types the forked
    node is attached last (E6: node 6 hangs off node 3; E7: node 7 off node 4;
    E8: node 8 off node 5).
    """
    fam = family.upper()
    ok = (
        (fam == "A" and rank >= 1)
        or (fam == "B" and rank >= 2)
        or (fam == "C" and rank >= 3)
        or (fam == "D" and rank >= 4)
        or (fam == "E" and rank in (6, 7, 8))
        or (fam == "F" and rank == 4)
        or (fam == "G" and rank == 2)
    )
    if not ok:
        raise UnknownType(f"no finite type {family}{rank}")
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B":  # alpha_n short
            edge(n - 2, n - 1, cij=-2, cji=-1)
        elif fam == "C":  # alpha_n long
            edge(n - 2, n - 1, cij=-1, cji=-2)
    elif fam == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif fam == "E":
        chain = n - 1
        for i in range(chain - 1):
            edge(i, i + 1)
        fork_of = {6: 2, 7: 3, 8: 4}[n]
        edge(fork_of, n - 1)
    elif fam == "F":  # arrowhead at alpha_2: alpha_1, alpha_2 short
        edge(0, 1)
        edge(1, 2, cij=-1, cji=-2)
        edge(2, 3)
    elif fam == "G":  # arrowhead at alpha_1: alpha_1 short
        edge(0, 1, cij=-1, cji=-3)
    return CartanMatrix(tuple(tuple(row) for row in c), label=f"{fam}{rank}")


def _pair_with_simple(coords: Sequence[int], i: int, c: CartanMatrix) -> int:
    # <beta, alpha_i> is linear in the first slot
    return sum(b * c[j, i] for j, b in enumerate(coords))


def positive_roots(c: CartanMatrix, max_height: int = MAX_HEIGHT) -> List[Root]:
    """Positive roots by height induction with the string rule q = r - <beta, alpha_i>."""
    n = c.rank
    levels: List[List[Tuple[int, ...]]] = [[], []]
    levels[1] = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(levels[1])
    h = 1
    while levels[h]:
        if h >= max_height:
            raise NotFiniteType(f"roots still growing at height {max_height}")
        nxt: List[Tuple[int, ...]] = []
        for beta in levels[h]:
            for i in range(n):
                r = 0
                back = list(beta)
                while True:
                    back[i] -= 1
                    if any(back) and tuple(back) in known:
                        r += 1
                    else:
                        break
                q = r - _pair_with_simple(beta, i, c)
                if q > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.append(t)
        levels.append(nxt)
        h += 1
    out = []
    for hh in range(1, len(levels)):
        for t in sorted(levels[hh]):
            out.append(Root(t, hh))
    return out


def roots_from_cartan(c: CartanMatrix, max_height: int = MAX_HEIGHT) -> List[Root]:
    """Full root set, positives first then their negatives."""
    pos = positive_roots(c, max_height)
    return pos + [Root(tuple(-x for x in r.coords), -r.height) for r in pos]


@dataclass(frozen=True)
class InnerForm:
    """Rational inner products (alpha_i, alpha_j) on the simple-root lattice."""

    matrix: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def from_cartan(c: CartanMatrix) -> "InnerForm":
        n = c.rank
        d: List[Fraction] = [Fraction(0)] * n
        # propagate relative lengths along edges, component by component
        for start in range(n):
            if d[start]:
                continue
            d[start] = Fraction(1)
            queue = [start]
            while queue:
                i = queue.pop()
                for j in range(n):
                    if i != j and c[i, j] != 0 and not d[j]:
                        d[j] = d[i] * Fraction(c[j, i], c[i, j])
                        queue.append(j)
            comp = [i for i in range(n) if d[i]]
            m = min(d[i] for i in comp)
            for i in comp:
                d[i] /= m
        g = [[d[j] * c[i, j] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert g[i][j] == g[j][i], "symmetrization failed"
        return InnerForm(tuple(tuple(row) for row in g))

    @cached_property
    def _scaled(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """(L, L * matrix) over the integers, L the LCM of the matrix's denominators."""
        scale = lcm(*[Fraction(x).denominator for row in self.matrix for x in row])
        return scale, tuple(tuple(int(x * scale) for x in row) for row in self.matrix)

    def _scaled_inner(self, a: Sequence[int], b: Sequence[int]) -> int:
        m = self._scaled[1]
        return sum(ai * sum(map(mul, m[i], b)) for i, ai in enumerate(a) if ai)

    def inner(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        return Fraction(self._scaled_inner(a, b), self._scaled[0])

    def pairing(self, beta: Sequence[int], alpha: Sequence[int]) -> int:
        """<beta, alpha> = 2(beta, alpha)/(alpha, alpha); integral on roots.

        The common scale L of both inner products cancels, so the quotient is
        taken over the integers.
        """
        num, den = 2 * self._scaled_inner(beta, alpha), self._scaled_inner(alpha, alpha)
        k, r = divmod(num, den)
        if r:
            raise ValueError(f"pairing {Fraction(num, den)} is not integral")
        return k

    def reflect(self, beta: Sequence[int], alpha: Sequence[int]) -> Tuple[int, ...]:
        k = self.pairing(beta, alpha)
        return tuple(b - k * a for b, a in zip(beta, alpha))


def weyl_group(c: CartanMatrix, max_height: int = MAX_HEIGHT) -> List[Tuple[int, ...]]:
    """All Weyl group elements as permutations of roots_from_cartan(c).

    Closure of the simple reflections under composition; fine for small ranks
    (order 12 for G2), do not call on E8.
    """
    roots = roots_from_cartan(c, max_height)
    form = InnerForm.from_cartan(c)
    index = {r.coords: k for k, r in enumerate(roots)}
    n = c.rank
    simples = [roots[_simple_index(roots, i, n)].coords for i in range(n)]
    gens = []
    for alpha in simples:
        gens.append(tuple(index[form.reflect(r.coords, alpha)] for r in roots))
    ident = tuple(range(len(roots)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[g[k]] for k in range(len(g)))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def _simple_index(roots: List[Root], i: int, n: int) -> int:
    target = tuple(1 if j == i else 0 for j in range(n))
    for k, r in enumerate(roots):
        if r.coords == target:
            return k
    raise AssertionError("simple root missing from root list")


def roots_to_json(c: CartanMatrix) -> dict:
    roots = roots_from_cartan(c)
    return {
        "type": c.label or f"rank{c.rank}",
        "rank": c.rank,
        "roots": [{"coords": list(r.coords), "height": r.height} for r in roots],
    }


G2_CARTAN = cartan_of_type("G", 2)
