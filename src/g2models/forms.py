"""Alternating forms on F^7: classification of generic 3-forms and witnesses.

A 3-form stores sorted 1-based index triples with rational coefficients.  The
symmetric Gram form attached to a 3-form and a basis {b_1..b_7},

    n(X, Y) = sum over S7 of sign(s) W(X, b_s1, b_s2) W(Y, b_s3, b_s4)
              W(b_s5, b_s6, b_s7),

is computed by grouping the 5040 permutations into 210 representatives with
s1 < s2, s3 < s4, s5 < s6 < s7 (each representative stands for 24 equal
terms); tests compare against the literal 5040-term sum.  The grouped sum runs
in Python integers: with D the LCM of the coefficient denominators, D*W has
integer values, n is cubic in W, so the Gram of D*W is exactly D^3 times the
Gram of W and one division per entry recovers the exact rational result.
Classification is a signature computation over Q: nondegenerate Gram of
signature {(4,3), (3,4)} means the split orbit, definite means the compact
orbit, anything degenerate is not generic.  Scaling the Gram form by the real
cube root s of the exact rational constant alpha (from X ^ (X ^ Y) =
alpha (n(X,Y)X - n(X)Y)) turns the wedge multiplication into a genuine cross
product.  That cube root and square roots of norms are the only irrational
steps, so a witness frame is built as exact directions, over Q on the compact
path and over Q(sqrt(rho)) on the split path, each times one real column
scalar; only those scalars are BigFloat, while orbits stay exact.

`analyze` builds the Gram form once per 3-form and diagonalizes it once; the
resulting `FormAnalysis` carries the signature and the orbit, and computes
alpha and the wedge table at most once, on first use.  `gram_signature`,
`classify_orbit`, `normalization_constant`, `normalized_signature` and
`orbit_witness` accept either a `KForm` (analyzed on the spot) or a
`FormAnalysis`, so a caller that needs several of them pays for one Gram.

`transform` (so `pullback` and the Gram in a given basis) and the witness
certificate share one integer kernel, `_contract3`, which contracts the table
of D*a with an integer frame f one index at a time into every a(f e_i, f e_j,
f e_k).  `transform` takes 3-forms only; it scales g by the LCM e of its
denominators and divides by D e^3 once.  A witness frame phi has finite
decimal entries, so it is an integer matrix over a power of ten; its largest
exact difference from the representative, rounded up to 3 significant digits,
is the printed residual: an upper bound on the true residual of the printed
phi, above it by less than 1%.

Conventions fixed here once:
  * orientation form e^{1234567};
  * hodge_star(a, signs) multiplies by prod(signs[i] for i in I) and the
    shuffle parity sign, so star(1) = e^{1234567} and star is an involution
    for the all-plus metric in dimension 7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import floor, lcm, log10
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bigfloat import BigFloat, DEFAULT_DIGITS, real_cube_root, tolerance
from .linalg import inverse, mat_mul, nullspace, sym_diagonalize
from .scalars import QuadraticRational, fmt_q, parse_q, sqrt_q

Q0 = Fraction(0)
Q1 = Fraction(1)
Idx = Tuple[int, ...]


class DegreeOverflow(Exception):
    """Wedge product would exceed the ambient degree 7."""


class PrecisionExhausted(Exception):
    """Witness residual exceeded 10^(-P/2); retry with a higher precision."""


def _perm_sign(p: Sequence[int]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _det_small(rows: Sequence[Sequence]) -> object:
    """Leibniz determinant; division-free, so it works over any ring of entries."""
    k = len(rows)
    total = None
    for p in itertools.permutations(range(k)):
        term = rows[0][p[0]]
        for r in range(1, k):
            term = term * rows[r][p[r]]
        if _perm_sign(p) < 0:
            term = -term
        total = term if total is None else total + term
    return 0 if total is None else total


class KForm:
    """Alternating k-form as a sorted-index coefficient map (1-based indices)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Optional[Dict[Idx, Fraction]] = None):
        if not 0 <= degree <= 7:
            raise ValueError("degree must lie in 0..7")
        self.degree = degree
        clean: Dict[Idx, Fraction] = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != degree:
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if any(i < 1 or i > 7 for i in idx):
                raise ValueError("indices are 1..7")
            c = Fraction(c)
            if c:
                clean[idx] = c
        # sorted, so that repr, to_json, hashing and every sum over the terms do not depend on their input order
        self.coeffs = dict(sorted(clean.items()))

    # -- ring-ish operations ------------------------------------------------
    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, Q0) + c
        return KForm(self.degree, out)

    def __neg__(self) -> "KForm":
        return KForm(self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def scale(self, t) -> "KForm":
        t = Fraction(t)
        return KForm(self.degree, {i: t * c for i, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, tuple(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx, c in self.coeffs.items():
            name = "e^{" + "".join(str(i) for i in idx) + "}" if idx else "1"
            parts.append(f"{fmt_q(c)}*{name}")
        return " + ".join(parts)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, vectors: Sequence[Sequence]) -> object:
        """Value on k vectors (0-based coordinates); alternating multilinear."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        total = None
        for idx, c in self.coeffs.items():
            block = [[v[i - 1] for i in idx] for v in vectors]
            term = c * _det_small(block)
            total = term if total is None else total + term
        return Q0 if total is None else total

    def coeff(self, idx: Sequence[int]) -> Fraction:
        s = tuple(sorted(idx))
        sign = _perm_sign(tuple(idx))
        return sign * self.coeffs.get(s, Q0)

    def basis_table3(self) -> Tuple[Tuple[Tuple[Fraction, ...], ...], ...]:
        """Full 7x7x7 table of values on basis triples (0-based), for solvers."""
        if self.degree != 3:
            raise ValueError("only defined for 3-forms")
        t = [[[Q0] * 7 for _ in range(7)] for _ in range(7)]
        for (i, j, k), c in self.coeffs.items():
            base = (i - 1, j - 1, k - 1)
            for perm in itertools.permutations(range(3)):
                tgt = (base[perm[0]], base[perm[1]], base[perm[2]])
                t[tgt[0]][tgt[1]][tgt[2]] = _perm_sign(perm) * c
        return tuple(tuple(tuple(row) for row in plane) for plane in t)

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "dim": 7,
            "degree": self.degree,
            "terms": [{"idx": list(idx), "c": fmt_q(c)} for idx, c in self.coeffs.items()],
        }

    @staticmethod
    def from_json(d: dict) -> "KForm":
        """Parse the file format; malformed input raises ValueError, KeyError or TypeError."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        if d.get("dim", 7) != 7:
            raise ValueError("only dimension 7 is supported")
        coeffs = {}
        for term in d["terms"]:
            idx, c = term["idx"], term["c"]
            if not isinstance(idx, list) or any(type(i) is not int for i in idx):
                raise ValueError(f"idx {idx!r} is not a list of integers such as [1, 2, 3]")
            idx = tuple(idx)
            if not isinstance(c, str):
                raise ValueError(f"coefficient {c!r} of idx {list(idx)} is a {type(c).__name__}, "
                                 f"not a rational string such as \"-3/4\"")
            if idx in coeffs:
                raise ValueError(f"repeated idx {list(idx)}")
            try:
                coeffs[idx] = parse_q(c)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {c!r}") from None
        return KForm(d["degree"], coeffs)


def form(degree: int, terms: Dict[Idx, object]) -> KForm:
    return KForm(degree, {tuple(i): Fraction(c) for i, c in terms.items()})


# canonical orbit representatives, index order (E0,E1,E2,E3,F1,F2,F3) resp. (e1..e7)
OMEGA0 = form(3, {(1, 2, 5): -2, (1, 3, 6): -2, (1, 4, 7): -2, (2, 3, 4): -4, (5, 6, 7): 4})
OMEGA1 = form(3, {(1, 4, 7): 1, (2, 5, 7): 1, (3, 6, 7): 1, (1, 2, 3): 1,
                  (1, 5, 6): -1, (2, 4, 6): 1, (3, 4, 5): -1})

VOLUME_IDX = (1, 2, 3, 4, 5, 6, 7)


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------

def wedge(a: KForm, b: KForm) -> KForm:
    if a.degree + b.degree > 7:
        raise DegreeOverflow(f"degree {a.degree} + {b.degree} > 7")
    out: Dict[Idx, Fraction] = {}
    for ia, ca in a.coeffs.items():
        sa = set(ia)
        for ib, cb in b.coeffs.items():
            if sa & set(ib):
                continue
            merged = ia + ib
            key = tuple(sorted(merged))
            out[key] = out.get(key, Q0) + _perm_sign(merged) * ca * cb
    return KForm(a.degree + b.degree, out)


def hodge_star(a: KForm, signs: Sequence[int] = (1,) * 7) -> KForm:
    """Hodge dual for a diagonal +-1 metric, orientation e^{1234567}.

    star(e^I) = (prod of signs over I) * sgn(I, I^c) * e^{I^c}.
    """
    out: Dict[Idx, Fraction] = {}
    for idx, c in a.coeffs.items():
        comp = tuple(i for i in VOLUME_IDX if i not in idx)
        sgn = _perm_sign(idx + comp)
        eps = 1
        for i in idx:
            eps *= signs[i - 1]
        out[comp] = out.get(comp, Q0) + c * sgn * eps
    return KForm(7 - a.degree, out)


def interior_product(u: Sequence, a: KForm) -> KForm:
    """(u . a)(v2..vk) = a(u, v2, .., vk)."""
    out: Dict[Idx, Fraction] = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            ui = u[i - 1]
            if not ui:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1 if pos & 1 else 1
            out[rest] = out.get(rest, Q0) + sign * ui * c
    return KForm(a.degree - 1, out)


THREE_FORM_INDEX: Tuple[Idx, ...] = tuple(itertools.combinations(range(1, 8), 3))


def _contract3(t: Sequence[Sequence[Sequence[int]]], f: Sequence[Sequence[int]]) -> List[int]:
    """a(f e_i, f e_j, f e_k) for the integer table t of a and every (i, j, k) in THREE_FORM_INDEX, exact.

    The last index goes first (small table entries times f, zeros skipped), then the middle one.
    """
    t1 = [[[sum(v * fr[k] for fr, v in zip(f, tpq) if v) for k in range(7)] for tpq in tp] for tp in t]
    t2 = {(j, k): [sum(t1[p][q][k] * f[q][j] for q in range(7)) for p in range(7)]
          for j, k in itertools.combinations(range(7), 2)}
    return [sum(f[p][i - 1] * t2[j - 1, k - 1][p] for p in range(7)) for i, j, k in THREE_FORM_INDEX]


def transform(g: Sequence[Sequence[Fraction]], a: KForm) -> KForm:
    """The 3-form X .. -> a(gX, ..), exact for rational g; ValueError for other degrees.

    One `_contract3`, the witness certificate's kernel, with e*g (e the LCM of g's denominators), over D e^3.
    """
    d, t = _int_table3(a)
    g = [[Fraction(x) for x in row] for row in g]
    e = lcm(*[x.denominator for row in g for x in row])
    vals = _contract3(t, [[x.numerator * (e // x.denominator) for x in row] for row in g])
    den = d * e ** 3
    return KForm(3, {idx: Fraction(v, den) for idx, v in zip(THREE_FORM_INDEX, vals) if v})


def pullback(g: Sequence[Sequence[Fraction]], a: KForm) -> KForm:
    """The GL(7) action (g, a) -> a(g^{-1} ., .., g^{-1} .); contravariant."""
    return transform(inverse(g), a)


# ---------------------------------------------------------------------------
# the Gram form of a 3-form
# ---------------------------------------------------------------------------

def _patterns() -> List[Tuple[int, Tuple[int, ...]]]:
    pats = []
    for s3 in itertools.combinations(range(7), 3):
        rest = [i for i in range(7) if i not in s3]
        for pair_a in itertools.combinations(rest, 2):
            pair_b = tuple(i for i in rest if i not in pair_a)
            p = pair_a + pair_b + s3
            pats.append((_perm_sign(p), p))
    return pats


_PATTERNS = _patterns()


def _under_basis(a: KForm, basis: Optional[Sequence[Sequence[Fraction]]]) -> KForm:
    # basis is a list of 7 vectors, the columns of the frame matrix
    return a if basis is None else transform([list(row) for row in zip(*basis)], a)


def _int_table3(a: KForm) -> Tuple[int, List[List[List[int]]]]:
    """(D, t): D the LCM of a's coefficient denominators, t the 7x7x7 table of D*a in ints."""
    if a.degree != 3:
        raise ValueError("only defined for 3-forms")
    d = lcm(*[c.denominator for c in a.coeffs.values()])
    t = [[[0] * 7 for _ in range(7)] for _ in range(7)]
    for (i, j, k), c in a.coeffs.items():
        v = c.numerator * (d // c.denominator)
        i, j, k = i - 1, j - 1, k - 1
        t[i][j][k] = t[j][k][i] = t[k][i][j] = v
        t[j][i][k] = t[i][k][j] = t[k][j][i] = -v
    return d, t


def norm_from_form(a: KForm, basis: Optional[Sequence[Sequence[Fraction]]] = None) -> List[List[Fraction]]:
    """Gram matrix of the S7-sum bilinear form over the given basis (columns).

    basis=None means the canonical basis.  The result is symmetric and scales
    by det(P) under a change of basis P.  The sum runs over the integer table
    of D*a; its Gram is D^3 times the Gram of a, so each entry is divided by
    D^3 once.
    """
    d, t = _int_table3(_under_basis(a, basis))
    # third factor of each representative term is (i, j)-independent
    pats = [(p[0], p[1], p[2], p[3], sg * t[p[4]][p[5]][p[6]]) for sg, p in _PATTERNS]
    pats = [pat for pat in pats if pat[4]]
    d3 = d ** 3
    g = [[Q0] * 7 for _ in range(7)]
    for i in range(7):
        ti = t[i]
        for j in range(i, 7):
            tj = t[j]
            acc = 0
            for p0, p1, p2, p3, v3 in pats:
                v1 = ti[p0][p1]
                if v1:
                    v2 = tj[p2][p3]
                    if v2:
                        acc += v1 * v2 * v3
            g[i][j] = g[j][i] = Fraction(24 * acc, d3)
    return g


def norm_from_form_brute(a: KForm, basis: Optional[Sequence[Sequence[Fraction]]] = None) -> List[List[Fraction]]:
    """Literal 5040-term sum; the independent oracle for norm_from_form."""
    t = _under_basis(a, basis).basis_table3()
    g = [[Q0] * 7 for _ in range(7)]
    perms = [(Fraction(_perm_sign(p)), p) for p in itertools.permutations(range(7))]
    for i in range(7):
        for j in range(i, 7):
            acc = Q0
            for sg, p in perms:
                v1 = t[i][p[0]][p[1]]
                if v1:
                    acc += sg * v1 * t[j][p[2]][p[3]] * t[p[4]][p[5]][p[6]]
            g[i][j] = g[j][i] = acc
    return g


class OrbitTag(Enum):
    SPLIT = "split"
    COMPACT = "compact"
    NOT_GENERIC = "not-generic"


class FormAnalysis:
    """The Gram data of one 3-form, each quantity computed once.

    Holds the form, its exact canonical-basis Gram matrix, the congruence
    diagonalization (p, diag) of that Gram, its signature (None when
    degenerate) and its orbit.  alpha and the wedge table are computed on
    first use and kept.  Build it with `analyze`.
    """

    __slots__ = ("form", "gram", "p", "diag", "signature", "orbit", "_alpha", "_wedge_table")

    def __init__(self, a: KForm, gram: List[List[Fraction]], p, diag):
        self.form, self.gram, self.p, self.diag = a, gram, p, diag
        n_minus = sum(1 for x in diag if x < 0)
        n_plus = sum(1 for x in diag if x > 0)
        self.signature = (n_minus, n_plus) if n_minus + n_plus == 7 else None
        if self.signature is None:
            self.orbit = OrbitTag.NOT_GENERIC
        elif self.signature in ((4, 3), (3, 4)):
            self.orbit = OrbitTag.SPLIT
        elif self.signature in ((0, 7), (7, 0)):
            self.orbit = OrbitTag.COMPACT
        else:
            raise AssertionError(f"impossible Gram signature {self.signature} for a 3-form")
        self._alpha: Optional[Fraction] = None
        self._wedge_table = None

    @property
    def wedge_table(self) -> List[List[List[Fraction]]]:
        """Products e_i ^ e_j of the Gram's wedge multiplication, exact."""
        if self._wedge_table is None:
            self._wedge_table = _wedge_table_for_gram(self.form, self.gram)
        return self._wedge_table

    @property
    def alpha(self) -> Fraction:
        """The normalization constant; ValueError for a form that is not generic."""
        if self._alpha is None:
            self._alpha = _normalization_constant(self)
        return self._alpha


def analyze(a: KForm) -> FormAnalysis:
    """One Gram build and one diagonalization of a 3-form."""
    gram = norm_from_form(a)
    p, d = sym_diagonalize(gram)
    return FormAnalysis(a, gram, p, d)


FormOrAnalysis = Union[KForm, FormAnalysis]


def _analysis(a: FormOrAnalysis) -> FormAnalysis:
    return a if isinstance(a, FormAnalysis) else analyze(a)


def gram_signature(a: FormOrAnalysis) -> Optional[Tuple[int, int]]:
    """Signature of the canonical-basis Gram form, or None if degenerate."""
    return _analysis(a).signature


def classify_orbit(a: FormOrAnalysis) -> OrbitTag:
    """Exact two-orbit classification of a rational 3-form."""
    return _analysis(a).orbit


# ---------------------------------------------------------------------------
# the wedge multiplication attached to a nondegenerate Gram form
# ---------------------------------------------------------------------------

def _wedge_table_for_gram(a: KForm, gram: Sequence[Sequence[Fraction]]) -> List[List[List[Fraction]]]:
    """Products e_i ^ e_j defined by gram(e_i ^ e_j, z) = a(e_i, e_j, z), exact.

    e_i ^ e_j = ginv a(e_i, e_j, .), which is row 7i + j of W ginv for the
    49x7 matrix W of rows a(e_i, e_j, .), because ginv is symmetric.  W is
    taken from the integer table of D*a and ginv from D*gram, whose inverse
    is ginv / D, so the product needs no Fraction rows on the left.
    """
    d, t = _int_table3(a)
    ginv_over_d = inverse([[d * x for x in row] for row in gram])
    prods = mat_mul([t[i][j] for i in range(7) for j in range(7)], ginv_over_d)
    return [prods[7 * i:7 * i + 7] for i in range(7)]


def _wedge_vec(tab: Sequence[Sequence[Sequence[Fraction]]], u: Sequence, v: Sequence) -> list:
    """u ^ v for an exact wedge table; the entries of u and v are Fractions or QuadraticRationals."""
    out = [Q0] * 7
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            s = ui * vj
            for k, t in enumerate(tab[i][j]):
                if t:
                    out[k] += s * t
    return out


def _normalization_constant(an: FormAnalysis) -> Fraction:
    p, d = an.p, an.diag
    if any(x == 0 for x in d):
        raise ValueError("form is not generic")
    tab = an.wedge_table
    cols = [[p[r][c] for r in range(7)] for c in range(7)]
    x = cols[0]
    nx = d[0]
    alpha = None
    for y in cols[1:3]:
        w = _wedge_vec(tab, x, _wedge_vec(tab, x, y))
        # y is gram-orthogonal to x, so w must equal -alpha n(x) y
        k = next(i for i in range(7) if y[i])
        cand = -w[k] / (nx * y[k])
        if any(w[i] != -cand * nx * y[i] for i in range(7)):
            raise AssertionError("wedge square is not scalar; form cannot be generic")
        if alpha is None:
            alpha = cand
        elif alpha != cand:
            raise AssertionError("normalization constant depends on probe")
    return alpha


def normalization_constant(a: FormOrAnalysis) -> Fraction:
    """The exact rational alpha with X ^ (X ^ Y) = alpha (n(X,Y) X - n(X) Y).

    n is the canonical Gram form and ^ its wedge multiplication.  Rescaling n
    by the real cube root of alpha produces a cross product; in particular
    sign(alpha) tells how the normalized norm is oriented.
    """
    return _analysis(a).alpha


def normalized_signature(a: FormOrAnalysis) -> Optional[Tuple[int, int]]:
    """Signature of the cross-product-normalized norm: (4,3) split, (0,7) compact."""
    an = _analysis(a)
    sig = an.signature
    if sig is None:
        return None
    if an.alpha < 0:
        sig = (sig[1], sig[0])
    return sig


# ---------------------------------------------------------------------------
# constructive orbit witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Invertible frame phi with a(phi u, phi v, phi w) = rep(u, v, w) up to residual."""

    phi: Tuple[Tuple[BigFloat, ...], ...]
    target: OrbitTag
    residual: BigFloat
    digits: int

    def to_json(self) -> dict:
        return {
            "phi": [[str(x) for x in row] for row in self.phi],
            "residual": f"{self.residual.val:E}",
            "target": self.target.value,
        }


def _ceil_3_digits(num: int, den: int) -> Decimal:
    """The least m * 10^e >= num/den with 100 <= m < 1000, for num, den > 0."""
    def ceil_at(e):
        return -(-num // (den * 10 ** e)) if e >= 0 else -(-num * 10 ** -e // den)

    e = floor((num.bit_length() - den.bit_length() - 1) * log10(2)) - 2
    while True:
        m = ceil_at(e)
        if m > 1000:
            e += 1
        elif m < 100:
            e -= 1
        else:
            break
    if m == 1000:
        m, e = 100, e + 1
    return Decimal(f"{m}E{e}")


def _residual_against(a: KForm, rep: KForm, cols: Sequence[Sequence[BigFloat]], digits: int) -> BigFloat:
    """max over basis triples of |a(phi e_i, phi e_j, phi e_k) - rep_ijk|, rounded up to 3 digits.

    phi (columns `cols`) has finite decimal entries, so with E the least
    exponent among them (capped at 0), F = 10^(-E) phi is an integer matrix;
    with (D, A) the integer table of D*a, `_contract3(A, F)` gives
    D 10^(-3E) a(phi e_i, phi e_j, phi e_k) exactly.  rep has
    integer coefficients, so the worst difference is an exact integer, and one
    division by D 10^(-3E), rounded up, makes the result an upper bound on the
    true residual of the printed phi, above it by less than 1%.
    """
    exp = min(0, min(x.val.as_tuple().exponent for col in cols for x in col))
    unit = 10 ** -exp
    ratios = [[x.val.as_integer_ratio() for x in col] for col in cols]  # each den divides 10^(-exp)
    f = [[num * (unit // den) for num, den in row] for row in zip(*ratios)]
    d, t = _int_table3(a)
    scale = d * unit ** 3
    vals = _contract3(t, f)
    worst = max(abs(val - int(rep.coeffs.get(ijk, 0)) * scale) for ijk, val in zip(THREE_FORM_INDEX, vals))
    if not worst:
        return BigFloat.of(0, digits)
    return BigFloat(_ceil_3_digits(worst, scale), digits)


def _real_column(v: Sequence, mu: BigFloat, root: Optional[BigFloat]) -> List[BigFloat]:
    """The BigFloat column mu * v of an exact direction v over Q, or over Q(sqrt(d)) with root = sqrt(d)."""
    zero = BigFloat.of(0, mu.digits)
    root_mu = None if root is None else root * mu
    out = []
    for x in v:
        if not x:
            out.append(zero)
        elif type(x) is QuadraticRational:
            out.append((x.a * mu + x.b * root_mu) / x.den)
        else:
            out.append(mu * x)
    return out


def orbit_witness(a: FormOrAnalysis, digits: int = DEFAULT_DIGITS) -> Witness:
    """Constructive change of frame onto the orbit representative.

    Exactly-representative inputs short-circuit to the identity witness.  Each
    column of the frame is an exact direction times one real scalar.  With
    s = cbrt(alpha), the normalized norm is s*gram and the cross product is
    the rational wedge table over s, so the directions are linear algebra over
    Q (compact path: Gram-Schmidt in the exact Gram, then wedges) or over
    Q(sqrt(rho)) (split path: the +1 eigenspace of the wedge operator of a
    normalized direction, rho = -alpha n(x0), so over Q when rho is a rational
    square).  Only the scalars, built from s and square roots, and their
    products with the directions are BigFloat, at the requested precision.
    The residual max |a(phi e_i, phi e_j, phi e_k) - rep_ijk| of the frame as
    built is then computed exactly and rounded up to 3 significant digits, so
    `Witness.residual` bounds the true residual of phi from above, by less
    than 1%.  It must not exceed 10^(-digits/2); PrecisionExhausted reports a
    miss, and nothing else raises it.
    """
    an = _analysis(a)
    a, tag = an.form, an.orbit
    if tag is OrbitTag.NOT_GENERIC:
        raise ValueError("cannot build a witness for a non-generic form")
    ident = tuple(tuple(BigFloat.of(1 if i == j else 0, digits) for j in range(7)) for i in range(7))
    if a == OMEGA0:
        return Witness(ident, OrbitTag.SPLIT, BigFloat.of(0, digits), digits)
    if a == OMEGA1:
        return Witness(ident, OrbitTag.COMPACT, BigFloat.of(0, digits), digits)

    p, d, alpha, tab = an.p, an.diag, an.alpha, an.wedge_table
    s = real_cube_root(alpha, digits)
    inv_s = 1 / s
    cols_p = [[p[r][c] for r in range(7)] for c in range(7)]
    basis = [[Q1 if r == j else Q0 for r in range(7)] for j in range(7)]
    root = None

    if tag is OrbitTag.SPLIT:
        # x = x0 / sqrt(-s n(x0)) has the wedge operator L_x = c M, M the columns x0 ^ e_j
        idx0 = next(i for i in range(7) if d[i] != 0 and (d[i] > 0) == (alpha < 0))
        x0, dd = cols_p[idx0], d[idx0]
        c = (1 if alpha > 0 else -1) / sqrt_q(-alpha * dd)
        if type(c) is QuadraticRational:
            root = BigFloat.of(c.d, digits).sqrt()
        m = [_wedge_vec(tab, x0, e) for e in basis]
        null = nullspace([[c * m[j][r] - basis[j][r] for j in range(7)] for r in range(7)])
        if len(null) != 3:
            raise AssertionError(f"plus-eigenspace of dimension {len(null)}; the form cannot be split")
        t = a.evaluate(null)
        if not t:
            raise AssertionError("top form vanishes on the plus-eigenspace; the form cannot be split")
        ys = [[v * (-4 / t) for v in null[0]], null[1], null[2]]
        zs = [[v / 2 for v in _wedge_vec(tab, ys[(i + 1) % 3], ys[(i + 2) % 3])] for i in range(3)]
        one = BigFloat.of(1, digits)
        frame = [(x0, 1 / (-(s * dd)).sqrt())] + [(y, one) for y in ys] + [(z, inv_s) for z in zs]
        rep = OMEGA0
    else:
        gram = an.gram

        def bil(u, v):
            return sum(ui * sum(g * vj for g, vj in zip(row, v) if vj) for ui, row in zip(u, gram) if ui)

        def ortho(fixed):
            # G(u, v_f) / G(v_f, v_f) v_f is the projection onto the unit s-normalized f = mu_f v_f
            for cand in cols_p[1:] + basis:
                u = list(cand)
                for f, gff in fixed:
                    k = bil(u, f) / gff
                    if k:
                        u = [x - k * y for x, y in zip(u, f)]
                if any(u):
                    return u
            raise AssertionError("Gram-Schmidt stalled; the form cannot be compact")

        def mu(v):
            return 1 / (s * bil(v, v)).sqrt()

        v0 = cols_p[0]
        if (d[0] > 0) != (alpha > 0):
            raise AssertionError("no positive direction; the form cannot be compact")
        v1 = ortho([(v0, d[0])])
        vf1 = _wedge_vec(tab, v0, v1)
        v2 = ortho([(v0, d[0]), (v1, bil(v1, v1)), (vf1, bil(vf1, vf1))])
        vx3 = _wedge_vec(tab, v1, v2)
        m0, m1, m2 = mu(v0), mu(v1), mu(v2)
        mx3 = m1 * m2 * inv_s
        frame = [(v1, m1), (v2, m2), (vx3, mx3), (vf1, m0 * m1 * inv_s),
                 (_wedge_vec(tab, v0, v2), m0 * m2 * inv_s), (_wedge_vec(tab, v0, vx3), m0 * mx3 * inv_s),
                 (v0, m0)]
        rep = OMEGA1

    cols = [_real_column(v, scalar, root) for v, scalar in frame]
    res = _residual_against(a, rep, cols, digits)
    if tolerance(digits) < res:
        raise PrecisionExhausted(f"residual {res.val:E} exceeds tolerance at {digits} digits")
    phi = tuple(tuple(cols[c][r] for c in range(7)) for r in range(7))
    return Witness(phi, tag, res, digits)


# ---------------------------------------------------------------------------
# the operator F(alpha) = star(OMEGA1 ^ alpha) on 2-forms
# ---------------------------------------------------------------------------

TWO_FORM_INDEX: Tuple[Idx, ...] = tuple(itertools.combinations(range(1, 8), 2))


def two_form_from_coords(v: Sequence[Fraction]) -> KForm:
    return KForm(2, {idx: c for idx, c in zip(TWO_FORM_INDEX, v) if c})


def two_form_coords(a: KForm) -> Tuple[Fraction, ...]:
    return tuple(a.coeffs.get(idx, Q0) for idx in TWO_FORM_INDEX)


def bivector_to_matrix(a: KForm) -> List[List[Fraction]]:
    """e^{ij} -> E_ji - E_ij; identifies 2-forms with skew 7x7 matrices."""
    m = [[Q0] * 7 for _ in range(7)]
    for (i, j), c in a.coeffs.items():
        m[j - 1][i - 1] += c
        m[i - 1][j - 1] -= c
    return m


def matrix_to_bivector(m: Sequence[Sequence[Fraction]]) -> KForm:
    out = {}
    for i in range(7):
        for j in range(i + 1, 7):
            if m[j][i] != -m[i][j]:
                raise ValueError("matrix is not skew-symmetric")
            if m[j][i]:
                out[(i + 1, j + 1)] = m[j][i]
    return KForm(2, out)


def f_operator_matrix(a: KForm = OMEGA1) -> List[List[Fraction]]:
    """21x21 matrix of alpha -> star(a ^ alpha) on the lexicographic e^{ij} basis."""
    cols = []
    for idx in TWO_FORM_INDEX:
        img = hodge_star(wedge(a, KForm(2, {idx: Q1})))
        cols.append(two_form_coords(img))
    return [[cols[j][i] for j in range(21)] for i in range(21)]


def f_operator_spectrum(a: KForm = OMEGA1) -> Dict[Fraction, List[Tuple[Fraction, ...]]]:
    """Exact eigenspaces of F: +1 with multiplicity 14 and -2 with multiplicity 7."""
    m = f_operator_matrix(a)
    out: Dict[Fraction, List[Tuple[Fraction, ...]]] = {}
    for lam in (Q1, Fraction(-2)):
        shifted = [[m[i][j] - (lam if i == j else Q0) for j in range(21)] for i in range(21)]
        out[lam] = nullspace(shifted)
    return out


def coassociative_form() -> KForm:
    """The 4-form L(x,y,z,u) = -1/2 n(x, associator(y,z,u)) of the division octonions."""
    from .octonions import DIVISION, Octonion, associator

    coeffs: Dict[Idx, Fraction] = {}
    basis = [DIVISION.basis_octonion(i) for i in range(1, 8)]
    for idx in itertools.combinations(range(1, 8), 4):
        x, y, z, u = (basis[i - 1] for i in idx)
        asc = associator(y, z, u)
        val = Fraction(-1, 2) * x.norm_b(asc)
        if val:
            coeffs[idx] = val
    return KForm(4, coeffs)
