import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from g2models import linalg as la
from g2models import octonions as oc
from g2models.bigfloat import BigFloat, real_cube_root, tolerance
from g2models.scalars import GaussianRational as GR, QuadraticRational as QR, fmt_q, parse_q, sqrt_q
from g2models.splitmodel import _l_of

Q = Fraction

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def frac_matrix(rows, cols):
    return st.lists(st.lists(small_fracs, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_nullspace_of_cross_by_x_contains_x():
    # kernel of y -> e1 x y in R^3 is the e1 line
    l = [list(r) for r in _l_of((Q(1), Q(0), Q(0)))]
    basis = la.nullspace(l)
    assert basis == [(Q(1), Q(0), Q(0))]


def test_nullspace_of_identity_is_empty():
    assert la.nullspace(la.identity(7)) == []


@settings(max_examples=60)
@given(frac_matrix(4, 5))
def test_rank_nullity(m):
    ns = la.nullspace(m)
    assert la.rank(m) + len(ns) == 5
    for v in ns:
        assert all(sum(r[i] * v[i] for i in range(5)) == 0 for r in m)


def test_solve_and_inverse():
    m = [[Q(2), Q(1)], [Q(1), Q(1)]]
    assert la.solve(m, [Q(3), Q(2)]) == (Q(1), Q(1))
    inv = la.inverse(m)
    assert la.mat_mul(m, inv) == la.identity(2)
    with pytest.raises(la.SingularMatrix):
        la.inverse([[Q(1), Q(2)], [Q(2), Q(4)]])
    assert la.solve([[Q(1), Q(1)], [Q(1), Q(1)]], [Q(0), Q(1)]) is None


def test_signature_examples():
    n = [[Q(0)] * 7 for _ in range(7)]
    n[0][0] = Q(-1)
    for i in range(3):
        n[1 + i][4 + i] = Q(-2)
        n[4 + i][1 + i] = Q(-2)
    assert la.sym_signature(n) == (4, 3)
    assert la.sym_signature(la.identity(7)) == (0, 7)
    deg = [[Q(0)] * 7 for _ in range(7)]
    for i, v in enumerate((-1, -1, -1, -1, 0, 1, 1)):
        deg[i][i] = Q(v)
    with pytest.raises(la.DegenerateForm):
        la.sym_signature(deg)


def test_signature_congruence_invariant():
    rng = random.Random(11)
    base = [[Q(0)] * 5 for _ in range(5)]
    for i, v in enumerate((-1, -1, 1, 1, 1)):
        base[i][i] = Q(v)
    for _ in range(20):
        while True:
            p = [[Q(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
            if la.det(p):
                break
        m = la.mat_mul(la.transpose(p), la.mat_mul(base, p))
        assert la.sym_signature(m) == (2, 3)


def test_sym_diagonalize_congruence():
    rng = random.Random(5)
    for _ in range(15):
        m = [[Q(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        sym = la.mat_add(m, la.transpose(m))
        p, d = la.sym_diagonalize(sym)
        got = la.mat_mul(la.transpose(p), la.mat_mul(sym, p))
        assert all(got[i][j] == (d[i] if i == j else 0) for i in range(4) for j in range(4))


def test_zero_pivot_diagonalization_path():
    m = [[Q(0), Q(1)], [Q(1), Q(0)]]  # hyperbolic plane: needs the e_i + e_j trick
    assert la.sym_signature(m) == (1, 1)


@settings(max_examples=40)
@given(small_fracs, small_fracs, small_fracs)
def test_fraction_ring_sanity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_span_utilities():
    v1 = (Q(1), Q(0), Q(1))
    v2 = (Q(0), Q(1), Q(1))
    assert la.same_span([v1, v2], [v2, (Q(1), Q(1), Q(2))])
    assert la.span_contains([v1, v2], (Q(2), Q(3), Q(5)))
    assert not la.span_contains([v1], v2)
    assert la.coords_in_basis([v1, v2], (Q(2), Q(3), Q(5))) == (Q(2), Q(3))


def test_gaussian_rational_field():
    i = GR(Q(0), Q(1))
    assert i * i == -1
    x = GR(Q(1, 2), Q(-3))
    assert x * x.inverse() == 1
    assert x.conjugate().conjugate() == x
    assert (x + i) - i == x
    assert GR.from_json(x.to_json()) == x


# -- Q(sqrt(d)) against a Fraction-pair reference ---------------------------------

class _PairRef:
    """x + y sqrt(d) as two Fractions: the reference for QuadraticRational."""

    def __init__(self, x, y, d):
        self.x, self.y, self.d = Q(x), Q(y), d

    def __add__(self, o):
        return _PairRef(self.x + o.x, self.y + o.y, self.d)

    def __sub__(self, o):
        return _PairRef(self.x - o.x, self.y - o.y, self.d)

    def __mul__(self, o):
        return _PairRef(self.x * o.x + self.y * o.y * self.d, self.x * o.y + self.y * o.x, self.d)

    def inverse(self):
        n = self.x * self.x - self.y * self.y * self.d
        return _PairRef(self.x / n, -self.y / n, self.d)

    def pair(self):
        return self.x, self.y


def _pair(z):
    if isinstance(z, QR):
        return Q(z.a, z.den), Q(z.b, z.den)
    return Q(z), Q(0)


non_squares = st.sampled_from([2, 3, 5, 6, 12, 2 * 10 ** 40 + 1])
quad_parts = st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 30))
rational_operands = st.one_of(st.integers(-20, 20), small_fracs)


@st.composite
def quad_triples(draw):
    d = draw(non_squares)
    return d, [QR(a, b, den, d) for a, b, den in draw(st.lists(quad_parts, min_size=3, max_size=3))]


@settings(max_examples=150, deadline=None)
@given(quad_triples())
def test_quadratic_rational_field_axioms(dx):
    d, (x, y, z) = dx
    zero, one = QR(0, 0, 1, d), QR(1, 0, 1, d)
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == 0 and not (x - x)
    assert x + -x == zero and -(-x) == x
    if x:
        assert x * (1 / x) == 1 and x / x == one and (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            y / x


@settings(max_examples=150, deadline=None)
@given(quad_triples(), rational_operands)
def test_quadratic_rational_equals_fraction_pair_reference(dx, r):
    d, (x, y, _) = dx
    rx, ry = _PairRef(*_pair(x), d), _PairRef(*_pair(y), d)
    rr = _PairRef(r, 0, d)
    assert _pair(x + y) == (rx + ry).pair() and _pair(x - y) == (rx - ry).pair()
    assert _pair(x * y) == (rx * ry).pair()
    assert _pair(x + r) == _pair(r + x) == (rx + rr).pair()
    assert _pair(x - r) == (rx - rr).pair() and _pair(r - x) == (rr - rx).pair()
    assert _pair(x * r) == _pair(r * x) == (rx * rr).pair()
    assert (x == r) == (rx.pair() == rr.pair())
    if y:
        assert _pair(x / y) == (rx * ry.inverse()).pair()
        assert _pair(r / y) == (rr * ry.inverse()).pair()
    if r:
        assert _pair(x / r) == (rx * rr.inverse()).pair()
    # equal elements have equal parts, over a positive denominator
    back, scaled = (x + y) - y, QR(-2 * x.a, -2 * x.b, -2 * x.den, d)
    assert (back.a, back.b, back.den) == (scaled.a, scaled.b, scaled.den) == (x.a, x.b, x.den)


@pytest.mark.parametrize("x", [Q(2), Q(3, 5), Q(1, 12), Q(10 ** 30 + 7, 3), Q(49, 9), Q(18, 8), Q(1)])
def test_sqrt_q_is_exact(x):
    r = sqrt_q(x)
    assert r * r == x
    square = x.numerator * x.denominator == isqrt(x.numerator * x.denominator) ** 2
    assert type(r) is (Q if square else QR)
    if not square:
        assert r.a == 0 and r.b > 0


def test_rational_serialization():
    assert fmt_q(Q(-3, 7)) == "-3/7"
    assert fmt_q(Q(5)) == "5"
    assert parse_q("-3/7") == Q(-3, 7)


def test_cube_roots():
    assert real_cube_root(Q(8)) == BigFloat.of(2)
    assert real_cube_root(Q(-27)) == BigFloat.of(-3)
    s = real_cube_root(Q(2))
    assert abs(s * s * s - BigFloat.of(2)) <= tolerance()
    # regression: tiny rational inputs must keep full precision
    a = Q(1, 148809594175488000)
    s = real_cube_root(a, 60)
    err = abs(s * s * s - BigFloat.of(a, 60))
    assert err <= BigFloat.of(Q(1, 10 ** 75), 60)


def test_bigfloat_arithmetic_precision():
    x = BigFloat.of(Q(1, 3), 60)
    y = (x * 3 - 1)
    assert abs(y) <= BigFloat.of(Q(1, 10 ** 70), 60)
    assert BigFloat.of(Q(9, 4)).sqrt() == BigFloat.of(Q(3, 2))


# -- the integer kernels against sympy and plain sums of products ---------------

q_ints = st.integers(-9, 9)
q_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
# zeros are drawn often so that sparse rows, zero rows and zero columns occur
ENTRIES = {
    "int": st.one_of(st.just(0), q_ints),
    "fraction": st.one_of(st.just(Q(0)), q_fracs),
    "mixed": st.one_of(st.just(0), q_ints, q_fracs),
}


@st.composite
def q_matrices(draw, max_rows=12, max_cols=14, square=False, kind=None):
    """Q matrices of int, Fraction or mixed entries, often rank-deficient."""
    kind = kind or draw(st.sampled_from(sorted(ENTRIES)))
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    m = draw(st.lists(st.lists(ENTRIES[kind], min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows >= 3 and draw(st.booleans()):
        # a row that is a combination of two others
        i, j, k = draw(st.permutations(range(rows)))[:3]
        a, b = draw(ENTRIES[kind]), draw(ENTRIES[kind])
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if rows and cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0 * row[j]
    return m


def _to_sympy(m) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def _from_sympy(x) -> Q:
    assert isinstance(x, sympy.Rational), x
    return Q(int(x.p), int(x.q))


def _plain_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _has_fraction(*ms) -> bool:
    return any(type(x) is Q for m in ms for row in m for x in row)


def _assert_types(out, fraction: bool):
    # the type rule: never a float; ints only for all-int inputs
    for x in out:
        assert type(x) is (Q if fraction else int), (x, type(x))


@settings(max_examples=80, deadline=None)
@given(q_matrices())
def test_rref_matches_sympy(m):
    r, piv = la.rref(m)
    if not m:
        assert (r, piv) == ([], [])
        return
    want, want_piv = _to_sympy(m).rref()
    assert piv == list(want_piv)
    assert [[_from_sympy(x) for x in row] for row in want.tolist()] == r
    _assert_types([x for row in r for x in row], fraction=True)


@settings(max_examples=80, deadline=None)
@given(q_matrices())
def test_rank_nullity_and_kernel(m):
    cols = len(m[0]) if m else 0
    ns = la.nullspace(m)
    assert la.rank(m) + len(ns) == cols
    for v in ns:
        _assert_types(v, fraction=True)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)


@settings(max_examples=80, deadline=None)
@given(q_matrices(max_rows=9, square=True))
def test_det_and_inverse_match_sympy(m):
    d = la.det(m)
    assert type(d) is Q
    assert d == (_from_sympy(_to_sympy(m).det()) if m else 1)
    if d:
        inv = la.inverse(m)
        _assert_types([x for row in inv for x in row], fraction=True)
        assert la.mat_mul(inv, m) == la.identity(len(m))
        assert la.mat_mul(m, inv) == la.identity(len(m))
    else:
        with pytest.raises(la.SingularMatrix):
            la.inverse(m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_finds_a_solution(data):
    m = data.draw(q_matrices(max_rows=8, max_cols=8))
    if not m:
        return
    x = data.draw(st.lists(ENTRIES["mixed"], min_size=len(m[0]), max_size=len(m[0])))
    b = [sum(u * v for u, v in zip(row, x)) for row in m]
    got = la.solve(m, b)
    assert got is not None
    _assert_types(got, fraction=True)
    assert [sum(u * v for u, v in zip(row, got)) for row in m] == b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_products_equal_plain_sums(data):
    kind = data.draw(st.sampled_from(sorted(ENTRIES)))
    a = data.draw(q_matrices(max_rows=8, max_cols=8, kind=kind))
    inner = len(a[0]) if a else 0
    b = data.draw(st.lists(st.lists(ENTRIES[kind], min_size=5, max_size=5),
                           min_size=inner, max_size=inner))
    got = la.mat_mul(a, b)
    assert got == _plain_mat_mul(a, b)
    _assert_types([x for row in got for x in row], fraction=_has_fraction(a, b))
    v = data.draw(st.lists(ENTRIES[kind], min_size=inner, max_size=inner))
    got = la.mat_vec(a, v)
    assert got == tuple(sum(x * y for x, y in zip(row, v)) for row in a)
    _assert_types(got, fraction=_has_fraction(a, [v]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["split", "division"]),
       st.lists(ENTRIES["mixed"], min_size=8, max_size=8),
       st.lists(ENTRIES["mixed"], min_size=8, max_size=8))
def test_oct_mul_coeffs_equals_plain_sum(kind, x, y):
    space = oc.SPLIT if kind == "split" else oc.DIVISION
    table = oc.basis_table(kind)
    want = [Q(0)] * 8
    for i in range(8):
        for j in range(8):
            for k, c in table.c[i][j]:
                want[k] += x[i] * y[j] * c
    got = space.oct_mul_coeffs(x, y)
    assert list(got) == want
    _assert_types(got, fraction=True)


def test_generic_field_path_for_gaussian_and_quadratic_entries():
    i = GR(Q(0), Q(1))
    m = [[GR(Q(1)), i], [i, GR(Q(2))]]
    assert la.det(m) == 3
    assert isinstance(la.det(m), GR)
    inv = la.inverse(m)
    assert la.mat_mul(m, inv) == [[1, 0], [0, 1]]
    assert la.mat_vec(m, (i, GR(Q(1)))) == (2 * i, GR(Q(1)))
    r = sqrt_q(Q(2))
    singular = [[r, Q(2)], [Q(1), r]]
    red, piv = la.rref(singular)
    assert piv == [0] and red[0] == [1, r] and red[1] == [0, 0]
    assert all(isinstance(x, QR) for row in red for x in row)
    assert la.nullspace(singular) == [(-r, Q(1))]
    m = [[r, Q(1)], [Q(1), r]]
    assert la.det(m) == 1
    assert la.mat_mul(m, la.inverse(m)) == [[1, 0], [0, 1]]
