import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from g2models import cli
from g2models import forms as fo
from g2models import octonions as oc
from g2models.bigfloat import BigFloat, real_cube_root, tolerance
from g2models.linalg import det, inverse, mat_mul, mat_vec, transpose
from g2models.scalars import sqrt_q

Q = Fraction
rng = random.Random(20240809)


def rand_invertible(span=2):
    while True:
        g = [[Q(rng.randint(-span, span)) for _ in range(7)] for _ in range(7)]
        if det(g):
            return g


def basis_vec(i):
    return tuple(Q(1 if j == i else 0) for j in range(7))


# -- KForm plumbing ---------------------------------------------------------

def test_kform_validation():
    with pytest.raises(ValueError):
        fo.KForm(3, {(2, 1, 3): Q(1)})
    with pytest.raises(ValueError):
        fo.KForm(3, {(1, 1, 2): Q(1)})
    with pytest.raises(ValueError):
        fo.KForm(2, {(0, 1): Q(1)})


def test_serialization_roundtrip():
    d = fo.OMEGA0.to_json()
    assert d["degree"] == 3 and d["dim"] == 7
    assert {"idx": [1, 2, 5], "c": "-2"} in d["terms"]
    assert fo.KForm.from_json(json.loads(json.dumps(d))) == fo.OMEGA0


def test_evaluate_alternating():
    u, v, w = (tuple(Q(rng.randint(-3, 3)) for _ in range(7)) for _ in range(3))
    assert fo.OMEGA1.evaluate([u, v, w]) == -fo.OMEGA1.evaluate([v, u, w])
    assert fo.OMEGA1.evaluate([u, u, w]) == 0


# -- wedge / hodge / interior -------------------------------------------------

def test_wedge_basics():
    e1 = fo.form(1, {(1,): 1})
    e2 = fo.form(1, {(2,): 1})
    assert fo.wedge(e1, e2) == fo.form(2, {(1, 2): 1})
    assert fo.wedge(e2, e1) == fo.form(2, {(1, 2): -1})
    assert fo.wedge(fo.OMEGA0, fo.OMEGA0).is_zero()
    with pytest.raises(fo.DegreeOverflow):
        fo.wedge(fo.coassociative_form(), fo.coassociative_form())


def test_wedge_graded_commutative():
    for _ in range(10):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        a = fo.KForm(p, {tuple(sorted(rng.sample(range(1, 8), p))): Q(rng.randint(-3, 3))})
        b = fo.KForm(q, {tuple(sorted(rng.sample(range(1, 8), q))): Q(rng.randint(-3, 3))})
        lhs = fo.wedge(a, b)
        rhs = fo.wedge(b, a).scale((-1) ** (p * q))
        assert lhs == rhs


def test_hodge_star_conventions():
    one = fo.KForm(0, {(): Q(1)})
    vol = fo.form(7, {tuple(range(1, 8)): 1})
    assert fo.hodge_star(one) == vol
    lam = fo.coassociative_form()
    assert fo.hodge_star(fo.OMEGA1) == -lam
    assert fo.hodge_star(fo.OMEGA1, (-1,) * 7) == lam
    for _ in range(15):
        k = rng.randint(0, 7)
        a = fo.KForm(k, {tuple(sorted(rng.sample(range(1, 8), k))): Q(rng.randint(-3, 3))})
        assert fo.hodge_star(fo.hodge_star(a)) == a


def test_interior_product():
    e4 = basis_vec(3)
    assert fo.interior_product(e4, fo.OMEGA1) == fo.form(2, {(1, 7): -1, (2, 6): -1, (3, 5): 1})
    e1 = basis_vec(0)
    assert fo.interior_product(e1, fo.form(2, {(2, 3): 1})).is_zero()
    for _ in range(10):
        u = tuple(Q(rng.randint(-3, 3)) for _ in range(7))
        a = fo.coassociative_form()
        assert fo.interior_product(u, fo.interior_product(u, a)).is_zero()


def test_coassociative_form_expansion():
    lam = fo.coassociative_form()
    assert lam == fo.form(4, {(1, 2, 4, 5): -1, (1, 2, 6, 7): 1, (1, 3, 4, 6): -1,
                              (1, 3, 5, 7): -1, (2, 3, 4, 7): 1, (2, 3, 5, 6): -1,
                              (4, 5, 6, 7): -1})
    vol = fo.form(7, {tuple(range(1, 8)): 1})
    assert fo.wedge(fo.OMEGA1, lam) == vol.scale(-7)


def test_coassociative_bilinear_identity():
    # exact constant is -6 (forced by the -2 eigenvalue of F on contractions)
    vol = fo.form(7, {tuple(range(1, 8)): 1})
    for _ in range(20):
        u = tuple(Q(rng.randint(-3, 3)) for _ in range(7))
        v = tuple(Q(rng.randint(-3, 3)) for _ in range(7))
        lhs = fo.wedge(fo.wedge(fo.OMEGA1, fo.interior_product(u, fo.OMEGA1)),
                       fo.interior_product(v, fo.OMEGA1))
        assert lhs == vol.scale(-6 * oc.DIVISION.norm_b(u, v))


# -- pullback -----------------------------------------------------------------

def test_pullback_identity_and_sign():
    ident = [[Q(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert fo.pullback(ident, fo.OMEGA0) == fo.OMEGA0
    neg = [[-x for x in row] for row in ident]
    assert fo.pullback(neg, fo.OMEGA1) == -fo.OMEGA1


def test_pullback_swap_example_against_direct_evaluation():
    # swap E1 <-> E2 and F1 <-> F2 (indices 2<->3 and 5<->6, 1-based)
    perm = {1: 1, 2: 3, 3: 2, 4: 4, 5: 6, 6: 5, 7: 7}
    g = [[Q(1) if perm[j + 1] == i + 1 else Q(0) for j in range(7)] for i in range(7)]
    got = fo.pullback(g, fo.OMEGA0)
    ginv = g  # an involution
    for idx in itertools.combinations(range(7), 3):
        cols = [[ginv[r][c] for r in range(7)] for c in idx]
        want = fo.OMEGA0.evaluate(cols)
        assert got.coeffs.get(tuple(i + 1 for i in idx), Q(0)) == want


def test_pullback_contravariant():
    for _ in range(6):
        g = rand_invertible()
        h = rand_invertible()
        assert fo.pullback(mat_mul(g, h), fo.OMEGA0) == \
            fo.pullback(g, fo.pullback(h, fo.OMEGA0))


def test_pullback_singular_rejected():
    with pytest.raises(Exception):
        fo.pullback([[Q(0)] * 7 for _ in range(7)], fo.OMEGA0)


# -- the Gram form -------------------------------------------------------------

def test_gram_fast_equals_brute_oracle():
    for om in (fo.OMEGA0, fo.OMEGA1, fo.form(3, {(1, 2, 3): 1, (4, 5, 6): 2})):
        assert fo.norm_from_form(om) == fo.norm_from_form_brute(om)


def test_gram_of_representatives():
    g0 = fo.norm_from_form(fo.OMEGA0)
    assert g0[0][0] == 1152
    assert g0 == [[-1152 * oc.SPLIT.norm_matrix[i][j] for j in range(7)] for i in range(7)]
    g1 = fo.norm_from_form(fo.OMEGA1)
    assert g1 == [[Q(-144 if i == j else 0) for j in range(7)] for i in range(7)]
    assert fo.norm_from_form(fo.form(3, {})) == [[Q(0)] * 7 for _ in range(7)]


def test_gram_scaling_law():
    for om in (fo.OMEGA0, fo.OMEGA1):
        g = fo.norm_from_form(om)
        for _ in range(6):
            p = rand_invertible()
            basis = [[p[r][c] for r in range(7)] for c in range(7)]
            lhs = fo.norm_from_form(om, basis)
            dp = det(p)
            rhs = mat_mul(transpose(p), mat_mul(g, p))
            assert lhs == [[dp * x for x in row] for row in rhs]


# -- the integer Gram against Fraction references --------------------------------

TRIPLES = tuple(itertools.combinations(range(1, 8), 3))


def _sign(p):
    return -1 if sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) & 1 else 1


def _gram_fraction_grouped(a, basis=None):
    """The 210-pattern grouped sum in Fraction arithmetic, as norm_from_form computed it
    before the integer table: the reference for the D^3 law."""
    if basis is not None:
        a = fo.transform([[basis[c][r] for c in range(7)] for r in range(7)], a)
    t = a.basis_table3()
    pats = []
    for s3 in itertools.combinations(range(7), 3):
        rest = [i for i in range(7) if i not in s3]
        for pair_a in itertools.combinations(rest, 2):
            p = pair_a + tuple(i for i in rest if i not in pair_a) + s3
            pats.append((_sign(p), p))
    g = [[Q(0)] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            acc = Q(0)
            for sg, p in pats:
                acc += sg * t[i][p[0]][p[1]] * t[j][p[2]][p[3]] * t[p[4]][p[5]][p[6]]
            g[i][j] = g[j][i] = 24 * acc
    return g


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def rational_forms(draw, max_terms=12):
    """3-forms with at least one coefficient whose denominator exceeds 1 (so D > 1)."""
    terms = draw(st.dictionaries(st.sampled_from(TRIPLES), coefficients, min_size=1, max_size=max_terms))
    idx = draw(st.sampled_from(TRIPLES))
    terms[idx] = draw(st.sampled_from([Q(1, 2), Q(-2, 3), Q(5, 6), Q(-7, 4)]))
    return fo.form(3, terms)


@st.composite
def invertible(draw, entries=st.integers(-2, 2)):
    g = draw(st.lists(st.lists(entries, min_size=7, max_size=7), min_size=7, max_size=7))
    for i in range(7):  # a dominant diagonal keeps g invertible
        g[i][i] = 7 * (1 if g[i][i] >= 0 else -1) + g[i][i]
    return [[Q(x) for x in row] for row in g]


@st.composite
def unimodular(draw):
    """A GL(7, Z) element: a signed permutation times elementary shears."""
    perm = draw(st.permutations(range(7)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=7, max_size=7))
    g = [[Q(signs[i]) if perm[i] == j else Q(0) for j in range(7)] for i in range(7)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3)),
                                 max_size=10)):
        if i != j:
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return g


@st.composite
def generic_forms(draw):
    """Pulled-back orbit representatives with rational coefficients, and their label."""
    rep, tag = draw(st.sampled_from([(fo.OMEGA0, fo.OrbitTag.SPLIT), (fo.OMEGA1, fo.OrbitTag.COMPACT)]))
    g = draw(invertible(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    return fo.transform(g, rep), tag


# -- transform: the integer contraction against evaluate -------------------------

def _transform_by_evaluate(g, a):
    """X .. -> a(gX, ..) one coefficient at a time through KForm.evaluate: the
    reference for the integer contraction."""
    cols = [[g[r][c] for r in range(7)] for c in range(7)]
    out = {}
    for idx in itertools.combinations(range(1, 8), a.degree):
        val = a.evaluate([cols[i - 1] for i in idx])
        if val:
            out[idx] = Fraction(val)
    return fo.KForm(a.degree, out)


@st.composite
def rational_matrices(draw):
    """Rational 7x7 matrices with a denominator above 1, singular in about half the draws."""
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    g = draw(st.lists(st.lists(entry, min_size=7, max_size=7), min_size=7, max_size=7))
    g[0][0] += Q(1, 7)
    if draw(st.booleans()):
        g[draw(st.integers(1, 6))] = list(g[0])
    return g


def zero_sparse_dense_or_tall_forms():
    tall = st.fractions(max_denominator=10 ** 20).map(lambda x: x * 10 ** 25 + Q(1, 10 ** 18 + 9))
    sparse = st.dictionaries(st.sampled_from(TRIPLES), coefficients, max_size=3)
    dense = st.dictionaries(st.sampled_from(TRIPLES), coefficients, min_size=20, max_size=35)
    tall_terms = st.dictionaries(st.sampled_from(TRIPLES), tall.filter(bool), min_size=1, max_size=12)
    return st.one_of(st.just({}), sparse, dense, tall_terms).map(lambda t: fo.form(3, t))


@settings(max_examples=60, deadline=None)
@given(a=zero_sparse_dense_or_tall_forms(), g=rational_matrices())
def test_transform_equals_evaluate_reference(a, g):
    got = fo.transform(g, a)
    assert got == _transform_by_evaluate(g, a)
    assert all(type(c) is Fraction for c in got.coeffs.values())


def test_transform_never_evaluates_and_is_for_3_forms_only(monkeypatch):
    calls = []
    real = fo.KForm.evaluate
    monkeypatch.setattr(fo.KForm, "evaluate", lambda self, vectors: calls.append(1) or real(self, vectors))
    g = rand_invertible()
    g[2][5] = Q(-3, 4)
    assert fo.pullback(g, fo.transform(g, fo.OMEGA1)) == fo.OMEGA1
    assert fo.norm_from_form(fo.OMEGA0, [[g[r][c] for r in range(7)] for c in range(7)])
    assert calls == []
    with pytest.raises(ValueError):
        fo.transform(g, fo.form(2, {(1, 2): 1}))


@pytest.mark.parametrize("with_basis", [False, True])
@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rational_forms(max_terms=6), p=invertible())
def test_integer_gram_equals_brute_oracle_on_rational_forms(with_basis, a, p):
    basis = [[p[r][c] for r in range(7)] for c in range(7)] if with_basis else None
    assert fo.norm_from_form(a, basis) == fo.norm_from_form_brute(a, basis)


@settings(max_examples=40, deadline=None)
@given(a=rational_forms(), p=invertible(), with_basis=st.booleans())
def test_integer_gram_equals_fraction_grouped_sum(a, p, with_basis):
    basis = [[p[r][c] for r in range(7)] for c in range(7)] if with_basis else None
    got = fo.norm_from_form(a, basis)
    assert got == _gram_fraction_grouped(a, basis)
    assert all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=15, deadline=None)
@given(ga=generic_forms())
def test_wedge_table_equals_one_mat_vec_per_pair(ga):
    a, _ = ga
    gram = fo.norm_from_form(a)
    t, ginv = a.basis_table3(), inverse(gram)
    want = [[list(mat_vec(ginv, t[i][j])) for j in range(7)] for i in range(7)]
    assert fo.analyze(a).wedge_table == want


@settings(max_examples=25, deadline=None)
@given(a=st.one_of(rational_forms(), generic_forms().map(lambda ga: ga[0])),
       t=st.fractions(min_value=Q(1, 7), max_value=20, max_denominator=7))
def test_signature_and_alpha_under_positive_rescaling(a, t):
    an, scaled = fo.analyze(a), fo.analyze(a.scale(t))
    assert scaled.signature == an.signature == fo.gram_signature(a.scale(t))
    if an.signature is not None:
        assert scaled.alpha == t ** -7 * an.alpha
        assert fo.normalization_constant(a.scale(t)) == t ** -7 * fo.normalization_constant(a)


@settings(max_examples=15, deadline=None)
@given(ga=generic_forms(), other=rational_forms(), g=unimodular())
def test_orbit_invariant_under_integer_pullbacks(ga, other, g):
    a, tag = ga
    assert fo.classify_orbit(fo.pullback(g, a)) is tag
    assert fo.classify_orbit(fo.pullback(g, other)) is fo.classify_orbit(other)


def test_one_gram_build_per_classify_op(tmp_path, monkeypatch):
    calls = []
    real = fo.norm_from_form

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fo, "norm_from_form", counting)
    g = [[Q(1 if i == j else 0) for j in range(7)] for i in range(7)]
    g[0][1], g[3][4], g[6][2] = Q(2, 3), Q(-1), Q(5, 2)
    cases = [(fo.transform(g, fo.OMEGA0), "split"), (fo.transform(g, fo.OMEGA1), "compact"),
             (fo.form(3, {(1, 2, 3): 1}), "not-generic")]
    for a, orbit in cases:
        f, out = tmp_path / "f.json", tmp_path / "o.json"
        f.write_text(json.dumps(a.to_json()))
        argvs = [["classify", str(f), "--out", str(out)]]
        if orbit != "not-generic":
            argvs.append(["classify", str(f), "--witness", "--precision", "40", "--out", str(out)])
        for argv in argvs:
            calls.clear()
            assert cli.main(argv) == 0
            assert json.loads(out.read_text())["orbit"] == orbit
            assert len(calls) == 1


# -- classification -------------------------------------------------------------

def test_classification_of_representatives():
    assert fo.classify_orbit(fo.OMEGA0) is fo.OrbitTag.SPLIT
    assert fo.classify_orbit(fo.OMEGA1) is fo.OrbitTag.COMPACT
    assert fo.classify_orbit(fo.form(3, {(1, 2, 3): 1})) is fo.OrbitTag.NOT_GENERIC
    assert fo.gram_signature(fo.form(3, {(1, 2, 3): 1})) is None


def test_classification_invariance():
    for om, tag in ((fo.OMEGA0, fo.OrbitTag.SPLIT), (fo.OMEGA1, fo.OrbitTag.COMPACT)):
        for _ in range(8):
            g = rand_invertible()
            assert fo.classify_orbit(fo.transform(g, om)) is tag
            t = Q(0)
            while not t:
                t = Q(rng.randint(-5, 5))
            assert fo.classify_orbit(om.scale(t)) is tag


def test_normalized_signatures():
    assert fo.normalized_signature(fo.OMEGA0) == (4, 3)
    assert fo.normalized_signature(fo.OMEGA1) == (0, 7)
    g = rand_invertible()
    assert fo.normalized_signature(fo.transform(g, fo.OMEGA0)) == (4, 3)
    assert fo.normalized_signature(fo.transform(g, fo.OMEGA1)) == (0, 7)


def test_normalization_constant_of_representatives():
    assert fo.normalization_constant(fo.OMEGA0) == Q(-1, 1152 ** 3)
    assert fo.normalization_constant(fo.OMEGA1) == Q(-1, 144 ** 3)


# -- witnesses -----------------------------------------------------------------

def test_witness_of_representatives_is_identity():
    for om, tag in ((fo.OMEGA0, fo.OrbitTag.SPLIT), (fo.OMEGA1, fo.OrbitTag.COMPACT)):
        w = fo.orbit_witness(om)
        assert w.target is tag
        assert not w.residual
        assert all(w.phi[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))


def _residual_of(witness, om, rep):
    cols = [[witness.phi[r][c] for r in range(7)] for c in range(7)]
    worst = BigFloat.of(0, witness.digits)
    for idx in itertools.combinations(range(1, 8), 3):
        val = om.evaluate([cols[i - 1] for i in idx])
        want = rep.coeffs.get(idx, Q(0))
        d = abs(BigFloat.of(val, witness.digits) - BigFloat.of(want, witness.digits))
        if worst < d:
            worst = d
    return worst


def test_witness_det2_example():
    # g with determinant exactly 2
    g = [[Q(1 if i == j else 0) for j in range(7)] for i in range(7)]
    g[0][0] = Q(2)
    for _ in range(10):  # shear rows to make it messy while keeping det 2
        i, j = rng.sample(range(7), 2)
        c = Q(rng.randint(-2, 2))
        for k in range(7):
            g[i][k] += c * g[j][k]
    assert det(g) == 2
    om = fo.transform(g, fo.OMEGA0)
    w = fo.orbit_witness(om, 60)
    assert w.target is fo.OrbitTag.SPLIT
    assert w.residual <= tolerance(60)
    assert _residual_of(w, om, fo.OMEGA0) <= tolerance(60)


def test_witness_both_orbits_independent_residual():
    for rep in (fo.OMEGA0, fo.OMEGA1):
        g = rand_invertible()
        om = fo.transform(g, rep)
        w = fo.orbit_witness(om, 60)
        assert w.residual <= tolerance(60)
        assert _residual_of(w, om, rep) <= tolerance(60)


def test_witness_json():
    g = rand_invertible()
    w = fo.orbit_witness(fo.transform(g, fo.OMEGA1), 60)
    d = w.to_json()
    assert d["target"] == "compact"
    assert len(d["phi"]) == 7 and len(d["phi"][0]) == 7
    assert "E" in d["residual"] or d["residual"] == "0E+0"


def test_witness_rejects_degenerate():
    with pytest.raises(ValueError):
        fo.orbit_witness(fo.form(3, {(1, 2, 3): 1}))


def test_precision_exhausted_raised_on_impossible_tolerance():
    class Tiny(Exception):
        pass
    # a witness at 60 digits whose residual gate is checked against digits=60;
    # simulate exhaustion by verifying the raise branch through a monkeypatch
    import g2models.forms as fmod
    orig = fmod.tolerance
    try:
        fmod.tolerance = lambda digits: BigFloat.of(0, digits)
        g = rand_invertible()
        om = fo.transform(g, fo.OMEGA0)
        with pytest.raises(fo.PrecisionExhausted):
            fmod.orbit_witness(om, 60)
    finally:
        fmod.tolerance = orig


def _exact_residual(a, phi, rep):
    """max over basis triples of |a(phi e_i, phi e_j, phi e_k) - rep_ijk| for printed phi, exact.

    Fractions and the literal 3x3 minors of phi, independent of the integer
    contraction in `forms`.
    """
    m = [[Q(Decimal(x)) for x in row] for row in phi]
    worst = Q(0)
    for ijk in TRIPLES:
        cols = [i - 1 for i in ijk]
        acc = Q(0)
        for pqr, c in a.coeffs.items():
            (x, y, z), (u, v, w), (g, h, k) = ([m[p - 1][col] for col in cols] for p in pqr)
            acc += c * (x * (v * k - w * h) - y * (u * k - w * g) + z * (u * h - v * g))
        worst = max(worst, abs(acc - rep.coeffs.get(ijk, Q(0))))
    return worst


@settings(max_examples=20, deadline=None)
@given(ga=generic_forms(), digits=st.integers(10, 120))
def test_printed_residual_bounds_the_exact_residual_within_1_percent(ga, digits):
    a, tag = ga
    w = fo.orbit_witness(a, digits).to_json()
    exact = _exact_residual(a, w["phi"], fo.OMEGA0 if tag is fo.OrbitTag.SPLIT else fo.OMEGA1)
    printed = Q(Decimal(w["residual"]))
    assert exact <= printed <= Q(101, 100) * exact
    assert printed <= Q(1, 10 ** (digits // 2))


# -- the exact frame against the BigFloat frame it replaced ------------------------

def _bf_rref(m, tol):
    """Gauss-Jordan with partial pivoting, magnitudes <= tol taken as 0: the old BigFloat rref."""
    a = [list(row) for row in m]
    piv, r = [], 0
    for c in range(len(a[0])):
        if r == len(a):
            break
        mag, best = max(((abs(a[i][c]), i) for i in range(r, len(a))), key=lambda t: (t[0], -t[1]))
        if mag <= tol:
            continue
        a[r], a[best] = a[best], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and not abs(a[i][c]) <= tol:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def _bigfloat_frame(a, digits):
    """The witness frame phi (rows) as `orbit_witness` built it entirely in BigFloat,
    with a BigFloat wedge table, Gram form and rref: the reference for the exact frame."""
    an = fo.analyze(a)
    gram, p, d, alpha, tab_q = an.gram, an.p, an.diag, an.alpha, an.wedge_table
    s = real_cube_root(alpha, digits)
    tol = tolerance(digits)

    def bf(x):
        return BigFloat.of(x, digits)

    inv_s = bf(1) / s
    tab = [[[inv_s * bf(tab_q[i][j][k]) for k in range(7)] for j in range(7)] for i in range(7)]
    ngram = [[s * bf(gram[i][j]) for j in range(7)] for i in range(7)]
    cols_p = [[Q(p[r][c]) for r in range(7)] for c in range(7)]

    def wedge(u, v):
        return [sum((u[i] * v[j] * tab[i][j][k] for i in range(7) for j in range(7)), bf(0)) for k in range(7)]

    def nb(u, v):
        return sum((u[i] * ngram[i][j] * v[j] for i in range(7) for j in range(7)), bf(0))

    if an.orbit is fo.OrbitTag.SPLIT:
        idx0 = next(i for i in range(7) if d[i] != 0 and (d[i] > 0) == (alpha < 0))
        x0 = [bf(v) for v in cols_p[idx0]]
        scale = (-nb(x0, x0)).sqrt()
        x = [v / scale for v in x0]
        fhat = [[bf(0)] * 7 for _ in range(7)]
        for j in range(7):
            col = wedge(x, [bf(1 if r == j else 0) for r in range(7)])
            for r in range(7):
                fhat[r][j] = col[r] - (1 if r == j else 0)
        red, piv = _bf_rref(fhat, tol)
        null = []
        for free in (c for c in range(7) if c not in piv):
            v = [bf(0)] * 7
            v[free] = bf(1)
            for row, pc in enumerate(piv):
                v[pc] = -red[row][free]
            null.append(v)
        assert len(null) == 3
        t = bf(a.evaluate(null))
        ys = [[v * (bf(-4) / t) for v in null[0]], null[1], null[2]]
        zs = [[v * bf(Q(1, 2)) for v in wedge(ys[(i + 1) % 3], ys[(i + 2) % 3])] for i in range(3)]
        cols = [x] + ys + zs
    else:
        x0 = [bf(v) for v in cols_p[0]]
        x = [v / nb(x0, x0).sqrt() for v in x0]

        def ortho_unit(fixed):
            for cand in cols_p[1:] + [basis_vec(j) for j in range(7)]:
                u = [bf(v) for v in cand]
                for f in fixed:
                    c = nb(u, f)
                    u = [a_ - c * b_ for a_, b_ in zip(u, f)]
                nu = nb(u, u)
                if tol < nu:
                    return [v / nu.sqrt() for v in u]
            raise AssertionError("stalled")

        x1 = ortho_unit([x])
        fy1 = wedge(x, x1)
        x2 = ortho_unit([x, x1, fy1])
        x3 = wedge(x1, x2)
        cols = [x1, x2, x3, fy1, wedge(x, x2), wedge(x, x3), x]
    return [[cols[c][r] for c in range(7)] for r in range(7)]


def _rho_is_square(a):
    an = fo.analyze(a)
    d, alpha = an.diag, an.alpha
    dd = next(x for x in d if (x > 0) == (alpha < 0))
    return type(sqrt_q(-alpha * dd)) is Q


def _differential_forms(kind):
    """Pulled-back split forms whose rho is or is not a rational square, or compact forms."""
    if kind == "compact":
        return generic_forms().filter(lambda ga: ga[1] is fo.OrbitTag.COMPACT).map(lambda ga: ga[0])
    split = st.one_of(unimodular(), invertible(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    want = kind == "split-square"
    return split.map(lambda g: fo.transform(g, fo.OMEGA0)).filter(lambda a: _rho_is_square(a) == want)


@pytest.mark.parametrize("kind", ["split-square", "split-nonsquare", "compact"])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data(), digits=st.integers(10, 200))
def test_exact_frame_equals_bigfloat_reference(kind, data, digits):
    a = data.draw(_differential_forms(kind))
    w = fo.orbit_witness(a, digits)
    assert w.target is fo.classify_orbit(a)
    ref = _bigfloat_frame(a, digits)
    new = [[Q(x.val) for x in row] for row in w.phi]
    old = [[Q(x.val) for x in row] for row in ref]
    top = max(abs(x) for row in new for x in row)
    assert max(abs(x - y) for rn, ro in zip(new, old) for x, y in zip(rn, ro)) <= top / 10 ** digits


@pytest.mark.parametrize("num, den, want", [
    (1, 3, "3.34E-1"), (2, 3, "6.67E-1"), (100, 1, "1.00E+2"), (1001, 1, "1.01E+3"),
    (999999, 1000, "1.00E+3"), (999, 10 ** 50, "9.99E-48"), (10 ** 60 + 1, 7, "1.43E+59"),
])
def test_ceil_3_digits(num, den, want):
    got = fo._ceil_3_digits(num, den)
    assert f"{got:E}" == want
    assert Q(num, den) <= Q(got) < Q(101, 100) * Q(num, den)


@pytest.mark.parametrize("rep", [fo.OMEGA0, fo.OMEGA1], ids=["split", "compact"])
def test_witness_output_does_not_depend_on_term_order(tmp_path, rep):
    g = [[Q(1 if i == j else 0) for j in range(7)] for i in range(7)]
    # the split form below printed different phi digits for its reversed terms
    # when the witness summed the terms in file order
    g[1][2], g[3][1], g[0][3], g[6][0], g[4][2] = Q(-3, 2), Q(-6), Q(1, 3), Q(-4, 5), Q(-3, 2)
    terms = fo.transform(g, rep).to_json()["terms"]
    outputs = set()
    for order in (terms, terms[::-1], random.Random(7).sample(terms, len(terms))):
        f, out = tmp_path / "f.json", tmp_path / "o.json"
        f.write_text(json.dumps({"dim": 7, "degree": 3, "terms": order}))
        assert cli.main(["classify", str(f), "--witness", "--precision", "60", "--out", str(out)]) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_witness_op_evaluates_the_form_at_most_once(tmp_path, monkeypatch):
    g = [[Q(1 if i == j else 0) for j in range(7)] for i in range(7)]
    g[0][1], g[3][4], g[6][2] = Q(2, 3), Q(-1), Q(5, 2)
    cases = [(fo.transform(g, fo.OMEGA0), 1), (fo.transform(g, fo.OMEGA1), 0)]
    calls = []
    real = fo.KForm.evaluate
    monkeypatch.setattr(fo.KForm, "evaluate", lambda self, vectors: calls.append(1) or real(self, vectors))
    for a, most in cases:
        f = tmp_path / "f.json"
        f.write_text(json.dumps(a.to_json()))
        calls.clear()
        assert cli.main(["classify", str(f), "--witness", "--precision", "200", "--out",
                         str(tmp_path / "o.json")]) == 0
        assert len(calls) <= most


# -- the F operator --------------------------------------------------------------

def test_f_operator_matrix_and_spectrum():
    m = fo.f_operator_matrix()
    assert all(m[i][i] == 0 for i in range(21))
    spec = fo.f_operator_spectrum()
    assert len(spec[Q(1)]) == 14
    assert len(spec[Q(-2)]) == 7
    idx = {p: t for t, p in enumerate(fo.TWO_FORM_INDEX)}
    w4 = [(1, 7), (2, 6), (3, 5)]
    sub = [[m[idx[p]][idx[q]] for q in w4] for p in w4]
    assert sub == [[Q(0), Q(-1), Q(1)], [Q(-1), Q(0), Q(1)], [Q(1), Q(1), Q(0)]]


def test_f_plus_one_eigenspace_is_derivation_algebra():
    from g2models.derivations import DerivationAlgebra, derivations_of_form
    from g2models.linalg import same_span

    spec = fo.f_operator_spectrum()
    mats = [fo.bivector_to_matrix(fo.two_form_from_coords(v)) for v in spec[Q(1)]]
    gc = derivations_of_form(fo.OMEGA1)
    assert same_span([sum(m, []) for m in mats],
                     [sum([list(r) for r in b], []) for b in gc.basis])


def test_f_minus_two_eigenspace_is_cross_multiplications():
    from g2models.linalg import same_span

    spec = fo.f_operator_spectrum()
    minus = [fo.bivector_to_matrix(fo.two_form_from_coords(v)) for v in spec[Q(-2)]]
    cross = []
    for i in range(7):
        cols = [oc.DIVISION.cross(basis_vec(i), basis_vec(j)) for j in range(7)]
        cross.append([[cols[j][r] for j in range(7)] for r in range(7)])
    assert same_span([sum(m, []) for m in minus], [sum(m, []) for m in cross])


def test_bivector_matrix_roundtrip():
    a = fo.form(2, {(1, 4): Q(2), (3, 7): Q(-5)})
    assert fo.matrix_to_bivector(fo.bivector_to_matrix(a)) == a


# -- exact symmetries have determinant 1 ---------------------------------------

def test_stabilizer_elements_have_det_one():
    from g2models import homogeneous as hg

    found = []
    for (i, j, k) in ((0, 1, 6), (1, 0, 6), (6, 0, 1), (0, 3, 5)):
        try:
            found.append(hg.basic_triple_to_g2(basis_vec(i), basis_vec(j), basis_vec(k)))
        except hg.NotBasicTriple:
            continue
    y = tuple(Q(x, 2) for x in (0, 0, 1, 0, 0, 1, 0))
    found.append(hg.split_transitivity_witness(y))
    assert len(found) >= 3
    for g in found:
        assert det(g) == 1
