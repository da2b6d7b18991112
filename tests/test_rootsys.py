from fractions import Fraction

import pytest

from g2models import rootsys as rs

# independent oracle: close the simple-reflection matrices under products and
# sweep the simple roots through the resulting group
def _reflection_matrices(c: rs.CartanMatrix):
    n = c.rank
    mats = []
    for i in range(n):
        m = [[1 if k == j else 0 for j in range(n)] for k in range(n)]
        for j in range(n):
            m[i][j] -= c[j, i]
        mats.append(tuple(tuple(row) for row in m))
    return mats


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _group_closure(gens, cap=200000):
    ident = tuple(tuple(1 if i == j else 0 for j in range(len(gens[0])))
                  for i in range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = _matmul(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        assert len(seen) < cap
    return seen


def _roots_by_orbit(c: rs.CartanMatrix):
    group = _group_closure(_reflection_matrices(c))
    n = c.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    out = set()
    for g in group:
        for s in simples:
            out.add(tuple(sum(g[i][j] * s[j] for j in range(n)) for i in range(n)))
    return out


def _roots_by_reflection_bfs(c: rs.CartanMatrix):
    """The same orbit without building W: breadth-first search over root vectors
    under the simple-reflection matrices."""
    gens = _reflection_matrices(c)
    n = c.rank
    seen = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                w = tuple(sum(s[i][j] * v[j] for j in range(n)) for i in range(n))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_g2_cartan_matrix():
    c = rs.cartan_of_type("G", 2)
    assert c.entries == ((2, -1), (-3, 2))


def test_a1_is_trivial_chain():
    c = rs.cartan_of_type("A", 1)
    assert c.entries == ((2,),)
    assert {r.coords for r in rs.roots_from_cartan(c)} == {(1,), (-1,)}


def test_b3_has_single_minus_two():
    c = rs.cartan_of_type("B", 3)
    entries = [c[i, j] for i in range(3) for j in range(3) if i != j]
    assert entries.count(-2) == 1
    assert c[1, 2] == -2  # long root row against the short root
    assert len(rs.positive_roots(c)) == 9


def test_g2_roots_exactly():
    roots = rs.roots_from_cartan(rs.G2_CARTAN)
    want = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert {r.coords for r in roots if r.height > 0} == want
    assert {r.coords for r in roots} == want | {tuple(-x for x in w) for w in want}
    assert sorted(r.height for r in roots if r.height > 0) == [1, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("fam,rank,count", [
    ("A", 2, 6), ("A", 3, 12), ("B", 3, 18), ("C", 3, 18),
    ("D", 4, 24), ("F", 4, 48), ("G", 2, 12), ("E", 6, 72),
])
def test_root_counts_match_reflection_orbit_oracle(fam, rank, count):
    c = rs.cartan_of_type(fam, rank)
    roots = rs.roots_from_cartan(c)
    assert len(roots) == count
    want = _roots_by_reflection_bfs(c)
    # W(E6) has 51,840 elements; on the smaller types the two oracles must agree
    if fam != "E":
        assert want == _roots_by_orbit(c)
    assert {r.coords for r in roots} == want


@pytest.mark.parametrize("fam,rank,order", [("G", 2, 12), ("A", 1, 2), ("A", 2, 6),
                                            ("B", 2, 8)])
def test_weyl_orders_match_matrix_closure_oracle(fam, rank, order):
    c = rs.cartan_of_type(fam, rank)
    assert len(rs.weyl_group(c)) == order
    assert len(_group_closure(_reflection_matrices(c))) == order


def test_weyl_elements_are_closed_permutations():
    c = rs.G2_CARTAN
    elems = set(rs.weyl_group(c))
    assert tuple(range(12)) in elems
    for g in elems:
        for h in elems:
            assert tuple(g[h[k]] for k in range(12)) in elems


def test_root_axioms_r2_r3_r4():
    c = rs.cartan_of_type("G", 2)
    roots = rs.roots_from_cartan(c)
    form = rs.InnerForm.from_cartan(c)
    coords = {r.coords for r in roots}
    for a in roots:
        # R2: only +-a are proportional to a
        for b in roots:
            k = form.pairing(b.coords, a.coords)
            assert isinstance(k, int)  # R3
            assert form.reflect(b.coords, a.coords) in coords  # R4
        same_line = {b.coords for b in roots
                     if b.coords[0] * a.coords[1] == b.coords[1] * a.coords[0]}
        assert same_line == {a.coords, tuple(-x for x in a.coords)}


def test_reconstruction_coefficients_single_sign():
    for fam, rank in (("G", 2), ("F", 4), ("D", 4)):
        for r in rs.roots_from_cartan(rs.cartan_of_type(fam, rank)):
            signs = {1 if x > 0 else -1 for x in r.coords if x}
            assert len(signs) == 1


def test_g2_metric_facts():
    form = rs.InnerForm.from_cartan(rs.G2_CARTAN)
    a1, a2 = (1, 0), (0, 1)
    assert form.inner(a1, a1) == 2  # short roots pinned to squared length 2
    assert form.inner(a2, a2) == 6
    assert 4 * form.inner(a1, a2) ** 2 == 3 * form.inner(a1, a1) * form.inner(a2, a2)
    assert form.inner(a1, a2) < 0


def test_unknown_type_errors():
    for fam, rank in (("Z", 9), ("B", 1), ("C", 2), ("D", 3), ("E", 9), ("F", 5)):
        with pytest.raises(rs.UnknownType):
            rs.cartan_of_type(fam, rank)


def test_affine_matrix_raises_not_finite_type():
    c = rs.CartanMatrix(((2, -2), (-2, 2)), label="A1affine")
    with pytest.raises(rs.NotFiniteType):
        rs.roots_from_cartan(c)


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        rs.CartanMatrix(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        rs.CartanMatrix(((2, -1), (0, 2)))


def test_json_emission():
    d = rs.roots_to_json(rs.G2_CARTAN)
    assert d["type"] == "G2"
    assert {"coords": [1, 0], "height": 1} in d["roots"]
    assert len(d["roots"]) == 12


def _fraction_inner(form, a, b):
    return sum((Fraction(ai) * form.matrix[i][j] * Fraction(bj)
                for i, ai in enumerate(a) for j, bj in enumerate(b)), Fraction(0))


@pytest.mark.parametrize("family, rank", [("G", 2), ("B", 3), ("C", 3), ("F", 4)])
def test_integer_pairing_matches_fraction_definition(family, rank):
    c = rs.cartan_of_type(family, rank)
    form = rs.InnerForm.from_cartan(c)
    roots = [r.coords for r in rs.roots_from_cartan(c)]
    for b in roots:
        for a in roots:
            want = 2 * _fraction_inner(form, b, a) / _fraction_inner(form, a, a)
            assert want.denominator == 1
            assert form.inner(b, a) == _fraction_inner(form, b, a)
            assert form.pairing(b, a) == want and type(form.pairing(b, a)) is int
            assert form.reflect(b, a) == tuple(x - want * y for x, y in zip(b, a))


def test_integer_pairing_with_rational_matrix():
    # a common denominator of 2 is cleared and cancels; 2(b, a)/(a, a) = 1/2 still raises
    form = rs.InnerForm(((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(3, 2))))
    assert form.inner((1, 1), (1, 1)) == 2 == _fraction_inner(form, (1, 1), (1, 1))
    assert form.pairing((1, 1), (0, 1)) == 2
    assert form.pairing((1, 0), (1, 0)) == 2
    with pytest.raises(ValueError, match="not integral"):
        form.pairing((1, 0), (1, 1))
