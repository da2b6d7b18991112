"""Named machine checks behind the ``check`` CLI command.

Every identity the library asserts is packaged as a (check-id, callable)
pair; callables take a seeded Random and return a human-readable detail
string, raising CheckFailure with a message when the property does not hold.
Randomized checks draw small integers so everything stays exact.  The pytest
acceptance suite reruns the heavy ones at their full advertised sizes; the
CLI defaults keep each check at smoke scale.
"""

from __future__ import annotations

import fnmatch
import itertools
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import compactmodel as cm
from . import forms as fo
from . import homogeneous as hg
from . import octonions as oc
from . import rootsys as rs
from . import spinor as sp
from . import splitmodel as sm
from .algebra import (AlgebraTable, anticommutative, generated_ideal_dim,
                      jacobi_holds_everywhere)
from .derivations import (DerivationAlgebra, annihilator_stabilizer,
                          derivations_of_algebra, derivations_of_form, skew_adjoint_ok)
from .linalg import (coords_in_basis, det, mat_mul, mat_vec, nullspace,
                     rank, same_span, span_contains, sym_signature, transpose)

Q0 = Fraction(0)
Q1 = Fraction(1)


class CheckFailure(Exception):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


def _require(cond: bool, msg: str):
    if not cond:
        _fail(msg)


# -- randomized input helpers -------------------------------------------------

def rand_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span))


def rand_vec(rng: random.Random, n: int = 7, span: int = 3) -> Tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, span) for _ in range(n))


def rand_matrix(rng: random.Random, n: int = 7, span: int = 3):
    return [[rand_fraction(rng, span) for _ in range(n)] for _ in range(n)]


def rand_invertible(rng: random.Random, n: int = 7, span: int = 3):
    while True:
        m = rand_matrix(rng, n, span)
        if det(m) != 0:
            return m


def rand_octonion(rng: random.Random, space: oc.CrossProductSpace, span: int = 3) -> oc.Octonion:
    return space.octonion(rand_fraction(rng, span), rand_vec(rng, 7, span))


def rand_unit_octonion(rng: random.Random, space: oc.CrossProductSpace) -> oc.Octonion:
    """Rational point of the unit-norm quadric: x = (1 - n(v) - 2v) / (1 + n(v))."""
    while True:
        v = rand_vec(rng, 7, 2)
        nv = space.norm_q(v)
        if 1 + nv == 0:
            continue
        den = 1 + nv
        x = space.octonion(Fraction(1 - nv, den), tuple(Fraction(-2, den) * t for t in v))
        if x.norm() == 1:
            return x


# -- numerics -----------------------------------------------------------------

def check_rank_nullity(rng: random.Random, trials: int = 12) -> str:
    for _ in range(trials):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
        _require(rank(m) + len(nullspace(m)) == cols, "rank-nullity violated")
        for v in nullspace(m):
            _require(all(sum(r[i] * v[i] for i in range(cols)) == 0 for r in m),
                     "kernel vector fails")
    return f"{trials} random matrices"


def check_signature_congruence(rng: random.Random, trials: int = 10) -> str:
    base = [[Q0] * 5 for _ in range(5)]
    for i, v in enumerate((-1, -1, 1, 1, 1)):
        base[i][i] = Fraction(v)
    for _ in range(trials):
        p = rand_invertible(rng, 5, 2)
        m = mat_mul(transpose(p), mat_mul(base, p))
        _require(sym_signature(m) == (2, 3), "congruence changed the signature")
    return f"{trials} congruences keep (2,3)"


# -- root systems ---------------------------------------------------------------

def check_g2_roots(rng: random.Random) -> str:
    c = rs.cartan_of_type("G", 2)
    roots = rs.roots_from_cartan(c)
    _require(len(roots) == 12, f"expected 12 roots, got {len(roots)}")
    pos = sorted(r.height for r in roots if r.height > 0)
    _require(pos == [1, 1, 2, 3, 4, 5], f"bad height multiset {pos}")
    want = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    have = {r.coords for r in roots if r.height > 0}
    _require(have == want, "positive root set differs")
    _require(len(rs.weyl_group(c)) == 12, "Weyl order is not 12")
    return "12 roots, heights {1,1,2,3,4,5}, Weyl order 12"


def check_root_axioms(rng: random.Random) -> str:
    for fam, rk, count in (("A", 2, 6), ("B", 3, 18), ("G", 2, 12), ("F", 4, 48)):
        c = rs.cartan_of_type(fam, rk)
        roots = rs.roots_from_cartan(c)
        _require(len(roots) == count, f"{fam}{rk}: {len(roots)} roots")
        form = rs.InnerForm.from_cartan(c)
        coord_set = {r.coords for r in roots}
        for r in roots:
            signs = {1 if x > 0 else -1 for x in r.coords if x}
            _require(len(signs) == 1, "mixed-sign root coordinates")
            for r2 in roots:
                form.pairing(r2.coords, r.coords)  # integrality (R3)
                _require(form.reflect(r2.coords, r.coords) in coord_set,
                         "reflection leaves the root set")
        for r in roots:
            multiples = {k for k in coord_set
                         if span_contains([list(r.coords)], list(k))}
            _require(multiples == {r.coords, tuple(-x for x in r.coords)},
                     "R2 violated")
    return "R2/R3/R4 on A2, B3, G2, F4"


def check_g2_metric_facts(rng: random.Random) -> str:
    form = rs.InnerForm.from_cartan(rs.G2_CARTAN)
    a1, a2 = (1, 0), (0, 1)
    _require(form.inner(a2, a2) == 3 * form.inner(a1, a1), "length ratio is not 3")
    lhs = 4 * form.inner(a1, a2) ** 2
    rhs = 3 * form.inner(a1, a1) * form.inner(a2, a2)
    _require(lhs == rhs and form.inner(a1, a2) < 0, "angle is not 150 degrees")
    return "long^2/short^2 = 3; cos^2 = 3/4 with negative product"


# -- split model ----------------------------------------------------------------

def check_split_closure_jacobi(rng: random.Random) -> str:
    t = sm.structure_table()
    _require(anticommutative(t), "bracket is not anticommutative")
    _require(jacobi_holds_everywhere(t), "Jacobi fails on a basis triple")
    return "closure + Jacobi on all 14^3 triples"


def check_split_decomposition(rng: random.Random) -> str:
    rd = sm.root_decomposition()
    _require(len(rd["0"]) == 2, "Cartan part must be 2-dimensional")
    _require(sum(len(v) for v in rd.values()) == 14, "root spaces do not fill the algebra")
    e12 = rd["e1-e2"][0]
    _require(e12.x == (Q0,) * 3 and e12.y == (Q0,) * 3 and e12.a[0][1] != 0,
             "e1-e2 root vector is not M_(E12,0,0)")
    me3 = rd["-e3"][0]
    _require(me3.a == ((Q0,) * 3,) * 3 and me3.x == (Q0,) * 3 and me3.y[2] != 0,
             "-e3 root vector is not M_(0,0,e3)")
    wd = sm.weight_decomposition()
    _require(all(len(v) == 1 for v in wd.values()) and len(wd) == 7, "weights are not 7 lines")
    return "12 root lines + 2-dim Cartan; 7 weight lines"


def check_killing_signatures(rng: random.Random) -> str:
    s_split = sm.killing_signature()
    _require(s_split == (6, 8), f"split Killing signature {s_split}")
    s_comp = cm.killing_signature()
    _require(s_comp == (14, 0), f"compact Killing signature {s_comp}")
    return "split (6,8) diff +2; compact (14,0) diff -14"


def check_z3_isomorphism(rng: random.Random) -> str:
    basis = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [[Q0] * 3 for _ in range(3)]
                m[i][j] = Q1
                basis.append(sm.Z3Element.of(m, (0,) * 3, (0,) * 3))
    basis.append(sm.Z3Element.of([[1, 0, 0], [0, -1, 0], [0, 0, 0]], (0,) * 3, (0,) * 3))
    basis.append(sm.Z3Element.of([[0, 0, 0], [0, 1, 0], [0, 0, -1]], (0,) * 3, (0,) * 3))
    for k in range(3):
        u = tuple(Q1 if t == k else Q0 for t in range(3))
        basis.append(sm.Z3Element.of(((Q0,) * 3,) * 3, u, (0,) * 3))
    for k in range(3):
        u = tuple(Q1 if t == k else Q0 for t in range(3))
        basis.append(sm.Z3Element.of(((Q0,) * 3,) * 3, (0,) * 3, u))
    for p in basis:
        for q in basis:
            lhs = sm.z3_to_split(sm.z3_bracket(p, q))
            rhs = sm.bracket(sm.z3_to_split(p), sm.z3_to_split(q))
            _require((lhs - rhs).is_zero(), "graded model and matrix model disagree")
    return "bracket homomorphism on all 14x14 basis pairs"


def check_split_so_invariance(rng: random.Random) -> str:
    n = [list(r) for r in oc.SPLIT.norm_matrix]
    for b in sm.SPLIT_BASIS:
        _require(skew_adjoint_ok(b.realize(), n), "model element not skew for n")
    return "all 14 basis matrices lie in so(V, n)"


def check_split_simplicity(rng: random.Random) -> str:
    t = sm.structure_table()
    for seed_idx in range(14):
        _require(generated_ideal_dim(t, seed_idx) == 14, "proper ideal found")
    return "ideal generated by each basis element is everything"


# -- octonions ------------------------------------------------------------------

def check_octonion_tables(rng: random.Random) -> str:
    d = oc.DIVISION
    e = d.basis_octonion
    for i in range(1, 8):
        _require(e(i) * e(i) == -d.unit(), "e_i^2 must be -1")
    fano = {(1, 4): 7, (2, 5): 7, (3, 6): 7, (1, 2): 3, (1, 6): 5, (2, 4): 6, (3, 5): 4}
    for (i, j), k in fano.items():
        _require(e(i) * e(j) == e(k), f"e{i}e{j} != e{k}")
        _require(e(j) * e(k) == e(i), "cyclic rule fails")
        _require(e(j) * e(i) == -e(k), "anticommutativity fails")
    s = oc.SPLIT
    E0, E, F = s.basis_octonion(1), [None] + [s.basis_octonion(i) for i in (2, 3, 4)], \
        [None] + [s.basis_octonion(i) for i in (5, 6, 7)]
    _require(E0 * E0 == s.unit(), "E0^2 must be 1")
    for i in (1, 2, 3):
        v = s.cross(E0.vec, E[i].vec)
        _require(v == E[i].vec, "E0 x Ei = Ei fails")
        _require(s.cross(E[i].vec, F[i].vec) == tuple(2 * x for x in E0.vec), "Ei x Fi = 2E0 fails")
        _require(s.triple(E0.vec, E[i].vec, F[i].vec) == -2, "triple {E0,Ei,Fi} != -2")
    _require(s.triple(E[1].vec, E[2].vec, E[3].vec) == -4, "{E1,E2,E3} != -4")
    _require(s.triple(F[1].vec, F[2].vec, F[3].vec) == 4, "{F1,F2,F3} != 4")
    for i in (1, 2, 3):
        j = i % 3 + 1
        k = j % 3 + 1
        _require(s.cross(E[i].vec, E[j].vec) == tuple(2 * x for x in F[k].vec), "Ei x Ej fails")
        _require(s.cross(F[i].vec, F[j].vec) == tuple(-2 * x for x in E[k].vec), "Fi x Fj fails")
    return "Fano table and split cross/triple table match"


def check_cross_axioms(rng: random.Random, trials: int = 60) -> str:
    for space in (oc.SPLIT, oc.DIVISION):
        for _ in range(trials):
            u = rand_vec(rng)
            v = rand_vec(rng)
            c = space.cross(u, v)
            _require(space.norm_b(c, u) == 0 and space.norm_b(c, v) == 0,
                     "cross product not orthogonal to factors")
            _require(space.norm_q(c) == space.norm_q(u) * space.norm_q(v) - space.norm_b(u, v) ** 2,
                     "norm composition rule fails")
            _require(space.cross(u, u) == (Q0,) * 7, "cross not alternating")
    return f"{trials} pairs in both spaces"


def check_composition(rng: random.Random, trials: int = 200) -> str:
    for space in (oc.SPLIT, oc.DIVISION):
        for _ in range(trials):
            x = rand_octonion(rng, space)
            y = rand_octonion(rng, space)
            _require((x * y).norm() == x.norm() * y.norm(), "norm is not multiplicative")
    return f"n(xy) = n(x)n(y) on {trials} pairs per algebra"


def check_alternative(rng: random.Random, trials: int = 150) -> str:
    for space in (oc.SPLIT, oc.DIVISION):
        for _ in range(trials):
            x, y, z = (rand_octonion(rng, space) for _ in range(3))
            a = oc.associator(x, y, z)
            _require(oc.associator(y, x, z) == -a and oc.associator(x, z, y) == -a,
                     "associator is not alternating")
            _require(oc.associator(x, x, y).is_zero(), "left alternativity fails")
            _require(oc.associator(x, y, y).is_zero(), "right alternativity fails")
    return f"alternating associator on {trials} triples per algebra"


def check_moufang(rng: random.Random, trials: int = 150) -> str:
    for space in (oc.SPLIT, oc.DIVISION):
        for _ in range(trials):
            x, y, a = (rand_octonion(rng, space) for _ in range(3))
            _require(((x * a) * x) * y == x * (a * (x * y)), "first Moufang identity fails")
            _require((x * y) * (a * x) == (x * (y * a)) * x, "second Moufang identity fails")
    return f"both Moufang identities on {trials} triples per algebra"


def check_conjugation(rng: random.Random, trials: int = 150) -> str:
    for space in (oc.SPLIT, oc.DIVISION):
        for _ in range(trials):
            x = rand_octonion(rng, space)
            y = rand_octonion(rng, space)
            _require(x.conjugate() * y.conjugate() == (y * x).conjugate(),
                     "conjugation is not an anti-automorphism")
            lhs = x * x - x.scale(x.trace()) + space.unit().scale(x.norm())
            _require(lhs.is_zero(), "quadratic equation fails")
    return f"conj(x)conj(y) = conj(yx) and x^2 - tr x + n = 0 on {trials} pairs"


def check_division_vs_split(rng: random.Random, trials: int = 60) -> str:
    for _ in range(trials):
        x = rand_octonion(rng, oc.DIVISION)
        if x.is_zero():
            continue
        _require(x * x.inverse() == oc.DIVISION.unit(), "division property fails")
    pair = oc.find_zero_divisor(oc.SPLIT)
    _require(pair is not None, "no zero divisor found in the split algebra")
    a, b = pair
    _require(not a.is_zero() and not b.is_zero() and (a * b).is_zero(), "bad zero divisor")
    _require(oc.find_zero_divisor(oc.DIVISION) is None, "division algebra has zero divisors")
    return "inverses in the division algebra; zero divisor witness in the split one"


def check_factor_unit(rng: random.Random, trials: int = 40) -> str:
    d = oc.DIVISION
    a, b = oc.factor_unit(d.basis_octonion(7))
    _require((a, b) == (d.basis_octonion(1), d.basis_octonion(4)), "e7 should factor as e1 e4")
    a, b = oc.factor_unit(d.basis_octonion(3))
    _require((a, b) == (d.basis_octonion(1), d.basis_octonion(2)), "e3 should factor as e1 e2")
    a, b = oc.factor_unit(-d.unit())
    _require(a == d.basis_octonion(1) and b == d.basis_octonion(1), "-1 should factor as e1 e1")
    for space in (oc.DIVISION, oc.SPLIT):
        for _ in range(trials):
            x = rand_unit_octonion(rng, space)
            a, b = oc.factor_unit(x)
            _require(a.trace() == 0 and b.trace() == 0, "factors must be trace zero")
            _require(a * b == x, "factorization does not multiply back")
    return f"unit factorization on {trials} random units per algebra"


def check_triple_expansion3(rng: random.Random, trials: int = 80) -> str:
    for _ in range(trials):
        x, y, z = (tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3))
        c = sm._cross3
        dot = lambda a, b: sum(p * q for p, q in zip(a, b))
        lhs = c(c(x, y), z)
        rhs = tuple(dot(x, z) * y[i] - dot(y, z) * x[i] for i in range(3))
        _require(lhs == rhs, "triple product expansion fails in R^3")
    return f"(x cross y) cross z = (x.z)y - (y.z)x on {trials} triples"


# -- derivation solvers -----------------------------------------------------------

def _cross_table(space: oc.CrossProductSpace) -> AlgebraTable:
    return AlgebraTable.from_function(7, lambda i, j: list(space.cross_table[i][j]))


def check_triple_realization(rng: random.Random) -> str:
    model = DerivationAlgebra.from_matrices([b.realize() for b in sm.SPLIT_BASIS], 7)
    d_cross = derivations_of_algebra(_cross_table(oc.SPLIT))
    d_form = derivations_of_form(fo.OMEGA0)
    d_oct = derivations_of_algebra(oc.basis_table("split")).restricted(range(1, 8))
    _require(d_cross.dim == 14 and d_form.dim == 14 and d_oct.dim == 14, "dimension not 14")
    _require(d_cross.same_space(model), "Der(V,x) differs from the matrix model")
    _require(d_form.same_space(model), "Der(V,Omega0) differs from the matrix model")
    _require(d_oct.same_space(model), "Der(C)|_V differs from the matrix model")
    _require(derivations_of_algebra(oc.basis_table("division")).dim == 14,
             "division octonion derivations must have dimension 14")
    n = [list(r) for r in oc.SPLIT.norm_matrix]
    for b in d_form.matrices():
        _require(skew_adjoint_ok(b, n), "derivation is not skew-adjoint")
    return "Der(V,x) = Der(V,Omega0) = Der(C)|_V, dim 14, inside so(V,n)"


def check_form_derivation_edges(rng: random.Random) -> str:
    d_zero = derivations_of_form(fo.form(3, {}))
    _require(d_zero.dim == 49, "zero form must have all of gl7")
    d_e123 = derivations_of_form(fo.form(3, {(1, 2, 3): 1}))
    _require(d_e123.dim == 36, f"e^123 derivation dimension {d_e123.dim} != 36")
    two_dim = AlgebraTable.from_function(2, lambda i, j: [Q1 if (k == i and i == j) else Q0
                                                          for k in range(2)])
    _require(derivations_of_algebra(two_dim).dim == 0, "R + R has nonzero derivations")
    return "dim gl7 for zero form; 36 for e^123; 0 for R+R"


def check_stabilizer_dims(rng: random.Random) -> str:
    gc = hg.compact_derivations()
    st = annihilator_stabilizer(gc, [Q0] * 6 + [Q1])
    _require(st.dim == 8 and st.is_bracket_closed(), "compact stabilizer is not su(3)-sized")
    gs = hg.split_derivations()
    st2 = annihilator_stabilizer(gs, [Q1] + [Q0] * 6)
    _require(st2.dim == 8 and st2.is_bracket_closed(), "split stabilizer is not sl(3)-sized")
    doct = derivations_of_algebra(oc.basis_table("split"))
    whole = annihilator_stabilizer(doct, [Q1] + [Q0] * 7)
    _require(whole.dim == 14, "derivations must kill the unit")
    return "dim 8 stabilizers at nonisotropic points; d(1) = 0 for all of Der(C)"


# -- 3-forms -------------------------------------------------------------------

def check_gram_oracle(rng: random.Random) -> str:
    for om in (fo.OMEGA0, fo.OMEGA1):
        _require(fo.norm_from_form(om) == fo.norm_from_form_brute(om),
                 "grouped Gram sum disagrees with the 5040-term sum")
    g0 = fo.norm_from_form(fo.OMEGA0)
    _require(g0[0][0] == 1152, f"Gram(E0,E0) = {g0[0][0]}")
    want = [[-1152 * oc.SPLIT.norm_matrix[i][j] for j in range(7)] for i in range(7)]
    _require(g0 == want, "Gram of the split representative is not -1152 N")
    g1 = fo.norm_from_form(fo.OMEGA1)
    _require(all(g1[i][j] == (-144 if i == j else 0) for i in range(7) for j in range(7)),
             "Gram of the compact representative is not -144 I")
    return "grouped sum == brute sum; Gram(O0) = -1152 N, Gram(O1) = -144 I"


def check_scaling_law(rng: random.Random, trials: int = 8) -> str:
    for om in (fo.OMEGA0, fo.OMEGA1):
        g = fo.norm_from_form(om)
        for _ in range(trials):
            p = rand_invertible(rng, 7, 2)
            basis = [[p[r][c] for r in range(7)] for c in range(7)]
            lhs = fo.norm_from_form(om, basis)
            rhs = mat_mul(transpose(p), mat_mul(g, p))
            dp = det(p)
            rhs = [[dp * x for x in row] for row in rhs]
            _require(lhs == rhs, "scaling law n_B' = det(P) n_B fails")
    return f"{trials} basis changes per representative, exact Gram equality"


def check_classification(rng: random.Random, trials: int = 10) -> str:
    for om, tag in ((fo.OMEGA0, fo.OrbitTag.SPLIT), (fo.OMEGA1, fo.OrbitTag.COMPACT)):
        for _ in range(trials):
            g = rand_invertible(rng, 7, 2)
            _require(fo.classify_orbit(fo.transform(g, om)) is tag,
                     "pullback changed the orbit class")
            t = Q0
            while not t:
                t = rand_fraction(rng, 5)
            _require(fo.classify_orbit(om.scale(t)) is tag, "scaling changed the orbit class")
    _require(fo.classify_orbit(fo.form(3, {(1, 2, 3): 1})) is fo.OrbitTag.NOT_GENERIC,
             "e^123 must not be generic")
    _require(fo.normalized_signature(fo.OMEGA0) == (4, 3), "split normalized signature")
    _require(fo.normalized_signature(fo.OMEGA1) == (0, 7), "compact normalized signature")
    return f"{trials} pullbacks and scalings per orbit, plus a degenerate witness"


def check_witness(rng: random.Random, trials: int = 2, digits: int = 60) -> str:
    w0 = fo.orbit_witness(fo.OMEGA0, digits)
    _require(not w0.residual and w0.target is fo.OrbitTag.SPLIT, "identity witness expected")
    tol = Fraction(1, 10 ** (digits // 2))
    worst = Fraction(0)
    for om_rep in (fo.OMEGA0, fo.OMEGA1):
        for _ in range(trials):
            g = rand_invertible(rng, 7, 2)
            om = fo.transform(g, om_rep)
            w = fo.orbit_witness(om, digits)
            res = Fraction(str(w.residual.val)) if w.residual else Fraction(0)
            worst = max(worst, res)
            _require(res <= tol, f"residual {w.residual.val} exceeds tolerance")
    return f"witness residuals <= 1e-{digits // 2} (worst {float(worst):.1e})"


def check_pullback_props(rng: random.Random, trials: int = 10) -> str:
    ident = [[Q1 if i == j else Q0 for j in range(7)] for i in range(7)]
    _require(fo.pullback(ident, fo.OMEGA0) == fo.OMEGA0, "identity pullback must fix")
    neg = [[-x for x in row] for row in ident]
    _require(fo.pullback(neg, fo.OMEGA1) == -fo.OMEGA1, "(-id) must negate 3-forms")
    for _ in range(trials):
        g = rand_invertible(rng, 7, 2)
        h = rand_invertible(rng, 7, 2)
        lhs = fo.pullback(mat_mul(g, h), fo.OMEGA0)
        rhs = fo.pullback(g, fo.pullback(h, fo.OMEGA0))
        _require(lhs == rhs, "pullback is not contravariant")
    return "identity, central sign, and (gh).omega = g.(h.omega)"


def check_hodge_calculus(rng: random.Random, trials: int = 20) -> str:
    lam = fo.coassociative_form()
    want = fo.form(4, {(1, 2, 4, 5): -1, (1, 2, 6, 7): 1, (1, 3, 4, 6): -1,
                       (1, 3, 5, 7): -1, (2, 3, 4, 7): 1, (2, 3, 5, 6): -1,
                       (4, 5, 6, 7): -1})
    _require(lam == want, "coassociative 4-form expansion differs")
    vol = fo.form(7, {tuple(range(1, 8)): 1})
    _require(fo.wedge(fo.OMEGA1, lam) == vol.scale(-7), "Omega1 ^ Lambda != -7 vol")
    _require(fo.hodge_star(fo.OMEGA1, (-1,) * 7) == lam, "star(Omega1) != Lambda for -I7 signs")
    _require(fo.hodge_star(fo.OMEGA1) == -lam, "star(Omega1) != -Lambda for +I7 signs")
    one = fo.KForm(0, {(): Q1})
    _require(fo.hodge_star(one) == vol, "star(1) != volume form")
    for _ in range(trials):
        deg = rng.randint(0, 7)
        coeffs = {}
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(1, 8), deg)))
            coeffs[idx] = rand_fraction(rng)
        a = fo.KForm(deg, coeffs)
        _require(fo.hodge_star(fo.hodge_star(a)) == a, "star is not an involution")
        u = rand_vec(rng)
        if deg >= 2:
            _require(fo.interior_product(u, fo.interior_product(u, a)).is_zero(),
                     "double contraction must vanish")
    for _ in range(trials):
        u = rand_vec(rng)
        v = rand_vec(rng)
        lhs = fo.wedge(fo.wedge(fo.OMEGA1, fo.interior_product(u, fo.OMEGA1)),
                       fo.interior_product(v, fo.OMEGA1))
        nuv = oc.DIVISION.norm_b(u, v)
        _require(lhs == vol.scale(-6 * nuv), "coassociative bilinear identity fails")
    e4 = basis_vec7(3)
    want2 = fo.form(2, {(1, 7): -1, (2, 6): -1, (3, 5): 1})
    _require(fo.interior_product(e4, fo.OMEGA1) == want2, "e4 contraction differs")
    return "Lambda, star conventions, involution, and the -6 n(u,v) vol identity"


def basis_vec7(i: int) -> Tuple[Fraction, ...]:
    return tuple(Q1 if j == i else Q0 for j in range(7))


def check_f_operator(rng: random.Random) -> str:
    m = fo.f_operator_matrix()
    _require(all(m[i][i] == 0 for i in range(21)), "F must have zero diagonal")
    spec = fo.f_operator_spectrum()
    _require(len(spec[Q1]) == 14 and len(spec[Fraction(-2)]) == 7,
             "F eigenvalue multiplicities are not (14, 7)")
    idx = {p: t for t, p in enumerate(fo.TWO_FORM_INDEX)}
    w4 = [(1, 7), (2, 6), (3, 5)]
    sub = [[m[idx[p]][idx[q]] for q in w4] for p in w4]
    _require(sub == [[Q0, -Q1, Q1], [-Q1, Q0, Q1], [Q1, Q1, Q0]],
             "F restricted to W4 differs from the printed matrix")
    gc = hg.compact_derivations()
    plus_mats = [fo.bivector_to_matrix(fo.two_form_from_coords(v)) for v in spec[Q1]]
    _require(same_span([sum(r, []) for r in ([list(map(list, mm)) for mm in plus_mats])],
                       [sum([list(r) for r in b], []) for b in gc.basis]),
             "+1 eigenspace does not match the derivation algebra")
    cross_mats = []
    for i in range(7):
        cols = [oc.DIVISION.cross(basis_vec7(i), basis_vec7(j)) for j in range(7)]
        cross_mats.append([[cols[j][r] for j in range(7)] for r in range(7)])
    minus_mats = [fo.bivector_to_matrix(fo.two_form_from_coords(v))
                  for v in spec[Fraction(-2)]]
    _require(same_span([sum(mm, []) for mm in minus_mats],
                       [sum(mm, []) for mm in cross_mats]),
             "-2 eigenspace does not match the cross multiplications")
    return "spectrum {+1 x14, -2 x7}; W4 block matches; eigenspaces identified"


# -- homogeneous data -------------------------------------------------------------

def check_reductive(rng: random.Random, trials: int = 25) -> str:
    rd = hg.reductive_decomposition()
    kg = hg.combined_killing_gram(rd)
    _require(all(kg[i][8 + j] == 0 for i in range(8) for j in range(6)),
             "h and m are not Killing-orthogonal")
    alpha = None
    for i in range(6):
        for j in range(6):
            nij = oc.DIVISION.norm_b(rd.perp_basis[i], rd.perp_basis[j])
            if alpha is None and nij:
                alpha = -Fraction(kg[8 + i][8 + j], nij)
            _require(kg[8 + i][8 + j] == (-alpha * nij if alpha is not None else 0),
                     "kappa on m is not -alpha n")
    _require(alpha == 48, f"kappa(phi_Y, phi_Z) = -alpha n with alpha = {alpha}")
    space = oc.DIVISION
    x = hg.E7
    for _ in range(trials):
        y1 = _rand_perp(rng, space, x)
        y2 = _rand_perp(rng, space, x)
        m1 = hg.phi_derivation(y1)
        m2 = hg.phi_derivation(y2)
        comm = mat_mul(m1, m2)
        m2m1 = mat_mul(m2, m1)
        comm = [[comm[i][j] - m2m1[i][j] for j in range(7)] for i in range(7)]
        o1 = space.octonion(0, y1)
        o2 = space.octonion(0, y2)
        w = oc.commutator(o1, o2)
        pr = tuple(w.vec[i] - space.norm_b(w.vec, x) * x[i] for i in range(7))
        # the m-part is phi of J applied to the projected commutator
        jpr = space.cross(x, pr)
        phi_pr = hg.phi_derivation(jpr)
        diff = [[comm[i][j] - phi_pr[i][j] for j in range(7)] for i in range(7)]
        _require(span_contains([tuple(v for row in b for v in row) for b in rd.h.basis],
                               tuple(v for row in diff for v in row)),
                 "[phi,phi]_m != phi_{J(pr(commutator))}")
    return f"dims 8+6, kappa-orthogonal, alpha = 48, m-bracket rule on {trials} pairs"


def _rand_perp(rng: random.Random, space: oc.CrossProductSpace, x) -> Tuple[Fraction, ...]:
    while True:
        y = rand_vec(rng)
        c = Fraction(space.norm_b(y, x))
        nx = space.norm_q(x)
        y = tuple(yi - c * xi / nx for yi, xi in zip(y, x))
        if any(y):
            return y


def check_unitary(rng: random.Random, trials: int = 30) -> str:
    ud = hg.unitary_stabilizer_data()
    rd = hg.reductive_decomposition()
    j = [list(r) for r in ud.j_matrix]
    x = hg.E7
    space = oc.DIVISION
    for b in hg.orthogonal_complement(space, x):
        jj = mat_vec(j, mat_vec(j, b))
        _require(tuple(jj) == tuple(-t for t in b), "J^2 != -id on the tangent space")
    for d in rd.h.matrices():
        _require(mat_mul(d, j) == mat_mul(j, d), "stabilizer does not commute with J")
        c = ud.complex_matrix(d)
        _require(c[0][0] + c[1][1] + c[2][2] == 0, "complex trace must vanish")
        for a in range(3):
            for b2 in range(3):
                _require(c[a][b2] + c[b2][a].conjugate() == 0, "matrix is not skew-Hermitian")
    for _ in range(trials):
        y1 = _rand_perp(rng, space, x)
        y2 = _rand_perp(rng, space, x)
        y3 = _rand_perp(rng, space, x)
        s = ud.sigma(y1, y2)
        _require(s.conjugate() == ud.sigma(y2, y1), "sigma is not Hermitian")
        _require(ud.sigma(y1, y1) == space.norm_q(y1), "sigma(Y,Y) != n(Y)")
        jy = tuple(mat_vec(j, y1))
        _require(ud.sigma(jy, y2) == cm.GR(Q0, Q1) * s, "sigma is not complex-linear")
        lhs = space.norm_b(tuple(mat_vec(j, space.cross(y1, y2))), y3)
        rhs = space.norm_b(x, space.cross(space.cross(y1, y2), y3))
        _require(lhs == rhs, "torsion identity fails")
    return f"J/sigma structure and su(3) conditions; {trials} random triples"


def check_m_bracket_complex(rng: random.Random, trials: int = 30) -> str:
    """[Y1, Y2]_m = 2 J(Y1 x Y2) under Y -> phi_{J(Y)}, plus natural reductivity."""
    rd = hg.reductive_decomposition()
    ud = hg.unitary_stabilizer_data()
    j = [list(r) for r in ud.j_matrix]
    space = oc.DIVISION
    x = hg.E7
    kg = hg.combined_killing_gram(rd)
    flat_h = [tuple(v for row in b for v in row) for b in rd.h.basis]

    def m_project(mat):
        # coordinates of the m-part in the phi basis
        full = rd.h.matrices() + rd.m_matrices
        coords = coords_in_basis([tuple(v for row in b for v in row) for b in full],
                                 tuple(v for row in mat for v in row))
        _require(coords is not None, "bracket escaped h + m")
        return coords[8:]

    def phi_of(y):
        return hg.phi_derivation(y)

    for _ in range(trials):
        y1 = _rand_perp(rng, space, x)
        y2 = _rand_perp(rng, space, x)
        a = phi_of(y1)
        b = phi_of(y2)
        comm = mat_mul(a, b)
        ba = mat_mul(b, a)
        comm = [[comm[i][k] - ba[i][k] for k in range(7)] for i in range(7)]
        m_coords = m_project(comm)
        target = tuple(2 * t for t in mat_vec(j, space.cross(y1, y2)))
        want_coords = m_project(phi_of(target))
        _require(m_coords == want_coords, "[Y1,Y2]_m != 2 J(Y1 x Y2)")
    for _ in range(trials):
        ys = [_rand_perp(rng, space, x) for _ in range(3)]
        phis = [phi_of(y) for y in ys]
        full = rd.h.matrices() + rd.m_matrices

        def kappa_m(u_coords, v_mat):
            v_coords = coords_in_basis([tuple(v for row in b_ for v in row) for b_ in full],
                                       tuple(v for row in v_mat for v in row))
            tot = Q0
            for i in range(6):
                for jj in range(6):
                    tot += u_coords[i] * kg[8 + i][8 + jj] * v_coords[8:][jj]
            return tot

        c12 = mat_mul(phis[0], phis[1])
        c21 = mat_mul(phis[1], phis[0])
        c12 = [[c12[i][k] - c21[i][k] for k in range(7)] for i in range(7)]
        c13 = mat_mul(phis[0], phis[2])
        c31 = mat_mul(phis[2], phis[0])
        c13 = [[c13[i][k] - c31[i][k] for k in range(7)] for i in range(7)]
        lhs = kappa_m(m_project(c12), phis[2]) + kappa_m(m_project(c13), phis[1])
        _require(lhs == 0, "naturally reductive identity fails")
    return f"complex m-bracket rule and natural reductivity on {trials} draws"


def check_split_homogeneous(rng: random.Random) -> str:
    sd = hg.split_stabilizer_data()
    _require(len(sd.w_plus) == 3 and len(sd.w_minus) == 3, "eigenspace dims wrong")
    _require(sd.h.dim == 8, "stabilizer dimension wrong")
    space = oc.SPLIT
    for w in sd.w_plus:
        for w2 in sd.w_plus:
            _require(space.norm_b(w, w2) == 0, "W+ not isotropic")
    for d in sd.h.matrices():
        cols = []
        for w in sd.w_plus:
            c = coords_in_basis([list(v) for v in sd.w_plus], mat_vec(d, w))
            _require(c is not None, "W+ is not stabilizer-invariant")
            cols.append(c)
        _require(sum(cols[i][i] for i in range(3)) == 0, "trace on W+ must vanish")
    for w in sd.w_plus:
        for w2 in sd.w_minus:
            prod = space.cross(w, w2)
            want = tuple(-space.norm_b(w, w2) * t for t in sd.base_point)
            _require(prod == want, "W+ x W- rule Y x Z = -n(Y,Z) X fails")
    g = hg.split_transitivity_witness(tuple(Fraction(x, 2) for x in (0, 0, 1, 0, 0, 1, 0)))
    _require(det(g) == 1, "transitivity witness must have determinant 1")
    return "W+- structure, sl(3) traces, duality rule, det-1 witness"


def check_basic_triples(rng: random.Random, trials: int = 8) -> str:
    g = hg.basic_triple_to_g2(basis_vec7(0), basis_vec7(1), basis_vec7(6))
    ident = [[Q1 if i == j else Q0 for j in range(7)] for i in range(7)]
    _require(g == ident, "canonical triple must give the identity")
    try:
        hg.basic_triple_to_g2(basis_vec7(0), basis_vec7(1), basis_vec7(2))
        _fail("(e1, e2, e3) must be rejected")
    except hg.NotBasicTriple:
        pass
    count = 0
    perms = [(0, 1, 6), (1, 0, 6), (6, 0, 1), (0, 3, 5), (1, 2, 6)]
    for (i, j, k) in perms:
        try:
            g = hg.basic_triple_to_g2(basis_vec7(i), basis_vec7(j), basis_vec7(k))
        except hg.NotBasicTriple:
            continue
        _require(det(g) == 1, "triple witness must have determinant 1")
        _require(fo.transform(g, fo.OMEGA1) == fo.OMEGA1, "triple witness must fix Omega1")
        count += 1
    _require(count >= 3, "too few basis triples accepted")
    return f"{count} exact symmetries from basis triples, all determinant 1"


# -- compact model ---------------------------------------------------------------

def check_compact_model(rng: random.Random) -> str:
    t = cm.structure_table()
    _require(anticommutative(t), "compact bracket is not anticommutative")
    _require(jacobi_holds_everywhere(t), "compact Jacobi fails")
    om = cm.model_three_form()
    _require(fo.classify_orbit(om) is fo.OrbitTag.COMPACT, "model form must be compact")
    _require(cm.model_norm_matrix() == [[Q1 if i == j else Q0 for j in range(7)]
                                        for i in range(7)], "model norm must be I7")
    acts = [cm.real_action_matrix(b) for b in cm.COMPACT_BASIS]
    img = DerivationAlgebra.from_matrices(acts, 7)
    _require(img.same_space(derivations_of_form(om)), "action image != Der(model form)")
    for u, v in itertools.combinations(range(14), 2):
        a, b = cm.COMPACT_BASIS[u], cm.COMPACT_BASIS[v]
        lhs = cm.real_action_matrix(cm.bracket_L(a, b))
        rhs = mat_mul(acts[u], acts[v])
        rhs2 = mat_mul(acts[v], acts[u])
        rhs = [[rhs[i][j] - rhs2[i][j] for j in range(7)] for i in range(7)]
        _require(lhs == rhs, "action is not a representation")
    for u, v in itertools.combinations(range(14), 2):
        e = cm.bracket_L(cm.COMPACT_BASIS[u], cm.COMPACT_BASIS[v])
        tr = e.phi[0][0] + e.phi[1][1] + e.phi[2][2]
        _require(tr == 0, "bracket left su(3) + W")
    suv = cm.sigma_op(cm._w_basis_vec(0), cm._w_basis_vec(1))
    tr = suv[0][0] + suv[1][1] + suv[2][2]
    s12 = cm.sigma(cm._w_basis_vec(1), cm._w_basis_vec(0)) - cm.sigma(cm._w_basis_vec(0),
                                                                      cm._w_basis_vec(1))
    _require(tr == s12, "tr sigma_{u,v} identity fails")
    return "Jacobi + representation + compact orbit for the su(3)+C^3 model"


def check_transport(rng: random.Random) -> str:
    gc = hg.compact_derivations()
    _require(cm.transport_check(gc.matrices()), "psi transport fails")
    for _ in range(20):
        x = rand_vec(rng, 3, 2)
        y = rand_vec(rng, 3, 2)
        u = rand_vec(rng, 3, 2)
        v = rand_vec(rng, 3, 2)
        m1 = cm.mu_matrix(x, y)
        m2 = cm.mu_matrix(u, v)
        comm = mat_mul(m1, m2)
        c2 = mat_mul(m2, m1)
        comm = [[comm[i][j] - c2[i][j] for j in range(7)] for i in range(7)]
        h, xx, yy = cm.split_h_mu(comm)
        c3 = sm._cross3
        want_x = tuple(2 * t for t in (c3(y, u)[i] + c3(x, v)[i] for i in range(3)))
        want_y = tuple(2 * t for t in (c3(x, u)[i] - c3(y, v)[i] for i in range(3)))
        _require(xx == tuple(want_x) and yy == tuple(want_y),
                 "[mu, mu]_m formula fails")
        psi_h = cm.psi(h)
        lx = cm._l3([c3(y, v)[i] + c3(x, u)[i] for i in range(3)])
        outer = [[u[i] * y[j] + y[i] * u[j] - v[i] * x[j] - x[i] * v[j] for j in range(3)]
                 for i in range(3)]
        trace = sum(outer[i][i] for i in range(3)) / 3
        pr0 = [[outer[i][j] - (trace if i == j else 0) for j in range(3)] for i in range(3)]
        want_phi = tuple(tuple(cm.GR(3 * lx[i][j], 3 * pr0[i][j]) for j in range(3))
                         for i in range(3))
        _require(psi_h.phi == want_phi, "[mu, mu]_h formula fails")
    return "psi(d).psi'(X) = psi'(dX) on 14x7 pairs; mu-bracket formulas on 20 draws"


# -- spinors ---------------------------------------------------------------------

def check_clifford_basics(rng: random.Random) -> str:
    cl = sp.clifford_for(oc.DIVISION)
    e = cl.generator
    for i in range(1, 8):
        _require((e(i) * e(i)).coeffs == {0: Fraction(-1)}, "generator square must be -1")
    _require(e(1) * e(2) == (e(2) * e(1)).scale(-1), "generators must anticommute")
    prod = (e(1) * e(2)) * (e(2) * e(3))
    _require(prod.coeffs == {0b101: Fraction(-1)}, "(e1e2)(e2e3) != -e1e3")
    _require(cl.center_basis() == [0, sp.FULL_MASK], "center must be 1 and e1..e7")
    for x, y in ((e(1) * e(2), e(3) * e(5)), (e(4), e(1) * e(7))):
        _require((x * y) * x == x * (y * x), "associativity spot check failed")
    return "squares, anticommutation, sign rule, center = <1, e1..e7>"


def check_kappa_table(rng: random.Random) -> str:
    kap = sp.kappa_matrices(oc.DIVISION)

    def phi(i, j):
        m = [[Q0] * 8 for _ in range(8)]
        m[j - 1][i - 1] = Q1
        m[i - 1][j - 1] = -Q1
        return m

    printed = {
        1: ((-1, 1, 8), (1, 2, 3), (1, 4, 7), (-1, 5, 6)),
        2: ((-1, 1, 3), (-1, 2, 8), (1, 4, 6), (1, 5, 7)),
        3: ((1, 1, 2), (-1, 3, 8), (-1, 4, 5), (1, 6, 7)),
        4: ((-1, 1, 7), (-1, 2, 6), (1, 3, 5), (-1, 4, 8)),
        5: ((1, 1, 6), (-1, 2, 7), (-1, 3, 4), (-1, 5, 8)),
        6: ((-1, 1, 5), (1, 2, 4), (-1, 3, 7), (-1, 6, 8)),
        7: ((1, 1, 4), (1, 2, 5), (1, 3, 6), (-1, 7, 8)),
    }
    for i, terms in printed.items():
        m = [[Q0] * 8 for _ in range(8)]
        for s, a, b in terms:
            pm = phi(a, b)
            for r in range(8):
                for c in range(8):
                    m[r][c] += s * pm[r][c]
        _require(kap[i - 1] == m, f"kappa_{i} differs from the printed expansion")
        sq = mat_mul(kap[i - 1], kap[i - 1])
        _require(sq == [[-Q1 if r == c else Q0 for c in range(8)] for r in range(8)],
                 "kappa_i^2 != -id")
    return "all seven kappa_i match their printed phi expansions"


def check_even_iso(rng: random.Random) -> str:
    cl = sp.clifford_for(oc.DIVISION)
    flat = []
    for mask in range(128):
        if bin(mask).count("1") % 2 == 0:
            m = sp.even_iso_rho(cl.element({mask: Q1}), oc.DIVISION)
            flat.append([x for row in m for x in row])
    _require(rank(flat) == 64, "even images must span End(C)")
    for _ in range(10):
        a = cl.element({rng.choice((0b11, 0b1010, 0b110000, 0)): rand_fraction(rng),
                        0b1001001 & ~1: rand_fraction(rng)})
        b = cl.element({rng.choice((0b101, 0b11000, 0b1000001 & ~1, 0b1100)): rand_fraction(rng)})
        a = cl.element({m: c for m, c in a.coeffs.items() if bin(m).count("1") % 2 == 0})
        b = cl.element({m: c for m, c in b.coeffs.items() if bin(m).count("1") % 2 == 0})
        lhs = sp.even_iso_rho(a * b, oc.DIVISION)
        rhs = mat_mul(sp.even_iso_rho(a, oc.DIVISION), sp.even_iso_rho(b, oc.DIVISION))
        _require(lhs == rhs, "rho tilde is not multiplicative")
    try:
        sp.even_iso_rho(cl.generator(1), oc.DIVISION)
        _fail("odd element must be rejected")
    except sp.OddPart:
        pass
    return "rank 64 and multiplicativity of the even-part isomorphism"


def check_spin_stabilizer(rng: random.Random) -> str:
    st = sp.spin_g2_equations("definite")
    _require(len(st.coeff_basis) == 14, "definite solution space is not 14-dim")
    _require(len(st.constraint_rows) == 7, "expected seven printed equations")
    _require(st.algebra.is_bracket_closed(), "solution space is not a subalgebra")
    printed = {
        (1, 4): 1, (2, 5): 1, (3, 6): 1,
    }
    idx = {p: t for t, p in enumerate(sp.BIVECTOR_PAIRS)}
    eq = [Q0] * 21
    for p, c in printed.items():
        eq[idx[p]] = Fraction(c)
    for sol in st.coeff_basis:
        _require(sum(a * b for a, b in zip(eq, sol)) == 0, "a14 + a25 + a36 = 0 fails")
    unit = oc.DIVISION.unit()
    for mat in st.algebra.matrices():
        img = mat_vec(mat, [Q0] * 7 + [Q1])
        _require(not any(img), "solutions must annihilate the unit spinor")
    der = derivations_of_algebra(oc.basis_table("division"))
    perm = [1, 2, 3, 4, 5, 6, 7, 0]
    der_p = DerivationAlgebra.from_matrices(
        [[[m[perm[i]][perm[j]] for j in range(8)] for i in range(8)] for m in der.matrices()], 8)
    _require(st.algebra.same_space(der_p), "spin solutions differ from Der(O)")
    st2 = sp.spin_g2_equations("split")
    _require(len(st2.coeff_basis) == 14 and st2.algebra.is_bracket_closed(),
             "split pipeline broken")
    ders = derivations_of_algebra(oc.basis_table("split"))
    ders_p = DerivationAlgebra.from_matrices(
        [[[m[perm[i]][perm[j]] for j in range(8)] for i in range(8)] for m in ders.matrices()], 8)
    _require(st2.algebra.same_space(ders_p), "split spin solutions differ from Der(C)")
    return "dim 14 in both metrics, bracket-closed, equal to octonion derivations"


def check_spin_action(rng: random.Random, trials: int = 40) -> str:
    space = oc.DIVISION
    g = sp.SpinElement.of(space, (basis_vec7(0), basis_vec7(3)))
    _require(sp.spin_action(g, space.unit()) == space.basis_octonion(7), "e1e4 . 1 != e7")
    e1 = basis_vec7(0)
    # (e1)(-e1) is the Clifford unit, so with a minus sign it acts as -id
    minus_one = sp.SpinElement.of(space, (e1, tuple(-x for x in e1)), sign=-1)
    x = rand_octonion(rng, space)
    _require(sp.spin_action(minus_one, x) == -x, "-1 must act as -id")
    plus_one = sp.SpinElement.of(space, (e1, tuple(-x for x in e1)))
    _require(sp.spin_action(plus_one, x) == x, "(e1)(-e1) must act as the identity")
    for _ in range(trials):
        g = sp.SpinElement.of(space, _unit_vector_pair(rng, space))
        x = rand_octonion(rng, space)
        y = rand_octonion(rng, space)
        z = rand_octonion(rng, space)
        _require(sp.spin_action(g, x).norm() == x.norm(), "spin action is not an isometry")
        lhs = sp.octonion_triple(sp.spin_action(g, x), sp.spin_action(g, y),
                                 sp.spin_action(g, z))
        rhs = sp.spin_action(g, sp.octonion_triple(x, y, z))
        _require(lhs == rhs, "triple product is not spin-invariant")
        a = rand_vec(rng)
        na = space.norm_q(a)
        if na:
            ao = space.octonion(0, a)
            lhs = sp.octonion_triple(ao * x, ao * y, ao * z)
            rhs = (ao * sp.octonion_triple(x, y, z)).scale(na)
            _require(lhs == rhs, "<L_a x, L_a y, L_a z> = n(a) L_a <x,y,z> fails")
    for _ in range(10):
        # L_v is skew-adjoint for the full octonion norm
        v = rand_vec(rng)
        vo = space.octonion(0, v)
        y = rand_octonion(rng, space)
        z = rand_octonion(rng, space)
        _require((vo * y).norm_b(z) == -(vo * z).norm_b(y), "L_x is not skew-adjoint")
    return f"isometry + triple-product invariance on {trials} draws"


def _unit_vector_pair(rng: random.Random, space) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    x = rand_unit_octonion(rng, space)
    a, b = oc.factor_unit(x)
    return (a.vec, b.vec)


def check_vector_rep(rng: random.Random, trials: int = 20) -> str:
    for space in (oc.DIVISION, oc.SPLIT):
        gram = [list(r) for r in space.norm_matrix]
        for _ in range(trials):
            g = sp.SpinElement.of(space, _unit_vector_pair_in(rng, space))
            m = sp.vector_rep(g)
            _require(det(m) == 1, "double-cover image must have determinant 1")
            _require(mat_mul(transpose(m), mat_mul(gram, m)) == gram,
                     "double-cover image must be an isometry")
            flipped = sp.SpinElement.of(space, g.factors, sign=-g.sign)
            _require(sp.vector_rep(flipped) == m, "+-g must share one vector image")
    e1 = basis_vec7(0)
    minus_one = sp.SpinElement.of(oc.DIVISION, (e1, tuple(-x for x in e1)), sign=-1)
    ident = [[Q1 if i == j else Q0 for j in range(7)] for i in range(7)]
    _require(sp.vector_rep(minus_one) == ident, "-1 must map to the identity isometry")
    g = sp.SpinElement.of(oc.DIVISION, (basis_vec7(0), basis_vec7(3)))
    spin_img = [list(sp.spin_action(g, oc.DIVISION.basis_octonion(i + 1)).vec)
                for i in range(7)]
    vec_img = [list(r) for r in zip(*sp.vector_rep(g))]
    _require(spin_img != vec_img, "spin action and vector action must differ")
    return f"det 1 isometries; +-g collapse; kernel element acts trivially ({trials} draws)"


def _unit_vector_pair_in(rng: random.Random, space) -> Tuple[Tuple[Fraction, ...], ...]:
    x = rand_unit_octonion(rng, space)
    a, b = oc.factor_unit(x)
    return (a.vec, b.vec)


def check_spin_transitivity(rng: random.Random, trials: int = 40) -> str:
    space = oc.DIVISION
    one = space.unit()
    _require(sp.spin_action(sp.factor_unit_spin(space.basis_octonion(7)), one)
             == space.basis_octonion(7), "e7 replay fails")
    for _ in range(trials):
        x = rand_unit_octonion(rng, space)
        g = sp.factor_unit_spin(x)
        _require(sp.spin_action(g, one) == x, "g . 1 != x")
    return f"{trials} random rational unit spinors reached from 1"


def check_grading(rng: random.Random) -> str:
    deg = sp.z23_degrees()
    want = {1: (1, 0, 0), 2: (0, 1, 0), 7: (0, 0, 1), 3: (1, 1, 0), 4: (1, 0, 1),
            5: (0, 1, 1), 6: (1, 1, 1)}
    _require(deg == want, "degree table differs")
    space = oc.DIVISION
    for (i, j) in sp.BIVECTOR_PAIRS:
        prod = space.cross(basis_vec7(i - 1), basis_vec7(j - 1))
        k = next(t + 1 for t in range(7) if prod[t])
        _require(tuple((a + b) % 2 for a, b in zip(deg[i], deg[j])) == deg[k],
                 "degrees are not additive")
    planes = sp.grading_planes()
    _require(sorted(planes[4]) == [(1, 7), (2, 6), (3, 5)], "W4 span differs")
    gp = sp.graded_stabilizer_planes()
    _require(all(len(v) == 2 for v in gp.values()), "each W_i' must be a plane")
    st = sp.spin_g2_equations("definite")
    _require(same_span([list(v) for vs in gp.values() for v in vs],
                       [list(v) for v in st.coeff_basis]),
             "sum of W_i' is not the stabilizer")
    a17, a26, a35 = (rand_fraction(rng) for _ in range(3))
    alpha = fo.form(2, {(1, 7): a17, (2, 6): a26, (3, 5): a35})
    e1cont = fo.interior_product(basis_vec7(0), fo.OMEGA1)
    br = _two_form_bracket(alpha, e1cont)
    e7cont = fo.interior_product(basis_vec7(6), fo.OMEGA1)
    want_form = e7cont.scale(-a26 + a35) + fo.form(2, {(1, 4): a17 + a26 - a35})
    _require(br == want_form, "graded bracket identity fails")
    lhs = _two_form_bracket(fo.interior_product(basis_vec7(3), fo.OMEGA1), e1cont)
    m_part = e7cont
    gc_part = fo.form(2, {(1, 4): -2, (2, 5): 1, (3, 6): 1})
    _require(lhs == m_part + gc_part, "[e4.O1, e1.O1] decomposition fails")
    f_m = fo.f_operator_matrix()

    def proj_m(a2):
        v = fo.two_form_coords(a2)
        fv = [sum(f_m[r][c] * v[c] for c in range(21)) for r in range(21)]
        return fo.two_form_from_coords([(v[r] - fv[r]) / 3 for r in range(21)])

    _require(proj_m(lhs) == m_part, "m-projection of the example differs")
    for _ in range(12):
        u = rand_vec(rng)
        v = rand_vec(rng)
        br = _two_form_bracket(fo.interior_product(u, fo.OMEGA1),
                               fo.interior_product(v, fo.OMEGA1))
        want = fo.interior_product(oc.DIVISION.cross(u, v), fo.OMEGA1).scale(-1)
        _require(proj_m(br) == want, "m-multiplication rule fails")
    return "degrees, planes, W4, and the graded bracket identities"


def _two_form_bracket(a: fo.KForm, b: fo.KForm) -> fo.KForm:
    ma = fo.bivector_to_matrix(a)
    mb = fo.bivector_to_matrix(b)
    comm = mat_mul(ma, mb)
    c2 = mat_mul(mb, ma)
    return fo.matrix_to_bivector([[comm[i][j] - c2[i][j] for j in range(7)] for i in range(7)])


def check_spin_monomorphism(rng: random.Random) -> str:
    cl = sp.clifford_for(oc.DIVISION)

    def inj(a: fo.KForm) -> sp.CliffordElement:
        # +1/2 here: the phis carry the octonion norm n while Cl uses -n
        out = cl.element({})
        for (i, j), c in a.coeffs.items():
            out = out + (cl.generator(i) * cl.generator(j)).scale(Fraction(1, 2) * c)
        return out

    for _ in range(15):
        pa = rng.choice(sp.BIVECTOR_PAIRS)
        pb = rng.choice(sp.BIVECTOR_PAIRS)
        a = fo.form(2, {pa: 1})
        b = fo.form(2, {pb: 1})
        so_br = _two_form_bracket(a, b)
        ca, cb = inj(a), inj(b)
        cl_br = ca * cb - cb * ca
        _require(inj(so_br) == cl_br, "the bivector embedding is not a Lie homomorphism")
    return "bivector embedding into the Clifford commutator algebra"


CheckFn = Callable[[random.Random], str]

CHECKS: Tuple[Tuple[str, CheckFn], ...] = (
    ("numerics.rank_nullity", check_rank_nullity),
    ("numerics.signature_congruence", check_signature_congruence),
    ("rootsys.g2", check_g2_roots),
    ("rootsys.axioms", check_root_axioms),
    ("rootsys.metric", check_g2_metric_facts),
    ("splitmodel.jacobi", check_split_closure_jacobi),
    ("splitmodel.decomposition", check_split_decomposition),
    ("splitmodel.killing", check_killing_signatures),
    ("splitmodel.z3", check_z3_isomorphism),
    ("splitmodel.so_invariance", check_split_so_invariance),
    ("splitmodel.simplicity", check_split_simplicity),
    ("octonion.tables", check_octonion_tables),
    ("octonion.cross_axioms", check_cross_axioms),
    ("octonion.composition", check_composition),
    ("octonion.alternative", check_alternative),
    ("octonion.moufang", check_moufang),
    ("octonion.conjugation", check_conjugation),
    ("octonion.division", check_division_vs_split),
    ("octonion.factor_unit", check_factor_unit),
    ("octonion.triple_expansion", check_triple_expansion3),
    ("derivations.triple_realization", check_triple_realization),
    ("derivations.edge_cases", check_form_derivation_edges),
    ("derivations.stabilizers", check_stabilizer_dims),
    ("threeform.gram_oracle", check_gram_oracle),
    ("threeform.scaling", check_scaling_law),
    ("threeform.classification", check_classification),
    ("threeform.witness", check_witness),
    ("threeform.pullback", check_pullback_props),
    ("threeform.hodge", check_hodge_calculus),
    ("threeform.f_operator", check_f_operator),
    ("homogeneous.reductive", check_reductive),
    ("homogeneous.unitary", check_unitary),
    ("homogeneous.m_bracket", check_m_bracket_complex),
    ("homogeneous.split", check_split_homogeneous),
    ("homogeneous.basic_triple", check_basic_triples),
    ("compact.model", check_compact_model),
    ("compact.transport", check_transport),
    ("spinor.clifford", check_clifford_basics),
    ("spinor.kappa", check_kappa_table),
    ("spinor.even_iso", check_even_iso),
    ("spinor.stabilizer", check_spin_stabilizer),
    ("spinor.action", check_spin_action),
    ("spinor.vector_rep", check_vector_rep),
    ("spinor.transitivity", check_spin_transitivity),
    ("spinor.grading", check_grading),
    ("spinor.monomorphism", check_spin_monomorphism),
)


@dataclass
class CheckReport:
    """Per check: (id, status, detail, elapsed_ms, cpu_ms)."""

    entries: List[Tuple[str, str, str, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(status == "pass" for _, status, _, _, _ in self.entries)

    def to_json(self) -> dict:
        return {
            "overall": "pass" if self.ok else "fail",
            "checks": [
                {"id": cid, "status": status, "detail": detail, "elapsed_ms": ms, "cpu_ms": cpu}
                for cid, status, detail, ms, cpu in self.entries
            ],
        }


_PACKAGE_DIR = Path(__file__).resolve().parent
_HELPER_CODES = (_fail.__code__, _require.__code__)


def _raise_site(exc: BaseException) -> Optional[str]:
    """``g2models/<file>:<line>`` of the innermost package frame that raised.

    The ``_fail``/``_require`` helpers are skipped, so a failed requirement
    points at the line of the check that stated it.
    """
    site = None
    for frame, line in traceback.walk_tb(exc.__traceback__):
        code = frame.f_code
        path = Path(code.co_filename).resolve()
        if path.parent == _PACKAGE_DIR and code not in _HELPER_CODES:
            site = f"{_PACKAGE_DIR.name}/{path.name}:{line}"
    return site


def run_checks(filter_glob: str = "*", seed: int = 0) -> CheckReport:
    """Run all checks whose id matches the glob, one after another.

    Each check gets its own RNG seeded with ``f"{seed}:{id}"``.  A failed
    check's detail ends with the place it raised.
    """
    report = CheckReport()
    for cid, fn in CHECKS:
        if not fnmatch.fnmatch(cid, filter_glob):
            continue
        rng = random.Random(f"{seed}:{cid}")
        start, cpu_start = time.monotonic(), time.thread_time()
        try:
            detail = fn(rng)
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            detail = str(exc) if isinstance(exc, CheckFailure) else f"{type(exc).__name__}: {exc}"
            site = _raise_site(exc)
            if site:
                detail = f"{detail} (raised at {site})"
            status = "fail"
        ms = int((time.monotonic() - start) * 1000)
        cpu = int((time.thread_time() - cpu_start) * 1000)
        report.entries.append((cid, status, detail, ms, cpu))
    return report
