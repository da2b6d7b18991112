"""Output checks that do not use the package under test.

Each check returns None when the output is right and a one-line reason when it
is wrong; the runner counts a reason as a failed op.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from typing import Optional, Sequence

from inputs import REPS, TRIPLES, Terms

SIGNATURE = {"split": [4, 3], "compact": [0, 7], "not-generic": None}

# the 46 check ids of the verification suite; a pass must report each as "pass"
CHECK_IDS = frozenset("""
numerics.rank_nullity numerics.signature_congruence rootsys.g2 rootsys.axioms
rootsys.metric splitmodel.jacobi splitmodel.decomposition splitmodel.killing
splitmodel.z3 splitmodel.so_invariance splitmodel.simplicity octonion.tables
octonion.cross_axioms octonion.composition octonion.alternative octonion.moufang
octonion.conjugation octonion.division octonion.factor_unit octonion.triple_expansion
derivations.triple_realization derivations.edge_cases derivations.stabilizers
threeform.gram_oracle threeform.scaling threeform.classification threeform.witness
threeform.pullback threeform.hodge threeform.f_operator homogeneous.reductive
homogeneous.unitary homogeneous.m_bracket homogeneous.split homogeneous.basic_triple
compact.model compact.transport spinor.clifford spinor.kappa spinor.even_iso
spinor.stabilizer spinor.action spinor.vector_rep spinor.transitivity spinor.grading
spinor.monomorphism
""".split())


def check_classify(rc: int, out: Optional[dict], label: Optional[str]) -> Optional[str]:
    """Orbit equals the label, when there is one, and agrees with the signature."""
    if rc != 0 or out is None:
        return f"exit code {rc}"
    orbit = out.get("orbit")
    if orbit not in SIGNATURE:
        return f"unknown orbit {orbit!r}"
    if label is not None and orbit != label:
        return f"orbit {orbit} but the input is {label}"
    if out.get("signature") != SIGNATURE[orbit]:
        return f"orbit {orbit} with signature {out.get('signature')}"
    return None


def witness_residual(terms: Terms, phi: Sequence[Sequence[str]], label: str, digits: int) -> Decimal:
    """max over basis triples of |a(phi e_i, phi e_j, phi e_k) - rep_ijk|, in `decimal`.

    Evaluated by 3x3 minors of phi with 100 significant digits beyond the
    residual bound 10^(-digits/2), so for terms below 10^50 the rounding of this
    check stays under 10^(-digits/2 - 50).
    """
    ctx = Context(prec=digits // 2 + 100)
    m = [[Decimal(x) for x in row] for row in phi]
    coeffs = [(pqr, ctx.divide(Decimal(c.numerator), Decimal(c.denominator)))
              for pqr, c in terms.items()]
    rep = REPS[label]
    worst = Decimal(0)
    for ijk in TRIPLES:
        cols = [i - 1 for i in ijk]
        acc = Decimal(0)
        for pqr, c in coeffs:
            (a, b, cc), (d, e, f), (g, h, k) = ([m[p - 1][col] for col in cols] for p in pqr)
            minor = ctx.subtract(
                ctx.add(ctx.multiply(a, ctx.subtract(ctx.multiply(e, k), ctx.multiply(f, h))),
                        ctx.multiply(cc, ctx.subtract(ctx.multiply(d, h), ctx.multiply(e, g)))),
                ctx.multiply(b, ctx.subtract(ctx.multiply(d, k), ctx.multiply(f, g))))
            acc = ctx.add(acc, ctx.multiply(c, minor))
        want = rep.get(ijk, Fraction(0))
        diff = abs(ctx.subtract(acc, Decimal(want.numerator) / Decimal(want.denominator)))
        worst = max(worst, diff)
    return worst


def check_witness(rc: int, out: Optional[dict], terms: Terms, label: str, digits: int) -> Optional[str]:
    """Orbit, target and signature equal the label; recomputed residual <= 10^(-digits/2)."""
    bad = check_classify(rc, out, label)
    if bad:
        return bad
    w = out.get("witness")
    if not w or w.get("target") != label:
        return f"witness target {w and w.get('target')} but the input is {label}"
    phi = w.get("phi")
    if not (isinstance(phi, list) and len(phi) == 7 and all(len(r) == 7 for r in phi)):
        return "phi is not a 7x7 matrix"
    res = witness_residual(terms, phi, label, digits)
    if res > Decimal(1).scaleb(-(digits // 2)):
        return f"recomputed residual {res:.3E} exceeds 1E-{digits // 2}"
    return None


def check_suite(rc: int, report: Optional[dict]) -> Optional[str]:
    """Exit 0, overall pass, and every one of the 46 checks present and passing."""
    if report is None:
        return f"exit code {rc}, no report"
    status = {c["id"]: c["status"] for c in report.get("checks", [])}
    missing = CHECK_IDS - status.keys()
    if missing:
        return f"missing checks {sorted(missing)}"
    failing = sorted(cid for cid, s in status.items() if s != "pass")
    if failing:
        return f"failing checks {failing}"
    if rc != 0 or report.get("overall") != "pass":
        return f"exit code {rc}, overall {report.get('overall')}"
    return None
