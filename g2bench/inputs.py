"""Seeded 3-form inputs for the benchmark, with labels known by construction.

Everything here is independent of the package under test: representatives are
written out below, pullbacks use this file's own 3x3-minor expansion, and
invertibility uses this file's own elimination.  A form b = a o g (that is,
b(u, v, w) = a(gu, gv, gw)) lies in the GL(7) orbit of a for every invertible
g, and so does t * b for every nonzero rational t (t = s^3 with s real and
degree 3 odd), so the orbit label of a pulled-back representative is known
without classifying it.

Input i of a stream depends only on (seed, workload, i), so the same seed gives
the same inputs, and a longer run extends a shorter run's prefix.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Terms = Dict[Tuple[int, int, int], Fraction]

TRIPLES = tuple(itertools.combinations(range(1, 8), 3))

# orbit representatives, 1-based sorted triples: split and compact
SPLIT_REP: Terms = {(1, 2, 5): Fraction(-2), (1, 3, 6): Fraction(-2), (1, 4, 7): Fraction(-2),
                    (2, 3, 4): Fraction(-4), (5, 6, 7): Fraction(4)}
COMPACT_REP: Terms = {(1, 4, 7): Fraction(1), (2, 5, 7): Fraction(1), (3, 6, 7): Fraction(1),
                      (1, 2, 3): Fraction(1), (1, 5, 6): Fraction(-1), (2, 4, 6): Fraction(1),
                      (3, 4, 5): Fraction(-1)}
REPS = {"split": SPLIT_REP, "compact": COMPACT_REP}

# classify-mix repeats this block of 8 (kind, label, count) in a seeded order,
# so every block holds these exact shares.  The workload definition names the
# four kinds but gives no shares, and no caller in the repository classifies
# such a mix, so each kind gets an equal share: an unverified assumption.
# Labels are balanced because the two orbits take different code paths.
# Random forms have no label.
MIX_BLOCK = (("integer", "split", 1), ("integer", "compact", 1), ("tall", "split", 1),
             ("tall", "compact", 1), ("random", None, 2), ("nongeneric", "not-generic", 2))
MIX_BLOCK_LEN = sum(n for _, _, n in MIX_BLOCK)
# witness-p1000 alternates the orbits on tall forms only.  With integer and tall
# forms in equal shares, integer ops took 130-430 ms and tall ones 620-930 ms,
# so the median op fell in the gap between them and op_p50_ms spread 0.23-0.26
# of its median over 10 runs, at the bound of 0.25.
WITNESS_CYCLE = (("tall", "split"), ("tall", "compact"))


def det3(m: Sequence[Sequence], rows: Sequence[int], cols: Sequence[int]):
    (a, b, c), (d, e, f), (g, h, k) = ([m[r][cc] for cc in cols] for r in rows)
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def compose(terms: Terms, g: Sequence[Sequence[Fraction]]) -> Terms:
    """Coefficients of b(u, v, w) = a(gu, gv, gw): sum of c_pqr * minor_pqr,ijk(g)."""
    out: Terms = {}
    for ijk in TRIPLES:
        cols = [i - 1 for i in ijk]
        acc = Fraction(0)
        for pqr, c in terms.items():
            acc += c * det3(g, [p - 1 for p in pqr], cols)
        if acc:
            out[ijk] = acc
    return out


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def unimodular(rng: random.Random, steps: int = 7) -> List[List[Fraction]]:
    """Signed permutation times `steps` elementary row additions: det = +-1."""
    perm = list(range(7))
    rng.shuffle(perm)
    m = [[Fraction(rng.choice((-1, 1)) if perm[r] == c else 0) for c in range(7)] for r in range(7)]
    for _ in range(steps):
        i, j = rng.sample(range(7), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def rational_matrix(rng: random.Random, num: int = 4, den: int = 5) -> List[List[Fraction]]:
    while True:
        m = [[Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(7)] for _ in range(7)]
        if det(m):
            return m


def rescale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7))


def random_terms(rng: random.Random, span: int = 2, dims: int = 7) -> Terms:
    """Each coefficient uniform in [-span, span], as scripts/classify_random_forms.py draws."""
    while True:
        out = {}
        for idx in itertools.combinations(range(1, dims + 1), 3):
            c = rng.randint(-span, span)
            if c:
                out[idx] = Fraction(c)
        if out:
            return out


def labelled(rng: random.Random, kind: str, label: str) -> Terms:
    """The representative of the label's orbit pulled back by a matrix of the given kind."""
    rep = REPS[label]
    while True:
        if kind == "integer":
            terms = compose(rep, unimodular(rng))
        else:
            t = rescale(rng)
            terms = {k: t * c for k, c in compose(rep, rational_matrix(rng)).items()}
        if terms != rep:
            return terms


def mix_slot(seed: int, i: int) -> Tuple[str, Optional[str]]:
    """(kind, label) of classify-mix op i."""
    block = [(k, label) for k, label, n in MIX_BLOCK for _ in range(n)]
    random.Random(f"classify-mix:{seed}:block:{i // MIX_BLOCK_LEN}").shuffle(block)
    return block[i % MIX_BLOCK_LEN]


def make_input(workload: str, seed: int, i: int) -> Tuple[str, Terms, Optional[str]]:
    """(kind, terms, label) of op i; label is None where only consistency is checked."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    if workload == "witness-p1000":
        kind, label = WITNESS_CYCLE[i % len(WITNESS_CYCLE)]
    else:
        kind, label = mix_slot(seed, i)
    if kind == "random":
        return kind, random_terms(rng), None
    if kind == "nongeneric":
        return kind, random_terms(rng, span=3, dims=6), label
    return kind, labelled(rng, kind, label), label


def fmt(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def form_json(terms: Terms) -> str:
    """The package's 3-form file format: 1-based sorted triples, rational strings."""
    body = {"dim": 7, "degree": 3,
            "terms": [{"idx": list(k), "c": fmt(c)} for k, c in sorted(terms.items())]}
    return json.dumps(body, indent=1) + "\n"
