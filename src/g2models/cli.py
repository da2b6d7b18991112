"""Command-line front end: root data, 3-form classification, tables, checks.

Exit codes: 0 success, 1 failed check, 2 usage or parse problem, 3 witness
precision exhausted.  All output is JSON with rationals as strings, so
results are byte-stable for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import checks as ck
from . import forms as fo
from . import octonions as oc
from . import rootsys as rs
from . import splitmodel as sm
from .bigfloat import DEFAULT_DIGITS

# below 2 digits the witness tolerance 10^(-P/2) is 1
MIN_DIGITS = 2


def _emit(payload, out: Optional[str]):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_roots(args) -> int:
    m = re.fullmatch(r"([A-Ga-g])(\d+)", args.type.strip())
    if not m:
        print(f"error: bad type string {args.type!r} (expected like G2, A3)", file=sys.stderr)
        return 2
    try:
        c = rs.cartan_of_type(m.group(1), int(m.group(2)))
    except rs.UnknownType as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = rs.roots_to_json(c)
    payload["cartan_matrix"] = [list(row) for row in c.entries]
    payload["weyl_order"] = len(rs.weyl_group(c))
    _emit(payload, args.out)
    return 0


def cmd_classify(args) -> int:
    if args.precision < MIN_DIGITS:
        print(f"error: --precision must be at least {MIN_DIGITS}, got {args.precision} "
              f"(the residual bound 10^(-P/2) certifies nothing below that)", file=sys.stderr)
        return 2
    try:
        with open(args.file) as fh:
            data = json.load(fh)
        om = fo.KForm.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser's recursion limit
        print(f"error: cannot parse 3-form file: {exc}", file=sys.stderr)
        return 2
    if om.degree != 3:
        print(f"error: classify needs a 3-form, got degree {om.degree}", file=sys.stderr)
        return 2
    an = fo.analyze(om)
    tag = fo.classify_orbit(an)
    payload = {"orbit": tag.value, "signature": None}
    if tag is not fo.OrbitTag.NOT_GENERIC:
        payload["signature"] = list(fo.normalized_signature(an))
    if args.witness:
        if tag is fo.OrbitTag.NOT_GENERIC:
            print("error: no witness for a non-generic form", file=sys.stderr)
            return 2
        try:
            payload["witness"] = fo.orbit_witness(an, args.precision).to_json()
        except fo.PrecisionExhausted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    _emit(payload, args.out)
    return 0


def cmd_table(args) -> int:
    if args.kind == "fano":
        table = oc.basis_table("division")
        payload = table.to_json()
        payload["kind"] = "fano"
        payload["products"] = _readable_products(table)
    elif args.kind == "split-octonion":
        table = oc.basis_table("split")
        payload = table.to_json()
        payload["kind"] = "split-octonion"
        payload["products"] = _readable_products(table)
    elif args.kind == "g2-structure-constants":
        payload = sm.structure_table().to_json()
        payload["kind"] = "g2-structure-constants"
    else:
        print(f"error: unknown table kind {args.kind!r}", file=sys.stderr)
        return 2
    _emit(payload, args.out)
    return 0


def _readable_products(table) -> dict:
    from .scalars import fmt_q

    names = table.basis_names
    out = {}
    for i in range(table.dim):
        for j in range(table.dim):
            terms = []
            for k, v in table.c[i][j]:
                coef = fmt_q(v)
                if coef == "1":
                    terms.append(names[k])
                elif coef == "-1":
                    terms.append(f"-{names[k]}")
                else:
                    terms.append(f"{coef}*{names[k]}")
            out[f"{names[i]}*{names[j]}"] = " + ".join(terms) if terms else "0"
    return out


def cmd_check(args) -> int:
    report = ck.run_checks(filter_glob=args.filter, seed=args.seed)
    for cid, status, detail, ms, cpu in report.entries:
        line = f"[{status.upper():4}] {cid:32} {ms:6d} ms {cpu:6d} cpu ms  {detail}"
        print(line)
    summary = "all checks passed" if report.ok else "CHECK FAILURES PRESENT"
    print(f"-- {summary} ({len(report.entries)} run)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="g2models",
                                description="Exact models of the Lie algebra G2")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("roots", help="emit the root system of a finite type")
    pr.add_argument("type", help="type string such as G2 or A3")
    pr.add_argument("--out", default=None, help="write JSON here instead of stdout")
    pr.set_defaults(fn=cmd_roots)

    pc = sub.add_parser("classify", help="classify a 3-form JSON file into its orbit")
    pc.add_argument("file", help="path to a 3-form file")
    pc.add_argument("--witness", action="store_true", help="also build a frame witness")
    pc.add_argument("--precision", type=int, default=DEFAULT_DIGITS,
                    help="decimal digits for the witness, at least 2 (default 60)")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_classify)

    pt = sub.add_parser("table", help="emit a multiplication or bracket table")
    pt.add_argument("kind", choices=["fano", "split-octonion", "g2-structure-constants"])
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=cmd_table)

    pk = sub.add_parser("check", help="run the machine verification suite")
    pk.add_argument("--filter", default="*", help="glob over check ids (default all)")
    pk.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    pk.add_argument("--out", default=None, help="also write a JSON report")
    pk.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.fn(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
