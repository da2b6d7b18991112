"""Tests of the benchmark itself: input determinism, span arithmetic, oracles.

Run from the root of a checkout:  python3 -m pytest -q g2bench/tests
"""

import json
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", ["classify-mix", "witness-p1000", "verify-suite"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    def written(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        wl = run.Workload(workload, seed, work)
        argvs = [wl.prepare(i)[0] for i in range(25)]
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return [a[2] if a[0] == "check" else a[1].rsplit("/", 1)[1] for a in argvs], files

    first, again, other = written(7, "a"), written(7, "b"), written(8, "c")
    assert first == again
    assert first != other


def test_mix_block_holds_the_stated_shares():
    for block in range(3):
        slots = [inputs.mix_slot(3, block * inputs.MIX_BLOCK_LEN + i) for i in range(inputs.MIX_BLOCK_LEN)]
        assert sorted(set(slots), key=str) == sorted(((k, lb) for k, lb, _ in inputs.MIX_BLOCK), key=str)
        assert all(slots.count((k, lb)) == n for k, lb, n in inputs.MIX_BLOCK)


def test_pullback_by_scalar_matches_scaling():
    # a o (sI) = s^3 a for a 3-form
    g = [[Fraction(2) if r == c else Fraction(0) for c in range(7)] for r in range(7)]
    assert inputs.compose(inputs.COMPACT_REP, g) == {k: 8 * c for k, c in inputs.COMPACT_REP.items()}


def test_self_and_wait_on_synthetic_span_tree():
    # home thread:  A [0,10] cpu 6  -> B [1,4] cpu 2.5 -> D [2,3] cpu 0.5
    #                               -> C [5,7] cpu 1.5
    # worker:       W [3,8] cpu 2, caused by A, overlapping B and C in time
    tr = spans.Tracer()
    tr.names = ["A", "B", "C", "D", "W"]
    home, worker = tr.new_buffer(1), tr.new_buffer(2)
    a = home.add(0, -1, 0, 0.0, 10.0, 0.0, 6.0)
    b = home.add(1, a, 0, 1.0, 4.0, 1.0, 3.5)
    home.add(3, b, 0, 2.0, 3.0, 2.0, 2.5)
    home.add(2, a, 0, 5.0, 7.0, 4.0, 5.5)
    worker.add(4, a, 0, 3.0, 8.0, 0.0, 2.0)
    prof = tr.profile()
    got = {n: (prof.calls[i], prof.self_s[i], prof.wait_s[i]) for i, n in enumerate(prof.names)}
    # A: children cover [1,8] -> self 3; own cpu 6 - 2.5 - 1.5 = 2 -> wait 1
    assert got["A"] == pytest.approx((1, 3.0, 1.0))
    assert got["B"] == pytest.approx((1, 2.0, 0.0))  # 3 - 1 wall, 2.5 - 0.5 cpu
    assert got["C"] == pytest.approx((1, 2.0, 0.5))
    assert got["D"] == pytest.approx((1, 1.0, 0.5))
    assert got["W"] == pytest.approx((1, 5.0, 3.0))
    by_first = prof.grouped(lambda n: "AB" if n in "AB" else "rest")
    assert by_first["AB"].calls == 2 and by_first["AB"].self_s == pytest.approx(5.0)


def test_tracer_wraps_every_namespace_and_restores(tmp_path):
    import g2models.checks as ck
    import g2models.cli as cli
    import g2models.forms as fo
    import g2models.linalg as la

    orig_rref, orig_checks = la.rref, ck.CHECKS
    form = tmp_path / "f.json"
    label = "compact"
    terms = inputs.labelled(__import__("random").Random(5), "integer", label)
    form.write_text(inputs.form_json(terms))
    tr = spans.Tracer()
    tr.install({"forms.norm_from_form": run.gram_key})
    try:
        assert fo.rref is la.rref is not orig_rref
        assert all(fn is not dict(orig_checks)[cid] for cid, fn in ck.CHECKS)
        tr.op = 0
        assert cli.main(["classify", str(form), "--out", str(tmp_path / "o.json")]) == 0
    finally:
        tr.uninstall()
    assert la.rref is orig_rref and fo.rref is orig_rref and ck.CHECKS is orig_checks
    assert json.loads((tmp_path / "o.json").read_text())["orbit"] == label
    assert tr.op_calls("forms.norm_from_form") == {0: 3}
    assert len(tr.keys["forms.norm_from_form"]) == 1
    prof = tr.profile().grouped(spans.layer_of)
    assert prof["cli"].calls >= 2 and prof["forms"].self_s > 0


def _inverse(m):
    n = len(m)
    a = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def test_residual_oracle_accepts_exact_and_rejects_perturbed_phi():
    import random

    rng = random.Random(11)
    g = inputs.unimodular(rng)
    terms = inputs.compose(inputs.SPLIT_REP, g)
    # a = rep o g, so phi = g^-1 maps a back onto rep exactly
    phi = [[str(x) for x in row] for row in _inverse(g)]
    out = {"orbit": "split", "signature": [4, 3], "witness": {"phi": phi, "target": "split"}}
    assert oracle.witness_residual(terms, phi, "split", 1000) == 0
    assert oracle.check_witness(0, out, terms, "split", 1000) is None

    bent = [list(row) for row in phi]
    bent[3][4] = str(Decimal(bent[3][4]) + Decimal("1e-400"))
    out["witness"]["phi"] = bent
    assert oracle.witness_residual(terms, bent, "split", 1000) > Decimal("1e-500")
    assert "exceeds" in oracle.check_witness(0, out, terms, "split", 1000)
    assert oracle.check_witness(0, out, terms, "compact", 1000) is not None


def test_classify_and_suite_oracles_reject_wrong_outputs():
    assert oracle.check_classify(0, {"orbit": "split", "signature": [4, 3]}, "split") is None
    assert oracle.check_classify(0, {"orbit": "split", "signature": [4, 3]}, "compact")
    assert oracle.check_classify(0, {"orbit": "compact", "signature": [4, 3]}, None)
    assert oracle.check_classify(2, None, None)
    passing = {"overall": "pass", "checks": [{"id": c, "status": "pass"} for c in oracle.CHECK_IDS]}
    assert oracle.check_suite(0, passing) is None
    failing = {"overall": "fail", "checks": [dict(c) for c in passing["checks"]]}
    failing["checks"][0]["status"] = "fail"
    assert oracle.check_suite(1, failing)
    assert oracle.check_suite(0, {"overall": "pass", "checks": passing["checks"][1:]})


def test_op_reports_the_host_steal_during_it(tmp_path, monkeypatch):
    class FakeCli:
        @staticmethod
        def main(argv):
            return 0

    readings = iter([10.0, 10.25])
    monkeypatch.setattr(run, "host_steal", lambda: next(readings))
    runner = run.Runner(FakeCli, run.Workload("classify-mix", 1, tmp_path))
    dt, stolen, _ = runner.op(0)
    assert stolen == 0.25 and dt >= 0
    assert runner.failures  # no output was written, so the op failed


def test_host_steal_is_a_nonnegative_reading():
    assert run.host_steal() >= 0.0


def test_tail_has_ten_samples_beyond():
    lat = list(range(1, 101))
    assert run.tail(lat) == (90, 90, 10)
    assert run.tail([5.0]) == (100, 5.0, 0)


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_map_names_benchmark_metrics_and_shares():
    bench, spec = _bench_json(), json.loads((BENCH / "spec.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(spec["workloads"]) == workloads == set(run.TRACE_OPS)
    for name, entry in spec["per_layer_map"].items():
        assert name in per_layer
        assert set(entry["moves"]) <= e2e and set(entry["on"]) <= workloads
    shares = {}
    for kind, _, n in inputs.MIX_BLOCK:
        shares[kind] = shares.get(kind, 0) + n / inputs.MIX_BLOCK_LEN
    assert spec["workloads"]["classify-mix"]["input_kinds"] == pytest.approx(shares)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_exactly_the_benchmark_metrics(capsys, trace):
    assert run.main(["--workload", "classify-mix", "--seed", "1", "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _bench_json()
    want = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    if trace == "1":
        assert result["metrics"]["forms.norm_from_form.calls_per_generic_op"]["value"] == 3


def test_dump_round_trips_the_span_columns(tmp_path):
    from array import array

    tr = spans.Tracer()
    tr.names = ["A", "B"]
    buf = tr.new_buffer(9)
    a = buf.add(0, -1, 3, 0.0, 2.0, 0.0, 1.5)
    buf.add(1, a, 3, 0.5, 1.0, 0.25, 0.75)
    tr.dump(str(tmp_path / "s.bin"))
    with open(tmp_path / "s.bin", "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for c, code in header["columns"].items():
            cols[c] = array(code)
            cols[c].fromfile(fh, 2)
        assert fh.read() == b""
    assert header["names"] == ["A", "B"] and header["buffers"] == [[0, 9, 2]]
    assert list(cols["parent"]) == [-1, a] and list(cols["t1"]) == [2.0, 1.0]
