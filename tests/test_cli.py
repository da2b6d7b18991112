import inspect
import json
import subprocess
import sys

import pytest

from g2models import checks as ck
from g2models import cli
from g2models import forms as fo
from g2models import linalg as la


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "g2models", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_roots_g2():
    code, out, _ = run_cli("roots", "G2")
    assert code == 0
    d = json.loads(out)
    assert d["type"] == "G2"
    assert len(d["roots"]) == 12
    assert d["weyl_order"] == 12
    assert d["cartan_matrix"] == [[2, -1], [-3, 2]]


def test_roots_a1():
    code, out, _ = run_cli("roots", "A1")
    assert code == 0
    assert len(json.loads(out)["roots"]) == 2


def test_roots_bad_type_exit_2():
    for bad in ("Z9", "G3", "banana"):
        code, _, err = run_cli("roots", bad)
        assert code == 2
        assert "error" in err


def _write_form(tmp_path, name, form):
    p = tmp_path / name
    p.write_text(json.dumps(form.to_json()))
    return str(p)


def test_classify_representatives(tmp_path):
    p0 = _write_form(tmp_path, "o0.json", fo.OMEGA0)
    code, out, _ = run_cli("classify", p0)
    assert code == 0
    assert json.loads(out) == {"orbit": "split", "signature": [4, 3]}
    p1 = _write_form(tmp_path, "o1.json", fo.OMEGA1)
    code, out, _ = run_cli("classify", p1)
    assert json.loads(out) == {"orbit": "compact", "signature": [0, 7]}
    pg = _write_form(tmp_path, "e123.json", fo.form(3, {(1, 2, 3): 1}))
    code, out, _ = run_cli("classify", pg)
    assert json.loads(out) == {"orbit": "not-generic", "signature": None}


def test_classify_with_witness(tmp_path):
    g = [[0] * 7 for _ in range(7)]
    for i in range(7):
        g[i][i] = 1
    g[0][1] = 2
    g[3][4] = -1
    om = fo.transform([[fo.Q0 + x for x in row] for row in g], fo.OMEGA0)
    p = _write_form(tmp_path, "pulled.json", om)
    code, out, _ = run_cli("classify", p, "--witness", "--precision", "60")
    assert code == 0
    d = json.loads(out)
    assert d["orbit"] == "split"
    assert d["witness"]["target"] == "split"
    res = d["witness"]["residual"]
    assert res == "0E+0" or float(res) <= 1e-30


def test_classify_parse_error_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli("classify", str(p))
    assert code == 2
    code, _, err = run_cli("classify", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("payload, reason", [
    ({"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": "1/0"}]}, "zero denominator"),
    ([{"idx": [1, 2, 3], "c": "1"}], "expected a JSON object"),
    ({"dim": 7, "degree": 2, "terms": [{"idx": [1, 2], "c": "1"}]}, "degree 2"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": 1.5}]},
                 "not a rational string", id="float-coefficient"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": True}]},
                 "not a rational string", id="bool-coefficient"),
    pytest.param('{"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": 1e999}]}',
                 "not a rational string", id="overflowing-number"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": "1"},
                                                   {"idx": [4, 5, 6], "c": "2"},
                                                   {"idx": [1, 2, 3], "c": "1"}]},
                 "repeated idx [1, 2, 3]", id="repeated-idx"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [1.0, 2, 3], "c": "1"}]},
                 "not a list of integers", id="float-idx"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [True, 2, 3], "c": "1"}]},
                 "not a list of integers", id="bool-idx"),
    pytest.param({"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "c": "1e999999999"}]},
                 "exponent notation", id="exponent-coefficient"),
    pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth", id="deep-nesting"),
])
def test_classify_malformed_form_exit_2(tmp_path, payload, reason):
    p = tmp_path / "bad.json"
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli("classify", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("precision", ["1", "0", "-5"])
def test_classify_precision_below_2_exit_2(tmp_path, precision):
    p = _write_form(tmp_path, "o0.json", fo.OMEGA0)
    code, out, err = run_cli("classify", p, "--witness", "--precision", precision)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --precision must be at least 2")
    assert len(err.splitlines()) == 1


def test_classify_precision_exhausted_exit_3(tmp_path, monkeypatch):
    p = tmp_path / "o0.json"
    p.write_text(json.dumps(fo.OMEGA0.to_json()))

    def boom(om, digits):
        raise fo.PrecisionExhausted("forced")

    monkeypatch.setattr(cli.fo, "orbit_witness", boom)

    class Args:
        file = str(p)
        witness = True
        precision = 60
        out = None

    assert cli.cmd_classify(Args()) == 3


def test_table_kinds(tmp_path):
    code, out, _ = run_cli("table", "fano")
    assert code == 0
    d = json.loads(out)
    assert d["products"]["e1*e4"] == "e7"
    assert d["products"]["e1*e1"] == "-1"
    code, out, _ = run_cli("table", "split-octonion")
    d = json.loads(out)
    assert d["products"]["E0*E0"] == "1"
    assert d["products"]["E1*F1"] == "2*1 + 2*E0"
    code, out, _ = run_cli("table", "g2-structure-constants")
    d = json.loads(out)
    assert d["dim"] == 14
    assert len(d["entries"]) > 0
    code, _, _ = run_cli("table", "nonsense")
    assert code == 2


def test_check_filter_and_report(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli("check", "--filter", "rootsys.*", "--seed", "7",
                           "--out", str(out_path))
    assert code == 0
    assert "[PASS] rootsys.g2" in out
    report = json.loads(out_path.read_text())
    assert report["overall"] == "pass"
    assert all(c["cpu_ms"] >= 0 for c in report["checks"])
    assert {c["id"] for c in report["checks"]} == {"rootsys.g2", "rootsys.axioms",
                                                   "rootsys.metric"}


def test_check_byte_stability():
    code1, out1, _ = run_cli("check", "--filter", "octonion.tables", "--seed", "3")
    code2, out2, _ = run_cli("check", "--filter", "octonion.tables", "--seed", "3")
    assert code1 == code2 == 0
    strip = lambda s: "\n".join(line.split("ms")[-1] for line in s.splitlines())
    assert strip(out1) == strip(out2)  # identical up to timing columns


def test_run_checks_seed_reproducible():
    r1 = ck.run_checks("octonion.moufang", seed=5)
    r2 = ck.run_checks("octonion.moufang", seed=5)
    assert [e[:3] for e in r1.entries] == [e[:3] for e in r2.entries]


def test_check_failure_exit_code(monkeypatch):
    def bad(rng):
        raise ck.CheckFailure("synthetic failure")

    monkeypatch.setattr(ck, "CHECKS", (("synthetic.fail", bad),))

    class Args:
        filter = "*"
        seed = 0
        out = None

    assert cli.cmd_check(Args()) == 1


def _line_of(fn, text: str) -> int:
    lines, first = inspect.getsourcelines(fn)
    return first + next(i for i, line in enumerate(lines) if text in line)


def test_failed_check_reports_raise_site(monkeypatch):
    def singular(rng):
        la.inverse([[1, 2], [2, 4]])

    monkeypatch.setattr(ck, "CHECKS", (("synthetic.singular", singular),
                                       ("numerics.rank_nullity", ck.check_rank_nullity)))
    monkeypatch.setattr(ck, "rank", lambda m: -1)
    report = ck.run_checks()
    (_, s1, d1, _, cpu1), (_, s2, d2, _, cpu2) = report.entries
    assert s1 == s2 == "fail" and cpu1 >= 0 and cpu2 >= 0
    inverse_line = _line_of(la.inverse, "raise SingularMatrix")
    assert d1 == ("SingularMatrix: matrix is not invertible"
                  f" (raised at g2models/linalg.py:{inverse_line})")
    # a failed requirement points at the check's own line, not at _require
    require_line = _line_of(ck.check_rank_nullity, '"rank-nullity violated"')
    assert d2 == f"rank-nullity violated (raised at g2models/checks.py:{require_line})"


def test_usage_error_exit_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
