#!/usr/bin/env python3
"""Benchmark of the g2models command line: classify-mix, witness-p1000, verify-suite.

Usage, from the root of a checkout, one workload per run:

    python3 g2bench/run.py --workload classify-mix --seed 1 --seconds 15 --trace 0
    for w in classify-mix witness-p1000 verify-suite; do
        python3 g2bench/run.py --workload $w --seed 1 --seconds 15 --trace 1; done

Each workload is a closed loop: this process is the one client and makes one
`g2models.cli.main` call at a time, with no threads of its own (the program's
`check` pool runs as shipped).  Inputs come from --seed only, are written as
3-form JSON files before the op that reads them, and are never timed.  Every
output is checked by `oracle.py`, which does not use the package; a wrong
output, a nonzero exit or an exception is a failed op.

--trace 0 prints the end-to-end metrics.  An op's time is its wall time less
the host steal time during it (the time the hypervisor ran other work while
this machine's CPUs were ready, read from /proc/stat), scaled to a fixed
machine speed by `refclock.py`, which times a reference computation after
every op.  The wall and steal-corrected unscaled figures are printed too.
--trace 1 first repeats the untraced loop, then installs the span wrappers of
`spans.py`, replays the first TRACE_OPS ops of the same stream, and prints the
per-layer metrics.  The last
line of standard output is the JSON result.  Without the package sources next
to this directory the run exits with code 2 and prints no result.

The workloads, their input shares and which per-layer metric should move which
end-to-end metric on which workload are recorded in `spec.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import oracle
import spans
import refclock
from refclock import RefClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WITNESS_DIGITS = 1000
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
SETUP_RUNS = 7
# ops replayed under tracing: five classify-mix blocks, three witness cycles, one suite pass
TRACE_OPS = {"classify-mix": 5 * inputs.MIX_BLOCK_LEN, "witness-p1000": 3 * len(inputs.WITNESS_CYCLE),
             "verify-suite": 1}
GENERIC = ("split", "compact")
# a full check pass is too long to repeat as a warm-up; its lazy tables are part of every pass
WARM_UP_OPS = {"classify-mix": 2, "witness-p1000": 1, "verify-suite": 0}
# module-level tables a check pass builds on first use: (module, attribute)
LAZY_TABLES = (("splitmodel", "_TABLE"), ("compactmodel", "_TABLE"))


def _load(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Workload:
    """Op i of a workload: its argv, and a check of its output."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.out = work / "out.json"
        self.kinds: dict = {}
        self.orbits: dict = {}

    def prepare(self, i: int):
        """Write op i's input; returns (argv, check) where check(rc) -> None or a reason."""
        if self.name == "verify-suite":
            check_seed = random.Random(f"verify-suite:{self.seed}:{i}").randrange(10 ** 6)
            self.kinds[i] = "suite"
            return (["check", "--seed", str(check_seed), "--out", str(self.out)],
                    lambda rc: oracle.check_suite(rc, _load(self.out)))
        kind, terms, label = inputs.make_input(self.name, self.seed, i)
        self.kinds[i] = kind
        path = self.work / f"in-{i}.json"
        if not path.exists():
            path.write_text(inputs.form_json(terms))
        if self.name == "witness-p1000":
            argv = ["classify", str(path), "--witness", "--precision", str(WITNESS_DIGITS),
                    "--out", str(self.out)]
        else:
            argv = ["classify", str(path), "--out", str(self.out)]

        def check(rc):
            out = _load(self.out)
            self.orbits[i] = out and out.get("orbit")
            if self.name == "witness-p1000":
                return oracle.check_witness(rc, out, terms, label, WITNESS_DIGITS)
            return oracle.check_classify(rc, out, label)

        return argv, check


class Runner:
    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.wl = workload
        self.attempted = 0
        self.failures: list = []
        self.tracer = None  # a spans.Tracer told the op number of each traced op

    def op(self, i: int):
        """Run op i once; returns its wall seconds, the host steal seconds during
        it and the process CPU seconds it used.

        Writing the input and checking the output are not timed.
        """
        argv, check = self.wl.prepare(i)
        self.wl.out.unlink(missing_ok=True)
        if self.tracer:
            self.tracer.op = i
        sink = io.StringIO()
        s0 = host_steal()
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an exception is a failed op
            rc, reason = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        cpu = _cpu() - c0
        stolen = host_steal() - s0
        if rc is not None:
            reason = check(rc)
        self.attempted += 1
        if reason:
            self.failures.append(f"op {i} ({self.wl.kinds.get(i)}): {reason}")
        return dt, stolen, cpu

    def warm_up(self):
        """Ops from negative indices, outside the measured stream, so lazy set-up is done."""
        for i in range(1, WARM_UP_OPS[self.wl.name] + 1):
            self.op(-i)
        self.attempted, self.failures = 0, []

    def loop(self, seconds: float, min_ops: int = 1, clock: RefClock = None):
        """Closed loop from op 0: at least min_ops ops, then more while the next op,
        at the median op time, would reach its midpoint within `seconds` of op
        time, so that a 35-second check pass stays one pass.

        Returns the op wall times, the host steal seconds during each op and the
        process CPU seconds (self and children) spent inside the ops; a given
        clock gets its references after each op.
        """
        lat, stolen, cpu = [], [], 0.0
        while len(lat) < min_ops or sum(lat) + statistics.median(lat) / 2 < seconds:
            dt, st, c = self.op(len(lat))
            if clock:
                clock.after(dt)
            lat.append(dt)
            stolen.append(st)
            cpu += c
        return lat, stolen, cpu


def host_steal() -> float:
    """Seconds the hypervisor ran other work while this machine's CPUs were ready
    to run, averaged over the CPUs: the steal column of /proc/stat, 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and not line.startswith("cpu ")]
        return sum(int(r[8]) for r in rows) / len(rows) / CLOCK_TICKS
    except (OSError, IndexError, ValueError, ZeroDivisionError):
        return 0.0


def _cpu() -> float:
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


# a fresh interpreter times its own import of the package
_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import g2models.cli
print(time.perf_counter() - t0)
"""


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import g2models.cli.

    The import is timed inside the child, so interpreter start-up, which the
    package cannot change, is left out.  One untimed child first writes the
    bytecode caches, which an installed package has, under .bench_work/pycache,
    whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", _SETUP_CHILD]
    times = [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                                  text=True).stdout) for _ in range(SETUP_RUNS + 1)]
    return statistics.median(times[1:])


def tail(lat):
    """(percentile, value, samples beyond): the highest whole percentile with >= 10 beyond it.

    Nearest-rank percentiles; with fewer than 11 samples it is the maximum.
    """
    s = sorted(lat)
    n = len(s)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1], n - rank
    return 100, s[-1], 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(lat) -> dict:
    return {"ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "op_p50_ms": metric(1000 * statistics.median(lat), "ms"),
            "op_tail_ms": metric(1000 * tail(lat)[1], "ms")}


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = setup_seconds()
    runner.warm_up()
    clock = RefClock(refclock.SHARE * seconds)
    wall, stolen, _ = runner.loop(seconds, clock=clock)
    own = [w - s for w, s in zip(wall, stolen)]
    lat = [t * clock.scale(k) for k, t in enumerate(own)]
    p, _, beyond = tail(lat)
    m = {"setup_s": metric(setup, "s"), **latency_metrics(lat),
         "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    print(f"# op_tail_ms is p{p} of {len(lat)} ops, {beyond} beyond it; "
          f"steal is {sum(stolen) / sum(wall):.3f} of the op wall time")
    for label, times in (("wall", wall), ("less steal, unscaled", own)):
        print(f"# {label}: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                         for k, v in latency_metrics(times).items()))
    if runner.wl.name == "verify-suite":
        print(f"# suite_s {statistics.median(lat):.3f} s (median of {len(lat)} full check passes)")
    return m


def per_layer(runner: Runner, seconds: float) -> dict:
    wl = runner.wl.name
    n = TRACE_OPS[wl]
    wall0 = time.perf_counter()
    runner.warm_up()
    lat, _, cpu = runner.loop(seconds, n)
    cpu_per_wall = cpu / sum(lat)
    print(f"# untraced: {len(lat)} ops in {time.perf_counter() - wall0:.1f} s")

    if wl == "verify-suite":
        drop_lazy_tables()
    tracer = spans.Tracer()
    wrapped = tracer.install({"forms.norm_from_form": gram_key})
    try:
        runner.tracer = tracer
        traced, _, _ = runner.loop(0, n)
    finally:
        runner.tracer = None
        tracer.uninstall()
    prof = tracer.profile()
    by_layer = prof.grouped(spans.layer_of)
    by_name = prof.grouped(lambda name: name)
    dump = WORK / f"spans-{wl}.bin"
    tracer.dump(str(dump))
    print(f"# traced: {n} ops, {wrapped} functions and methods wrapped, "
          f"{tracer.span_count()} spans written to {dump.relative_to(ROOT)}")

    m = {}
    for layer in spans.LAYERS:
        st = by_layer.get(layer, spans.Stats())
        m[f"{layer}.calls"] = metric(st.calls, "count")
        m[f"{layer}.self_s"] = metric(st.self_s, "s")
        m[f"{layer}.wait_s"] = metric(st.wait_s, "s")

    def named(metric_name, span_name, attr, unit):
        m[metric_name] = metric(getattr(by_name.get(span_name, spans.Stats()), attr), unit)

    named("forms.norm_from_form.calls", "forms.norm_from_form", "calls", "count")
    named("forms.norm_from_form.self_s", "forms.norm_from_form", "self_s", "s")
    named("forms.evaluate.calls", "forms.KForm.evaluate", "calls", "count")
    named("linalg.sym_diagonalize.self_s", "linalg.sym_diagonalize", "self_s", "s")
    named("linalg.inverse.self_s", "linalg.inverse", "self_s", "s")
    named("linalg.rref.calls", "linalg.rref", "calls", "count")
    named("linalg.rref.self_s", "linalg.rref", "self_s", "s")
    named("linalg.nullspace.self_s", "linalg.nullspace", "self_s", "s")
    named("bigfloat.real_cube_root.self_s", "bigfloat.real_cube_root", "self_s", "s")
    named("octonions.oct_mul_coeffs.calls", "octonions.CrossProductSpace.oct_mul_coeffs", "calls", "count")
    named("octonions.oct_mul_coeffs.self_s", "octonions.CrossProductSpace.oct_mul_coeffs", "self_s", "s")
    arithmetic = spans.OPERATORS | {"sqrt"}
    m["bigfloat.ops"] = metric(sum(st.calls for name, st in by_name.items()
                                   if name.startswith("bigfloat.BigFloat.")
                                   and name.rsplit(".", 1)[1] in arithmetic), "count")

    gram_calls = m["forms.norm_from_form.calls"]["value"]
    distinct = len(tracer.keys["forms.norm_from_form"])
    m["forms.gram_useful_ratio"] = metric(distinct / gram_calls if gram_calls else 0.0, "ratio")
    per_op = tracer.op_calls("forms.norm_from_form")
    generic = [i for i in range(n) if runner.wl.orbits.get(i) in GENERIC]
    m["forms.norm_from_form.calls_per_generic_op"] = metric(
        sum(per_op[i] for i in generic) / len(generic) if generic else 0.0, "count")
    m["checks.cpu_per_wall"] = metric(cpu_per_wall, "ratio")
    m["trace.overhead_ratio"] = metric(sum(traced) / sum(lat[:n]), "ratio")
    print(f"# norm_from_form calls per op: "
          + " ".join(f"{i}:{runner.wl.kinds[i]}={per_op[i]}" for i in range(n)))
    return m


def drop_lazy_tables():
    """Forget the tables the untraced pass built, so the traced pass builds them
    again, as every end-to-end pass of verify-suite does."""
    for module, attr in LAZY_TABLES:
        mod = sys.modules.get(f"g2models.{module}")
        if mod is not None and hasattr(mod, attr):
            setattr(mod, attr, None)


def gram_key(a, basis=None):
    """Identity of a Gram-form input: the form's coefficients and the basis."""
    return (a.degree, tuple(sorted(a.coeffs.items())),
            None if basis is None else tuple(tuple(v) for v in basis))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "g2models" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}/g2models", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import g2models.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "g2models").resolve():
        print(f"error: g2models imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        runner = Runner(cli, Workload(args.workload, args.seed, work))
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kinds = [runner.wl.kinds[i] for i in runner.wl.kinds if i >= 0]
    shares = {k: round(kinds.count(k) / len(kinds), 3) for k in sorted(set(kinds))}
    failed = len(runner.failures)
    for reason in runner.failures[:10]:
        print(f"# FAILED {reason}")
    print(f"# workload {args.workload} seed {args.seed}: input kinds {shares}")
    print(f"# failed_ratio {failed / runner.attempted:.6f} ({failed} of {runner.attempted} ops)")
    for name, v in metrics.items():
        print(f"{name:48} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
