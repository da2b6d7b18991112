"""Span tracing installed from outside the package, for the traced run only.

`Tracer.install` replaces each public function and method of the layer
modules by a wrapper that records one span per call: name, parent span, thread,
op number, and start/end of wall time and thread CPU time.  Functions are
re-bound in every package namespace that holds them (`from .linalg import rref`
binds a second name in `forms`), and inside module-level tuples, lists and
dicts (the `checks.CHECKS` registry).  Spans stay in per-thread column arrays
until the end of the run, when `Tracer.profile` reduces them and `Tracer.dump`
writes them out.

Each span reads the thread CPU clock before and the wall clock inside, so a
span's CPU interval holds its wall interval: wait time carries a bias of about
-1 us per call of the layer itself and +1 us per call it makes into a traced
function, which matters only where wait_s is small against calls x 1 us.

A span opened on a thread with no open span (a pool worker) takes as parent the
innermost open span of the thread that installed the tracer, which is the op
that caused it.  Self time is the span's wall time minus the union of its
children's intervals, so children running in parallel are not subtracted
twice; self CPU time is the span's thread CPU time minus that of its children
on the same thread; wait time is self wall time minus self CPU time, the time
the span's own code spent waiting for the interpreter lock or the scheduler.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

PACKAGE = "g2models"
LAYERS = ("cli", "checks", "forms", "linalg", "bigfloat", "scalars", "algebra", "rootsys",
          "splitmodel", "octonions", "derivations", "homogeneous", "compactmodel", "spinor")

# operator methods count as public: they carry the Q(i) and BigFloat arithmetic
OPERATORS = frozenset("""__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__
__rtruediv__ __neg__ __abs__ __pow__ __lt__ __le__ __gt__ __ge__ __eq__""".split())

_ID_BITS = 40  # span id = buffer number << _ID_BITS | index in that buffer
COLUMNS = ("name", "parent", "op", "t0", "t1", "c0", "c1")


class Buffer:
    """Spans of one thread, column-wise, so a million spans stay compact."""

    def __init__(self, no: int, thread: int):
        self.no = no
        self.base = no << _ID_BITS
        self.thread = thread
        self.stack: List[int] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")

    def add(self, name: int, parent: int, op: int, t0: float, t1: float, c0: float, c1: float) -> int:
        """Append a finished span; returns its id."""
        i = len(self.t0)
        for c, v in zip(COLUMNS, (name, parent, op, t0, t1, c0, c1)):
            getattr(self, c).append(v)
        return self.base | i


@dataclass
class Profile:
    """Per span name: calls, self wall seconds and wait seconds."""

    names: List[str]
    calls: List[int]
    self_s: List[float]
    wait_s: List[float]

    def grouped(self, group: Callable[[str], str]) -> Dict[str, "Stats"]:
        out: Dict[str, Stats] = defaultdict(Stats)
        for nid, name in enumerate(self.names):
            st = out[group(name)]
            st.calls += self.calls[nid]
            st.self_s += self.self_s[nid]
            st.wait_s += self.wait_s[nid]
        return out


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    wait_s: float = 0.0


@dataclass
class Tracer:
    op: int = -1
    names: List[str] = field(default_factory=list)
    keys: Dict[str, set] = field(default_factory=dict)
    buffers: List[Buffer] = field(default_factory=list)

    def __post_init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: Optional[Buffer] = None
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------
    def new_buffer(self, thread: int) -> Buffer:
        with self._lock:
            buf = Buffer(len(self.buffers), thread)
            self.buffers.append(buf)
        return buf

    def _buffer(self) -> Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = self.new_buffer(threading.get_ident())
        return buf

    def wrap(self, fn: Callable, name: str, key: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of fn; key(*args) feeds distinct-input counts."""
        nid = len(self.names)
        self.names.append(name)
        perf, cpu, buffer = time.perf_counter, time.thread_time, self._buffer
        seen = self.keys.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                home = self._home
                parent = home.stack[-1] if home is not None and home.stack else -1
            if seen is not None:
                seen.add(key(*args, **kwargs))
            i = len(buf.t0)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.op.append(self.op)
            buf.t1.append(0.0)
            buf.c1.append(0.0)
            stack.append(buf.base | i)
            buf.c0.append(cpu())
            buf.t0.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.t1[i] = perf()
                buf.c1[i] = cpu()
                stack.pop()

        return span

    # -- installation ----------------------------------------------------------
    def install(self, keys: Optional[Dict[str, Callable]] = None) -> int:
        """Wrap every layer's public functions and methods; returns the number wrapped.

        Call it from the thread that runs the ops.  keys maps a span name to a
        function of the call's arguments whose distinct values are counted.
        """
        keys = keys or {}
        self._home = self._buffer()
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(obj, name, keys.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    self._wrap_class(f"{layer}.{attr}", obj, keys)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                self._rebind(mod, wrappers)
        return len(self.names)

    def _wrap_class(self, prefix: str, cls: type, keys: Dict[str, Callable]) -> None:
        done: Dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{prefix}.{attr}"
            if id(raw) in done:  # aliases such as __radd__ = __add__
                new = done[id(raw)]
            elif isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self.wrap(raw.__func__, name, keys.get(name)))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, keys.get(name))
            else:
                continue
            done[id(raw)] = new
            setattr(cls, attr, new)
            self._undo.append(functools.partial(setattr, cls, attr, raw))

    def _rebind(self, mod, wrappers: Dict[int, Callable]) -> None:
        def swap(value, depth):
            if id(value) in wrappers:
                return wrappers[id(value)]
            if depth and isinstance(value, (tuple, list)):
                items = [swap(v, depth - 1) for v in value]
                if any(a is not b for a, b in zip(items, value)):
                    return type(value)(items)
            if depth and isinstance(value, dict):
                items = {k: swap(v, depth - 1) for k, v in value.items()}
                if any(items[k] is not value[k] for k in value):
                    return items
            return value

        for attr, value in list(vars(mod).items()):
            new = swap(value, 2)
            if new is not value:
                setattr(mod, attr, new)
                self._undo.append(functools.partial(setattr, mod, attr, value))

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._undo:
            self._undo.pop()()
        self._home = None

    # -- read-out ----------------------------------------------------------------
    def profile(self) -> Profile:
        """Reduce the finished spans to calls, self time and wait time per name."""
        bufs = self.buffers
        child_wall = [array("d", bytes(8 * len(b.t0))) for b in bufs]
        child_cpu = [array("d", bytes(8 * len(b.t0))) for b in bufs]
        # parents with children on other threads need an interval union
        crossed: Dict[int, list] = {}
        for b in bufs:
            for p in b.parent:
                if p >= 0 and p >> _ID_BITS != b.no:
                    crossed[p] = []
        mask = (1 << _ID_BITS) - 1
        for b in bufs:
            for i, p in enumerate(b.parent):
                if p < 0 or not b.t1[i]:
                    continue
                pb, pi = p >> _ID_BITS, p & mask
                if p in crossed:
                    crossed[p].append((b.t0[i], b.t1[i]))
                else:
                    child_wall[pb][pi] += b.t1[i] - b.t0[i]
                if pb == b.no:
                    child_cpu[pb][pi] += b.c1[i] - b.c0[i]
        n = len(self.names)
        prof = Profile(list(self.names), [0] * n, [0.0] * n, [0.0] * n)
        for b, cw, cc in zip(bufs, child_wall, child_cpu):
            for i, nid in enumerate(b.name):
                if not b.t1[i]:
                    continue
                sid = b.base | i
                covered = _union(crossed[sid]) if sid in crossed else cw[i]
                wall = b.t1[i] - b.t0[i] - covered
                cpu = b.c1[i] - b.c0[i] - cc[i]
                prof.calls[nid] += 1
                prof.self_s[nid] += wall
                prof.wait_s[nid] += wall - cpu
        return prof

    def op_calls(self, name: str) -> Counter:
        """op number -> calls of the named span in that op."""
        nids = {i for i, nm in enumerate(self.names) if nm == name}
        out: Counter = Counter()
        for b in self.buffers:
            for nid, op in zip(b.name, b.op):
                if nid in nids:
                    out[op] += 1
        return out

    def span_count(self) -> int:
        return sum(len(b.t0) for b in self.buffers)

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line (span names, column typecodes, and
        per thread buffer its number, thread id and span count), then each
        buffer's columns as native arrays in header order."""
        header = {"names": self.names, "columns": {c: getattr(Buffer(0, 0), c).typecode for c in COLUMNS},
                  "buffers": [[b.no, b.thread, len(b.t0)] for b in self.buffers]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for b in self.buffers:
                for c in COLUMNS:
                    getattr(b, c).tofile(fh)


def _union(intervals: List[tuple]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
