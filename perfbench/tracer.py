"""Span tracer that wraps stratwave's public functions from outside the package.

`Tracer.install()` replaces every binding of each public function of the
layer modules below: module attributes, names other stratwave modules (and
the benchmark's own modules) imported with `from`, public methods and
classmethods of the module's classes, and the `ScaleCorePair.kappa`
property.  `uninstall()` puts every original back and reports any binding
that is not restored.  The package itself carries no instrumentation.

Each wrapped call is one span: name, start, end, parent span and op id.
Spans stay in memory (up to MAX_SPANS) and are written out at the end;
calls, inclusive time and self time (duration minus the time child spans
cover) are accumulated per name for every call, and counters are kept at
the same function boundaries by the hooks in `HOOKS`.  The wrappers' own
work is measured and taken out of both times (see `Tracer._wrap`); the
start and end stamps of the written spans are raw clock reads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("groups", "sampling", "windows", "transform", "coeffs", "profiles",
          "generators", "io", "cli")
MARK = "__perfbench_wrapped__"
FIELD_OPS = ("coeffs.field_add", "coeffs.field_sub", "coeffs.field_scale")
READS = ("io.read_grid", "io.read_field", "io.read_snapshots")
WRITES = ("io.write_grid", "io.write_field", "io.write_snapshots")
MAX_SPANS = 200_000   # spans kept in memory per run; later ones are counted as dropped
CALIBRATION_CALLS = 2000
CALIBRATION_REPEATS = 7


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.own: list[float] = []
        self.opened: list[int] = []       # active spans per name
        # [span id, child time, tracer time inside the span, start]
        self.stack: list[list] = []
        self._ids = itertools.count()
        self.op = -1
        self.spans = {k: array("q") for k in ("id", "name", "parent", "op")}
        self.times = {k: array("d") for k in ("start", "end")}
        self.dropped = 0
        self.counts: Counter = Counter()
        self.inner_s = 0.0                # wrapper cost inside a span's clock reads
        self.per_call_s = 0.0             # wrapper cost outside all of its clock reads
        self.overhead_s = 0.0             # tracer time charged to no span, summed
        self._tracks: set = set()
        self._ledger = (0, 0)             # (horizon, max L) of the current op
        self._sites: list = []            # (owner, key, original)

    # -- names and spans ---------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.opened):
                col.append(0)
            for col in (self.incl, self.own):
                col.append(0.0)
        return self._nid[name]

    def is_open(self, name: str) -> bool:
        i = self._nid.get(name)
        return i is not None and self.opened[i] > 0

    def _record(self, sid, nid, pid, start, end):
        if len(self.times["start"]) >= MAX_SPANS:
            self.dropped += 1
            return
        s = self.spans
        s["id"].append(sid)
        s["name"].append(nid)
        s["parent"].append(pid)
        s["op"].append(self.op)
        self.times["start"].append(start)
        self.times["end"].append(end)

    def _wrap(self, fn, name: str):
        """A wrapper whose own work is kept out of every span's time.

        A span's time is its call's duration less the tracer time inside it:
        each wrapper measures its bookkeeping and hook (clock reads at entry
        and exit) and adds it, plus the calibrated `inner_s` and
        `per_call_s` its clocks cannot see, to its parent's tracer time.
        Self time is that less the child spans' times.  A call that raises
        stays in its parent's self time.
        """
        nid = self.nid(name)
        hook = HOOKS.get(name)
        stack, calls, incl, own, opened = self.stack, self.calls, self.incl, self.own, self.opened
        ids, record, clock = self._ids, self._record, time.perf_counter
        inner, per_call = self.inner_s, self.per_call_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            frame = [next(ids), 0.0, 0.0, 0.0]
            stack.append(frame)
            opened[nid] += 1
            frame[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[nid] -= 1
                raw = end - frame[3]
                dur = raw - frame[2] - inner
                calls[nid] += 1
                incl[nid] += dur
                own[nid] += dur - frame[1]
                pid = stack[-1][0] if stack else -1
                record(frame[0], nid, pid, frame[3], end)
            if hook is not None:
                hook(self, args, kwargs, result)
            cost = clock() - enter - raw + inner + per_call
            if stack:
                parent = stack[-1]
                parent[1] += dur
                parent[2] += frame[2] + cost
            else:
                self.overhead_s += frame[2] + cost
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def calibrate(self) -> None:
        """Set `inner_s` and `per_call_s` so that a wrapped loop of wrapped
        calls to an empty function reports the times of the unwrapped loop
        and calls: the loop's inclusive time, the calls' time, and the
        loop's self time as those of the bare loop.  Each side is the least
        of CALIBRATION_REPEATS timings."""
        n = CALIBRATION_CALLS

        def leaf(a, b, c):
            return None

        def loop(f):
            for _ in range(n):
                f(1, 2, 3)

        def idle(f):
            for _ in range(n):
                pass

        def timed(body):
            t0 = time.perf_counter()
            body(leaf)
            return time.perf_counter() - t0

        probe = Tracer()
        wrapped_loop, wrapped_leaf = probe._wrap(loop, "loop"), probe._wrap(leaf, "leaf")
        bare, empty, outer, inner = [], [], [], []
        for _ in range(CALIBRATION_REPEATS):
            bare.append(timed(loop))
            empty.append(timed(idle))
            before = probe.incl[0], probe.incl[1]
            wrapped_loop(wrapped_leaf)
            outer.append(probe.incl[0] - before[0])
            inner.append(probe.incl[1] - before[1])
        call = (min(bare) - min(empty)) / n
        self.inner_s = max(0.0, min(inner) / n - call)
        self.per_call_s = max(0.0, (min(outer) - min(bare)) / n - self.inner_s)

    # -- install / uninstall -------------------------------------------------

    @staticmethod
    def _namespaces(extra_modules):
        mods = [m for n, m in sys.modules.items()
                if n == "stratwave" or n.startswith("stratwave.")]
        return [vars(m) for m in mods + list(extra_modules)]

    def install(self, extra_modules=()) -> int:
        """Wrap every binding; returns the number of bindings replaced."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        spaces = self._namespaces(extra_modules)
        for layer in LAYERS:
            mod = sys.modules[f"stratwave.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not hasattr(obj, MARK):
                    wrapper = self._wrap(obj, f"{layer}.{name}")
                    for ns in spaces:
                        for key, val in list(ns.items()):
                            if val is obj:
                                self._sites.append((ns, key, obj))
                                ns[key] = wrapper
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        return len(self._sites)

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self._wrap(member, name)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, name))
            elif isinstance(member, property) and attr == "kappa":
                new = property(self._wrap(member.fget, name))
            else:
                continue
            self._sites.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self, extra_modules=()) -> list:
        """Restore every binding; returns problems, empty when all are back."""
        for owner, key, original in reversed(self._sites):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        problems = [f"{key} not restored" for owner, key, original in self._sites
                    if (owner[key] if isinstance(owner, dict) else vars(owner)[key])
                    is not original]
        self._sites = []
        for ns in self._namespaces(extra_modules):
            for key, val in ns.items():
                if hasattr(val, MARK):
                    problems.append(f"wrapper left at {ns.get('__name__')}.{key}")
                elif inspect.isclass(val):
                    for attr, member in vars(val).items():
                        inner = getattr(member, "__func__", None) or getattr(member, "fget", None)
                        if hasattr(member, MARK) or hasattr(inner, MARK):
                            problems.append(f"wrapper left at {val.__name__}.{attr}")
        return problems

    # -- ops and results -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._tracks = set()
        self._ledger = (0, 0)

    def end_op(self) -> None:
        self.counts["profiles.distinct_tracks"] += len(self._tracks)
        horizon, L = self._ledger
        self.counts["profiles.ledger_minimum"] += horizon * L

    def layer_totals(self) -> dict:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer][0] += self.calls[i]
            out[layer][1] += self.own[i]
        return out

    def total(self, kind: str, *names: str):
        col = {"calls": self.calls, "incl": self.incl}[kind]
        return sum(col[self._nid[n]] for n in names if n in self._nid)

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), dropped=np.array(self.dropped),
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self.spans.items()},
            **{k: np.frombuffer(v, dtype=np.float64) for k, v in self.times.items()})


# -- counter hooks: (tracer, args, kwargs, result), run after the span ends --

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _certificate(t, args, kwargs, result):
    if not kwargs.get("return_details"):
        return
    # the seed enumerates the full (2r+1)^d cube for every shell r >= 1 and
    # keeps its boundary; computed from the shells used, not counted
    shells = result[1]["shells"]
    d = _arg(args, kwargs, 0, "gs").group.dim
    t.counts["sampling.cube_points"] += 1 + sum((2 * r + 1) ** d for r in range(1, shells))
    t.counts["sampling.shell_points"] += (2 * shells - 1) ** d


def _psi_hat(t, args, kwargs, result):
    t.counts["windows.psi_hat_points"] += int(np.size(_arg(args, kwargs, 1, "xi")))


def _frame(t, args, kwargs, result):
    t.counts["transform.cg_iterations"] += result[1]["iterations"]


def _analyze(t, args, kwargs, result):
    # complex128 phase matrices (points x N^d) of the off-grid branch of
    # _sample_spectrum: a scale's points are on the grid iff its lattice
    # spacing is a whole number of grid steps; computed from array sizes
    f, ks, gs = (_arg(args, kwargs, i, n) for i, n in enumerate(("f", "ks", "gs")))
    dx = 2.0 * f.extent / f.N
    for j in range(ks.j_range[0], ks.j_range[1] + 1):
        h = gs.beta * 2.0 ** (-j)
        per_axis = int(np.ceil(f.extent / h - 1e-12) - np.ceil(-f.extent / h - 1e-12))
        ratio = h / dx
        if ratio < 1 or abs(ratio - round(ratio)) > 1e-9:
            t.counts["transform.dense_phase_bytes"] += 16 * per_axis**f.dim * f.N**f.dim


def _synthesize(t, args, kwargs, result):
    # complex128 phase matrices (N^d x points per scale) summed over scales
    c, target = _arg(args, kwargs, 0, "c"), _arg(args, kwargs, 3, "target")
    t.counts["transform.dense_phase_bytes"] += 16 * len(c) * target.N**target.dim


def _reorder(t, args, kwargs, result):
    t.counts["coeffs.reorder_entries"] += len(_arg(args, kwargs, 0, "c"))


def _field_op(t, args, kwargs, result):
    # count the outermost field op only: field_sub calls field_add and field_scale
    if any(t.is_open(n) for n in FIELD_OPS):
        return
    t.counts["coeffs.field_op_calls"] += 1
    t.counts["coeffs.field_op_entries"] += sum(
        len(a) for a in args if hasattr(a, "entries"))


def _field_sub(t, args, kwargs, result):
    _field_op(t, args, kwargs, result)
    if t.is_open("profiles.energy_check"):
        t.counts["profiles.ledger_field_subs"] += 1


def _build(t, args, kwargs, result):
    t.counts["coeffs.build_entries"] += len(result)


def _kappa(t, args, kwargs, result):
    pair = args[0]
    t._tracks.add((pair.js, pair.gammas))


def _energy_check(t, args, kwargs, result):
    dec, L = _arg(args, kwargs, 0, "dec"), _arg(args, kwargs, 1, "L")
    horizon, top = t._ledger
    t._ledger = (dec.snapshots.horizon, max(top, L))


def _generate(t, args, kwargs, result):
    t.counts["generators.entries"] += sum(len(f) for f in result.fields)


def _io(key):
    def hook(t, args, kwargs, result):
        t.counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return hook


HOOKS = {
    "sampling.column_decay_certificate": _certificate,
    "windows.Window.psi_hat": _psi_hat,
    "windows.NarrowWindow.psi_hat": _psi_hat,
    "transform.frame_reconstruct": _frame,
    "transform.analyze": _analyze,
    "transform.synthesize": _synthesize,
    "coeffs.reorder": _reorder,
    "coeffs.field_add": _field_op,
    "coeffs.field_scale": _field_op,
    "coeffs.field_sub": _field_sub,
    "coeffs.CoefficientField.build": _build,
    "profiles.ScaleCorePair.kappa": _kappa,
    "profiles.energy_check": _energy_check,
    "generators.generate": _generate,
    **{n: _io("io.bytes_read") for n in READS},
    **{n: _io("io.bytes_written") for n in WRITES},
}


def per_layer_metrics(t: Tracer, n_ops: int) -> dict:
    """Every per-layer metric, per traced op; yields are plain ratios."""
    layers = t.layer_totals()
    c = t.counts

    def calls(*names):
        return t.total("calls", *names) / n_ops

    def incl(*names):
        return t.total("incl", *names) / n_ops

    def per(key):
        return c[key] / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    kappa_evals = t.total("calls", "profiles.ScaleCorePair.kappa")
    return {
        "groups.calls": (layers["groups"][0] / n_ops, "count/op"),
        "groups.self_s": (layers["groups"][1] / n_ops, "s/op"),
        "sampling.calls": (layers["sampling"][0] / n_ops, "count/op"),
        "sampling.self_s": (layers["sampling"][1] / n_ops, "s/op"),
        "sampling.cube_points": (per("sampling.cube_points"), "count/op"),
        "sampling.shell_points": (per("sampling.shell_points"), "count/op"),
        "sampling.shell_yield": (ratio(c["sampling.shell_points"],
                                       c["sampling.cube_points"]), "ratio"),
        "windows.psi_hat_points": (per("windows.psi_hat_points"), "count/op"),
        "windows.self_s": (layers["windows"][1] / n_ops, "s/op"),
        "transform.self_s": (layers["transform"][1] / n_ops, "s/op"),
        "transform.fft_calls": (calls("transform.grid_fft", "transform.grid_ifft"), "count/op"),
        "transform.analyze_s": (incl("transform.analyze"), "s/op"),
        "transform.synthesize_s": (incl("transform.synthesize"), "s/op"),
        "transform.kernel_build_s": (incl("transform.build_kernel_set"), "s/op"),
        "transform.cg_iterations": (per("transform.cg_iterations"), "count/op"),
        "transform.dense_phase_bytes": (per("transform.dense_phase_bytes"), "B/op"),
        "coeffs.self_s": (layers["coeffs"][1] / n_ops, "s/op"),
        "coeffs.reorder_calls": (calls("coeffs.reorder"), "count/op"),
        "coeffs.reorder_entries": (per("coeffs.reorder_entries"), "count/op"),
        "coeffs.field_op_calls": (per("coeffs.field_op_calls"), "count/op"),
        "coeffs.field_op_entries": (per("coeffs.field_op_entries"), "count/op"),
        "coeffs.build_entries": (per("coeffs.build_entries"), "count/op"),
        "profiles.extract_s": (incl("profiles.extract"), "s/op"),
        "profiles.classify_pair_calls": (calls("profiles.classify_pair"), "count/op"),
        "profiles.classify_pair_s": (incl("profiles.classify_pair"), "s/op"),
        "profiles.kappa_evals": (kappa_evals / n_ops, "count/op"),
        "profiles.kappa_yield": (ratio(c["profiles.distinct_tracks"], kappa_evals), "ratio"),
        "profiles.energy_check_s": (incl("profiles.energy_check"), "s/op"),
        "profiles.ledger_field_subs": (per("profiles.ledger_field_subs"), "count/op"),
        "profiles.ledger_yield": (ratio(c["profiles.ledger_minimum"],
                                        c["profiles.ledger_field_subs"]), "ratio"),
        "profiles.remainder_split_s": (incl("profiles.remainder_split"), "s/op"),
        "generators.generate_s": (incl("generators.generate"), "s/op"),
        "generators.entries": (per("generators.entries"), "count/op"),
        "io.write_s": (incl(*WRITES), "s/op"),
        "io.read_s": (incl(*READS), "s/op"),
        "io.bytes_written": (per("io.bytes_written"), "B/op"),
        "io.bytes_read": (per("io.bytes_read"), "B/op"),
        "cli.self_s": (layers["cli"][1] / n_ops, "s/op"),
    }
