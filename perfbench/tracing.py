"""Run-time spans around the layers of l2mbqc, installed from outside the library.

Each wrapped callable is replaced wherever an ``l2mbqc`` module holds a
reference to it, so calls made inside the library (``verify_protocol`` ->
``exact_distribution``, ``synthesize_mod_p`` -> ``_complete``) are seen too.
``numpy.einsum`` and ``DenseEngine.copy`` are plain counters: they run tens of
thousands of times per operation and a span apiece would swamp the timing.
Per-gate helpers (``rot_x``, ``dot2``) are not wrapped.  Spans are stamped
with the process's CPU clock, like the end-to-end timings.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import mpmath
import numpy

from l2mbqc import cli, mbqc, onequbit, pfd, qsp, sim


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = None
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [name, time.process_time(), None, parent, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.process_time()
                tracer.stack.pop()
            if observe is not None:
                parent_name = None if parent is None else tracer.spans[parent][0]
                observe(tracer, parent_name, args, kwargs, result)
            return result
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # -- installation ------------------------------------------------------

    def replace(self, owner, attr, wrapper_of):
        """Swap owner.attr and every other l2mbqc reference to the same object."""
        original = getattr(owner, attr)
        new = wrapper_of(original)
        targets = [owner] + [m for k, m in sys.modules.items()
                             if k == "l2mbqc" or k.startswith("l2mbqc.")]
        for mod in dict.fromkeys(targets):
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, new)

    def replace_method(self, cls, attr, wrapper_of):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(wrapper_of(raw.__func__))
        else:
            new = wrapper_of(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def __enter__(self):
        for owner, attr, name, observe in _SPANS:
            self.replace(owner, attr,
                         lambda fn, n=name, o=observe: self.wrap(n, fn, o))
        self.replace(numpy, "einsum",
                     lambda fn: self.counter("sim.einsum_calls", fn))
        self.replace_method(sim.DenseEngine, "copy",
                            lambda fn: self.counter("sim.branches", fn))
        S = mbqc.MeasurementSchedule
        self.replace_method(S, "to_json", lambda fn: self.wrap(
            "mbqc.encode", fn, _observe_json))
        self.replace_method(S, "from_json", lambda fn: self.wrap(
            "mbqc.decode", fn))
        return self

    def __exit__(self, *exc):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans}))


# ---------------------------------------------------------------------------
# observers: count the work a layer did, at the boundary where it did it


def _observe_polyroots(tr, parent, args, kwargs, result):
    tr.counts["qsp.polyroots_calls"] += 1
    tr.counts["qsp.polyroots_degree"] += len(args[0]) - 1


def _observe_interp(tr, parent, args, kwargs, pair):
    tr.high("qsp.max_interp_residual", pair.residual)


def _observe_check(tr, parent, args, kwargs, worst):
    tr.high("qsp.max_reconstruction_residual", worst)


def _observe_pfd(tr, parent, args, kwargs, d):
    tr.counts["pfd.support"] += len(d.support)


def _observe_program(tr, parent, args, kwargs, prog):
    if parent != "onequbit.build":
        progs = prog if isinstance(prog, list) else [prog]
        tr.counts["onequbit.gates"] += sum(p.gate_count for p in progs)


def _observe_schedule(tr, parent, args, kwargs, s):
    if parent != "mbqc.compile":
        tr.counts["mbqc.qubits"] += s.n_qubits
        tr.counts["mbqc.adapt_entries"] += sum(len(q.a_ids) for q in s.qubits)


def _observe_json(tr, parent, args, kwargs, text):
    tr.counts["mbqc.json_bytes"] += len(text.encode())


def _observe_batch(tr, parent, args, kwargs, result):
    tr.counts["sim.shots"] += args[2] if len(args) > 2 else kwargs["shots"]


def _observe_exact(tr, parent, args, kwargs, result):
    tr.counts["sim.exact_inputs"] += 1


_SPANS = [
    (qsp, "synthesize_mod_p", "qsp.other", None),
    (qsp, "synthesize_symmetric", "qsp.other", None),
    (qsp, "solve_mod_p_coeffs", "qsp.other", None),
    (qsp, "solve_symmetric_coeffs", "qsp.other", None),
    (qsp, "complete_and_extract_angles", "qsp.other", None),
    (qsp, "_make_pair", "qsp.interp", _observe_interp),
    (qsp, "_complete", "qsp.complete", None),
    (qsp, "_peel_angles", "qsp.peel", None),
    (qsp, "_reconstruction_residual", "qsp.check", _observe_check),
    (mpmath, "polyroots", "qsp.polyroots", _observe_polyroots),
    (pfd, "solve_pfd", "pfd.solve", _observe_pfd),
    (onequbit, "build_mod3_clifford", "onequbit.build", _observe_program),
    (onequbit, "build_qsp_program", "onequbit.build", _observe_program),
    (onequbit, "build_symmetric_program", "onequbit.build", _observe_program),
    (onequbit, "build_commuting_program", "onequbit.build", _observe_program),
    (onequbit, "or_reduction_bank", "onequbit.build", _observe_program),
    (onequbit, "normalize_sign_form", "onequbit.build", None),
    (mbqc, "compile_to_cluster", "mbqc.compile", _observe_schedule),
    (mbqc, "compile_pfd_to_ghz", "mbqc.compile", _observe_schedule),
    (mbqc, "lift_ghz_to_cluster", "mbqc.compile", _observe_schedule),
    (mbqc, "mod3_protocol", "mbqc.compile", _observe_schedule),
    (mbqc, "modp_protocol", "mbqc.compile", _observe_schedule),
    (mbqc, "qsp_symmetric_protocol", "mbqc.compile", _observe_schedule),
    (mbqc, "or_protocol", "mbqc.compile", _observe_schedule),
    (sim, "verify_protocol", "sim.verify", None),
    (sim, "run_schedule_batch", "sim.sample", _observe_batch),
    (sim, "run_shot", "sim.sample", None),
    (sim, "exact_distribution", "sim.exact", _observe_exact),
    (sim, "branch_distribution", "sim.exact", _observe_exact),
    (sim, "effective_circuit", "sim.analytic", None),
    (sim, "analytic_success", "sim.analytic", None),
    (sim, "compare_engines", "sim.compare", None),
    (cli, "main", "cli.self", None),
] + [(cli, name, "cli.self", None) for name in sorted(vars(cli))
     if name.startswith("cmd_")]


# metric -> unit; a metric in seconds is the self time of the span named
# like the metric without its "_s"
PER_LAYER = {
    "qsp.interp_s": "s", "qsp.complete_s": "s", "qsp.peel_s": "s",
    "qsp.check_s": "s", "qsp.other_s": "s", "qsp.polyroots_s": "s",
    "qsp.polyroots_calls": "count", "qsp.polyroots_degree": "count",
    "qsp.max_interp_residual": "1", "qsp.max_reconstruction_residual": "1",
    "pfd.solve_s": "s", "pfd.support": "count",
    "onequbit.build_s": "s", "onequbit.gates": "count",
    "mbqc.compile_s": "s", "mbqc.qubits": "count", "mbqc.adapt_entries": "count",
    "mbqc.json_bytes": "B", "mbqc.encode_s": "s", "mbqc.decode_s": "s",
    "sim.sample_s": "s", "sim.shots": "count", "sim.einsum_calls": "count",
    "sim.exact_s": "s", "sim.exact_inputs": "count", "sim.branches": "count",
    "sim.analytic_s": "s", "sim.compare_s": "s", "sim.verify_s": "s",
    "cli.self_s": "s", "trace.spans": "count",
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Self seconds per layer span, counts and residual maxima, by metric name."""
    own = tr.self_times()
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.spans":
            value = len(tr.spans)
        elif unit == "s":
            value = own.get(name[:-2], 0.0)
        elif unit == "1":
            value = tr.maxima.get(name, 0.0)
        else:
            value = tr.counts.get(name, 0)
        out[name] = (value, unit)
    return out
