"""Span tracing of geomideal's public functions, installed from outside.

Only the traced process calls ``Tracer.install``.  Every wrapped call
records a span (name, start, end, parent span, op id, extra); spans stay in
memory until the run dumps them.  ``layer_metrics`` turns a span list into
per-module calls, total time and self time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# module -> wrapped public functions ("Class.method" for methods)
TARGETS = {
    "cli": ("parse_scene", "emit_records", "render_text"),
    "polykernel": ("groebner_basis", "reduce_basis", "normal_form", "intersect",
                   "ideal_quotient", "saturate", "degree_piece_basis"),
    "freemod": ("module_groebner", "reduce_module_basis", "mod_normal_form",
                "syzygy_generators", "preimage_generators",
                "minimal_generators"),
    "homology": ("free_resolution", "tor_from_resolution",
                 "homologically_transverse", "truncated_tor_over_quotient"),
    "linalg": ("rref", "kernel_basis", "in_row_space", "rank"),
    "twist": ("ProjAutomorphism.pullback", "twist_multiply"),
    "idealizer": ("IdealizerScene.__post_init__", "IdealizerScene.colon_ideal",
                  "stabilization_degree", "exhaustive_oracle_piece"),
    "geometry": ("critical_transversality_certificate", "forward_orbit_hits"),
    "classify": ("classify", "component_analysis"),
}

# spans whose inclusive time is reported as .total_ms
TOTAL_MS = {f"polykernel.{f}" for f in ("intersect", "ideal_quotient", "saturate")}
TOTAL_MS |= {f"{m}.{f}" for m in ("homology", "idealizer", "geometry", "classify")
             for f in TARGETS[m]}

# (zero-share metric, reduction span, Buchberger span directly above it)
SPAIR_SHARES = (
    ("polykernel.spair_zero_share", "polykernel.normal_form",
     "polykernel.groebner_basis"),
    ("freemod.spair_zero_share", "freemod.mod_normal_form",
     "freemod.module_groebner"),
)

MARK = "_bench_span"
OP = "op"


def _is_zero(args, kwargs, out):
    return out.is_zero()


def _rref_cells(args, kwargs, out):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


def _colon_cached(args, kwargs):
    self, n = args[0], (args[1] if len(args) > 1 else kwargs["n"])
    return n in self._colon_cache


# extra recorded on a span: computed after the call, or before it
AFTER = {"polykernel.normal_form": _is_zero, "freemod.mod_normal_form": _is_zero,
         "linalg.rref": _rref_cells}
BEFORE = {"idealizer.IdealizerScene.colon_ideal": _colon_cached}


def span_names():
    return [f"{m}.{f}" for m, fns in TARGETS.items() for f in fns]


def _resolve(name):
    """(owner, attribute, current object) for a target span name."""
    module, _, qual = name.partition(".")
    owner = sys.modules[f"geomideal.{module}"]
    attr = qual
    if "." in qual:
        cls, attr = qual.split(".")
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def untraced():
    """True iff every target is still the program's own function object."""
    return not any(hasattr(_resolve(n)[2], MARK) for n in span_names())


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, op id, outermost, extra]
        self.spans = []
        self._stack = []
        self._depth = {}
        self._op = None

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns
        before, after = BEFORE.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            span = [name, 0, 0, stack[-1] if stack else -1, self._op,
                    depth.get(name, 0) == 0, extra]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = depth.get(name, 0) + 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if after:
                span[6] = after(args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every target where it is defined and wherever another
        geomideal module bound it by name (``from .x import f``)."""
        for name in span_names():
            owner, attr, original = _resolve(name)
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "geomideal" or mod_name.startswith("geomideal.")) \
                        and mod is not owner and vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapped)

    @contextmanager
    def op(self, op_id):
        """Root span of one op; its self time is spent outside every target."""
        self._op = op_id
        span = [OP, 0, 0, -1, op_id, True, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self._op = None


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    covered = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [max(0, s[2] - s[1] - c) for s, c in zip(spans, covered)]


def layer_metrics(spans):
    """Per-layer metrics (ms, counts and shares) from a span list."""
    names = span_names()
    calls = dict.fromkeys(names + [OP], 0)
    self_ns = dict.fromkeys(names + [OP], 0)
    total_ns = dict.fromkeys(names, 0)
    cells = 0
    for s, own in zip(spans, self_times(spans)):
        name = s[0]
        calls[name] += 1
        self_ns[name] += own
        if s[5] and name in total_ns:
            total_ns[name] += s[2] - s[1]
        if name == "linalg.rref":
            cells += s[6]
    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        if name in TOTAL_MS:
            out[f"{name}.total_ms"] = (total_ns[name] / 1e6, "ms")
    out["op.self_ms"] = (self_ns[OP] / 1e6, "ms")
    out["linalg.rref.cells"] = (cells, "count")
    for metric, child, parent in SPAIR_SHARES:
        under = [s for s in spans if s[0] == child and s[3] >= 0
                 and spans[s[3]][0] == parent]
        out[metric] = (sum(1 for s in under if s[6]) / len(under) if under else 0.0,
                       "ratio")
    colon = [s for s in spans if s[0] == "idealizer.IdealizerScene.colon_ideal"]
    out["idealizer.colon_cache_hit_share"] = (
        sum(1 for s in colon if s[6]) / len(colon) if colon else 0.0, "ratio")
    return out
