"""Span tracer for the dcs layers, applied from outside the program.

``Instrumentation`` wraps the public functions of each dcs module that the
benchmark measures.  A wrapper records one span (name, start, end, parent
span, op id, thread) per call and, after the call returns, updates the
exactly repeating counts of that layer: nodes, SVD matrices, winding
samples and so on.  Names that other dcs modules bound with ``from ...
import`` are patched too, so every call path is seen; ``restore`` puts every
original back.

Spans are kept in memory and written out once, at the end of a run.  A
span's self time is its duration minus the part its child spans cover.
Count bookkeeping runs outside the timed call and is recorded as a
``trace.hook`` child span, so it is excluded from the layer's parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"


class Tracer:
    """In-memory span store with per-thread span stacks and layer counts."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, thread)
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._seen_nodes = set()
        self._seen_windings = set()

    # -- op and pass bookkeeping -------------------------------------------

    def set_op(self, op_id):
        self._local.op = op_id

    def reset_pass(self):
        """Start a new pass: counts and the repeat ledgers begin empty."""
        self.counts = defaultdict(int)
        self._seen_nodes = set()
        self._seen_windings = set()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, sid, name, t0, t1, parent):
        self.spans.append((sid, name, t0, t1, parent,
                           getattr(self._local, "op", None), threading.get_ident()))

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span.  ``name`` may be a callable of
        the call's arguments; ``hook(tracer, args, kwargs, result, stack)``
        updates counts after the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1][0] if st else None
            sid = next(tracer._ids)
            span_name = name(*args, **kwargs) if callable(name) else name
            st.append((sid, span_name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                tracer._record(sid, span_name, t0, t1, parent)
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer, args, kwargs, result, st)
                tracer._record(next(tracer._ids), HOOK, h0, time.perf_counter(), parent)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def layer_times(self, spans=None):
        """name -> [calls, inclusive seconds, self seconds]."""
        spans = self.spans if spans is None else spans
        child = defaultdict(float)
        for _sid, _name, t0, t1, parent, _op, _th in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, t0, t1, _parent, _op, _th in spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, th in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": round(t0 - origin, 9),
                                     "end": round(t1 - origin, 9),
                                     "parent": parent, "op": op,
                                     "thread": th}) + "\n")


# ---------------------------------------------------------------------------
# count hooks, one per measured layer

def _nodes_of(theta, rho):
    th = np.asarray(theta)
    return int(np.broadcast(th, np.asarray(0.0 if rho is None else rho)).size)


def _hook_atlas_eval(tr, args, kwargs, result, stack):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    rho = args[3] if len(args) > 3 else kwargs.get("rho")
    nodes = _nodes_of(theta, rho)
    tr.counts["atlas.eval.calls"] += 1
    tr.counts["atlas.eval.nodes"] += nodes
    if any(name == "invariants.winding" for _sid, name in stack):
        tr.counts["paths.winding_atom_nodes"] += nodes


def _hook_validate_batch(tr, args, kwargs, result, stack):
    pts = np.asarray(args[0] if args else kwargs["points"], dtype=np.complex128)
    if pts.ndim == 2:
        pts = pts[None]
    n = pts.shape[0]
    amb = pts.shape[-1] - 1
    tr.counts["strata.validate_batch.calls"] += 1
    tr.counts["strata.validate_batch.nodes"] += n
    tr.counts[f"strata.validate_batch.cp{amb}.nodes"] += n
    rows = np.ascontiguousarray(pts).reshape(n, -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
    seen = tr._seen_nodes
    tr.counts["strata.validate_batch.unique_nodes"] += sum(1 for k in keys if k not in seen)
    seen.update(keys)


def _hook_validate_lines_batch(tr, args, kwargs, result, stack):
    tr.counts["strata.validate_lines_batch.calls"] += 1
    tr.counts["strata.validate_lines_batch.nodes"] += np.asarray(args[0]).shape[0]


def _hook_svd(tr, args, kwargs, result, stack):
    shape = np.shape(args[0] if args else kwargs["a"])
    tr.counts["projective.svd.calls"] += 1
    tr.counts["projective.svd.matrices"] += int(np.prod(shape[:-2], dtype=np.int64))


def _hook_winding(tr, args, kwargs, result, stack):
    loop, functional = args[0], args[1]
    n = args[2] if len(args) > 2 else kwargs.get("n", 512)
    label = loop.label() if hasattr(loop, "label") else getattr(loop, "source", repr(loop))
    key = (label, functional.id, functional.ambient, n)
    tr.counts["invariants.winding.calls"] += 1
    tr.counts["invariants.winding.samples"] += int(result.samples)
    tr.counts["invariants.winding.refinements"] += int(result.refinements)
    if key in tr._seen_windings:
        tr.counts["invariants.winding.repeats"] += 1
    tr._seen_windings.add(key)


def _hook_braid(tr, args, kwargs, result, stack):
    tr.counts["braids.identities"] += int(result.identities_checked)


def _hook_dumps(tr, args, kwargs, result, stack):
    tr.counts["report.bytes"] += len(result.encode("utf-8"))


def _batch_name(points, *_args, **_kwargs):
    """validate_batch spans are named per ambient space, e.g. ``.cp3``."""
    return f"strata.validate_batch.cp{np.shape(points)[-1] - 1}"


def _claim_name(claim_id, *_args, **_kwargs):
    return f"verify.claim.{claim_id}"


def _calls(name):
    def hook(tr, args, kwargs, result, stack):
        tr.counts[name] += 1
    return hook


# (module, attribute, span name, hook); a dotted attribute names a method.
LAYERS = (
    ("dcs.atlas", "AtlasItem.eval", "atlas.eval", _hook_atlas_eval),
    ("dcs.strata", "validate_batch", _batch_name, _hook_validate_batch),
    ("dcs.strata", "validate_lines_batch", "strata.validate_lines_batch",
     _hook_validate_lines_batch),
    ("dcs.strata", "validate", "strata.validate", _calls("strata.validate.calls")),
    ("numpy.linalg", "svd", "projective.svd", _hook_svd),
    ("dcs.paths", "sweep_item", "paths.sweep_item", _calls("paths.sweep_item.calls")),
    ("dcs.paths", "pointwise_eq", "paths.pointwise_eq", None),
    ("dcs.paths", "junction_report", "paths.junction_report", None),
    ("dcs.paths", "closure_report", "paths.closure_report", None),
    ("dcs.paths", "parse_loop_expr", "paths.parse_loop_expr",
     _calls("paths.parse_loop_expr.calls")),
    ("dcs.invariants", "winding", "invariants.winding", _hook_winding),
    ("dcs.invariants", "line_constancy", "invariants.line_constancy",
     _calls("invariants.line_constancy.calls")),
    ("dcs.invariants", "fiber_winding_vector", "invariants.fiber_winding_vector",
     _calls("invariants.fiber_winding_vector.calls")),
    ("dcs.invariants", "snf_invariants", "invariants.snf_invariants",
     _calls("invariants.snf_invariants.calls")),
    ("dcs.invariants", "independence_matrix", "invariants.independence_matrix", None),
    ("dcs.braids", "verify_yb3", "braids.verify_yb3", _hook_braid),
    ("dcs.braids", "verify_yb4", "braids.verify_yb4", _hook_braid),
    ("dcs.verify", "verify_claim", _claim_name, None),
    ("dcs.verify", "braid_reports", "verify.braid_reports", None),
    ("dcs.verify", "winding_tables", "verify.winding_tables", None),
    ("dcs.verify", "certificates", "verify.certificates", None),
    ("dcs.report", "RunReport.to_json", "report.to_json", None),
    ("dcs.report", "dumps", "report.dumps", _hook_dumps),
    ("dcs.cli", "main", "cli.main", _calls("cli.main.calls")),
)

POOL_LAYERS = (("dcs.verify", "verify_claim", _claim_name, None),)


class Instrumentation:
    """Context manager that installs span wrappers and restores the originals."""

    def __init__(self, tracer, layers=LAYERS, executor_hook=None):
        self.tracer = tracer
        self.layers = layers
        self.executor_hook = executor_hook
        self._saved = []

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        try:
            for module_name, attr, span_name, hook in self.layers:
                owner = sys.modules[module_name]
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
                wrapped = self.tracer.wrap(span_name, original, hook)
                self._set(owner, path[-1], wrapped)
                if len(path) == 1:
                    self._rebind(original, wrapped)
            if self.executor_hook is not None:
                verify = sys.modules["dcs.verify"]
                self._set(verify, "ThreadPoolExecutor",
                          self.executor_hook(verify.ThreadPoolExecutor))
        except BaseException:
            self.restore()
            raise
        return self

    def _rebind(self, original, wrapped):
        """Patch names that consumers bound with ``from ... import``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dcs" or name.startswith("dcs.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def restore(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def pool_executor(submits):
    """Build a ThreadPoolExecutor subclass that records when each claim is
    submitted and when the pool starts, for the queue-wait figures."""

    def factory(base):
        class RecordingExecutor(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                submits["_start"] = time.perf_counter()
                submits["_workers"] = self._max_workers

            def submit(self, fn, *args, **kwargs):
                submits[args[0]] = time.perf_counter()
                return super().submit(fn, *args, **kwargs)

        return RecordingExecutor

    return factory
