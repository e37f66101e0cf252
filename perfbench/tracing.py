"""Outside-in span tracing of the ``repro`` package's layers.

The traced run replaces the public functions listed in :data:`LAYERS`
with thin wrappers, from the benchmark's own files; nothing under
``src/`` changes.  Every call into a wrapped function becomes a span
(name, start, end, parent).  Spans live in flat arrays in memory and
are written out once, when the run ends.  A span with no parent is a
top-level call; its index is the root id its whole call tree shares.

A layer's self time is the time its spans cover minus the time their
child spans cover, less the wrapper's own calibrated per-call cost.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Layer -> wrapped public functions, as ``module:Qualname`` targets.
#: ``Class.pat*`` wraps every public method of ``Class`` (and of its
#: subclasses that override one) whose name matches the pattern;
#: ``Class.*`` wraps every public method.  Properties are not wrapped.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("traces", (
        "repro.traces.synthetic:generate_trace",
        "repro.traces.synthetic:clone_tenants",
        "repro.traces.synthetic:salt_fingerprints",
        "repro.traces.columnar:ColumnarTrace.from_trace",
    )),
    ("sim", (
        "repro.sim.replay:replay_trace",
        "repro.cluster.replay:replay_cluster",
        "repro.sim.engine:Simulator.issue_volume_ops",
        "repro.sim.engine:Simulator.service_disk_ops",
    )),
    ("baselines", (
        "repro.baselines.base:DedupScheme.process",
        "repro.baselines.base:DedupScheme.plan_batch",
        "repro.baselines.base:DedupScheme.plan_columns",
        "repro.baselines.base:DedupScheme.on_epoch",
    )),
    ("core", (
        "repro.core.icache:ICache.on_epoch",
        "repro.core.icache:ICache.read_*",
        "repro.core.icache:ICache.index_*",
        "repro.core.categorize:categorize_write",
    )),
    ("dedup", (
        "repro.dedup.index_table:IndexTable.*",
        "repro.dedup.map_table:MapTable.*",
    )),
    ("cache", (
        "repro.cache.lru:LRUCache.*",
        "repro.cache.ghost:GhostCache.*",
    )),
    ("storage", (
        "repro.storage.raid:RaidArray.map*",
        "repro.storage.disk:Disk.service",
        "repro.storage.allocator:RegionMap.home_of",
        "repro.cluster.node:ClusterNode.service_*",
    )),
    ("metrics", (
        "repro.metrics.collector:MetricsCollector.record*",
    )),
    ("cluster", (
        "repro.cluster.router:FingerprintRouter.route*",
        "repro.cluster.netmodel:NetworkFabric.round_trip",
        "repro.cluster.directory.quorum:ReplicatedDirectory.lookup_register",
        "repro.cluster.directory.gc:GcJob.run_step",
    )),
    ("jobs", (
        "repro.jobs.admission:AdmissionController.*",
    )),
    ("faults", (
        "repro.faults.injector:FaultInjector.on_disk_op",
        "repro.faults.oracle:ContentOracle.*",
    )),
    ("obs", (
        "repro.obs.timeline:TimelineSampler.note_*",
        "repro.obs.spans:SpanTracer.*",
    )),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, _ in LAYERS)


class SpanRecorder:
    """Flat, append-only span storage plus the open-span stack."""

    def __init__(self) -> None:
        #: Function names (``Class.method``) and their layers, by id.
        self.names: List[str] = []
        self.layers: List[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        #: Open spans, innermost last; -1 is the "no parent" sentinel.
        self.stack: List[int] = [-1]

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, nid: int) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as NumPy columns, with each span's root id."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "root": root_ids(parent),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span, and the name and layer tables, to ``path``
        (``.npz``; span ``i`` is row ``i`` of each span column)."""
        cols = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name_id=cols["name_id"].astype(np.int16),
            parent=cols["parent"].astype(np.int32),
            root=cols["root"].astype(np.int32),
            start=cols["start"],
            duration=(cols["end"] - cols["start"]).astype(np.float32),
        )


def root_ids(parent: np.ndarray) -> np.ndarray:
    """Root span id of every span (parents always precede children)."""
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def self_times(
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    inner: float = 0.0,
    outer: float = 0.0,
) -> np.ndarray:
    """Per-span self time: duration minus the children's durations.

    ``inner`` is the wrapper cost that falls inside a span's own
    interval and ``outer`` the part that falls in its parent's interval
    but outside its own; both are removed.
    """
    dur = end - start
    n = len(dur)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    nchild = np.bincount(parent[has_parent], minlength=n)
    return dur - children - inner - outer * nchild


def layer_totals(
    rec: SpanRecorder, inner: float = 0.0, outer: float = 0.0
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """(self seconds per layer, calls per layer, calls per function)."""
    cols = rec.columns()
    own = self_times(cols["start"], cols["end"], cols["parent"], inner, outer)
    layer_idx = {layer: i for i, layer in enumerate(LAYER_NAMES)}
    name_layer = np.array([layer_idx[l] for l in rec.layers] or [0], dtype=np.int64)
    span_layer = name_layer[cols["name_id"]]
    k = len(LAYER_NAMES)
    secs = np.bincount(span_layer, weights=own, minlength=k)
    calls = np.bincount(span_layer, minlength=k)
    per_fn = np.bincount(cols["name_id"], minlength=len(rec.names))
    return (
        {layer: float(secs[i]) for i, layer in enumerate(LAYER_NAMES)},
        {layer: int(calls[i]) for i, layer in enumerate(LAYER_NAMES)},
        {name: int(per_fn[i]) for i, name in enumerate(rec.names)},
    )


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def _resolve(target: str) -> List[Tuple[object, str, str]]:
    """(owner, attribute, display name) triples a target names."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        if not callable(getattr(module, qualname, None)):
            raise LookupError(f"{target}: no such function")
        return [(module, qualname, qualname)]
    cls_name, pattern = qualname.split(".")
    cls = getattr(module, cls_name)
    found: List[Tuple[object, str, str]] = []
    for klass in [cls] + _subclasses(cls):
        for attr, value in vars(klass).items():
            if attr.startswith("_") or not fnmatch.fnmatchcase(attr, pattern):
                continue
            if isinstance(value, (staticmethod, classmethod)) or inspect.isfunction(value):
                found.append((klass, attr, f"{klass.__name__}.{attr}"))
    if not any(owner is cls for owner, _, _ in found):
        raise LookupError(f"{target}: matches no method of {cls_name}")
    return found


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


@contextmanager
def traced(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`LAYERS` function for the ``with`` body.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name.
    """
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, targets in LAYERS:
            for target in targets:
                for owner, attr, display in _resolve(target):
                    original = vars(owner)[attr]
                    nid = rec.register(display, layer)
                    if isinstance(original, (staticmethod, classmethod)):
                        wrapped: object = type(original)(rec.wrap(original.__func__, nid))
                    else:
                        wrapped = rec.wrap(original, nid)
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    if inspect.ismodule(owner):
                        for alias in _importers(original, owner):
                            undo.append((alias, attr, original))
                            setattr(alias, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _importers(fn: object, home: object) -> Sequence[object]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and mod is not home
        and any(value is fn for value in vars(mod).values())
    ]


# ----------------------------------------------------------------------
# wrapper cost calibration
# ----------------------------------------------------------------------


def calibrate(calls: int = 100_000, trials: int = 5) -> Tuple[float, float]:
    """(inner, outer) wrapper cost per call, in seconds.

    ``inner`` is measured from the spans a wrapped no-op records;
    ``outer`` is the rest of the extra cost of calling through the
    wrapper.  Each is the minimum over ``trials``.
    """

    def noop(a: object, b: object) -> None:
        return None

    clock = time.perf_counter
    inner = outer = float("inf")
    for _ in range(trials):
        rec = SpanRecorder()
        wrapped = rec.wrap(noop, rec.register("noop", "calibration"))
        rng = range(calls)
        t0 = clock()
        for _i in rng:
            noop(1, 2)
        bare = (clock() - t0) / calls
        t0 = clock()
        for _i in rng:
            wrapped(1, 2)
        total = (clock() - t0) / calls - bare
        cols = rec.columns()
        spanned = float(np.mean(cols["end"] - cols["start"]))
        # A span covers the call itself plus the wrapper's inner part;
        # the bare loop's per-iteration cost bounds the call from above.
        this_inner = min(max(spanned - bare, 0.0), total)
        inner = min(inner, this_inner)
        outer = min(outer, total - this_inner)
    return inner, outer
