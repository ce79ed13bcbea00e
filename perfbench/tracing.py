"""Spans around the public calls into each layer, for the traced run.

The traced run installs a wrapper at every name a caller looks up
(:data:`TARGETS`), records one span per call, and restores the
original functions when it ends.  Nothing under ``src/`` changes.

A span has a name, a start, an end, the span that caused it (the one
open when it began), and the identifier of the cell it belongs to: the
root span of its call tree.  Cell spans (``SingleCoreSystem.run``,
``MulticoreSystem.run``, ``PreparedScenario.run``) are roots, so every
span of one cell shares the cell's identifier.  Spans stay in memory
and are written out when the run ends.

A layer's self time is its span's duration minus the durations of its
direct children.  Calls are nested and single-threaded, so the children
cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    cell: int
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps the spans of one run in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(
            id=len(self.spans),
            parent=None if parent is None else parent.id,
            cell=len(self.spans) if parent is None else parent.cell,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


# ----------------------------------------------------------------------
# what each wrapper records besides its timing
# ----------------------------------------------------------------------
def _technique(args: Dict[str, object], span: Span, result) -> None:
    span.attrs["technique"] = args.get("technique_name", "unnamed")


def _loadsim_cell(args: Dict[str, object], span: Span, result) -> None:
    span.attrs["technique"] = args.get("technique_key", "sampler")
    span.attrs["events"] = len(result.events)
    span.attrs["llc_accesses"] = result.llc_stats.accesses


def _records(args: Dict[str, object], span: Span, result) -> None:
    span.attrs["records"] = len(result.records)


def _llc_accesses(args: Dict[str, object], span: Span, result) -> None:
    span.attrs["llc_accesses"] = len(result.llc_indices)


def _store_hit(args: Dict[str, object], span: Span, result) -> None:
    span.attrs["hit"] = result is not None


def _replay(args: Dict[str, object], span: Span, result) -> None:
    cache = args["cache"]
    span.attrs["kernel"] = cache.last_replay_kernel
    span.attrs["fallback"] = cache.last_replay_fallback
    span.attrs["accesses"] = len(args["accesses"])


#: (module, class or None for a module-level name, attribute, span name,
#: annotate).  ``SingleCoreSystem.prepare`` and ``MulticoreSystem.prepare``
#: both reach the L1/L2 filter through ``HierarchyFilter.filter``, so the
#: filter wrapper sits there.  ``CompiledFilteredTrace`` overrides
#: ``llc_stream`` and calls the base method, so both are wrapped under
#: one name.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.harness.runner", None, "build_trace", "workloads.build_trace", _records),
    ("repro.workloads.mixes", None, "build_trace", "workloads.build_trace", _records),
    ("repro.sim.hierarchy", "HierarchyFilter", "filter", "sim.hierarchy.filter",
     _llc_accesses),
    ("repro.sim.hierarchy", "FilteredTrace", "llc_stream", "sim.hierarchy.llc_stream",
     None),
    ("repro.sim.streamstore", "CompiledFilteredTrace", "llc_stream",
     "sim.hierarchy.llc_stream", None),
    ("repro.sim.streamstore", "StreamStore", "load", "sim.streamstore.load", _store_hit),
    ("repro.sim.hierarchy", "PreparedStream", "replay_index", "cache.soa.replay_index",
     None),
    ("repro.sim.hierarchy", "PreparedStream", "prediction_plane",
     "cache.soa.prediction_plane", None),
    ("repro.harness.techniques", "Technique", "build", "harness.techniques.build", None),
    ("repro.sim.system", "SingleCoreSystem", "run", "sim.system.run", _technique),
    ("repro.sim.system", None, "replay", "sim.replay", _replay),
    ("repro.sim.multicore", None, "replay", "sim.replay", _replay),
    ("repro.sim.cpu", "CoreModel", "run", "sim.cpu.run", None),
    ("repro.sim.multicore", "MulticoreSystem", "prepare", "sim.multicore.prepare", None),
    ("repro.sim.multicore", "MulticoreSystem", "run", "sim.multicore.run", _technique),
    ("repro.loadsim.sim", None, "prepare_scenario", "loadsim.prepare", None),
    ("repro.loadsim.sim", "PreparedScenario", "run", "loadsim.run", _loadsim_cell),
    ("repro.harness.export", None, "export_json", "harness.export", None),
)

#: Root spans that are cells (one benchmark x technique, mix x
#: technique, or loadsim technique run).
CELL_SPANS = ("sim.system.run", "sim.multicore.run", "loadsim.run")


def _wrap(recorder: Recorder, original: Callable, name: str,
          annotate: Optional[Callable]) -> Callable:
    signature = inspect.signature(original) if annotate is not None else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(span)
        if annotate is not None:
            bound = signature.bind(*args, **kwargs).arguments
            annotate(bound, span, result)
        return result

    return wrapper


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for module, cls, attribute, name, annotate in TARGETS:
            owner = _owner(module, cls)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name, annotate))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Span name -> self-time metric, for every span but ``sim.replay``,
#: whose self time is split by the kernel that ran.
SELF_METRIC = {
    "workloads.build_trace": "workloads.build_trace_s",
    "sim.hierarchy.filter": "sim.hierarchy.filter_s",
    "sim.hierarchy.llc_stream": "sim.hierarchy.llc_stream_s",
    "sim.streamstore.load": "sim.streamstore.load_s",
    "cache.soa.replay_index": "cache.soa.replay_index_s",
    "cache.soa.prediction_plane": "cache.soa.prediction_plane_s",
    "harness.techniques.build": "harness.techniques.build_s",
    "sim.system.run": "sim.system.run_s",
    "sim.cpu.run": "sim.cpu.run_s",
    "sim.multicore.prepare": "sim.multicore.prepare_s",
    "sim.multicore.run": "sim.multicore.run_s",
    "loadsim.prepare": "loadsim.prepare_s",
    "loadsim.run": "loadsim.run_s",
    "harness.export": "harness.export_s",
}
KERNEL_METRIC = {"object": "sim.replay.object_s", "array": "sim.replay_array.array_s"}
ACCESS_METRIC = {
    "object": "sim.replay.object_accesses",
    "array": "sim.replay_array.array_accesses",
}

#: Replay self time per technique or ablation variant, under a name-safe
#: key; ``solo`` is the multicore solo-LRU baselines run while a mix is
#: prepared, outside any cell.
TECHNIQUE_KEYS = (
    "lru", "tdbp", "cdbp", "dip", "rrip", "sampler", "optimal", "tadip",
    "dbrb_alone", "dbrb_3_tables", "dbrb_sampler", "dbrb_sampler_3_tables",
    "dbrb_sampler_12_way", "dbrb_sampler_3_tables_12_way", "solo", "other",
)

#: Object-kernel fallback reasons these workloads produce, name-safe.
FALLBACK_KEYS = (
    "dbrb_predictor_countingpredictor", "dbrb_predictor_reftracepredictor",
    "policy_optimalpolicy", "dbrb_no_sampler", "dbrb_single_table",
    "dbrb_sampler_geometry", "no_decomposition", "small_stream", "other",
)

#: Every per-layer metric, with its unit.
LAYER_METRICS: Dict[str, str] = {
    "workloads.build_trace_s": "s",
    "workloads.records": "count",
    "sim.hierarchy.filter_s": "s",
    "sim.hierarchy.llc_stream_s": "s",
    "sim.hierarchy.llc_accesses": "count",
    "sim.streamstore.load_s": "s",
    "sim.streamstore.hits": "count",
    "sim.streamstore.misses": "count",
    "cache.soa.replay_index_s": "s",
    "cache.soa.prediction_plane_s": "s",
    "harness.techniques.build_s": "s",
    "sim.system.run_s": "s",
    "sim.replay.object_s": "s",
    "sim.replay.object_accesses": "count",
    "sim.replay_array.array_s": "s",
    "sim.replay_array.array_accesses": "count",
    "sim.replay.cells": "count",
    "sim.replay.array_frac": "fraction",
    **{f"sim.replay.{key}_s": "s" for key in TECHNIQUE_KEYS},
    **{f"sim.replay.fallback.{key}": "count" for key in FALLBACK_KEYS},
    "sim.cpu.run_s": "s",
    "sim.cpu.calls": "count",
    "sim.multicore.prepare_s": "s",
    "sim.multicore.run_s": "s",
    "loadsim.prepare_s": "s",
    "loadsim.run_s": "s",
    "loadsim.events": "count",
    "loadsim.llc_accesses": "count",
    "harness.export_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}


def name_key(text: str, known: Tuple[str, ...]) -> str:
    """``text`` as a lower-case ``_``-separated key, or ``other``."""
    key = re.sub(r"[^a-z0-9]+", "_", str(text).lower()).strip("_")
    return key if key in known else "other"


def layer_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run of ``wall`` seconds.

    ``trace.overhead_frac`` needs an untraced run too, so it is left
    for the caller.
    """
    metrics: Dict[str, float] = {name: 0 for name in LAYER_METRICS}
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    cell_replays = array_cells = 0
    for span in spans:
        own = selfs[span.id]
        attrs = span.attrs
        if span.name == "sim.replay":
            metrics[KERNEL_METRIC[attrs["kernel"]]] += own
            metrics[ACCESS_METRIC[attrs["kernel"]]] += attrs["accesses"]
            root = by_id[span.cell]
            if root.name in CELL_SPANS:
                technique = name_key(root.attrs["technique"], TECHNIQUE_KEYS)
                cell_replays += 1
                array_cells += attrs["kernel"] == "array"
            else:
                technique = "solo"
            metrics[f"sim.replay.{technique}_s"] += own
            if attrs["fallback"] is not None:
                reason = name_key(attrs["fallback"], FALLBACK_KEYS)
                metrics[f"sim.replay.fallback.{reason}"] += 1
            continue
        metrics[SELF_METRIC[span.name]] += own
        if span.name == "workloads.build_trace":
            metrics["workloads.records"] += attrs["records"]
        elif span.name == "sim.hierarchy.filter":
            metrics["sim.hierarchy.llc_accesses"] += attrs["llc_accesses"]
        elif span.name == "sim.streamstore.load":
            metrics["sim.streamstore.hits" if attrs["hit"] else "sim.streamstore.misses"] += 1
        elif span.name == "sim.cpu.run":
            metrics["sim.cpu.calls"] += 1
        elif span.name == "loadsim.run":
            metrics["loadsim.events"] += attrs["events"]
            metrics["loadsim.llc_accesses"] += attrs["llc_accesses"]
    metrics["sim.replay.cells"] = cell_replays
    metrics["sim.replay.array_frac"] = array_cells / cell_replays if cell_replays else 0.0
    metrics["trace.coverage_frac"] = sum(selfs.values()) / wall if wall > 0 else 0.0
    return metrics

