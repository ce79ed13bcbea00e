"""Replay-engine throughput benchmark and regression harness.

Measures the simulation substrate two ways and writes a machine-readable
report (``BENCH_PR1.json`` by default):

* **substrate**: accesses/second of every Figure 4 (benchmark, technique)
  cell, replayed once through the *pre-replay-engine* cache (linear tag
  scan, per-access geometry calls, unconditional observer loops -- kept
  verbatim in :class:`_LegacyCache` below) and once through
  :func:`repro.sim.replay.replay` over the precomputed stream.  Both
  paths must produce identical :class:`~repro.cache.stats.CacheStats`;
  the run aborts otherwise.
* **end-to-end**: wall time of the Figure 4/5 sweep (workload generation,
  L1/L2 filtering, replay, timing model), serially and -- when more than
  one job is requested -- through the process-parallel runner.
* **store**: replay-ready workload preparation three ways -- cold
  compile (build_trace + L1/L2 filter + store write), warm load off the
  compiled workload store, and shared-memory attach.  All three must
  yield identical streams; a full run also writes the store section to
  ``BENCH_PR4.json`` and ``--min-store-speedup`` (default 3.0) gates the
  warm path in every mode, including ``--smoke`` under ``make check``.
* **array_kernel**: the array-eligible technique cells replayed through
  the object kernel (``REPRO_ARRAY_KERNEL=0``) and the array kernels
  (:mod:`repro.sim.replay_array`), interleaved best-of-N per cell with
  the shared :class:`~repro.cache.soa.ReplayIndex` prebuilt.  Both
  kernels must produce identical hit vectors and statistics; cells the
  substrate declines (e.g. ``small-stream``) are recorded as skipped,
  and one ineligible technique is probed to prove the automatic
  fallback.  A full run also writes the section to ``BENCH_PR6.json``,
  and ``--min-array-speedup`` (default 1.3) gates the aggregate in
  every mode.
* **sampler_kernel**: the paper's headline cells -- DBRB over the
  sampling predictor on the LRU and random defaults -- replayed
  object-vs-array the same interleaved best-of-N way.  These cells are
  *required* to run array-native (a decline aborts the run: the batched
  DBRB kernel regressed its eligibility), and the array-kernel fallback
  probe flips to an ineligible technique to keep witnessing the
  automatic object fallback.  A full run also writes the section to
  ``BENCH_PR9.json``, and ``--min-sampler-speedup`` (default 1.5) gates
  the aggregate in every mode, including ``--smoke`` under ``make
  check``.
* **dbrb_kernel**: every other DBRB shape a sweep runs -- the six
  Figure 6 ablation variants and TDBP -- measured the same way and
  under the same rule: a ``dbrb-*`` or ``policy:*`` decline aborts the
  run, so an eligibility regression fails ``make check``.

* **loadsim**: event throughput of the discrete-event load simulator on
  a fixed two-tenant scenario (its own tiny config, so smoke and full
  numbers are comparable).  A full run also writes the section to
  ``BENCH_PR10.json``; ``--min-loadsim-speedup`` (default 0.7) gates
  the throughput against that committed baseline when it exists -- and
  the baseline's recorded event-log digest doubles as a determinism
  anchor: a digest mismatch fails the run.

Usage::

    python benchmarks/bench_throughput.py                # full, BENCH_PR1.json
    python benchmarks/bench_throughput.py --smoke        # seconds, tiny budget
    python benchmarks/bench_throughput.py --check BENCH_PR1.json
    REPRO_JOBS=4 python benchmarks/bench_throughput.py   # also times parallel

``--check OLD.json`` turns the script into a regression gate: it exits
non-zero when the freshly measured aggregate replay throughput falls
below ``--tolerance`` (default 0.7) of the recorded one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.predictors.counting as _counting_mod  # noqa: E402
import repro.predictors.reftrace as _reftrace_mod  # noqa: E402
from repro.cache.cache import Cache, CacheAccess  # noqa: E402
from repro.core.policy import DBRBPolicy  # noqa: E402
from repro.core.predictor import SamplingDeadBlockPredictor  # noqa: E402
from repro.core.sampler import Sampler  # noqa: E402
from repro.core.skewed import SkewedCounterTable  # noqa: E402
from repro.harness.experiments import ABLATION_VARIANTS  # noqa: E402
from repro.harness.parallel import (  # noqa: E402
    parallel_single_thread_comparison,
    resolve_jobs,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache  # noqa: E402
from repro.harness.techniques import (  # noqa: E402
    SINGLE_THREAD_TECHNIQUES,
    TECHNIQUES,
)
from repro.replacement.lru import LRUPolicy  # noqa: E402
from repro.sim.replay import replay  # noqa: E402
from repro.sim.streamstore import (  # noqa: E402
    SharedStreamExport,
    StreamStore,
    attach_shared_streams,
)
from repro.telemetry import IntervalRecorder  # noqa: E402
from repro.utils.bits import mask  # noqa: E402
from repro.utils.hashing import _MASK64, _SKEW_SALTS, mix64  # noqa: E402
from repro.workloads import SINGLE_THREAD_SUBSET  # noqa: E402

#: Techniques whose substrate throughput is measured ("lru" is the
#: baseline cell every sweep also runs).
SUBSTRATE_TECHNIQUES = ("lru",) + tuple(SINGLE_THREAD_TECHNIQUES)

#: Techniques whose policies register array replay kernels (the
#: Figure 4-8 baseline families); the array_kernel section measures
#: these cells object-vs-array.
ARRAY_TECHNIQUES = ("lru", "dip", "rrip", "random")

#: The paper's headline cells: DBRB over the sampling predictor, both
#: default policies.  The sampler_kernel section measures these and
#: *requires* the batched DBRB kernel to take them.
SAMPLER_TECHNIQUES = ("sampler", "random_sampler")

#: Interleaved trials per array-kernel cell; the best of each side is
#: kept (single-vCPU boxes jitter absolute rates, ratios stay stable).
_ARRAY_TRIALS = 5

_SMOKE_BENCHMARKS = ("perlbench", "mcf")
_SMOKE_TECHNIQUES = ("lru", "sampler")
_SMOKE_ARRAY_TECHNIQUES = ("lru",)
_SMOKE_INSTRUCTIONS = 40_000


class _LegacyCache(Cache):
    """The pre-replay-engine access path, kept verbatim as the "before"
    reference of every throughput report.

    The four overrides reproduce the original implementation: linear tag
    scans, ``geometry.set_index``/``geometry.tag`` calls per access, and
    unconditionally iterated (empty) observer lists.  None of them touch
    the tag index the modern cache maintains, so the legacy path measures
    exactly the old substrate on top of today's policies.
    """

    def find(self, set_index: int, tag: int) -> Optional[int]:
        for way, block in enumerate(self.sets[set_index]):
            if block.valid and block.tag == tag:
                return way
        return None

    def access(self, access: CacheAccess) -> bool:
        geometry = self.geometry
        set_index = geometry.set_index(access.address)
        tag = geometry.tag(access.address)
        blocks = self.sets[set_index]
        stats = self.stats
        stats.accesses += 1

        for way, block in enumerate(blocks):
            if block.valid and block.tag == tag:
                stats.hits += 1
                block.touch(access.seq, access.is_write)
                self.policy.on_hit(set_index, way, access)
                for observer in self._observers:
                    observer.on_hit(set_index, way, block, access)
                return True

        stats.misses += 1
        self.policy.on_miss(set_index, access)

        if self.policy.should_bypass(set_index, access):
            stats.bypasses += 1
            for observer in self._observers:
                observer.on_bypass(set_index, access)
            return False

        way = self._frame_for_fill(set_index, access)
        block = blocks[way]
        if block.valid:
            self._evict(set_index, way, access)
        block.fill(tag, access.seq, access.is_write)
        stats.fills += 1
        self.policy.on_fill(set_index, way, access)
        for observer in self._observers:
            observer.on_fill(set_index, way, block, access)
        return False

    def _frame_for_fill(self, set_index: int, access: CacheAccess) -> int:
        for way, block in enumerate(self.sets[set_index]):
            if not block.valid:
                return way
        way = self.policy.choose_victim(set_index, access)
        if not 0 <= way < self.geometry.associativity:
            raise ValueError(
                f"policy {self.policy!r} chose invalid victim way {way}"
            )
        return way

    def _evict(self, set_index: int, way: int, access: CacheAccess) -> None:
        block = self.sets[set_index][way]
        self.stats.evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.predicted_dead:
            self.stats.dead_block_victims += 1
        self.policy.on_evict(set_index, way, access)
        for observer in self._observers:
            observer.on_evict(set_index, way, block, access)
        block.invalidate()


# ----------------------------------------------------------------------
# The pre-PR predictor/policy hot paths, frozen verbatim from the seed
# tree.  The replay-engine PR memoized signature folds and skewed-table
# indices and short-circuited identity LRU promotions; those speedups are
# part of the substrate under measurement, so the "before" runs must not
# get them.  _pre_pr_substrate() swaps these originals in for the
# duration of a legacy run.  The stats-equivalence check then doubles as
# proof that every memoization is behavior-preserving.
# ----------------------------------------------------------------------
def _legacy_fold_xor(value: int, width: int) -> int:
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    folded = 0
    value &= _MASK64
    while value:
        folded ^= value & mask(width)
        value >>= width
    return folded


def _legacy_skewed_hash(signature: int, table: int, index_bits: int) -> int:
    if table < 0:
        raise ValueError(f"table must be non-negative, got {table}")
    salt = _SKEW_SALTS[table % len(_SKEW_SALTS)] + table
    return _legacy_fold_xor(mix64(signature ^ salt), index_bits)


def _legacy_confidence(self, signature: int) -> int:
    total = 0
    for table_index, table in enumerate(self.tables):
        total += table[_legacy_skewed_hash(signature, table_index, self.index_bits)]
    return total


def _legacy_table_predict(self, signature: int) -> bool:
    return _legacy_confidence(self, signature) >= self.threshold


def _legacy_train(self, signature: int, dead: bool) -> None:
    maximum = self.counter_max
    for table_index, table in enumerate(self.tables):
        index = _legacy_skewed_hash(signature, table_index, self.index_bits)
        value = table[index]
        if dead:
            if value < maximum:
                table[index] = value + 1
        elif value > 0:
            table[index] = value - 1


def _legacy_partial_tag(self, tag: int) -> int:
    return tag & mask(self.tag_bits)


def _legacy_pc_signature(self, pc: int) -> int:
    return _legacy_fold_xor(pc, self.pc_bits)


def _legacy_signature(self, pc: int) -> int:
    return _legacy_fold_xor(pc, self._pc_bits)


def _legacy_sample(self, set_index: int, access) -> None:
    sampler = self.sampler
    if sampler is None:
        return
    sampler_set = sampler.sampler_set_for(set_index)
    if sampler_set is not None:
        sampler.access(
            sampler_set, self.cache.geometry.tag(access.address), access.pc
        )


def _legacy_promote(self, set_index: int, way: int, position: int) -> None:
    stack = self._stacks[set_index]
    stack.remove(way)
    stack.insert(position, way)


#: (owner, attribute, seed implementation) -- classes for method patches,
#: modules for their imported-by-name fold_xor reference.
_LEGACY_PATCHES = (
    (SkewedCounterTable, "confidence", _legacy_confidence),
    (SkewedCounterTable, "predict", _legacy_table_predict),
    (SkewedCounterTable, "train", _legacy_train),
    (Sampler, "partial_tag", _legacy_partial_tag),
    (Sampler, "pc_signature", _legacy_pc_signature),
    (SamplingDeadBlockPredictor, "_signature", _legacy_signature),
    (SamplingDeadBlockPredictor, "_sample", _legacy_sample),
    (LRUPolicy, "_promote", _legacy_promote),
    (_counting_mod, "fold_xor", _legacy_fold_xor),
    (_reftrace_mod, "fold_xor", _legacy_fold_xor),
)


@contextlib.contextmanager
def _pre_pr_substrate():
    """Run the enclosed block on the seed tree's hot paths."""
    saved = [
        (owner, name, getattr(owner, name)) for owner, name, _ in _LEGACY_PATCHES
    ]
    for owner, name, legacy in _LEGACY_PATCHES:
        setattr(owner, name, legacy)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _measure_substrate(workload_cache, technique_keys, benchmarks) -> Dict:
    """Time every cell through the legacy loop and the replay kernel."""
    geometry = workload_cache.machine.llc
    per_technique: Dict[str, Dict] = {
        key: {"accesses": 0, "before_seconds": 0.0, "after_seconds": 0.0}
        for key in technique_keys
    }
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        accesses = stream.accesses
        for key in technique_keys:
            technique = TECHNIQUES[key]

            with _pre_pr_substrate():
                legacy = _LegacyCache(
                    geometry, technique.build(geometry, accesses), name="LLC"
                )
                legacy_access = legacy.access
                start = time.perf_counter()
                for access in accesses:
                    legacy_access(access)
                before = time.perf_counter() - start

            cache = Cache(geometry, technique.build(geometry, accesses), name="LLC")
            start = time.perf_counter()
            replay(cache, accesses, stream.set_indices, stream.tags)
            after = time.perf_counter() - start

            if legacy.stats.snapshot() != cache.stats.snapshot():
                raise SystemExit(
                    f"EQUIVALENCE FAILURE on ({benchmark}, {key}): "
                    f"legacy {legacy.stats.snapshot()} != "
                    f"replay {cache.stats.snapshot()}"
                )

            cell = per_technique[key]
            cell["accesses"] += len(accesses)
            cell["before_seconds"] += before
            cell["after_seconds"] += after

    total = {"accesses": 0, "before_seconds": 0.0, "after_seconds": 0.0}
    for cell in per_technique.values():
        for field in total:
            total[field] += cell[field]
        cell["before_acc_per_sec"] = cell["accesses"] / cell["before_seconds"]
        cell["after_acc_per_sec"] = cell["accesses"] / cell["after_seconds"]
        cell["speedup"] = cell["before_seconds"] / cell["after_seconds"]
    total["before_acc_per_sec"] = total["accesses"] / total["before_seconds"]
    total["after_acc_per_sec"] = total["accesses"] / total["after_seconds"]
    total["speedup"] = total["before_seconds"] / total["after_seconds"]
    return {
        "benchmarks": list(benchmarks),
        "techniques": list(technique_keys),
        "per_technique": per_technique,
        "total": total,
        "stats_equivalent": True,
    }


@contextlib.contextmanager
def _array_kernel_env(value: str):
    """Pin ``REPRO_ARRAY_KERNEL`` for one timed run, then restore it."""
    saved = os.environ.get("REPRO_ARRAY_KERNEL")
    os.environ["REPRO_ARRAY_KERNEL"] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ARRAY_KERNEL", None)
        else:
            os.environ["REPRO_ARRAY_KERNEL"] = saved


def _ineligible_probe_key() -> Optional[str]:
    """The first registered technique that is *not* array-eligible: the
    probe cell proving the replay declines to the object kernel on its
    own.  (Before the batched DBRB kernel this probe used "sampler";
    sampler cells are now required to run array-native, so the probe
    follows the registry's ``array_eligible`` flags instead.)"""
    for key, technique in TECHNIQUES.items():
        if not technique.array_eligible:
            return key
    return None


def _technique_builders(technique_keys) -> Dict[str, Callable]:
    return {key: TECHNIQUES[key].build for key in technique_keys}


def _dbrb_shape_builders() -> Dict[str, Callable]:
    """TDBP and the Figure 6 variants, built as the sweeps build them."""
    builders = {"tdbp": TECHNIQUES["tdbp"].build}
    for label, kwargs, _ in ABLATION_VARIANTS:
        builders[label] = lambda geometry, accesses, kwargs=kwargs: DBRBPolicy(
            LRUPolicy(), SamplingDeadBlockPredictor(**kwargs)
        )
    return builders


def _measure_kernel_cells(
    workload_cache, builders: Dict[str, Callable], benchmarks,
    probe_key: Optional[str] = None, require_array: bool = False,
) -> Dict:
    """Time the given cells (name -> policy builder) through both
    replay kernels.

    Per cell: ``_ARRAY_TRIALS`` interleaved (object, array) runs over
    the same prepared stream, best of each side kept.  The shared
    :class:`~repro.cache.soa.ReplayIndex` (and, for DBRB cells, the
    :class:`~repro.cache.soa.PredictionPlane`) is prebuilt outside the
    clocks -- both are amortized across every technique of a sweep, the
    same contract as the precomputed ``(set_index, tag)`` decomposition
    the object kernel already enjoys.  Hit vectors and statistics must
    match between kernels; a cell the substrate declines (e.g. a stream
    too small to amortize the frame planes) is recorded as skipped with
    its fallback reason -- unless ``require_array``, where a decline
    aborts the run (the DBRB cells must replay array-native).
    """
    geometry = workload_cache.machine.llc
    per_technique: Dict[str, Dict] = {
        key: {"accesses": 0, "object_seconds": 0.0, "array_seconds": 0.0}
        for key in builders
    }
    skipped = []
    fallback_probe = None
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        accesses = stream.accesses
        stream.replay_index(geometry.num_sets)
        if require_array:
            stream.prediction_plane(geometry.num_sets)
        # Only probe the automatic fallback on a stream where the array
        # path actually ran: the probe should witness the *policy*
        # decline, not a size-based one.
        measured_any = False
        for key, build in builders.items():
            best_object = best_array = None
            declined = None
            for _ in range(_ARRAY_TRIALS):
                with _array_kernel_env("0"):
                    cache = Cache(geometry, build(geometry, accesses))
                    gc_was_enabled = gc.isenabled()
                    gc.disable()
                    start = time.perf_counter()
                    object_hits = replay(
                        cache, accesses, stream.set_indices, stream.tags,
                        stream=stream,
                    )
                    elapsed = time.perf_counter() - start
                    if gc_was_enabled:
                        gc.enable()
                object_stats = cache.stats.snapshot()
                if best_object is None or elapsed < best_object:
                    best_object = elapsed

                with _array_kernel_env("1"):
                    cache = Cache(geometry, build(geometry, accesses))
                    gc_was_enabled = gc.isenabled()
                    gc.disable()
                    start = time.perf_counter()
                    array_hits = replay(
                        cache, accesses, stream.set_indices, stream.tags,
                        stream=stream,
                    )
                    elapsed = time.perf_counter() - start
                    if gc_was_enabled:
                        gc.enable()
                if cache.last_replay_kernel != "array":
                    declined = cache.last_replay_fallback
                    break
                if array_hits != object_hits or (
                    cache.stats.snapshot() != object_stats
                ):
                    raise SystemExit(
                        f"ARRAY KERNEL DIVERGENCE on ({benchmark}, {key}): "
                        f"object {object_stats} != array {cache.stats.snapshot()}"
                    )
                if best_array is None or elapsed < best_array:
                    best_array = elapsed
            if declined is not None:
                if require_array and declined.startswith(("dbrb-", "policy:")):
                    # Size/state heuristics ("small-stream", "warm-cache")
                    # may still skip a cell; an *eligibility* decline
                    # means the DBRB kernel regressed.
                    raise SystemExit(
                        f"DBRB KERNEL FALLBACK: ({benchmark}, {key}) "
                        f"declined the array path: {declined}"
                    )
                skipped.append(
                    {"benchmark": benchmark, "technique": key, "reason": declined}
                )
                continue
            cell = per_technique[key]
            cell["accesses"] += len(accesses)
            cell["object_seconds"] += best_object
            cell["array_seconds"] += best_array
            cell["kernel"] = "array"
            measured_any = True

        if fallback_probe is None and measured_any and probe_key in TECHNIQUES:
            # One ineligible technique, array path enabled: the replay
            # must decline to the object kernel on its own.
            technique = TECHNIQUES[probe_key]
            with _array_kernel_env("1"):
                cache = Cache(geometry, technique.build(geometry, accesses))
                replay(
                    cache, accesses, stream.set_indices, stream.tags, stream=stream
                )
            if cache.last_replay_kernel != "object":
                raise SystemExit(
                    f"FALLBACK FAILURE: {probe_key} cell ran kernel "
                    f"{cache.last_replay_kernel!r}"
                )
            fallback_probe = {
                "benchmark": benchmark,
                "technique": probe_key,
                "kernel": cache.last_replay_kernel,
                "reason": cache.last_replay_fallback,
            }

    total = {"accesses": 0, "object_seconds": 0.0, "array_seconds": 0.0}
    for key in list(per_technique):
        cell = per_technique[key]
        if not cell["accesses"]:
            del per_technique[key]  # every benchmark declined this cell
            continue
        for field in total:
            total[field] += cell[field]
        cell["object_acc_per_sec"] = cell["accesses"] / cell["object_seconds"]
        cell["array_acc_per_sec"] = cell["accesses"] / cell["array_seconds"]
        cell["speedup"] = cell["object_seconds"] / cell["array_seconds"]
    if total["accesses"]:
        total["object_acc_per_sec"] = total["accesses"] / total["object_seconds"]
        total["array_acc_per_sec"] = total["accesses"] / total["array_seconds"]
        total["speedup"] = total["object_seconds"] / total["array_seconds"]
    else:
        total["speedup"] = None
    return {
        "benchmarks": list(benchmarks),
        "techniques": list(builders),
        "trials": _ARRAY_TRIALS,
        "per_technique": per_technique,
        "skipped": skipped,
        "fallback_probe": fallback_probe,
        "total": total,
        "results_equivalent": True,
    }


def _measure_array_kernel(workload_cache, technique_keys, benchmarks) -> Dict:
    """The Figure 4-8 baseline families, object vs array kernels, with
    the fallback probe on an ineligible technique."""
    return _measure_kernel_cells(
        workload_cache, _technique_builders(technique_keys), benchmarks,
        probe_key=_ineligible_probe_key(),
    )


def _measure_sampler_kernel(workload_cache, benchmarks) -> Dict:
    """The DBRB sampler cells, object vs batched prediction kernel.

    ``require_array`` makes a decline fatal: every cell of this section
    doubles as the probe that sampler replays report ``kernel: "array"``
    by default now.
    """
    return _measure_kernel_cells(
        workload_cache, _technique_builders(SAMPLER_TECHNIQUES), benchmarks,
        require_array=True,
    )


def _measure_dbrb_kernel(workload_cache, benchmarks) -> Dict:
    """TDBP and the Figure 6 cells, object vs array; a decline is fatal."""
    return _measure_kernel_cells(
        workload_cache, _dbrb_shape_builders(), benchmarks, require_array=True
    )


def _measure_telemetry_overhead(workload_cache, benchmarks) -> Dict:
    """Time the sampler cell probes-off vs with an IntervalRecorder.

    Probes-off runs the unmodified inlined kernel -- its cost relative
    to the frozen legacy substrate is guarded by ``--min-speedup``.  The
    probe-on column is informational (telemetry is opt-in); both runs
    must still produce identical stats (docs/observability.md).
    """
    geometry = workload_cache.machine.llc
    technique = TECHNIQUES["sampler"]
    totals = {"accesses": 0, "off_seconds": 0.0, "on_seconds": 0.0}
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        accesses = stream.accesses

        off_cache = Cache(geometry, technique.build(geometry, accesses))
        start = time.perf_counter()
        replay(off_cache, accesses, stream.set_indices, stream.tags)
        totals["off_seconds"] += time.perf_counter() - start

        recorder = IntervalRecorder(epochs=32)
        on_cache = Cache(
            geometry, technique.build(geometry, accesses), probe=recorder
        )
        start = time.perf_counter()
        replay(on_cache, accesses, stream.set_indices, stream.tags)
        totals["on_seconds"] += time.perf_counter() - start

        if off_cache.stats.snapshot() != on_cache.stats.snapshot():
            raise SystemExit(
                f"TELEMETRY TRANSPARENCY FAILURE on ({benchmark}, sampler): "
                f"probe-off {off_cache.stats.snapshot()} != "
                f"probe-on {on_cache.stats.snapshot()}"
            )
        totals["accesses"] += len(accesses)

    totals["off_acc_per_sec"] = totals["accesses"] / totals["off_seconds"]
    totals["on_acc_per_sec"] = totals["accesses"] / totals["on_seconds"]
    totals["on_overhead"] = (
        totals["on_seconds"] / totals["off_seconds"] - 1.0
    )
    return totals


def _replay_ready(filtered, machine):
    """Drive a workload to the replay-ready state every sweep cell needs.

    Compiled workloads decode lazily, so timing ``filtered()`` alone
    would flatter the warm paths; forcing the LLC arrays, the prepared
    stream, and the fixed latencies puts the full materialization cost
    inside the clock for all three modes.
    """
    filtered.llc_arrays()
    stream = filtered.llc_stream(machine.llc)
    filtered.fixed_latencies(machine.l1_latency, machine.l2_latency)
    return stream


def _measure_store(config, benchmarks) -> Dict:
    """Time cold compile vs warm store load vs shared-memory attach.

    Cold runs against an empty store and therefore pays build_trace,
    the L1/L2 filtering pass, stream preparation, and the store write.
    Warm re-reads the same store from a fresh cache; shm attaches the
    compiled blobs exported by the warm cache.  Any divergence in the
    prepared streams aborts the run.
    """
    per_benchmark: Dict[str, Dict] = {}
    totals = {"cold_seconds": 0.0, "warm_seconds": 0.0, "shm_seconds": 0.0}
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = StreamStore(tmp)
        machine = WorkloadCache(config).machine

        # One workload at a time, through a fresh cache each, exactly as
        # a pool worker experiences its first cell.  Keeping all N
        # workloads live across the timed regions would instead measure
        # full-heap GC traversals growing with N.
        for benchmark in benchmarks:
            cache = WorkloadCache(config, stream_store=store)
            start = time.perf_counter()
            stream = _replay_ready(cache.filtered(benchmark), machine)
            cold = time.perf_counter() - start
            reference = (stream.set_indices, stream.tags)
            del cache, stream

            cache = WorkloadCache(config, stream_store=store)
            start = time.perf_counter()
            stream = _replay_ready(cache.filtered(benchmark), machine)
            warm = time.perf_counter() - start
            if (stream.set_indices, stream.tags) != reference:
                raise SystemExit(f"STORE DIVERGENCE on {benchmark} (warm load)")
            if cache.stream_misses:
                raise SystemExit(
                    f"warm path recompiled {benchmark} -- the store was not hit"
                )
            compiled = cache.compiled(benchmark)  # store hit: no rebuild
            del cache, stream

            export = SharedStreamExport.create({benchmark: compiled})
            try:
                manifest = export.manifest()
                start = time.perf_counter()
                attached = attach_shared_streams(manifest)
                stream = _replay_ready(
                    attached[benchmark].filtered_trace(), machine
                )
                shm = time.perf_counter() - start
                if (stream.set_indices, stream.tags) != reference:
                    raise SystemExit(
                        f"STORE DIVERGENCE on {benchmark} (shm attach)"
                    )
                del stream
                for workload in attached.values():
                    workload.release()
            finally:
                export.close()

            per_benchmark[benchmark] = {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "shm_seconds": shm,
            }
            totals["cold_seconds"] += cold
            totals["warm_seconds"] += warm
            totals["shm_seconds"] += shm

        totals["store_bytes"] = store.footprint()

    for cell in per_benchmark.values():
        cell["warm_speedup"] = cell["cold_seconds"] / cell["warm_seconds"]
    totals["warm_speedup"] = totals["cold_seconds"] / totals["warm_seconds"]
    totals["shm_speedup"] = totals["cold_seconds"] / totals["shm_seconds"]
    return {
        "benchmarks": list(benchmarks),
        "per_benchmark": per_benchmark,
        "total": totals,
        "streams_equivalent": True,
    }


def _measure_end_to_end(config, technique_keys, benchmarks, jobs) -> Dict:
    """Wall time of the Figure 4/5 sweep, serial and (optionally) parallel."""
    start = time.perf_counter()
    serial = parallel_single_thread_comparison(
        config, technique_keys, benchmarks, jobs=1
    )
    serial_seconds = time.perf_counter() - start

    parallel_seconds = None
    if jobs > 1:
        start = time.perf_counter()
        parallel = parallel_single_thread_comparison(
            config, technique_keys, benchmarks, jobs=jobs
        )
        parallel_seconds = time.perf_counter() - start
        for benchmark in benchmarks:
            for key in technique_keys:
                if (
                    serial.results[benchmark][key].llc_stats.snapshot()
                    != parallel.results[benchmark][key].llc_stats.snapshot()
                ):
                    raise SystemExit(
                        f"PARALLEL DIVERGENCE on ({benchmark}, {key})"
                    )
    return {
        "figure": "fig04_fig05_single_thread",
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
    }


#: Every simple pattern family, timed at the bench instruction budget.
PATTERN_BENCH_FAMILIES = ("zipf", "hotspot", "bursty", "seq", "uniform")


def _measure_patterns(config) -> Dict:
    """Pattern-generation plus trace import/replay throughput.

    Generation times each family's ``generate`` (records emitted per
    second); import times the full :class:`TraceLibrary` round-trip on
    the zipf trace (parse, canonical re-serialization, gzip blob
    write); replay times ``TraceReplayWorkload.generate`` off the warm
    library.  Records/sec, so numbers are comparable across budgets.
    """
    from repro.sim.traceio import save_trace
    from repro.workloads import TraceLibrary, TraceReplayWorkload, resolve_workload

    llc_bytes = WorkloadCache(config).machine.llc.size_bytes
    per_family: Dict[str, Dict] = {}
    generate_seconds = 0.0
    total_records = 0
    sample = None
    for family in PATTERN_BENCH_FAMILIES:
        generator = resolve_workload(family, seed=config.seed)
        start = time.perf_counter()
        trace = generator.generate(config.instructions, llc_bytes)
        elapsed = time.perf_counter() - start
        per_family[family] = {
            "records": len(trace.records),
            "seconds": elapsed,
            "rec_per_sec": len(trace.records) / elapsed,
        }
        generate_seconds += elapsed
        total_records += len(trace.records)
        if family == "zipf":
            sample = trace

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        path = Path(tmp) / "bench.trace.gz"
        save_trace(sample, path)
        library = TraceLibrary(Path(tmp) / "lib")
        start = time.perf_counter()
        entry = library.import_file(path, name="bench")
        import_seconds = time.perf_counter() - start

        workload = TraceReplayWorkload("bench", library=library)
        start = time.perf_counter()
        replayed = workload.generate(sample.instructions, llc_bytes)
        replay_seconds = time.perf_counter() - start
        if replayed.records != sample.records:
            raise SystemExit("TRACE REPLAY DIVERGENCE in the bench round-trip")

    return {
        "families": list(PATTERN_BENCH_FAMILIES),
        "per_family": per_family,
        "total": {
            "records": total_records,
            "generate_seconds": generate_seconds,
            "generate_rec_per_sec": total_records / generate_seconds,
            "import_records": int(entry["records"]),
            "import_seconds": import_seconds,
            "import_rec_per_sec": int(entry["records"]) / import_seconds,
            "replay_seconds": replay_seconds,
            "replay_rec_per_sec": len(replayed.records) / replay_seconds,
        },
    }


#: Interleaved trials for the load-simulator bench (best kept).
_LOADSIM_TRIALS = 3


def _measure_loadsim() -> Dict:
    """Event throughput of the discrete-event load simulator.

    Runs a FIXED small scenario (its own config, independent of the
    bench budget) so smoke and full baselines are directly comparable:
    two tenants -- skewed Zipf under Poisson arrivals next to mcf under
    MMPP bursts -- through sampler-driven DBRB.  Every trial must
    produce the same event-log digest (the determinism contract); the
    digest is recorded so the committed baseline doubles as a
    cross-version determinism anchor.
    """
    from repro.loadsim import LoadScenario, TenantSpec, prepare_scenario

    config = ExperimentConfig(
        scale=32, instructions=20_000, seed=1, num_cores=2
    )
    scenario = LoadScenario(
        tenants=(
            TenantSpec(workload="zipf(a=1.2)", arrival="poisson(rate=0.3)"),
            TenantSpec(workload="mcf", arrival="bursty(rate=0.2,burst=6)"),
        ),
        duration=2_000_000.0,
        seed=11,
        epochs=8,
    )
    prepared = prepare_scenario(WorkloadCache(config), scenario)
    best_seconds = None
    result = None
    for _ in range(_LOADSIM_TRIALS):
        gc.collect()
        start = time.perf_counter()
        trial = prepared.run("sampler")
        elapsed = time.perf_counter() - start
        if result is None:
            result = trial
        elif trial.event_log_digest() != result.event_log_digest():
            raise SystemExit(
                "LOADSIM NONDETERMINISM: bench trials of one scenario "
                "produced different event logs"
            )
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    events = len(result.events)
    requests = sum(tenant.arrived for tenant in result.tenants)
    return {
        "scenario": result.scenario,
        "technique": result.technique,
        "trials": _LOADSIM_TRIALS,
        "total": {
            "events": events,
            "requests": requests,
            "llc_accesses": result.llc_stats.accesses,
            "seconds": best_seconds,
            "events_per_sec": events / best_seconds,
            "p50_latency": result.p50,
            "p95_latency": result.p95,
            "p99_latency": result.p99,
            "fairness": result.fairness,
            "event_log_digest": result.event_log_digest(),
        },
    }


def _print_kernel_section(section: Dict, title: str, detail: str) -> None:
    detail = detail.format(trials=section["trials"])
    width = max([14] + [len(key) for key in section["per_technique"]])
    print(f"\n{title} ({len(section['benchmarks'])} benchmarks, {detail}):")
    print(
        f"  {'technique':{width}s} {'object acc/s':>14s} {'array acc/s':>14s} "
        f"{'speedup':>8s}"
    )
    for key, cell in section["per_technique"].items():
        print(
            f"  {key:{width}s} {cell['object_acc_per_sec']:>14,.0f} "
            f"{cell['array_acc_per_sec']:>14,.0f} {cell['speedup']:>7.2f}x"
        )
    total = section["total"]
    if total["speedup"] is not None:
        print(
            f"  {'TOTAL':{width}s} {total['object_acc_per_sec']:>14,.0f} "
            f"{total['array_acc_per_sec']:>14,.0f} "
            f"{total['speedup']:>7.2f}x"
        )
    for cell in section["skipped"]:
        print(
            f"  skipped ({cell['benchmark']}, {cell['technique']}): "
            f"{cell['reason']}"
        )
    probe = section["fallback_probe"]
    if probe is not None:
        print(
            f"  fallback probe ({probe['benchmark']}, {probe['technique']}): "
            f"kernel={probe['kernel']} reason={probe['reason']}"
        )


def _print_report(report: Dict) -> None:
    substrate = report["substrate"]
    print(f"\nsubstrate throughput ({len(substrate['benchmarks'])} benchmarks):")
    header = f"  {'technique':14s} {'before acc/s':>14s} {'after acc/s':>14s} {'speedup':>8s}"
    print(header)
    for key, cell in substrate["per_technique"].items():
        print(
            f"  {key:14s} {cell['before_acc_per_sec']:>14,.0f} "
            f"{cell['after_acc_per_sec']:>14,.0f} {cell['speedup']:>7.2f}x"
        )
    total = substrate["total"]
    print(
        f"  {'TOTAL':14s} {total['before_acc_per_sec']:>14,.0f} "
        f"{total['after_acc_per_sec']:>14,.0f} {total['speedup']:>7.2f}x"
    )
    _print_kernel_section(
        report["array_kernel"], "array kernel", "best of {trials} interleaved trials"
    )
    required = "best of {trials} interleaved trials, array path required"
    _print_kernel_section(report["sampler_kernel"], "sampler kernel", required)
    _print_kernel_section(report["dbrb_kernel"], "Figure 6 + TDBP kernel", required)
    telemetry = report["telemetry"]
    print(
        f"\ntelemetry (sampler cell): probes-off "
        f"{telemetry['off_acc_per_sec']:,.0f} acc/s, probe-on "
        f"{telemetry['on_acc_per_sec']:,.0f} acc/s "
        f"({telemetry['on_overhead']:+.1%} recorder overhead)"
    )
    store = report["store"]["total"]
    print(
        f"\nworkload store ({len(report['store']['benchmarks'])} workloads, "
        f"{store['store_bytes'] / 1024.0 / 1024.0:.1f} MiB): cold "
        f"{store['cold_seconds']:.2f}s, warm {store['warm_seconds']:.2f}s "
        f"({store['warm_speedup']:.1f}x), shm {store['shm_seconds']:.2f}s "
        f"({store['shm_speedup']:.1f}x)"
    )
    patterns = report["patterns"]
    print(f"\npattern workloads ({len(patterns['families'])} families):")
    print(f"  {'family':14s} {'records':>10s} {'rec/s':>14s}")
    for family, cell in patterns["per_family"].items():
        print(
            f"  {family:14s} {cell['records']:>10,d} "
            f"{cell['rec_per_sec']:>14,.0f}"
        )
    pattern_total = patterns["total"]
    print(
        f"  {'TOTAL':14s} {pattern_total['records']:>10,d} "
        f"{pattern_total['generate_rec_per_sec']:>14,.0f}"
    )
    print(
        f"  trace import {pattern_total['import_rec_per_sec']:,.0f} rec/s, "
        f"replay {pattern_total['replay_rec_per_sec']:,.0f} rec/s "
        f"({pattern_total['import_records']} records round-tripped)"
    )
    loadsim = report["loadsim"]["total"]
    print(
        f"\nload simulator (fixed 2-tenant scenario, best of "
        f"{report['loadsim']['trials']}): "
        f"{loadsim['events_per_sec']:,.0f} events/s "
        f"({loadsim['events']} events, {loadsim['requests']} requests, "
        f"{loadsim['llc_accesses']} LLC accesses in "
        f"{loadsim['seconds']:.3f}s; p99 {loadsim['p99_latency']:.0f}cy, "
        f"digest {loadsim['event_log_digest'][:12]})"
    )
    end_to_end = report["end_to_end"]
    line = (
        f"\nend-to-end {end_to_end['figure']}: "
        f"serial {end_to_end['serial_seconds']:.1f}s"
    )
    if end_to_end["parallel_seconds"] is not None:
        line += (
            f", parallel ({end_to_end['jobs']} jobs) "
            f"{end_to_end['parallel_seconds']:.1f}s"
        )
    print(line)


def _check_regression(report: Dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    old = baseline["substrate"]["total"]["after_acc_per_sec"]
    new = report["substrate"]["total"]["after_acc_per_sec"]
    floor = tolerance * old
    verdict = "OK" if new >= floor else "REGRESSION"
    print(
        f"\nregression check vs {baseline_path}: {new:,.0f} acc/s vs "
        f"baseline {old:,.0f} (floor {floor:,.0f}): {verdict}"
    )
    return 0 if new >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny budget, two benchmarks, single job (harness validation)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="report path (default BENCH_PR1.json, BENCH_SMOKE.json with --smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the end-to-end timing (default REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="compare against a previous report; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.7,
        help="fraction of baseline throughput still accepted by --check",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.3,
        help="probes-off guard: minimum aggregate speedup of the replay "
        "kernel over the frozen legacy substrate (exit 1 below it)",
    )
    parser.add_argument(
        "--min-store-speedup", type=float, default=3.0,
        help="workload-store guard: minimum speedup of a warm store load "
        "over a cold compile (exit 1 below it)",
    )
    parser.add_argument(
        "--store-output", type=Path, default=None,
        help="where to write the store section on its own "
        "(default BENCH_PR4.json; not written with --smoke)",
    )
    parser.add_argument(
        "--min-array-speedup", type=float, default=1.3,
        help="array-kernel guard: minimum aggregate speedup of the array "
        "kernels over the object kernel on eligible cells (exit 1 below it)",
    )
    parser.add_argument(
        "--array-output", type=Path, default=None,
        help="where to write the array-kernel section on its own "
        "(default BENCH_PR6.json; not written with --smoke)",
    )
    parser.add_argument(
        "--min-sampler-speedup", type=float, default=1.5,
        help="sampler-kernel guard: minimum aggregate speedup of the "
        "batched DBRB kernel over the object kernel on the sampler "
        "cells (exit 1 below it)",
    )
    parser.add_argument(
        "--sampler-output", type=Path, default=None,
        help="where to write the sampler-kernel section on its own "
        "(default BENCH_PR9.json; not written with --smoke)",
    )
    parser.add_argument(
        "--patterns-output", type=Path, default=None,
        help="where to write the pattern-workload section on its own "
        "(default BENCH_PR8.json; not written with --smoke)",
    )
    parser.add_argument(
        "--min-loadsim-speedup", type=float, default=0.7,
        help="load-simulator guard: minimum fraction of the committed "
        "BENCH_PR10.json event throughput still accepted (exit 1 below "
        "it); skipped with a note when no baseline exists",
    )
    parser.add_argument(
        "--loadsim-output", type=Path, default=None,
        help="where to write the load-simulator section on its own "
        "(default BENCH_PR10.json; not written with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        config = ExperimentConfig(
            scale=ExperimentConfig().scale, instructions=_SMOKE_INSTRUCTIONS
        )
        benchmarks = _SMOKE_BENCHMARKS
        technique_keys = _SMOKE_TECHNIQUES
        array_techniques = _SMOKE_ARRAY_TECHNIQUES
        jobs = 1 if args.jobs is None else args.jobs
    else:
        config = ExperimentConfig.from_env()
        benchmarks = SINGLE_THREAD_SUBSET
        technique_keys = SUBSTRATE_TECHNIQUES
        array_techniques = ARRAY_TECHNIQUES
        jobs = resolve_jobs(args.jobs)

    print(f"machine: {config.describe()}")
    print(f"substrate cells: {len(benchmarks)} benchmarks x "
          f"{len(technique_keys)} techniques, both access paths")

    workload_cache = WorkloadCache(config)
    report = {
        "schema": "repro-bench/1",
        "unix_time": time.time(),
        "smoke": args.smoke,
        "config": {
            "scale": config.scale,
            "instructions": config.instructions,
            "seed": config.seed,
        },
        "substrate": _measure_substrate(workload_cache, technique_keys, benchmarks),
        "array_kernel": _measure_array_kernel(
            workload_cache, array_techniques, benchmarks
        ),
        "sampler_kernel": _measure_sampler_kernel(workload_cache, benchmarks),
        "dbrb_kernel": _measure_dbrb_kernel(workload_cache, benchmarks),
        "telemetry": _measure_telemetry_overhead(workload_cache, benchmarks),
        "store": _measure_store(config, benchmarks),
        "patterns": _measure_patterns(config),
        "loadsim": _measure_loadsim(),
        "end_to_end": _measure_end_to_end(
            config,
            [k for k in technique_keys if k != "lru"],
            benchmarks,
            jobs,
        ),
    }
    _print_report(report)

    output = args.output
    if output is None:
        output = REPO_ROOT / ("BENCH_SMOKE.json" if args.smoke else "BENCH_PR1.json")
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nreport written to {output}")

    # The store section also stands alone as the committed PR 4 baseline.
    # Smoke runs skip it by default so `make check` never clobbers the
    # full-budget numbers.
    store_output = args.store_output
    if store_output is None and not args.smoke:
        store_output = REPO_ROOT / "BENCH_PR4.json"
    if store_output is not None:
        store_report = {
            "schema": "repro-bench-store/1",
            "unix_time": report["unix_time"],
            "smoke": args.smoke,
            "config": report["config"],
            "store": report["store"],
        }
        store_output.write_text(
            json.dumps(store_report, indent=2, sort_keys=True) + "\n"
        )
        print(f"store report written to {store_output}")

    # Likewise the array-kernel section stands alone as the PR 6
    # baseline; smoke runs keep it inside BENCH_SMOKE.json only.
    array_output = args.array_output
    if array_output is None and not args.smoke:
        array_output = REPO_ROOT / "BENCH_PR6.json"
    if array_output is not None:
        array_report = {
            "schema": "repro-bench-array/1",
            "unix_time": report["unix_time"],
            "smoke": args.smoke,
            "config": report["config"],
            "array_kernel": report["array_kernel"],
        }
        array_output.write_text(
            json.dumps(array_report, indent=2, sort_keys=True) + "\n"
        )
        print(f"array-kernel report written to {array_output}")

    # The sampler-kernel section stands alone as the PR 9 baseline;
    # smoke runs keep it inside BENCH_SMOKE.json only.
    sampler_output = args.sampler_output
    if sampler_output is None and not args.smoke:
        sampler_output = REPO_ROOT / "BENCH_PR9.json"
    if sampler_output is not None:
        sampler_report = {
            "schema": "repro-bench-sampler/1",
            "unix_time": report["unix_time"],
            "smoke": args.smoke,
            "config": report["config"],
            "sampler_kernel": report["sampler_kernel"],
        }
        sampler_output.write_text(
            json.dumps(sampler_report, indent=2, sort_keys=True) + "\n"
        )
        print(f"sampler-kernel report written to {sampler_output}")

    # The pattern-workload section stands alone as the PR 8 baseline;
    # smoke runs keep it inside BENCH_SMOKE.json only.
    patterns_output = args.patterns_output
    if patterns_output is None and not args.smoke:
        patterns_output = REPO_ROOT / "BENCH_PR8.json"
    if patterns_output is not None:
        patterns_report = {
            "schema": "repro-bench-patterns/1",
            "unix_time": report["unix_time"],
            "smoke": args.smoke,
            "config": report["config"],
            "patterns": report["patterns"],
        }
        patterns_output.write_text(
            json.dumps(patterns_report, indent=2, sort_keys=True) + "\n"
        )
        print(f"pattern-workload report written to {patterns_output}")

    # The load-simulator section stands alone as the PR 10 baseline;
    # smoke runs keep it inside BENCH_SMOKE.json only (pass
    # --loadsim-output explicitly to write it from a smoke run -- the
    # section's scenario is fixed, so the numbers are comparable).
    loadsim_output = args.loadsim_output
    if loadsim_output is None and not args.smoke:
        loadsim_output = REPO_ROOT / "BENCH_PR10.json"
    if loadsim_output is not None:
        loadsim_report = {
            "schema": "repro-bench-loadsim/1",
            "unix_time": report["unix_time"],
            "smoke": args.smoke,
            "config": report["config"],
            "loadsim": report["loadsim"],
        }
        loadsim_output.write_text(
            json.dumps(loadsim_report, indent=2, sort_keys=True) + "\n"
        )
        print(f"load-simulator report written to {loadsim_output}")

    # Probes-off guard: with telemetry disabled (the default), the replay
    # kernel must still beat the frozen in-file legacy substrate by the
    # configured margin -- a slow fast path means the probe hooks leaked
    # cost into the default configuration.
    speedup = report["substrate"]["total"]["speedup"]
    if speedup < args.min_speedup:
        print(
            f"\nPROBES-OFF OVERHEAD: aggregate speedup {speedup:.2f}x fell "
            f"below the floor {args.min_speedup:.2f}x"
        )
        return 1

    # Array-kernel guard: on the cells whose policies registered array
    # kernels, the array path must beat the object kernel by the
    # configured margin -- a slower array path means the substrate's
    # eligibility rules are letting losing replays through.
    array_speedup = report["array_kernel"]["total"]["speedup"]
    if array_speedup is None:
        print("\nARRAY KERNEL GUARD: no eligible cell was measured")
        return 1
    if array_speedup < args.min_array_speedup:
        print(
            f"\nARRAY KERNEL REGRESSION: aggregate speedup "
            f"{array_speedup:.2f}x fell below the floor "
            f"{args.min_array_speedup:.2f}x"
        )
        return 1

    # Sampler-kernel guard: the batched DBRB kernel must beat the object
    # kernel on the paper's headline cells by a wider margin than the
    # generic floor -- it replaces the predictor simulation wholesale, so
    # a thin win means the plane precompute leaked into the replay.
    sampler_speedup = report["sampler_kernel"]["total"]["speedup"]
    if sampler_speedup is None:
        print("\nSAMPLER KERNEL GUARD: no sampler cell was measured")
        return 1
    if sampler_speedup < args.min_sampler_speedup:
        print(
            f"\nSAMPLER KERNEL REGRESSION: aggregate speedup "
            f"{sampler_speedup:.2f}x fell below the floor "
            f"{args.min_sampler_speedup:.2f}x"
        )
        return 1

    # Warm-start guard: loading a compiled workload off the store must
    # stay decisively cheaper than recompiling it, or the store is dead
    # weight.  Runs in every mode, so `make check` (bench-smoke) gates it.
    store_speedup = report["store"]["total"]["warm_speedup"]
    if store_speedup < args.min_store_speedup:
        print(
            f"\nWORKLOAD STORE REGRESSION: warm-load speedup "
            f"{store_speedup:.2f}x fell below the floor "
            f"{args.min_store_speedup:.2f}x"
        )
        return 1

    # Load-simulator guard: gated only against a committed baseline --
    # a repo without BENCH_PR10.json (or with a partial one) skips with
    # a note rather than failing, mirroring `report --bench` tolerance.
    loadsim_total = report["loadsim"]["total"]
    loadsim_baseline = REPO_ROOT / "BENCH_PR10.json"
    baseline_total = None
    if loadsim_baseline.exists():
        try:
            baseline = json.loads(loadsim_baseline.read_text())
            candidate = (baseline.get("loadsim") or {}).get("total")
            if isinstance(candidate, dict):
                baseline_total = candidate
        except (OSError, ValueError):
            baseline_total = None
    if baseline_total is None:
        print(
            "\nloadsim guard: no usable BENCH_PR10.json baseline; "
            "gate skipped"
        )
    else:
        base_digest = baseline_total.get("event_log_digest")
        if base_digest and base_digest != loadsim_total["event_log_digest"]:
            print(
                "\nLOADSIM DETERMINISM REGRESSION: the fixed bench "
                f"scenario's event log digest "
                f"{loadsim_total['event_log_digest'][:12]} no longer "
                f"matches the committed baseline {str(base_digest)[:12]}"
            )
            return 1
        base_rate = baseline_total.get("events_per_sec")
        if base_rate:
            floor = args.min_loadsim_speedup * base_rate
            if loadsim_total["events_per_sec"] < floor:
                print(
                    f"\nLOADSIM THROUGHPUT REGRESSION: "
                    f"{loadsim_total['events_per_sec']:,.0f} events/s fell "
                    f"below {args.min_loadsim_speedup:.2f}x of the "
                    f"baseline {base_rate:,.0f} (floor {floor:,.0f})"
                )
                return 1
        print(
            "\nloadsim guard: digest matches baseline, "
            f"{loadsim_total['events_per_sec']:,.0f} events/s >= floor; ok"
        )

    if args.check is not None:
        return _check_regression(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
