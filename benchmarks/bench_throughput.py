"""Replay-kernel, store, pattern and load-simulator benchmark harness.

End-to-end and per-layer sweep time lives in ``perfbench/``; this
script measures what nothing else does, and writes one report in one
schema (``repro-bench/2``):

* **array_kernel**: the array-eligible technique cells replayed through
  the object kernel (``REPRO_ARRAY_KERNEL=0``) and the array kernels
  (:mod:`repro.sim.replay_array`), interleaved best-of-N per cell with
  the shared :class:`~repro.cache.soa.ReplayIndex` prebuilt.  Both
  kernels must produce identical hit vectors and statistics; cells the
  substrate declines (e.g. ``small-stream``) are recorded as skipped,
  and one ineligible technique is probed to prove the automatic
  fallback.  The aggregate must clear :data:`MIN_ARRAY_SPEEDUP`.
* **sampler_kernel**: the paper's headline cells -- DBRB over the
  sampling predictor on the LRU and random defaults -- measured the
  same way.  These cells are *required* to run array-native (an
  eligibility decline aborts the run), and the aggregate must clear
  :data:`MIN_SAMPLER_SPEEDUP`.
* **dbrb_kernel**: every other DBRB shape a sweep runs -- the six
  Figure 6 ablation variants and TDBP -- measured the same way and
  under the same rule: a ``dbrb-*`` or ``policy:*`` decline aborts the
  run.
* **telemetry**: the sampler cell probes-off vs with an
  :class:`~repro.telemetry.IntervalRecorder`, both sides pinned to the
  object kernel (the kernel probe runs take); either side reporting
  another kernel, or the two sides' stats differing, aborts the run.
* **store**: replay-ready workload preparation three ways -- cold
  compile into a fresh, empty store, warm load off that store, and
  shared-memory attach -- best of :data:`_STORE_TRIALS` per workload.
  All three must yield identical streams; the warm path must clear
  :data:`MIN_STORE_SPEEDUP`.
* **patterns**: pattern-generation plus trace import/replay throughput.
* **loadsim**: event throughput of the discrete-event load simulator on
  a fixed two-tenant scenario (its own tiny config, so smoke and full
  numbers are comparable).  Against the committed ``BENCH.json`` the
  throughput must clear :data:`MIN_LOADSIM_FRACTION` of the baseline,
  and the event-log digest must match it.

Usage::

    python benchmarks/bench_throughput.py            # full run, BENCH.json
    python benchmarks/bench_throughput.py --smoke    # seconds, BENCH_SMOKE.json

``BENCH.json`` is the one committed baseline; a failed gate or abort
exits 1.
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

from repro.cache.cache import Cache  # noqa: E402
from repro.core.policy import DBRBPolicy  # noqa: E402
from repro.core.predictor import SamplingDeadBlockPredictor  # noqa: E402
from repro.harness.experiments import ABLATION_VARIANTS  # noqa: E402
from repro.harness.runner import ExperimentConfig, WorkloadCache  # noqa: E402
from repro.harness.techniques import TECHNIQUES  # noqa: E402
from repro.replacement.lru import LRUPolicy  # noqa: E402
from repro.sim.replay import replay  # noqa: E402
from repro.sim.streamstore import (  # noqa: E402
    SharedStreamExport,
    StreamStore,
    attach_shared_streams,
)
from repro.telemetry import IntervalRecorder  # noqa: E402
from repro.workloads import SINGLE_THREAD_SUBSET  # noqa: E402

#: The committed baseline a full run writes; the loadsim gate reads it.
BASELINE = REPO_ROOT / "BENCH.json"

#: Gate floors: aggregate object/array speedup of the eligible cells and
#: of the sampler cells, cold/warm speedup of the store, and the loadsim
#: event rate as a fraction of the baseline's.
MIN_ARRAY_SPEEDUP = 1.3
MIN_SAMPLER_SPEEDUP = 1.5
MIN_STORE_SPEEDUP = 3.0
MIN_LOADSIM_FRACTION = 0.7

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

#: Trials per workload in the store section; the best of each mode is
#: kept (a single shot once reported warm slower than cold).
_STORE_TRIALS = 3

_SMOKE_BENCHMARKS = ("perlbench", "mcf")
_SMOKE_ARRAY_TECHNIQUES = ("lru",)
_SMOKE_INSTRUCTIONS = 40_000


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
    own."""
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


def _timed_replay(geometry, build: Callable, stream, kernel: str):
    """Replay ``stream`` once on a fresh cache under
    ``REPRO_ARRAY_KERNEL=kernel`` with GC paused inside the clock;
    returns ``(cache, hits, seconds)``."""
    with _array_kernel_env(kernel):
        cache = Cache(geometry, build(geometry, stream.accesses))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        hits = replay(
            cache, stream.accesses, stream.set_indices, stream.tags,
            stream=stream,
        )
        elapsed = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
    return cache, hits, elapsed


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
                cache, object_hits, elapsed = _timed_replay(
                    geometry, build, stream, "0"
                )
                object_stats = cache.stats.snapshot()
                if best_object is None or elapsed < best_object:
                    best_object = elapsed

                cache, array_hits, elapsed = _timed_replay(
                    geometry, build, stream, "1"
                )
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
            cell["accesses"] += len(stream.accesses)
            cell["object_seconds"] += best_object
            cell["array_seconds"] += best_array
            cell["kernel"] = "array"
            measured_any = True

        if fallback_probe is None and measured_any and probe_key in TECHNIQUES:
            # One ineligible technique, array path enabled: the replay
            # must decline to the object kernel on its own.
            cache, _, _ = _timed_replay(
                geometry, TECHNIQUES[probe_key].build, stream, "1"
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

    Both sides are pinned to the object kernel, the kernel every probe
    run takes, so the ratio is the recorder's cost and nothing else; a
    side that reports another kernel aborts the run.  Both runs must
    also produce identical stats (docs/observability.md).  The
    probe-on column is informational: telemetry is opt-in.
    """
    geometry = workload_cache.machine.llc
    technique = TECHNIQUES["sampler"]
    totals = {"accesses": 0, "off_seconds": 0.0, "on_seconds": 0.0}
    kernels = {}
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        accesses = stream.accesses
        stats = {}
        for side, probe in (("off", None), ("on", IntervalRecorder(epochs=32))):
            cache = Cache(
                geometry, technique.build(geometry, accesses), probe=probe
            )
            with _array_kernel_env("0"):
                start = time.perf_counter()
                replay(cache, accesses, stream.set_indices, stream.tags)
                totals[f"{side}_seconds"] += time.perf_counter() - start
            if cache.last_replay_kernel != "object":
                raise SystemExit(
                    f"TELEMETRY KERNEL MISMATCH on ({benchmark}, sampler): "
                    f"probes-{side} ran kernel {cache.last_replay_kernel!r}, "
                    f"not 'object'"
                )
            kernels[f"{side}_kernel"] = cache.last_replay_kernel
            stats[side] = cache.stats.snapshot()

        if stats["off"] != stats["on"]:
            raise SystemExit(
                f"TELEMETRY TRANSPARENCY FAILURE on ({benchmark}, sampler): "
                f"probe-off {stats['off']} != probe-on {stats['on']}"
            )
        totals["accesses"] += len(accesses)

    totals["off_acc_per_sec"] = totals["accesses"] / totals["off_seconds"]
    totals["on_acc_per_sec"] = totals["accesses"] / totals["on_seconds"]
    totals["on_overhead"] = (
        totals["on_seconds"] / totals["off_seconds"] - 1.0
    )
    return {"benchmarks": list(benchmarks), **kernels, "total": totals}

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


def _store_trial(config, benchmark, machine):
    """One cold/warm/shm trial of one workload on a fresh, empty store.

    Cold pays build_trace, the L1/L2 filtering pass, stream preparation,
    and the store write.  Warm re-reads the store from a fresh cache;
    shm attaches the compiled blobs exported by the warm cache.  Any
    divergence in the prepared streams aborts the run.  Returns the
    three times and the store's footprint.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = StreamStore(tmp)

        # One fresh cache per mode, exactly as a pool worker experiences
        # its first cell.
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
            stream = _replay_ready(attached[benchmark].filtered_trace(), machine)
            shm = time.perf_counter() - start
            if (stream.set_indices, stream.tags) != reference:
                raise SystemExit(f"STORE DIVERGENCE on {benchmark} (shm attach)")
            del stream
            for workload in attached.values():
                workload.release()
        finally:
            export.close()
        times = {"cold_seconds": cold, "warm_seconds": warm, "shm_seconds": shm}
        return times, store.footprint()


def _measure_store(config, benchmarks) -> Dict:
    """Cold compile vs warm store load vs shared-memory attach, best of
    :data:`_STORE_TRIALS` per workload and mode.

    One workload at a time: keeping all N workloads live across the
    timed regions would instead measure full-heap GC traversals growing
    with N.
    """
    machine = WorkloadCache(config).machine
    per_benchmark: Dict[str, Dict] = {}
    totals = {
        "cold_seconds": 0.0, "warm_seconds": 0.0, "shm_seconds": 0.0,
        "store_bytes": 0,
    }
    for benchmark in benchmarks:
        trials = [
            _store_trial(config, benchmark, machine)
            for _ in range(_STORE_TRIALS)
        ]
        cell = {
            field: min(times[field] for times, _ in trials)
            for field in ("cold_seconds", "warm_seconds", "shm_seconds")
        }
        for field, seconds in cell.items():
            totals[field] += seconds
        totals["store_bytes"] += trials[0][1]
        cell["warm_speedup"] = cell["cold_seconds"] / cell["warm_seconds"]
        per_benchmark[benchmark] = cell

    totals["warm_speedup"] = totals["cold_seconds"] / totals["warm_seconds"]
    totals["shm_speedup"] = totals["cold_seconds"] / totals["shm_seconds"]
    return {
        "benchmarks": list(benchmarks),
        "trials": _STORE_TRIALS,
        "per_benchmark": per_benchmark,
        "total": totals,
        "streams_equivalent": True,
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
    _print_kernel_section(
        report["array_kernel"], "array kernel", "best of {trials} interleaved trials"
    )
    required = "best of {trials} interleaved trials, array path required"
    _print_kernel_section(report["sampler_kernel"], "sampler kernel", required)
    _print_kernel_section(report["dbrb_kernel"], "Figure 6 + TDBP kernel", required)
    telemetry = report["telemetry"]["total"]
    print(
        f"\ntelemetry (sampler cell, object kernel): probes-off "
        f"{telemetry['off_acc_per_sec']:,.0f} acc/s, probe-on "
        f"{telemetry['on_acc_per_sec']:,.0f} acc/s "
        f"({telemetry['on_overhead']:+.1%} recorder overhead)"
    )
    store = report["store"]["total"]
    print(
        f"\nworkload store ({len(report['store']['benchmarks'])} workloads, "
        f"best of {report['store']['trials']}, "
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


def _gate_failure(report: Dict, baseline: Optional[Dict]) -> Optional[str]:
    """The first failed gate's message, or None when every gate holds.

    ``baseline`` is the committed report the loadsim gate compares
    against (None when there is none).
    """
    # Array-kernel guard: on the cells whose policies registered array
    # kernels, the array path must beat the object kernel by the floor
    # -- a slower array path means the substrate's eligibility rules are
    # letting losing replays through.
    array_speedup = report["array_kernel"]["total"]["speedup"]
    if array_speedup is None:
        return "ARRAY KERNEL GUARD: no eligible cell was measured"
    if array_speedup < MIN_ARRAY_SPEEDUP:
        return (
            f"ARRAY KERNEL REGRESSION: aggregate speedup {array_speedup:.2f}x "
            f"fell below the floor {MIN_ARRAY_SPEEDUP:.2f}x"
        )

    # Sampler-kernel guard: the batched DBRB kernel must beat the object
    # kernel on the paper's headline cells by a wider margin than the
    # generic floor -- it replaces the predictor simulation wholesale, so
    # a thin win means the plane precompute leaked into the replay.
    sampler_speedup = report["sampler_kernel"]["total"]["speedup"]
    if sampler_speedup is None:
        return "SAMPLER KERNEL GUARD: no sampler cell was measured"
    if sampler_speedup < MIN_SAMPLER_SPEEDUP:
        return (
            f"SAMPLER KERNEL REGRESSION: aggregate speedup "
            f"{sampler_speedup:.2f}x fell below the floor "
            f"{MIN_SAMPLER_SPEEDUP:.2f}x"
        )

    # Warm-start guard: loading a compiled workload off the store must
    # stay decisively cheaper than recompiling it, or the store is dead
    # weight.
    store_speedup = report["store"]["total"]["warm_speedup"]
    if store_speedup < MIN_STORE_SPEEDUP:
        return (
            f"WORKLOAD STORE REGRESSION: warm-load speedup "
            f"{store_speedup:.2f}x fell below the floor "
            f"{MIN_STORE_SPEEDUP:.2f}x"
        )

    # Load-simulator guard: gated only against a committed baseline; the
    # baseline's digest doubles as a determinism anchor.
    if baseline is None:
        print(f"\nloadsim guard: no {BASELINE.name} baseline; gate skipped")
        return None
    loadsim = report["loadsim"]["total"]
    base = baseline["loadsim"]["total"]
    if base["event_log_digest"] != loadsim["event_log_digest"]:
        return (
            "LOADSIM DETERMINISM REGRESSION: the fixed bench scenario's "
            f"event log digest {loadsim['event_log_digest'][:12]} no longer "
            f"matches the committed baseline {base['event_log_digest'][:12]}"
        )
    floor = MIN_LOADSIM_FRACTION * base["events_per_sec"]
    if loadsim["events_per_sec"] < floor:
        return (
            f"LOADSIM THROUGHPUT REGRESSION: "
            f"{loadsim['events_per_sec']:,.0f} events/s fell below "
            f"{MIN_LOADSIM_FRACTION:.2f}x of the baseline "
            f"{base['events_per_sec']:,.0f} (floor {floor:,.0f})"
        )
    print(
        "\nloadsim guard: digest matches baseline, "
        f"{loadsim['events_per_sec']:,.0f} events/s >= floor; ok"
    )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny budget, two benchmarks (harness validation)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help=f"report path (default {BASELINE.name}, BENCH_SMOKE.json "
        "with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        config = ExperimentConfig(
            scale=ExperimentConfig().scale, instructions=_SMOKE_INSTRUCTIONS
        )
        benchmarks = _SMOKE_BENCHMARKS
        array_techniques = _SMOKE_ARRAY_TECHNIQUES
    else:
        config = ExperimentConfig.from_env()
        benchmarks = SINGLE_THREAD_SUBSET
        array_techniques = ARRAY_TECHNIQUES

    print(f"machine: {config.describe()}")
    print(f"benchmarks: {', '.join(benchmarks)}")

    # Read the baseline before this run can overwrite it.
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    workload_cache = WorkloadCache(config)
    report = {
        "schema": "repro-bench/2",
        "unix_time": time.time(),
        "smoke": args.smoke,
        "config": {
            "scale": config.scale,
            "instructions": config.instructions,
            "seed": config.seed,
        },
        "array_kernel": _measure_array_kernel(
            workload_cache, array_techniques, benchmarks
        ),
        "sampler_kernel": _measure_sampler_kernel(workload_cache, benchmarks),
        "dbrb_kernel": _measure_dbrb_kernel(workload_cache, benchmarks),
        "telemetry": _measure_telemetry_overhead(workload_cache, benchmarks),
        "store": _measure_store(config, benchmarks),
        "patterns": _measure_patterns(config),
        "loadsim": _measure_loadsim(),
    }
    _print_report(report)

    output = args.output
    if output is None:
        output = REPO_ROOT / "BENCH_SMOKE.json" if args.smoke else BASELINE
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nreport written to {output}")

    failure = _gate_failure(report, baseline)
    if failure is not None:
        print(f"\n{failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
