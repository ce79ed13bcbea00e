"""The benchmark's workloads: set-up, the timed call, and its cells.

Each workload runs the public entry point a user calls, serially
(``jobs=1``), at the scale and budget named in its section; README.md
gives each one's traced split beside the sweep it stands in for.  The
modelled caches start empty in every cell, as in every figure of the
repo.

A workload's ``run`` is the timed call; ``outcome`` turns what it
returned into one canonical record per cell (benchmark x technique,
mix x technique, or loadsim technique) after the clock has stopped.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, List, NamedTuple

from repro.harness import (
    MULTICORE_LRU_TECHNIQUES,
    SINGLE_THREAD_TECHNIQUES,
    ExperimentConfig,
    WorkloadCache,
    export,
    parallel_single_thread_comparison,
)
from repro.harness.experiments import (
    ablation_experiment,
    loadsim_experiment,
    multicore_comparison,
)
from repro.loadsim import LoadScenario, resolve_tenant_specs
from repro.sim.streamstore import StreamStore
from repro.sim.system import SingleCoreSystem
from repro.workloads import MIX_NAMES, SINGLE_THREAD_SUBSET

#: Paper aggregates over the 19-benchmark subset (Figures 4, 5).
PAPER_SAMPLER_SPEEDUP = 1.059
PAPER_SAMPLER_MPKI = 0.883


class Outcome(NamedTuple):
    cells: Dict[str, dict]  # cell id -> canonical simulated record
    instructions: int  # simulated instructions summed over the cells
    report: List[str]  # modelled results beside the paper's


class Workload(NamedTuple):
    name: str
    setup: Callable[[int, str], object]  # (seed, scratch dir) -> state
    run: Callable[[object], object]  # state -> raw result (timed)
    outcome: Callable[[object, object], Outcome]  # (state, raw) -> Outcome


def single_record(result) -> dict:
    """One single-core cell: every ``CacheStats`` field, cycles, IPC."""
    record = dataclasses.asdict(result.llc_stats)
    record["instructions"] = result.instructions
    record["cycles"] = None if result.timing is None else result.timing.cycles
    record["ipc"] = result.ipc
    return record


def _unvalidated(line: str) -> str:
    return f"[unvalidated: synthetic SPEC-like workloads, no hardware error claimed] {line}"


# ----------------------------------------------------------------------
# fig45-cold: the `repro suite` path, no workload store
# ----------------------------------------------------------------------
#: A 1/16 machine at 70k instructions: its layer shares are close to
#: those of the scale-8, 400k sweep of record (README.md), and every
#: stream is longer than the LLC's frame count, so no cell falls back
#: for ``small-stream``.
FIG45_SCALE = 16
FIG45_INSTRUCTIONS = 70_000


def _fig45_setup(seed: int, scratch: str):
    config = ExperimentConfig(scale=FIG45_SCALE, instructions=FIG45_INSTRUCTIONS, seed=seed)
    return WorkloadCache(config), os.path.join(scratch, "fig45.json")


def _fig45_run(state):
    cache, path = state
    comparison = parallel_single_thread_comparison(
        cache, SINGLE_THREAD_TECHNIQUES, jobs=1
    )
    export.export_json(comparison, path)
    return comparison


def _fig45_outcome(state, comparison) -> Outcome:
    cells = {}
    for benchmark in comparison.benchmarks:
        cells[f"{benchmark}/lru"] = single_record(comparison.baseline[benchmark])
        for key in comparison.technique_keys:
            cells[f"{benchmark}/{key}"] = single_record(comparison.results[benchmark][key])
    report = [
        _unvalidated(
            f"Figure 5 sampler gmean speedup {comparison.speedup_gmean('sampler'):.4f}"
            f" (paper {PAPER_SAMPLER_SPEEDUP:.3f})"
        ),
        _unvalidated(
            f"Figure 4 sampler MPKI reduction "
            f"{1.0 - comparison.mpki_amean('sampler'):.4f}"
            f" (paper {1.0 - PAPER_SAMPLER_MPKI:.3f})"
        ),
    ]
    return Outcome(cells, sum(r["instructions"] for r in cells.values()), report)


# ----------------------------------------------------------------------
# fig6-warm: the ablation on a store filled during set-up
# ----------------------------------------------------------------------
#: A 1/32 machine at 30k instructions: its layer shares are within a few
#: points of the scale-8, 100k ablation's, except the per-cell LLC
#: construction, which a 1/8 machine pays four times over (README.md).
FIG6_SCALE = 32
FIG6_INSTRUCTIONS = 30_000


class CapturingSystem(SingleCoreSystem):
    """Keeps each cell's record: ``ablation_experiment`` returns gmeans only."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.cells: Dict[str, dict] = {}

    def run(self, filtered, policy_factory, technique_name="unnamed", **kwargs):
        result = super().run(filtered, policy_factory, technique_name, **kwargs)
        self.cells[f"{result.workload}/{technique_name}"] = single_record(result)
        return result


def _fig6_setup(seed: int, scratch: str):
    config = ExperimentConfig(scale=FIG6_SCALE, instructions=FIG6_INSTRUCTIONS, seed=seed)
    root = os.path.join(scratch, "store")
    filler = WorkloadCache(config, stream_store=StreamStore(root))
    for benchmark in SINGLE_THREAD_SUBSET:
        filler.compiled(benchmark)
    cache = WorkloadCache(config, stream_store=StreamStore(root))
    cache.system = CapturingSystem(cache.machine)
    return cache


def _fig6_run(cache):
    return ablation_experiment(cache)


def _fig6_outcome(cache, variants) -> Outcome:
    cells = cache.system.cells
    report = [
        _unvalidated(f"Figure 6 {label}: gmean speedup {measured:.4f} (paper {paper:.3f})")
        for label, measured, paper in variants
    ]
    return Outcome(cells, sum(r["instructions"] for r in cells.values()), report)


# ----------------------------------------------------------------------
# fig10-mc: shared-LLC mixes of Table IV
# ----------------------------------------------------------------------
#: The default scale-8 machine at 100k instructions per core, over the
#: first two mixes: all ten at that size take about 23 s, too long for
#: three children in one run (README.md).
FIG10_SCALE = 8
FIG10_INSTRUCTIONS = 100_000
FIG10_MIXES = MIX_NAMES[:2]


def _fig10_setup(seed: int, scratch: str):
    config = ExperimentConfig(scale=FIG10_SCALE, instructions=FIG10_INSTRUCTIONS, seed=seed)
    return WorkloadCache(config)


def _fig10_run(cache):
    return multicore_comparison(cache, MULTICORE_LRU_TECHNIQUES, FIG10_MIXES)


def multicore_record(result) -> dict:
    """One mix x technique cell: every ``CacheStats`` field and per-core IPCs."""
    record = dataclasses.asdict(result.llc_stats)
    record["instructions"] = result.instructions
    record["ipcs"] = list(result.ipcs)
    record["single_ipcs"] = list(result.single_ipcs)
    return record


def _fig10_outcome(cache, comparison) -> Outcome:
    cells = {}
    for mix in comparison.mixes:
        cells[f"{mix}/lru"] = multicore_record(comparison.baseline[mix])
        for key in comparison.technique_keys:
            cells[f"{mix}/{key}"] = multicore_record(comparison.results[mix][key])
    return Outcome(cells, sum(r["instructions"] for r in cells.values()), [])


# ----------------------------------------------------------------------
# loadsim-4t: the EXPERIMENTS.md load-simulation configuration of record
# ----------------------------------------------------------------------
LOADSIM_SCALE = 32
LOADSIM_INSTRUCTIONS = 50_000
LOADSIM_DURATION = 6_000_000


def _loadsim_setup(seed: int, scratch: str):
    config = ExperimentConfig(scale=LOADSIM_SCALE, instructions=LOADSIM_INSTRUCTIONS, seed=seed)
    scenario = LoadScenario(
        tenants=resolve_tenant_specs("4", "poisson(rate=0.1)"),
        duration=LOADSIM_DURATION,
        seed=seed,
    )
    return WorkloadCache(config), scenario


def _loadsim_run(state):
    cache, scenario = state
    return loadsim_experiment(cache, scenario, ("sampler", "lru"))


def loadsim_record(result) -> dict:
    """One loadsim technique run: event-log digest, percentiles, LLC stats."""
    record = dataclasses.asdict(result.llc_stats)
    record["event_log_digest"] = result.event_log_digest()
    record["p50"] = result.p50
    record["p95"] = result.p95
    record["p99"] = result.p99
    record["instructions"] = sum(tenant.instructions for tenant in result.tenants)
    return record


def _loadsim_outcome(state, comparison) -> Outcome:
    cells = {key: loadsim_record(comparison.results[key]) for key in comparison.technique_keys}
    return Outcome(cells, sum(r["instructions"] for r in cells.values()), [])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig45-cold", _fig45_setup, _fig45_run, _fig45_outcome),
        Workload("fig6-warm", _fig6_setup, _fig6_run, _fig6_outcome),
        Workload("fig10-mc", _fig10_setup, _fig10_run, _fig10_outcome),
        Workload("loadsim-4t", _loadsim_setup, _loadsim_run, _loadsim_outcome),
    )
}
