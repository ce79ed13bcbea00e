"""Frozen results for Figure 6 and TDBP, plus their kernel coverage.

Two checks over the same tier-1-sized sweep (scale 1/32, 12,000
instructions, three benchmarks whose LLC streams outgrow the frame
count, so no cell falls back for ``small-stream``):

* **Golden.**  Every cell of :func:`ablation_experiment` (the LRU
  baseline plus the six Figure 6 variants) and every ``tdbp`` cell of a
  :func:`single_thread_comparison` is reduced to its
  :class:`~repro.cache.stats.CacheStats` fields and core cycles, and
  each cell's SHA-256 is pinned below.  The pins were computed before
  the Figure 6 shapes and TDBP gained array kernels, so they hold every
  replay path to the object kernel's frozen numbers rather than to
  another path of the same tree.  A change here must say so in
  CHANGES.md, with the reason.
* **Coverage.**  Every Figure 6 cell and every ``tdbp`` cell must replay
  on the array kernel (``RunResult.kernel == "array"``), so an
  eligibility regression fails tier-1 instead of silently slowing the
  sweep.  Every registry technique run single-core must take the array
  kernel exactly when its ``array_eligible`` flag says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.harness.experiments import (
    ABLATION_VARIANTS,
    ablation_experiment,
    single_thread_comparison,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import TECHNIQUES
from repro.sim.system import SingleCoreSystem

CONFIG = ExperimentConfig(scale=32, instructions=12_000, seed=1)
#: At this budget every one of the eight cells of each benchmark differs
#: from the others, so each predictor shape is pinned by its own numbers.
BENCHMARKS = ("zeusmp", "leslie3d", "GemsFDTD")

#: SHA-256 of each cell's canonical record (see :func:`cell_digest`).
GOLDEN = {
    "ablation/GemsFDTD/DBRB alone": "b8a465223d6d1fa7240ea4155cce02dc4c855cc3078f73917d0b056d790c7db0",
    "ablation/GemsFDTD/DBRB+3 tables": "177064891fb581b9701586be9425191ae74de7a72f4a367c8424d96929840d4f",
    "ablation/GemsFDTD/DBRB+sampler": "1b4de5ff8d5cc603eddabd996bf64f463b1b5e376ea43d2e229211166191e594",
    "ablation/GemsFDTD/DBRB+sampler+12-way": "8fa33c2278823180f29b40ed92ab4d20450cc7de1e6da15c136228b6bd43eb9f",
    "ablation/GemsFDTD/DBRB+sampler+3 tables": "e31cf7e679fad0321f696cbe97249fddf2b156951fdde333e69a78ad8b10a933",
    "ablation/GemsFDTD/DBRB+sampler+3 tables+12-way": "6df3d4458047254543015badc6231450b398a5f61cb38670f44fb8012dcfdbcc",
    "ablation/GemsFDTD/lru": "f14a828e9f81a887dc7fdb5139436cce42a233b43d2cd335e6f95ab374c74423",
    "ablation/leslie3d/DBRB alone": "08278aa79aa142d9e539cf71cc1f0c45e7b8f3584f695d74f7686a6dbbfdb51f",
    "ablation/leslie3d/DBRB+3 tables": "a43f90c90ae0a04fbb32d5fa076791b085042ec341d4a5f5b3f5fa96ef72d5c0",
    "ablation/leslie3d/DBRB+sampler": "f0022587e81f65693019030617985f48d1f56540b19a1640bba4c9a2497c0d21",
    "ablation/leslie3d/DBRB+sampler+12-way": "713e7d09cb8f862a1ab88dac0f8df84eb8fe7416baefad6b751581e7debfb4b4",
    "ablation/leslie3d/DBRB+sampler+3 tables": "807d71bddbf06c8549caa1d21c207581bb163383454def368aa6fbe07f746529",
    "ablation/leslie3d/DBRB+sampler+3 tables+12-way": "2fccd1832ca13639c5d920e464ad5e5b50cc117d01be654ba6f12459baa876e8",
    "ablation/leslie3d/lru": "390f2040d10c49f31c9e428cc8cff2234fdd952a51105d9dd5695193667443f1",
    "ablation/zeusmp/DBRB alone": "c8c86de294b6eec36e2f0c2fc3e8bd61ed334ca9803112af8fb8c7438a59e96f",
    "ablation/zeusmp/DBRB+3 tables": "85b31b946f659d4424cfc630393409ce7fc8f8b8a941c16a82ff709458d87be3",
    "ablation/zeusmp/DBRB+sampler": "ee4cc5b09a13aa885671f0f44b15eaa3aff633ac18159ed31b95fa898e47fe8d",
    "ablation/zeusmp/DBRB+sampler+12-way": "e3c3402cde1e72b53f40e4d66a9d946f87086543910f3833d76875e607076bf0",
    "ablation/zeusmp/DBRB+sampler+3 tables": "7e4762db0d217e2527be9475a0bc6017b91ba17c5bd1bce46452302c1f2a1b15",
    "ablation/zeusmp/DBRB+sampler+3 tables+12-way": "4bffc059248f857d6cc627ed8b126fb368159cb3550547c48c5276ac3f12f770",
    "ablation/zeusmp/lru": "f534e712632005a5a2ee0d53d8ca6e1067aca42046ed7dbe26d0d38b0c9e471a",
    "single/GemsFDTD/tdbp": "5c609c579e96db7b4a5336f79c688b7fd884345e03801ce764b723e7aefdccab",
    "single/leslie3d/tdbp": "b9d134d0bca0a37f3acbdd7c0f985c51b75331bb86d026c482ebad3c4771dfbc",
    "single/zeusmp/tdbp": "eda158dd886d7a7349db86fc2ac0c96622a8dbb4c6aa384921e45d1f170f779c",
}


class CapturingSystem(SingleCoreSystem):
    """Keeps every cell's result: ``ablation_experiment`` returns gmeans."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.cells = {}

    def run(self, filtered, policy_factory, technique_name="unnamed", **kwargs):
        result = super().run(filtered, policy_factory, technique_name, **kwargs)
        self.cells[f"{result.workload}/{technique_name}"] = result
        return result


def cell_digest(result) -> str:
    """SHA-256 over one cell's ``CacheStats`` fields and cycles."""
    record = dataclasses.asdict(result.llc_stats)
    record["cycles"] = None if result.timing is None else result.timing.cycles
    payload = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def run_cells():
    """Run the pinned sweep; returns ``{cell id: RunResult}``."""
    cache = WorkloadCache(CONFIG)
    cache.system = CapturingSystem(cache.machine)
    ablation_experiment(cache, BENCHMARKS)
    cells = {f"ablation/{key}": result for key, result in cache.system.cells.items()}
    comparison = single_thread_comparison(cache, ("tdbp",), BENCHMARKS)
    for benchmark in BENCHMARKS:
        cells[f"single/{benchmark}/tdbp"] = comparison.results[benchmark]["tdbp"]
    return cells


@pytest.fixture(scope="module")
def cells():
    return run_cells()


def test_frozen_fig6_and_tdbp_cells(cells):
    digests = {key: cell_digest(result) for key, result in cells.items()}
    assert sorted(digests) == sorted(GOLDEN)
    changed = [key for key in sorted(GOLDEN) if digests[key] != GOLDEN[key]]
    assert not changed, (
        f"frozen Figure 6 / TDBP results moved in {len(changed)} cell(s): "
        + ", ".join(
            f"{key} (kernel {cells[key].kernel}, stats {cells[key].llc_stats})"
            for key in changed
        )
    )


def test_fig6_and_tdbp_cells_replay_array_native(cells):
    labels = {label for label, _, _ in ABLATION_VARIANTS}
    covered = {
        key: result
        for key, result in cells.items()
        if key.rsplit("/", 1)[1] in labels or key.startswith("single/")
    }
    assert len(covered) == len(BENCHMARKS) * (len(labels) + 1)
    declined = {
        key: result.kernel_fallback
        for key, result in covered.items()
        if result.kernel != "array"
    }
    assert not declined, f"cells fell back to the object kernel: {declined}"


def test_array_eligible_flags_match_the_kernel_each_technique_runs():
    """``Technique.array_eligible`` (read by the bench's fallback probe)
    must say which kernel a single-core cell of that technique takes."""
    keys = [key for key in TECHNIQUES if key != "lru"]  # lru is the baseline
    comparison = single_thread_comparison(WorkloadCache(CONFIG), keys, BENCHMARKS)
    wrong = {}
    for benchmark in BENCHMARKS:
        runs = dict(comparison.results[benchmark], lru=comparison.baseline[benchmark])
        for key, result in runs.items():
            if TECHNIQUES[key].array_eligible:
                ok = result.kernel == "array"
            else:
                ok = result.kernel == "object" and bool(result.kernel_fallback)
            if not ok:
                wrong[f"{benchmark}/{key}"] = (result.kernel, result.kernel_fallback)
    assert not wrong, f"array_eligible disagrees with the kernel that ran: {wrong}"
