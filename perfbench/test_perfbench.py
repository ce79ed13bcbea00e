"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# nearest-rank percentiles and their sample counts
# ----------------------------------------------------------------------
def test_nearest_rank_picks_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert stats.nearest_rank(values, 50) == 5.0
    assert stats.nearest_rank(values, 90) == 9.0
    assert stats.nearest_rank(values, 91) == 10.0
    assert stats.nearest_rank(values, 100) == 10.0
    assert stats.nearest_rank(values, 0) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 101)


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_point(19) is None
    assert stats.tail_point(100) == 90.0
    assert stats.tail_point(200) == 95.0
    assert stats.tail_point(1000) == 99.0
    small = stats.summary([1.0, 2.0, 3.0])
    assert small == {"median": 2.0, "n": 3, "tail": None}
    assert stats.summary([4.0, 1.0, 2.0, 3.0])["median"] == 2.5
    large = stats.summary([float(i) for i in range(1, 101)])
    assert large["n"] == 100 and large["tail"] == [90.0, 90.0]


# ----------------------------------------------------------------------
# self time from nested spans
# ----------------------------------------------------------------------
def _span(id, parent, name, start, end, **attrs):
    return tracing.Span(id=id, parent=parent, cell=0, name=name, start=start,
                        end=end, attrs=attrs)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "sim.system.run", 0.0, 10.0, technique="sampler"),
        _span(1, 0, "sim.hierarchy.llc_stream", 1.0, 4.0),
        _span(2, 1, "cache.soa.replay_index", 2.0, 3.0),
        _span(3, 0, "sim.replay", 5.0, 9.0, kernel="array", fallback=None, accesses=7),
        _span(4, 3, "cache.soa.prediction_plane", 5.5, 6.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.5, 4: 0.5}
    metrics = tracing.layer_metrics(spans, wall=12.5)
    assert metrics["sim.system.run_s"] == 3.0
    assert metrics["sim.replay_array.array_s"] == 3.5
    assert metrics["sim.replay.sampler_s"] == 3.5
    assert metrics["sim.replay_array.array_accesses"] == 7
    assert metrics["sim.replay.array_frac"] == 1.0
    assert metrics["trace.coverage_frac"] == 10.0 / 12.5


def test_recorder_links_parents_and_cells():
    recorder = tracing.Recorder()
    outer = recorder.begin("sim.system.run")
    inner = recorder.begin("sim.replay")
    recorder.end(inner)
    recorder.end(outer)
    second = recorder.begin("workloads.build_trace")
    recorder.end(second)
    assert (inner.parent, inner.cell) == (outer.id, outer.id)
    assert (second.parent, second.cell) == (None, second.id)
    assert outer.start <= inner.start <= inner.end <= outer.end


# ----------------------------------------------------------------------
# a perturbed simulated output is a failed cell
# ----------------------------------------------------------------------
def test_perturbed_output_fails_its_cell():
    pinned = checks.pinned_cells(checks.load_pins(), 1, "loadsim-4t")
    assert pinned, "pins.json has no loadsim-4t entry for seed 1"
    assert checks.check_cells("loadsim-4t", pinned, pinned) == []
    output = json.loads(json.dumps(pinned))
    output["lru"]["p99"] += 1.0
    failures = checks.check_cells("loadsim-4t", pinned, output)
    assert [cell for cell, _ in failures] == ["lru"]
    assert failures[0][1].startswith("loadsim-4t: cell lru: field p99:")


def test_missing_cell_and_broken_invariant_fail():
    record = {"accesses": 10, "hits": 4, "misses": 6, "fills": 6, "evictions": 2,
              "writebacks": 0, "bypasses": 0, "dead_block_victims": 0}
    broken = dict(record, hits=5)
    failures = checks.check_cells("w", {"a": record, "b": record}, {"a": broken})
    assert [cell for cell, _ in failures] == ["a", "b"]
    assert "field hits" in failures[0][1]
    assert "missing" in failures[1][1]
    assert checks.check_cells("w", {"a": broken}, {"a": broken})[0][1].endswith(
        "invariant broken: hits + misses != accesses"
    )


def test_pin_entry_round_trips():
    cells = {"x/lru": {"hits": 1, "ipcs": [0.5, 0.25]}, "x/sampler": {"hits": 2, "ipcs": [1.0]}}
    entry = checks.pin_entry(cells)
    pins = {"3": {"w": entry}}
    assert checks.pinned_cells(pins, 3, "w") == cells
    assert checks.pinned_cells(pins, 4, "w") is None


# ----------------------------------------------------------------------
# the traced wrappers restore the original functions
# ----------------------------------------------------------------------
def _originals():
    found = {}
    for module, cls, attribute, _, _ in tracing.TARGETS:
        owner = tracing._owner(module, cls)
        found[(module, cls, attribute)] = vars(owner)[attribute]
    return found


def test_wrappers_are_installed_then_restored():
    before = _originals()
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        during = _originals()
        from repro.harness import ExperimentConfig, WorkloadCache
        from repro.harness.experiments import single_thread_comparison

        cache = WorkloadCache(ExperimentConfig(scale=32, instructions=20_000))
        single_thread_comparison(cache, ("sampler",), benchmarks=("mcf",))
    assert all(during[key] is not before[key] for key in before)
    assert _originals() == before
    names = {span.name for span in recorder.spans}
    assert {"workloads.build_trace", "sim.system.run", "sim.replay", "sim.cpu.run"} <= names
    metrics = tracing.layer_metrics(recorder.spans, wall=1e9)
    assert metrics["sim.cpu.calls"] == 2
    assert metrics["sim.replay.cells"] == 2


def test_wrappers_are_restored_when_the_block_raises():
    before = _originals()
    with pytest.raises(KeyError):
        with tracing.installed(tracing.Recorder()):
            raise KeyError("boom")
    assert _originals() == before


# ----------------------------------------------------------------------
# host times scaled to the nominal speed
# ----------------------------------------------------------------------
def test_scaled_uses_only_the_window_samples():
    slow = 2 * reference.NOMINAL_S
    samples = [(0.5, 0.001), (1.0, slow), (2.0, slow), (3.0, 0.001)]
    # At half the nominal speed, 1.0 CPU second less the probe's own
    # 2 * slow is worth half as much.
    assert reference.scaled(1.0, samples, 1.0, 3.0) == pytest.approx((1.0 - 2 * slow) / 2)
    assert reference.scaled(1.0, samples, 3.0, 4.0) == pytest.approx(
        (1.0 - 0.001) * reference.NOMINAL_S / 0.001)
    with pytest.raises(ValueError):
        reference.scaled(1.0, samples, 4.0, 5.0)


def test_probe_samples_then_restores_the_timer():
    previous = signal.getsignal(signal.SIGPROF)
    with reference.Probe() as probe:
        start = time.process_time()
        while time.process_time() - start < 10 * reference.INTERVAL_S:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert all(duration > 0 for _, duration in probe.samples)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# ----------------------------------------------------------------------
# BENCHMARK.json names what the code reports
# ----------------------------------------------------------------------
def test_contract_matches_the_code():
    from workloads import WORKLOADS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == tracing.LAYER_METRICS
    names = [m["name"] for m in contract["end_to_end"]]
    assert names == ["wall_s", "sim_minst_per_s", "setup_s", "peak_rss_mb"]
