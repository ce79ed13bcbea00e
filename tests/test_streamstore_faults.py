"""Resource hygiene for the workload store under injected faults.

A sweep whose workers crash or hang must not leak anything the store or
the shared-memory fan-out created: every exported segment is unlinked
whether the sweep completes, degrades to serial, or aborts, and the
on-disk store never keeps a half-written ``*.tmp.*`` file.  Leaked
segments are the classic failure mode here -- /dev/shm survives the
process, so a crashy sweep would otherwise eat memory run after run.

Everything spawns real pools and kills workers on purpose, hence
``@pytest.mark.faults`` and the hard deadline from ``tests/conftest.py``.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro.harness.faults import FaultPolicy, SweepAborted
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig
from repro.sim.streamstore import SharedStreamExport, StreamStore

BENCHMARKS = ("perlbench", "mcf")
TECHNIQUE_KEYS = ("rrip",)
SMALL = ExperimentConfig(instructions=20_000)


@pytest.fixture(autouse=True)
def _isolate_store_env(monkeypatch):
    for name in ("REPRO_STREAM_CACHE", "REPRO_SHM", "REPRO_STREAM_REQUIRE"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def exported_segments(monkeypatch):
    """Record the shm segment names every export of this test creates."""
    names = []
    real_create = SharedStreamExport.create.__func__

    def spy(cls, compiled):
        export = real_create(cls, compiled)
        names.extend(name for _, name, _ in export.manifest().segments)
        return export

    monkeypatch.setattr(SharedStreamExport, "create", classmethod(spy))
    return names


def assert_no_leaks(names, store):
    assert names, "sweep never exported shared memory -- test is vacuous"
    leaked = []
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue  # unlinked, as required
        segment.close()
        segment.unlink()
        leaked.append(name)
    assert not leaked, f"sweep leaked shared-memory segments: {leaked}"
    assert list((store.root / "streams").glob("*.tmp.*")) == []


@pytest.mark.faults
class TestFaultLeaks:
    @pytest.mark.parametrize(
        "spec,policy_kwargs",
        [
            ("kill:1.0", dict(max_retries=0, watchdog=2.0, backoff=0.0)),
            (
                "hang:1.0",
                dict(cell_timeout=0.5, max_retries=0, watchdog=4.0, backoff=0.0),
            ),
        ],
        ids=["crashed-workers", "hung-workers"],
    )
    def test_degraded_sweep_unlinks_segments(
        self, tmp_path, monkeypatch, exported_segments, spec, policy_kwargs
    ):
        # Every parallel attempt dies; the sweep degrades to serial and
        # still completes -- and the export it fanned out is gone.
        store = StreamStore(tmp_path / "store")
        monkeypatch.setenv("REPRO_CHAOS", spec)
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            stream_cache=store, shared_memory=True,
            fault_policy=FaultPolicy(**policy_kwargs),
        )
        assert not comparison.is_partial
        assert_no_leaks(exported_segments, store)
        # The store itself survived intact: both workloads still load.
        assert len(store) == len(BENCHMARKS)

    def test_aborted_sweep_unlinks_segments(
        self, tmp_path, monkeypatch, exported_segments
    ):
        # Degradation off: the sweep aborts with the failure taxonomy --
        # the cleanup path must still run on the way out.
        store = StreamStore(tmp_path / "store")
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        with pytest.raises(SweepAborted):
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
                stream_cache=store, shared_memory=True,
                fault_policy=FaultPolicy(
                    max_retries=0, watchdog=2.0, backoff=0.0,
                    degrade_serially=False,
                ),
            )
        assert_no_leaks(exported_segments, store)

    def test_clean_sweep_unlinks_segments(self, tmp_path, exported_segments):
        # The happy path holds itself to the same standard.
        store = StreamStore(tmp_path / "store")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            stream_cache=store, shared_memory=True,
        )
        assert not comparison.is_partial
        assert_no_leaks(exported_segments, store)
