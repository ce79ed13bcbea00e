"""The deduplicating scheduler (:mod:`repro.service.scheduler`).

Drives the scheduler directly -- no HTTP -- against real cell
executions at a tiny instruction budget.  Pins admission validation,
the three dedup layers (in-flight attach, done-this-life, checkpoint
store), bounded-queue backpressure, fair-share ordering, cancellation,
and the drain / restart-resume lifecycle.

Tests that execute cells are ``@pytest.mark.service`` (hard per-test
deadline, see ``tests/conftest.py``); pure-admission tests construct
the scheduler with ``start=False`` so nothing ever runs.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.service.jobs import QueueFull
from repro.service.scheduler import ExperimentScheduler

CONFIG = ExperimentConfig(instructions=20_000)


def make_scheduler(tmp_path, **kwargs) -> ExperimentScheduler:
    kwargs.setdefault("jobs", 1)  # serial in-dispatcher path: no pools
    kwargs.setdefault("stream_cache", None)
    return ExperimentScheduler(tmp_path / "service", **kwargs)


def wait_terminal(scheduler, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.get(job_id)
        if job.is_terminal:
            return job
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} still {scheduler.get(job_id).state}")


class TestAdmission:
    def test_unknown_benchmark_and_technique_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            with pytest.raises(ValueError, match="unknown workload"):
                scheduler.submit(CONFIG, ["notabench"], [], sweep=True)
            with pytest.raises(ValueError, match="unknown technique"):
                scheduler.submit(CONFIG, ["mcf"], ["notatech"], sweep=True)
        finally:
            scheduler.close(timeout=5.0)

    def test_cell_submission_shape(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            with pytest.raises(ValueError, match="exactly one benchmark"):
                scheduler.submit(CONFIG, ["mcf", "perlbench"], [])
            job = scheduler.submit(CONFIG, ["mcf"], [])  # LRU baseline cell
            assert job.kind == "cell" and job.cells == (("mcf", None),)
        finally:
            scheduler.close(timeout=5.0)

    def test_sweep_expands_the_full_grid(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            job = scheduler.submit(
                CONFIG, ["perlbench", "mcf"], ["rrip"], sweep=True
            )
            assert job.kind == "sweep"
            # Per benchmark: the LRU baseline plus one cell per technique.
            assert set(job.cells) == {
                ("perlbench", None), ("perlbench", "rrip"),
                ("mcf", None), ("mcf", "rrip"),
            }
        finally:
            scheduler.close(timeout=5.0)

    def test_bounded_queue_raises_queue_full(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False, queue_depth=1)
        try:
            scheduler.submit(CONFIG, ["mcf"], [])
            with pytest.raises(QueueFull, match="queue at capacity"):
                scheduler.submit(CONFIG, ["perlbench"], [])
            # Resubmitting the *queued* cell is an in-flight dedup hit,
            # not new load: it must be admitted despite the full queue.
            attached = scheduler.submit(CONFIG, ["mcf"], [])
            assert attached.dedup_cells == 1
        finally:
            scheduler.close(timeout=5.0)

    def test_draining_scheduler_refuses_submissions(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        scheduler.drain(timeout=5.0)
        with pytest.raises(RuntimeError, match="draining"):
            scheduler.submit(CONFIG, ["mcf"], [])


class TestFairShare:
    def test_starved_client_is_picked_first(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            scheduler.submit(CONFIG, ["mcf"], [], client="bulk")
            scheduler.submit(CONFIG, ["perlbench"], [], client="interactive")
            # "bulk" has already had many cells dispatched this life;
            # at equal priority the batch must lead with "interactive"
            # despite its later submission seq.
            scheduler._served["bulk"] = 50
            _, batch = scheduler._pick_batch()
            assert [entry.client for entry in batch] == ["interactive", "bulk"]
        finally:
            scheduler.close(timeout=5.0)

    def test_priority_beats_fair_share(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            scheduler.submit(CONFIG, ["mcf"], [], client="bulk", priority=-1)
            scheduler.submit(CONFIG, ["perlbench"], [], client="interactive")
            scheduler._served["bulk"] = 50
            _, batch = scheduler._pick_batch()
            assert batch[0].client == "bulk"  # lower number = higher priority
        finally:
            scheduler.close(timeout=5.0)


class TestCancellation:
    def test_cancel_queued_job_empties_its_cells(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            job = scheduler.submit(CONFIG, ["mcf"], [])
            assert scheduler.stats()["queue"]["depth"] == 1
            cancelled = scheduler.cancel(job.id)
            assert cancelled.state == "cancelled"
            assert scheduler.stats()["queue"]["depth"] == 0
            events, terminal = scheduler.events_since(job.id)
            assert terminal
            assert events[-1]["event"] == "sweep_finished"
            assert events[-1]["status"] == "cancelled"
            # Cancel is idempotent; unknown jobs raise.
            assert scheduler.cancel(job.id).state == "cancelled"
            with pytest.raises(KeyError):
                scheduler.cancel("job-nope")
        finally:
            scheduler.close(timeout=5.0)

    def test_cancel_spares_cells_another_job_shares(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            first = scheduler.submit(CONFIG, ["mcf"], [])
            second = scheduler.submit(CONFIG, ["mcf"], [])  # attaches
            scheduler.cancel(second.id)
            # The shared cell stays queued for the surviving job.
            assert scheduler.stats()["queue"]["depth"] == 1
            assert scheduler.get(first.id).state == "queued"
        finally:
            scheduler.close(timeout=5.0)


@pytest.mark.service
class TestExecution:
    def test_cell_job_runs_to_done_with_result(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            job = scheduler.submit(CONFIG, ["perlbench"], ["rrip"])
            final = wait_terminal(scheduler, job.id)
            assert final.state == "done"
            result = scheduler.result(job.id)
            assert result["kind"] == "cell"
            assert result["benchmark"] == "perlbench"
            assert result["technique"] == "rrip"
            assert result["llc"]["accesses"] > 0
            # The cell landed in the shared checkpoint store, where a
            # CLI sweep over the same directory would find it.
            assert scheduler.checkpoint.load(CONFIG, "perlbench", "rrip") is not None
            # Events tell the standard sweep story.
            events, terminal = scheduler.events_since(job.id)
            kinds = [event["event"] for event in events]
            assert terminal
            assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_finished"
            assert "cell_finished" in kinds
        finally:
            scheduler.close(timeout=30.0)

    @pytest.mark.parametrize("worker_count", [1, 2])
    def test_replay_kernel_stats_tally_the_cells(self, tmp_path, worker_count):
        # /v1/stats' replay_kernel section counts each executed cell's
        # RunResult.kernel / kernel_fallback, in-process and pooled.  At
        # this config perlbench's stream is too short for the array
        # kernel and mcf's counting cell declines it, so all three
        # counters move.
        config = ExperimentConfig(scale=32, instructions=12_000, seed=1)
        benchmarks, techniques = ["perlbench", "mcf"], ["rrip", "cdbp"]
        reference = parallel_single_thread_comparison(
            WorkloadCache(config), techniques, benchmarks, jobs=1
        )
        runs = [reference.baseline[b] for b in benchmarks] + [
            reference.results[b][t] for b in benchmarks for t in techniques
        ]
        fallbacks = {}
        for run in runs:
            if run.kernel_fallback is not None:
                fallbacks[run.kernel_fallback] = fallbacks.get(run.kernel_fallback, 0) + 1
        expected = {
            "array_cells": sum(run.kernel == "array" for run in runs),
            "object_cells": sum(run.kernel == "object" for run in runs),
            "fallbacks": fallbacks,
        }
        assert expected["array_cells"] and len(fallbacks) == 2

        scheduler = make_scheduler(tmp_path, jobs=worker_count)
        try:
            job = scheduler.submit(config, benchmarks, techniques, sweep=True)
            assert wait_terminal(scheduler, job.id).state == "done"
            assert scheduler.stats()["replay_kernel"] == expected
        finally:
            scheduler.close(timeout=30.0)

    def test_result_gates_on_done(self, tmp_path):
        scheduler = make_scheduler(tmp_path, start=False)
        try:
            job = scheduler.submit(CONFIG, ["perlbench"], [])
            with pytest.raises(RuntimeError, match="not done"):
                scheduler.result(job.id)
            with pytest.raises(KeyError):
                scheduler.result("job-nope")
        finally:
            scheduler.close(timeout=5.0)

    def test_two_submissions_one_execution(self, tmp_path):
        # The dedup acceptance criterion: same cell twice -> both jobs
        # done, exactly one execution, hits visible in stats.
        scheduler = make_scheduler(tmp_path)
        try:
            first = scheduler.submit(CONFIG, ["perlbench"], ["rrip"])
            second = scheduler.submit(CONFIG, ["perlbench"], ["rrip"])
            assert wait_terminal(scheduler, first.id).state == "done"
            assert wait_terminal(scheduler, second.id).state == "done"
            stats = scheduler.stats()
            assert stats["cells"]["executed"] == 1
            hits = (stats["dedup"]["checkpoint_hits"]
                    + stats["dedup"]["inflight_hits"])
            assert hits == 1
            assert stats["dedup"]["hit_rate"] == pytest.approx(0.5)
            assert scheduler.result(first.id) == scheduler.result(second.id)
        finally:
            scheduler.close(timeout=30.0)

    def test_checkpointed_cell_completes_instantly(self, tmp_path):
        # A cell computed in a previous scheduler life (or by a CLI
        # sweep into the same store) satisfies a new job without the
        # dispatcher ever seeing it.
        first = make_scheduler(tmp_path)
        try:
            job = first.submit(CONFIG, ["perlbench"], [])
            assert wait_terminal(first, job.id).state == "done"
        finally:
            first.close(timeout=30.0)

        second = make_scheduler(tmp_path, start=False)  # never dispatches
        try:
            job = second.submit(CONFIG, ["perlbench"], [])
            assert job.state == "done"  # done at admission
            assert job.dedup_cells == 1
            assert second.stats()["dedup"]["checkpoint_hits"] == 1
            assert second.result(job.id)["kind"] == "cell"
        finally:
            second.close(timeout=5.0)

    def test_drain_persists_queue_and_restart_resumes(self, tmp_path):
        # Life 1 never dispatches: the job drains out still queued.
        first = make_scheduler(tmp_path, start=False)
        job = first.submit(CONFIG, ["perlbench"], ["rrip"])
        assert first.drain(timeout=5.0)
        assert first.get(job.id).state == "queued"

        # Life 2 over the same job store resumes and completes it.
        second = make_scheduler(tmp_path)
        try:
            resumed = second.get(job.id)
            assert resumed is not None
            final = wait_terminal(second, job.id)
            assert final.state == "done"
            assert second.result(job.id)["benchmark"] == "perlbench"
        finally:
            second.close(timeout=30.0)
