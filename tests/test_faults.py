"""The fault-tolerant sweep harness.

These tests inject deterministic worker faults (``REPRO_CHAOS``) into
real spawn-context pools and pin the load-bearing promises of
:mod:`repro.harness.faults` / :mod:`repro.harness.checkpoint`:

* crashes, hangs, and transient exceptions are retried / timed out /
  degraded to serial without losing completed cells;
* a sweep killed mid-run resumes from its checkpoint and the final
  comparison is **bit-identical** to an uninterrupted serial run;
* unrecoverable failures surface as a structured taxonomy
  (:class:`CellTimeout` / :class:`CellCrashed` / :class:`SweepAborted`)
  naming the failing cell, or as a partial result when allowed -- at
  every job count, in-process runs included.

The parser tests of the one chaos grammar live here too.

Everything here is ``@pytest.mark.faults`` (``make test-faults``): the
tests spawn pools and stall workers on purpose, so each runs under the
hard per-test deadline armed in ``tests/conftest.py``.
"""

from __future__ import annotations

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiments import single_thread_comparison
from repro.harness.faults import (
    CellCrashed,
    CellTimeout,
    ChaosRule,
    ChaosSpec,
    FaultPolicy,
    SweepAborted,
    cell_label,
    drain_cleanup_hooks,
    maybe_inject_fault,
    parse_chaos_spec,
    run_cells_supervised,
)
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.telemetry.events import read_events
from repro.telemetry.manifest import RunManifest

BENCHMARKS = ("perlbench", "mcf")
TECHNIQUE_KEYS = ("rrip",)
SMALL = ExperimentConfig(instructions=20_000)

#: Fast supervision for tests: no backoff sleeps, short watchdog.
FAST = dict(backoff=0.0, watchdog=4.0)


def serial_reference():
    return single_thread_comparison(WorkloadCache(SMALL), TECHNIQUE_KEYS, BENCHMARKS)


def assert_bit_identical(reference, comparison):
    for benchmark in BENCHMARKS:
        assert (
            reference.baseline[benchmark].llc_stats.snapshot()
            == comparison.baseline[benchmark].llc_stats.snapshot()
        )
        assert reference.baseline[benchmark].ipc == comparison.baseline[benchmark].ipc
        for key in TECHNIQUE_KEYS:
            mine = reference.results[benchmark][key]
            theirs = comparison.results[benchmark][key]
            assert mine.llc_stats.snapshot() == theirs.llc_stats.snapshot()
            assert mine.llc_hits == theirs.llc_hits
            assert mine.ipc == theirs.ipc


class TestFaultSpec:
    """The one chaos grammar, ``mode[:probability][@max_attempt]``."""

    def test_parse_modes_and_probabilities(self):
        assert parse_chaos_spec(
            "kill:0.1,hang:0.05,raise:0.5,slow:0.2,heartbeat:0.5,blob"
        ) == {
            "kill": ChaosRule(0.1),
            "hang": ChaosRule(0.05),
            "raise": ChaosRule(0.5),
            "slow": ChaosRule(0.2),
            "heartbeat": ChaosRule(0.5),
            "blob": ChaosRule(1.0),
        }

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("kill:1@1", {"kill": ChaosRule(1.0, 1)}),
            ("hang:0.5@2", {"hang": ChaosRule(0.5, 2)}),
            ("raise@3", {"raise": ChaosRule(1.0, 3)}),
        ],
        ids=["kill", "hang", "raise"],
    )
    def test_attempt_cap(self, spec, expected):
        assert parse_chaos_spec(spec) == expected

    def test_bare_mode_means_always(self):
        for mode in ("kill", "hang", "raise", "slow", "heartbeat", "blob"):
            assert parse_chaos_spec(mode) == {mode: ChaosRule(1.0, None)}

    def test_empty_and_none_disable(self):
        assert parse_chaos_spec(None) == {}
        assert parse_chaos_spec("  ") == {}
        assert parse_chaos_spec("") == {}

    # ``crash`` is the retired pool-only name for ``kill``.
    @pytest.mark.parametrize(
        "bad",
        ["explode:0.5", "crash:nan-ish", "crash:1.5", "explode", "kill:1.5",
         "kill:-0.1", "kill:x", "kill@0", "kill@x"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)

    def test_injection_is_deterministic_per_attempt(self):
        # With probability 1.0 the 'raise' mode must fire on every
        # attempt, and the exception names the cell and attempt.
        with pytest.raises(RuntimeError, match="mcf/rrip.*attempt 3"):
            maybe_inject_fault(("mcf", "rrip"), 3, ChaosSpec.from_env("raise:1.0"))
        # Probability 0.0 never fires, and an attempt cap below the
        # attempt switches the mode off.
        maybe_inject_fault(("mcf", "rrip"), 3, ChaosSpec.from_env("raise:0.0"))
        maybe_inject_fault(("mcf", "rrip"), 3, ChaosSpec.from_env("raise@2"))

    def test_cell_label_names_baseline(self):
        assert cell_label(("mcf", None)) == "mcf/lru(baseline)"


class TestFaultPolicyEnv:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_CELL_TIMEOUT", "REPRO_CELL_RETRIES", "REPRO_RETRY_BACKOFF"):
            monkeypatch.delenv(name, raising=False)
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout is None
        assert policy.max_retries == 2
        assert policy.degrade_serially and not policy.allow_partial

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout == 1.5
        assert policy.max_retries == 0
        assert policy.backoff == 0.25

    def test_zero_backoff_is_legal(self, monkeypatch):
        # "retry immediately" is a valid choice (the fault tests rely on
        # it); only the timeout has to be strictly positive.
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert FaultPolicy.from_env().backoff == 0.0
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "-0.1")
        with pytest.raises(ValueError, match="non-negative"):
            FaultPolicy.from_env()

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_CELL_TIMEOUT", "zero"),
            ("REPRO_CELL_TIMEOUT", "-1"),
            ("REPRO_CELL_RETRIES", "-2"),
            ("REPRO_CELL_RETRIES", "two"),
        ],
    )
    def test_invalid_env_rejected(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError):
            FaultPolicy.from_env()

    def test_watchdog_always_finite(self):
        assert FaultPolicy().effective_watchdog() > 0
        assert FaultPolicy(cell_timeout=2.0).effective_watchdog() > 2.0
        assert FaultPolicy(watchdog=7.0).effective_watchdog() == 7.0


class TestCleanupHooks:
    """The supervised-cleanup drain: LIFO order, raise-tolerant.

    Regression for the bug where one raising hook skipped every later
    teardown -- most importantly the shared-memory stream unlink, which
    then leaked a segment per crashed sweep.
    """

    def test_hooks_drain_in_lifo_order(self):
        order = []
        errors = drain_cleanup_hooks(
            [lambda: order.append(1), lambda: order.append(2), lambda: order.append(3)]
        )
        assert order == [3, 2, 1]
        assert errors == []

    def test_raising_hook_is_reported_and_later_hooks_still_run(self):
        order = []

        def unlink_shm():
            order.append("shm")
            raise OSError("segment already gone")

        messages = []
        errors = drain_cleanup_hooks(
            # Acquisition order: pool teardown first, then the shm
            # export -- so the raiser runs *first* in LIFO and must not
            # take the pool hook down with it.
            [lambda: order.append("pool"), unlink_shm],
            on_error=messages.append,
        )
        assert order == ["shm", "pool"]
        assert len(errors) == 1 and isinstance(errors[0], OSError)
        assert "unlink_shm" in messages[0]
        assert "continuing" in messages[0]

    def test_default_report_goes_to_stderr(self, capsys):
        def broken():
            raise RuntimeError("disc full")

        errors = drain_cleanup_hooks([broken])
        assert len(errors) == 1
        captured = capsys.readouterr()
        assert "broken" in captured.err and "disc full" in captured.err

    def test_empty_and_single_callable_forms(self):
        assert drain_cleanup_hooks([]) == []
        ran = []
        assert drain_cleanup_hooks([lambda: ran.append(True)]) == []
        assert ran == [True]


@pytest.mark.faults
class TestSupervisedCleanup:
    def test_supervision_drains_every_hook_despite_a_raiser(self):
        # A real supervised run (spawn pool, one cell) whose cleanup
        # list contains a raising hook in the middle: all three hooks
        # run, LIFO, and the sweep itself still succeeds.
        from repro.harness.parallel import _run_cell_supervised, make_cell_pool_factory

        order = []

        def early():
            order.append("early")

        def raiser():
            order.append("raiser")
            raise OSError("unlink failed")

        def late():
            order.append("late")

        results = {}
        failures = run_cells_supervised(
            make_cell_pool_factory(SMALL, 1),
            _run_cell_supervised,
            [("perlbench", None)],
            FaultPolicy(max_retries=0, **FAST),
            on_success=lambda cell, result, timing: results.__setitem__(cell, result),
            cleanup=[early, raiser, late],
        )
        assert failures == []
        assert ("perlbench", None) in results
        assert order == ["late", "raiser", "early"]


@pytest.mark.faults
class TestCrashRecovery:
    def test_transient_faults_are_retried_bit_identically(self, monkeypatch):
        # Half the (cell, attempt) draws raise; retries redraw and the
        # sweep completes with results identical to the serial run.
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=5, **FAST),
        )
        assert not comparison.is_partial
        assert_bit_identical(serial_reference(), comparison)

    def test_hard_crashes_degrade_to_serial(self, monkeypatch):
        # Every parallel attempt is killed; graceful degradation
        # re-runs the cells in-process (where injection never applies)
        # and the sweep still completes bit-identically.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=0, watchdog=2.0, backoff=0.0),
        )
        assert not comparison.is_partial
        assert comparison.failure_report() == ""
        assert_bit_identical(serial_reference(), comparison)

    def test_degraded_cells_keep_their_kernel_in_the_manifest(
        self, monkeypatch, tmp_path
    ):
        # Degraded cells run through the same timed executor as pool
        # cells, so the manifest records the full timing for them too.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        events_path = tmp_path / "events.ndjson"
        manifest_path = tmp_path / "manifest.json"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=0, watchdog=2.0, backoff=0.0),
            events_file=str(events_path), manifest_path=str(manifest_path),
        )
        assert not comparison.is_partial
        kinds = [event["event"] for event in read_events(str(events_path))]
        assert "sweep_degraded" in kinds  # every cell really was degraded
        cells = RunManifest.load(str(manifest_path))["cells"]
        assert len(cells) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        for label, cell in cells.items():
            assert cell["status"] == "ok", label
            assert cell["kernel"] in ("array", "object"), label
            for key in ("wall_seconds", "cpu_seconds", "store_hits", "store_misses"):
                assert key in cell, (label, key)

    def test_unrecoverable_crash_aborts_with_taxonomy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
                fault_policy=FaultPolicy(
                    max_retries=0, watchdog=2.0, backoff=0.0,
                    degrade_serially=False,
                ),
            )
        failures = excinfo.value.failures
        assert failures and all(isinstance(f, CellCrashed) for f in failures)
        # The taxonomy names the failing cells.
        assert {f.benchmark for f in failures} <= set(BENCHMARKS)

    def test_allow_partial_returns_completed_cells(self, monkeypatch):
        # Every worker attempt crashes, degradation is off, but partial
        # results are allowed: the sweep returns with every cell named
        # in the failure report instead of raising.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(
                max_retries=0, watchdog=2.0, backoff=0.0,
                degrade_serially=False,
            ),
            allow_partial=True,
        )
        assert comparison.is_partial
        assert len(comparison.failures) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        report = comparison.failure_report()
        assert "partial sweep" in report and "mcf" in report


class TestInProcessFailures:
    """``jobs=1`` runs cells through the loop degradation uses, so a
    raising cell is a :class:`CellCrashed` there too, never a raw
    exception."""

    @pytest.fixture
    def broken_cell(self, monkeypatch):
        from repro.harness import parallel

        real = parallel._run_cell_on

        def run(cache, cell):
            if cell == ("mcf", "rrip"):
                raise RuntimeError("policy bug")
            return real(cache, cell)

        monkeypatch.setattr(parallel, "_run_cell_on", run)
        return ("mcf", "rrip")

    def test_partial_result_names_the_cell(self, broken_cell, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1, allow_partial=True,
            manifest_path=str(manifest_path),
        )
        assert comparison.is_partial
        assert [f.cell for f in comparison.failures] == [broken_cell]
        assert isinstance(comparison.failures[0], CellCrashed)
        assert "policy bug" in comparison.failure_report()
        assert "rrip" in comparison.results["perlbench"]
        assert "mcf" in comparison.baseline
        manifest = RunManifest.load(str(manifest_path))
        assert manifest["status"] == "partial"
        assert manifest["cells"]["mcf/rrip"]["status"] == "failed"

    def test_sweep_aborted_names_the_cell(self, broken_cell):
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1,
            )
        assert [f.cell for f in excinfo.value.failures] == [broken_cell]
        assert excinfo.value.completed == len(BENCHMARKS) * 2 - 1
        assert "mcf/rrip" in str(excinfo.value)


@pytest.mark.faults
class TestTimeouts:
    def test_hung_workers_time_out_and_degrade(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=2,
            fault_policy=FaultPolicy(
                cell_timeout=0.5, max_retries=0, watchdog=4.0, backoff=0.0,
            ),
        )
        assert not comparison.is_partial
        reference = single_thread_comparison(
            WorkloadCache(SMALL), TECHNIQUE_KEYS, ("perlbench",)
        )
        assert (
            reference.results["perlbench"]["rrip"].llc_hits
            == comparison.results["perlbench"]["rrip"].llc_hits
        )

    def test_timeout_failures_carry_cell_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=2,
                fault_policy=FaultPolicy(
                    cell_timeout=0.5, max_retries=0, watchdog=4.0,
                    backoff=0.0, degrade_serially=False,
                ),
            )
        kinds = {type(f) for f in excinfo.value.failures}
        assert kinds <= {CellTimeout, CellCrashed}
        assert CellTimeout in kinds
        timeout = next(f for f in excinfo.value.failures if isinstance(f, CellTimeout))
        assert timeout.benchmark == "perlbench"


@pytest.mark.faults
class TestCheckpointResume:
    def test_killed_sweep_resumes_bit_identically(self, monkeypatch, tmp_path):
        """The acceptance scenario: a sweep dies mid-run, completed cells
        are on disk, and the resumed sweep equals an uninterrupted serial
        run bit-for-bit."""
        store = CheckpointStore(tmp_path / "ckpt")

        # Phase 1: half the (cell, attempt) draws raise and there are no
        # retries, so the sweep dies mid-run with some cells completed
        # and checkpointed, others not -- the "killed mid-run" half of
        # the acceptance scenario.  The injection hash is deterministic,
        # so the phase-1 outcome is pinned, not flaky.
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
                checkpoint=store,
                fault_policy=FaultPolicy(
                    max_retries=0, watchdog=4.0, backoff=0.0,
                    degrade_serially=False,
                ),
            )
        assert excinfo.value.failures  # the sweep really died mid-run
        completed_before = len(store)
        total_cells = len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        # The interruption left the store genuinely partial.
        assert 0 < completed_before < total_cells

        # Phase 2: faults off, resume from the checkpoint.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        resumed = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            checkpoint=store, resume=True,
            fault_policy=FaultPolicy(max_retries=0, **FAST),
        )
        assert not resumed.is_partial
        assert len(store) == total_cells
        assert len(store) >= completed_before
        assert_bit_identical(serial_reference(), resumed)

        # Phase 3: a second resume comes entirely off disk (serial path,
        # zero cells to run) and is still identical.
        rerun = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1,
            checkpoint=store, resume=True,
        )
        assert_bit_identical(serial_reference(), rerun)

    def test_partial_success_checkpoints_survivors(self, monkeypatch, tmp_path):
        # Transient faults + retries: every completed cell lands in the
        # store even though some attempts failed along the way.
        store = CheckpointStore(tmp_path / "ckpt")
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            checkpoint=store,
            fault_policy=FaultPolicy(max_retries=5, **FAST),
        )
        assert not comparison.is_partial
        assert len(store) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(ValueError, match="checkpoint"):
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1, resume=True,
            )

    def test_checkpoint_dir_env_wiring(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env-ckpt"))
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1,
        )
        assert not comparison.is_partial
        store = CheckpointStore(tmp_path / "env-ckpt")
        assert len(store) == len(TECHNIQUE_KEYS) + 1
        # And a resume through the same env wiring comes off disk.
        resumed = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1, resume=True,
        )
        assert (
            comparison.baseline["perlbench"].llc_stats.snapshot()
            == resumed.baseline["perlbench"].llc_stats.snapshot()
        )
