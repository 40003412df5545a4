"""Tests for the process-pool substrate itself (ordering, fallback, errors)."""

import os
import warnings

import pytest

from repro.parallel import ParallelTaskError, resolve_workers, run_tasks
from repro.parallel.pool import _IN_WORKER_ENV, WORKERS_ENV


def square(x):
    return x * x


def add(a, b):
    return a + b


def fail_on(x, bad):
    if x == bad:
        raise ValueError(f"poisoned task {x}")
    return x


def pid_of(_):
    return os.getpid()


def type_name(obj):
    return type(obj).__name__


def nested(x):
    # run_tasks inside a worker must degrade to serial, not fork again.
    inner = run_tasks(square, [(x,), (x + 1,)], workers=4)
    return inner, os.environ.get(_IN_WORKER_ENV)


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_worker_processes_stay_serial(self, monkeypatch):
        monkeypatch.setenv(_IN_WORKER_ENV, "1")
        assert resolve_workers(8) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_invalid_env_names_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "two")
        with pytest.raises(ValueError, match=r"REPRO_WORKERS.*'two'"):
            resolve_workers(None)


class TestRunTasks:
    def test_serial_matches_parallel(self):
        tasks = [(i,) for i in range(10)]
        assert run_tasks(square, tasks, workers=1) == run_tasks(
            square, tasks, workers=3
        )

    def test_results_in_task_order(self):
        assert run_tasks(add, [(i, 10) for i in range(8)], workers=2) == [
            i + 10 for i in range(8)
        ]

    def test_chunksize_does_not_change_results(self):
        # The worker count (capped at the task count) never changes results.
        tasks = [(i,) for i in range(9)]
        baseline = run_tasks(square, tasks, workers=1)
        for workers in (2, 5, 100):
            assert run_tasks(square, tasks, workers=workers) == baseline

    def test_actually_uses_processes(self):
        pids = set(run_tasks(pid_of, [(i,) for i in range(6)], workers=2))
        assert os.getpid() not in pids
        assert len(pids) <= 2

    def test_empty_and_single(self):
        assert run_tasks(square, [], workers=4) == []
        assert run_tasks(square, [(3,)], workers=4) == [9]

    def test_worker_failure_names_task(self):
        with pytest.raises(ParallelTaskError, match=r"cell #2 .*poisoned task 2"):
            run_tasks(fail_on, [(i, 2) for i in range(5)], workers=2, label="cell")

    def test_serial_failure_unwrapped(self):
        # workers=1 is the plain loop: original exception type, no wrapper.
        with pytest.raises(ValueError, match="poisoned task 2"):
            run_tasks(fail_on, [(i, 2) for i in range(5)], workers=1)

    def test_lambda_falls_back_with_diagnostic(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = run_tasks(lambda x: x + 1, [(1,), (2,)], workers=2)  # repro: noqa[RPR005] -- the serial-fallback path is exactly what this test exercises
        assert out == [2, 3]

    def test_unpicklable_args_fall_back(self):
        import threading

        with pytest.warns(RuntimeWarning, match="arguments are not picklable"):
            out = run_tasks(
                type_name, [(threading.Lock(),), (threading.Lock(),)], workers=2
            )
        assert out == ["lock", "lock"]

    def test_no_nested_pools(self):
        results = run_tasks(nested, [(0,), (10,)], workers=2)
        for (_inner, flag) in results:
            assert flag == "1"  # ran inside a worker...
        assert results[0][0] == [0, 1] and results[1][0] == [100, 121]


class TestTelemetryExclusion:
    def test_fanout_refused_while_installed(self):
        from repro.obs import provider

        with provider.installed(lambda: None):
            with pytest.raises(RuntimeError, match="telemetry"):
                run_tasks(square, [(1,), (2,)], workers=2)

    def test_serial_fine_while_installed(self):
        from repro.obs import provider

        with provider.installed(lambda: None):
            assert run_tasks(square, [(2,)], workers=1) == [4]

    def test_is_installed_predicate(self):
        from repro.obs import provider

        assert not provider.is_installed()
        with provider.installed(lambda: None):
            assert provider.is_installed()
        assert not provider.is_installed()


def test_no_spurious_warnings_on_clean_parallel_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_tasks(square, [(i,) for i in range(4)], workers=2) == [0, 1, 4, 9]
