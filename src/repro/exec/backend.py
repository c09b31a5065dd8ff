"""The process pool the pipeline's parallel stages fan out on.

Blocked-pair scoring (paper §4.1 "Efficiency") and candidate-extraction
sharding are embarrassingly parallel and CPU-bound in pure Python, so the one
backend that can speed them up is a process pool, :class:`ProcessBackend`.

An executor spec is ``"serial"`` (no pool: every caller runs its own
sequential path, the reference) or ``"process"`` / ``"process:N"``;
:func:`parse_executor_spec` validates it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any

from repro.faults.plan import InjectedFault, active_injector
from repro.faults.retry import RetryPolicy

__all__ = [
    "ExecutorSpecError",
    "ProcessBackend",
    "DEFAULT_RETRY_POLICY",
    "parse_executor_spec",
    "chunk_evenly",
]

#: Default resilience budget for the process pool: two pool rebuilds / per-task
#: retries with a short backoff, retrying only the transient exception classes
#: (injected chaos faults and OS-level I/O hiccups).  Pipeline tasks are pure,
#: so retrying a deterministic task error would just repeat it — those still
#: propagate immediately.
DEFAULT_RETRY_POLICY = RetryPolicy(
    attempts=2,
    base_seconds=0.02,
    max_seconds=0.5,
    retry_on=(InjectedFault, OSError),
)


def _injected_worker_crash() -> None:
    """Kill the worker process hosting this task (fault injection only).

    ``os._exit`` skips all cleanup, exactly like an OOM kill or segfault: the
    pool genuinely breaks and every sibling future resolves with
    :class:`~concurrent.futures.process.BrokenProcessPool`, which is the
    recovery path the injection exists to exercise.
    """
    os._exit(73)


def _faulty_call(fn: Callable[[Any], Any], item: Any, delay: float, error: bool) -> Any:
    """Run ``fn(item)`` with an injected delay and/or transient failure.

    Module-level so it pickles by reference into process-pool workers.
    """
    if delay:
        time.sleep(delay)
    if error:
        raise InjectedFault(
            f"injected task error in {getattr(fn, '__name__', fn)!r}"
        )
    return fn(item)


class ExecutorSpecError(ValueError):
    """An executor spec string is not ``"serial"`` or ``"process[:N]"``."""


def parse_executor_spec(spec: str) -> tuple[str, int]:
    """Parse ``"kind"`` / ``"kind:workers"`` into ``(kind, workers)``.

    ``workers`` defaults to ``os.cpu_count()`` for ``"process"`` and is always
    ``1`` for ``"serial"``.  The kind is validated here, so a typo — or a
    retired kind such as ``"thread"`` — fails at config-validation time
    instead of deep inside a build.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ExecutorSpecError(
            f"executor spec must be a non-empty string like 'process:4', got {spec!r}"
        )
    kind, separator, count = spec.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in ("serial", "process"):
        raise ExecutorSpecError(
            f"unknown executor kind {kind!r}; supported kinds: 'serial', "
            "'process' or 'process:N'"
        )
    if separator and not count.strip():
        # "process:" is a mangled count, not a request for the default width.
        raise ExecutorSpecError(
            f"executor spec {spec!r} has a ':' but no worker count"
        )
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ExecutorSpecError(
                f"executor worker count must be an integer, got {count!r}"
            ) from None
        if workers < 1:
            raise ExecutorSpecError(
                f"executor worker count must be >= 1, got {workers}"
            )
    else:
        workers = 1 if kind == "serial" else (os.cpu_count() or 1)
    if kind == "serial" and workers != 1:
        raise ExecutorSpecError(
            f"'serial' is single-worker by definition, got {spec!r}"
        )
    return kind, workers


def chunk_evenly(items: Sequence[Any], chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``chunks`` contiguous blocks.

    Contiguity matters: callers that concatenate block results in block order
    recover the exact sequential output ordering.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    count = min(len(items), chunks)
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    result: list[list[Any]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        result.append(list(items[start : start + size]))
        start += size
    return result


class ProcessBackend:
    """Process-pool backend: CPU parallelism past the GIL, picklable task envelopes.

    Per-worker state must be built by the ``initializer`` from picklable
    ``initargs`` (spawn-safe: nothing is assumed to be inherited by fork), and
    task functions must be module-level so they pickle by reference.  The
    pool is created lazily on first use, so a backend that ends up running
    nothing costs nothing.  The initializer only ever runs in a worker.

    :meth:`map_blocks` runs through a two-rung fault-tolerance ladder:

    1. **Per-task retry** — a task failing with an exception the
       :class:`RetryPolicy` covers (transient by construction: injected
       faults, OS-level I/O errors) is re-dispatched after backoff, up to the
       policy's budget.  Deterministic task errors propagate immediately.
    2. **Pool rebuild** — a broken pool (worker killed mid-task) resolves all
       in-flight futures with :class:`~concurrent.futures.BrokenExecutor`;
       the loop collects whatever finished, rebuilds the pool after backoff,
       and re-dispatches **only the lost items**.

    Once pool breaks exceed the retry budget the backend gives up: it records
    why in :attr:`fallback_reason` and raises
    :class:`~concurrent.futures.BrokenExecutor`.  Tasks are pure, so every
    rung produces byte-identical results — the ladder trades wall-clock for
    availability, never answers.  Fault injection (when a
    :class:`~repro.faults.FaultInjector` is active) happens at dispatch time
    in the submitting thread.  Callers (:class:`~repro.exec.FanOut`) catch
    whatever escapes — an exhausted budget, pickling errors, a sandboxed
    ``/dev/shm`` — and run their own sequential path.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        workers = workers if workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._pool_failures = 0
        #: Times a broken pool was rebuilt and its lost work re-dispatched.
        self.crash_recoveries = 0
        #: Individual tasks re-run after a transient (policy-covered) failure.
        self.tasks_retried = 0
        #: Faults this backend injected on behalf of the active FaultInjector.
        self.faults_injected = 0
        #: Why the backend gave up on pools (``None`` while within budget).
        self.fallback_reason: str | None = None

    def __enter__(self) -> ProcessBackend:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The underlying executor, created lazily on first use.

        Creation is lock-guarded: a backend may be shared across threads, and
        an unguarded check-then-create would let two first users build two
        executors, orphaning one that ``close()`` could never shut down.
        """
        if self._closed:
            raise RuntimeError("ProcessBackend is closed")
        if self._pool is None:
            with self._pool_lock:
                if self._closed:
                    raise RuntimeError("ProcessBackend is closed")
                if self._pool is None:
                    self._pool = self._make_pool()
        return self._pool

    def _make_pool(self) -> ProcessPoolExecutor:
        # Forking a multi-threaded process can snapshot another thread's held
        # lock into the child and deadlock the worker before it even runs its
        # initializer — and a hang never trips the callers'
        # fall-back-on-exception paths.  Pool creation is lazy, so this check
        # runs right before the processes start: single-threaded pipelines
        # keep the cheap platform default (fork on Linux), while anything
        # running beside live threads (a daemon's pipeline refreshing the
        # artifact it serves) gets the spawn-safe path.
        method = "spawn" if threading.active_count() > 1 else None
        context = multiprocessing.get_context(method) if method else None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    # -- Fault-injecting dispatch ------------------------------------------------------
    def _dispatch(self, fn, item: Any) -> Future:
        """Submit ``fn(item)``, consulting the active fault injector first.

        Draws happen here, in the submitting thread, so the fault schedule is
        a deterministic function of dispatch order — never of worker timing.
        """
        injector = active_injector()
        if injector is not None:
            if injector.worker_crash():
                self.faults_injected += 1
                # The real task is NOT submitted: the crash destroys the pool,
                # this future resolves broken, and the recovery loop
                # re-dispatches the item — exactly an OOM-killed worker.
                return self.pool.submit(_injected_worker_crash)
            delay = injector.slow_call()
            error = injector.task_error()
            if delay or error:
                self.faults_injected += 1
                return self.pool.submit(_faulty_call, fn, item, delay, error)
        return self.pool.submit(fn, item)

    # -- Recovery ladder ---------------------------------------------------------------
    def _note_pool_failure(self) -> None:
        """One pool breakage: drop the pool, then rebuild after backoff or raise."""
        broken = self._pool
        with self._pool_lock:
            if not self._closed and self._pool is broken:
                # Compare-and-swap: another thread may have rebuilt already,
                # and clearing *its* fresh pool would orphan it.
                self._pool = None
        if broken is not None:
            broken.shutdown(wait=False)
        self._pool_failures += 1
        if self._pool_failures > self.retry_policy.attempts:
            self.fallback_reason = (
                f"process pool broke {self._pool_failures} time(s), "
                f"exhausting the retry budget ({self.retry_policy.attempts})"
            )
            raise BrokenExecutor(self.fallback_reason)
        time.sleep(self.retry_policy.delay(self._pool_failures))
        self.crash_recoveries += 1

    def map_blocks(
        self, fn: Callable[[Any], Any], blocks: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every block; results come back **in block order**.

        Tracks which blocks completed, treats a :class:`BrokenExecutor` as
        lost work to re-dispatch on a rebuilt pool, and applies the per-task
        retry policy to transient task failures (see the class docstring).
        """
        blocks = list(blocks)
        results: list[Any] = [None] * len(blocks)
        completed: set[int] = set()
        task_attempts: dict[int, int] = {}
        pending: dict[Future, int] = {}

        def settle(future: Future) -> bool:
            # Record one finished future; False when its work was lost to a
            # broken pool.  A retried task goes back to the dispatch loop;
            # fatal task errors raise.
            index = pending.pop(future)
            try:
                results[index] = future.result()
            except BrokenExecutor:
                return False
            except BaseException as exc:
                attempts = task_attempts.get(index, 0)
                if attempts < self.retry_policy.attempts and self.retry_policy.retries(
                    exc
                ):
                    task_attempts[index] = attempts + 1
                    self.tasks_retried += 1
                    time.sleep(self.retry_policy.delay(attempts + 1))
                    return True
                raise
            completed.add(index)
            return True

        try:
            while len(completed) < len(blocks):
                pool_broke = False
                try:
                    in_flight = set(pending.values())
                    for index, block in enumerate(blocks):
                        if index not in completed and index not in in_flight:
                            pending[self._dispatch(fn, block)] = index
                except BrokenExecutor:
                    pool_broke = True
                if pending and not pool_broke:
                    done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                    for future in done:
                        if not settle(future):
                            pool_broke = True
                if pool_broke:
                    # A broken pool resolves every in-flight future; drain them
                    # all so finished work is kept and lost work re-dispatches.
                    for future in wait(set(pending)).done:
                        settle(future)
                    self._note_pool_failure()
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        return results

    def close(self) -> None:
        """Shut the pool down, waiting for dispatched tasks.  Idempotent.

        A closed backend refuses further work.
        """
        with self._pool_lock:
            self._closed = True
            pool = self._pool
        if pool is not None:
            pool.shutdown()
