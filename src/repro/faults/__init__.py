"""Fault tolerance and deterministic fault injection (chaos harness).

A serving system for millions of users must keep answering while workers
crash, publishes fail, and bytes rot — and the only way to *prove* it does is
to inject those failures on a reproducible schedule.  This package holds both
halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultInjector`: a
  seeded, deterministic fault schedule (worker crashes, injected task errors,
  slow calls, corrupted publishes, failed publishes) consulted at hook points
  in :mod:`repro.exec` and :mod:`repro.serving.watcher`.  Activation is
  process-global (:func:`injected_faults`); ``REPRO_FAULT_SEED`` pins the CI
  chaos leg's schedule.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: capped exponential
  backoff with deterministic jitter and an exception filter, shared by the
  process-pool rebuild loop, the watcher's hot-swap retries, the tcp
  client's reconnects, and the cluster router's scatter retries.
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`: the closed → open →
  half-open admission gate the cluster router keeps per replica, so a
  scatter routes around a failing replica.

The invariant every recovery path preserves: **results are byte-identical to
the fault-free run**.  Retries re-run pure tasks; degradations land on the
serial oracle; the watcher pins the last good generation rather than serving
damaged bytes.  Faults move latency and placement, never answers.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import (
    FAULT_SEED_ENV_VAR,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    activate,
    active_injector,
    deactivate,
    injected_faults,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "FAULT_SEED_ENV_VAR",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "RetryPolicy",
    "CircuitBreaker",
    "activate",
    "deactivate",
    "active_injector",
    "injected_faults",
]
