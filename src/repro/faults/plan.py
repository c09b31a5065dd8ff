"""Seeded, deterministic fault injection for chaos-testing the pipeline.

Production failures — a worker process OOM-killed mid-chunk, a transient
exception in a task, bytes corrupted between writer and reader, a publish that
never lands — are exactly the events ordinary tests cannot reproduce on
demand.  This module makes them *schedulable*: a :class:`FaultPlan` states the
per-site fault rates, and a :class:`FaultInjector` turns the plan into a
deterministic decision stream.

Determinism is the whole design: each injection **site** ("worker_crash",
"task_error", ...) keeps its own occurrence counter, and the decision for
occurrence *n* at a site is a pure function of ``(seed, site, n)`` — not of a
shared RNG whose state would depend on thread interleaving.  Two runs that
dispatch the same work in the same order draw the same faults, so a chaos test
that fails replays byte-for-byte from its seed.

The injector is consulted at well-defined hook points:

* :mod:`repro.exec` pool backends ask at **dispatch time** (in the submitting
  thread, in submission order) whether to crash the worker, raise an
  :class:`InjectedFault`, or delay the task;
* :class:`repro.serving.watcher.ArtifactWatcher` asks per reload candidate
  whether the publish "failed" or the bytes arrived corrupted.

The **recovery** path — a stage's own sequential path, which it runs once its
pool has exhausted the retry budget — is deliberately not injected, so every
fallback lands somewhere that works.

Activation is process-global (:func:`activate` / :func:`deactivate`, or the
:func:`injected_faults` context manager), mirroring how real faults arrive:
ambiently, not through an argument.  ``REPRO_FAULT_SEED`` supplies the default
plan seed so CI chaos legs pin one reproducible schedule.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FAULT_SEED_ENV_VAR",
    "InjectedFault",
    "FaultPlan",
    "FaultInjector",
    "activate",
    "deactivate",
    "active_injector",
    "injected_faults",
]

#: Environment variable supplying the default :attr:`FaultPlan.seed` — the hook
#: the CI chaos leg uses to pin one reproducible fault schedule per run.
FAULT_SEED_ENV_VAR = "REPRO_FAULT_SEED"


class InjectedFault(RuntimeError):
    """A deliberately injected transient failure.

    Raised *inside* a task wrapped by a fault-injecting backend.  It models the
    transient class of production error (connection reset, overloaded
    downstream), so retry filters treat it as retryable by default.
    """


def default_seed() -> int:
    """The plan seed from ``REPRO_FAULT_SEED`` (0 when unset or malformed)."""
    raw = os.environ.get(FAULT_SEED_ENV_VAR, "").strip()
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


@dataclass(frozen=True)
class FaultPlan:
    """The schedule of faults to inject, as independent per-site rates.

    All rates are probabilities in ``[0, 1]`` evaluated independently per
    occurrence.  ``seed=None`` (the default) resolves the seed from
    ``REPRO_FAULT_SEED`` at construction, so a test suite run under the CI
    chaos leg replays the leg's exact schedule.
    """

    #: Seed of the decision stream; ``None`` resolves ``REPRO_FAULT_SEED``.
    seed: int | None = None
    #: Probability a process-pool dispatch kills its worker (``os._exit``),
    #: breaking the pool — the :class:`BrokenProcessPool` recovery path.
    worker_crash_rate: float = 0.0
    #: Probability a pooled task raises :class:`InjectedFault` instead of
    #: returning — the transient-exception retry path.
    task_error_rate: float = 0.0
    #: Probability a pooled task is delayed by :attr:`slow_call_seconds`.
    slow_call_rate: float = 0.0
    #: Injected delay for slow calls, in seconds.
    slow_call_seconds: float = 0.005
    #: Probability a watcher reload candidate is treated as a failed publish.
    publish_failure_rate: float = 0.0
    #: Probability a watcher reload candidate's bytes are corrupted (a
    #: deterministic byte flip) before validation.
    corrupt_publish_rate: float = 0.0
    #: Probability a delta-log append tears mid-record and raises (the torn
    #: tail is truncated away on the next open, like a crashed writer).
    delta_append_failure_rate: float = 0.0
    #: Probability a delta-log record's bytes are corrupted (a deterministic
    #: byte flip) on the way to disk — replay must stop at the damaged record.
    corrupt_delta_rate: float = 0.0
    #: Probability a cluster transport send hits a connection reset (the
    #: :class:`repro.net.RemoteReplica` tears its connection down and raises
    #: ``ConnectionResetError`` — the router's failover path).
    conn_reset_rate: float = 0.0
    #: Probability a cluster transport response is torn mid-frame (connection
    #: cut after the request went out; raises
    #: :class:`repro.net.TornFrameError`).
    torn_frame_rate: float = 0.0
    #: Probability a cluster transport send stalls for
    #: :attr:`slow_network_seconds` first — the stall consumes the request's
    #: remaining deadline budget exactly like real network latency.
    slow_network_rate: float = 0.0
    #: Injected network stall, in seconds.
    slow_network_seconds: float = 0.01
    #: Hard cap on total injected faults (``None`` = unlimited).  Lets a chaos
    #: test guarantee eventual success no matter the rates.
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "worker_crash_rate",
            "task_error_rate",
            "slow_call_rate",
            "publish_failure_rate",
            "corrupt_publish_rate",
            "delta_append_failure_rate",
            "corrupt_delta_rate",
            "conn_reset_rate",
            "torn_frame_rate",
            "slow_network_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_call_seconds < 0:
            raise ValueError(
                f"slow_call_seconds must be >= 0, got {self.slow_call_seconds}"
            )
        if self.slow_network_seconds < 0:
            raise ValueError(
                f"slow_network_seconds must be >= 0, got {self.slow_network_seconds}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(f"max_faults must be >= 0, got {self.max_faults}")
        if self.seed is None:
            object.__setattr__(self, "seed", default_seed())


class FaultInjector:
    """Turns a :class:`FaultPlan` into a deterministic decision stream.

    Thread-safe: the per-site occurrence counters are lock-guarded, and the
    decision for occurrence *n* at a site depends only on ``(seed, site, n)``
    — never on calls made at other sites or from other threads.
    :attr:`injected` records how many faults each site actually injected, so
    tests can assert the chaos really happened.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        #: site -> decisions drawn (every consultation at an active site).
        self.drawn: dict[str, int] = {}
        #: site -> faults injected (positive decisions only).
        self.injected: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def total_injected(self) -> int:
        """Total faults injected across every site."""
        with self._lock:
            return sum(self.injected.values())

    def decide(self, site: str, rate: float) -> bool:
        """One deterministic draw at ``site`` with probability ``rate``.

        Rate-0 sites return False without consuming an occurrence, so enabling
        one fault kind never shifts another kind's schedule.
        """
        if rate <= 0.0:
            return False
        with self._lock:
            if (
                self.plan.max_faults is not None
                and sum(self.injected.values()) >= self.plan.max_faults
            ):
                return False
            occurrence = self.drawn.get(site, 0)
            self.drawn[site] = occurrence + 1
            # str seeding hashes via SHA-512 (not PYTHONHASHSEED), so the draw
            # is stable across processes and interpreter runs.
            hit = (
                rate >= 1.0
                or random.Random(f"{self.plan.seed}:{site}:{occurrence}").random()
                < rate
            )
            if hit:
                self.injected[site] = self.injected.get(site, 0) + 1
            return hit

    # -- Site conveniences (one per FaultPlan rate) -------------------------------------
    def worker_crash(self) -> bool:
        """Should this process-pool dispatch kill its worker?"""
        return self.decide("worker_crash", self.plan.worker_crash_rate)

    def task_error(self) -> bool:
        """Should this pooled task raise :class:`InjectedFault`?"""
        return self.decide("task_error", self.plan.task_error_rate)

    def slow_call(self) -> float:
        """Injected delay (seconds) for this pooled task, or 0.0."""
        if self.decide("slow_call", self.plan.slow_call_rate):
            return self.plan.slow_call_seconds
        return 0.0

    def publish_failure(self) -> bool:
        """Should this watcher reload candidate be treated as a failed publish?"""
        return self.decide("publish_failure", self.plan.publish_failure_rate)

    def corrupt_publish(self) -> bool:
        """Should this watcher reload candidate's bytes be corrupted?"""
        return self.decide("corrupt_publish", self.plan.corrupt_publish_rate)

    def delta_append_failure(self) -> bool:
        """Should this delta-log append tear mid-record and raise?"""
        return self.decide(
            "delta_append_failure", self.plan.delta_append_failure_rate
        )

    def corrupt_delta(self) -> bool:
        """Should this delta-log record's bytes be corrupted on the way to disk?"""
        return self.decide("corrupt_delta", self.plan.corrupt_delta_rate)

    def conn_reset(self) -> bool:
        """Should this cluster transport send hit a connection reset?"""
        return self.decide("conn_reset", self.plan.conn_reset_rate)

    def torn_frame(self) -> bool:
        """Should this cluster transport response be torn mid-frame?"""
        return self.decide("torn_frame", self.plan.torn_frame_rate)

    def slow_network(self) -> float:
        """Injected network stall (seconds) for this transport send, or 0.0."""
        if self.decide("slow_network", self.plan.slow_network_rate):
            return self.plan.slow_network_seconds
        return 0.0

    def corrupt(self, data: bytes) -> bytes:
        """Flip one deterministic byte of ``data`` (position from the seed).

        The flipped copy always differs from the input (XOR with a non-zero
        mask), so checksum validation is guaranteed to see damage.
        """
        if not data:
            return data
        with self._lock:
            occurrence = self.drawn.get("corrupt_byte", 0)
            self.drawn["corrupt_byte"] = occurrence + 1
        position = random.Random(
            f"{self.plan.seed}:corrupt_byte:{occurrence}"
        ).randrange(len(data))
        damaged = bytearray(data)
        damaged[position] ^= 0xFF
        return bytes(damaged)

    def snapshot(self) -> dict[str, object]:
        """Counters for reporting: total + per-site injected/drawn."""
        with self._lock:
            return {
                "seed": self.plan.seed,
                "total_injected": sum(self.injected.values()),
                "injected": dict(self.injected),
                "drawn": dict(self.drawn),
            }


# ---------------------------------------------------------------------------------------
# Process-global activation
# ---------------------------------------------------------------------------------------
_active_lock = threading.Lock()
_active: FaultInjector | None = None


def activate(plan_or_injector: FaultPlan | FaultInjector) -> FaultInjector:
    """Install an injector as the process-wide active one and return it."""
    global _active
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    with _active_lock:
        _active = injector
    return injector


def deactivate() -> None:
    """Remove the active injector (idempotent)."""
    global _active
    with _active_lock:
        _active = None


def active_injector() -> FaultInjector | None:
    """The process-wide active injector, or ``None`` when chaos is off."""
    return _active


@contextmanager
def injected_faults(plan: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Scope an active injector to a ``with`` block (restores the previous one)."""
    global _active
    with _active_lock:
        previous = _active
    injector = activate(plan)
    try:
        yield injector
    finally:
        with _active_lock:
            _active = previous
