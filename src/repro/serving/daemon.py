"""A long-lived concurrent synthesis service daemon over :class:`MappingService`.

The paper's end-game (§5, Table 4) is interactive auto-fill / auto-join /
auto-correct serving many small requests.  :class:`MappingService` already
answers batches, but strictly synchronously: one client, one thread, no
admission control, and no way to pick up a new artifact version without
rebuilding the service by hand.  :class:`SynthesisDaemon` turns it into a
serving process:

* **Bounded request queue + dispatcher threads.**  Batches are submitted as
  :class:`DaemonTicket` futures into a ``queue.Queue(maxsize=...)`` drained by
  ``workers`` dispatcher threads (default one), which serve each batch
  in-process on the current generation's service.  The thread count is the
  daemon's own keyword; :attr:`SynthesisConfig.executor` sizes build pools
  only.  Under CPython's GIL extra threads scale only workloads that wait on
  something; CPU-bound scale-out is the job of more replicas
  (:mod:`repro.cluster`), not of a process pool inside one daemon.
* **Backpressure.**  A full queue rejects non-blocking submissions with
  :class:`QueueFullError` instead of buffering without bound; blocking
  submission with a timeout is also supported.
* **Per-request deadlines.**  Every batch carries an optional deadline measured
  from enqueue time; a batch whose deadline has passed by the time a worker
  picks it up fails fast with :class:`DeadlineExpiredError` rather than being
  served late (the client has already given up on it).
* **Atomic artifact hot-reload.**  The served :class:`MappingService` lives in
  an immutable :class:`ServiceGeneration`; workers snapshot the current
  generation **once per batch**, so a reload (a single reference swap) can
  never expose a half-swapped view — in-flight batches finish on the
  generation they started on, and every result is tagged with the generation
  number and artifact fingerprint it was served from.  Reloads are driven by
  :class:`~repro.serving.watcher.ArtifactWatcher` whenever
  :func:`repro.store.incremental.refresh_artifact` (or any writer) publishes a
  new artifact version at the watched path.

This mirrors incremental view maintenance for query serving (Berkholz et al.,
"Answering FO+MOD queries under updates"): the daemon keeps answering at
constant latency while the artifact is maintained underneath it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, wait as wait_futures
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Sequence

from repro.applications.service import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    MappingService,
    ServedResponse,
    ServiceStats,
)
from repro.core.config import SynthesisConfig
from repro.core.mapping import MappingRelationship
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy

__all__ = [
    "DaemonError",
    "QueueFullError",
    "DeadlineExpiredError",
    "DaemonStoppedError",
    "CircuitOpenError",
    "ServiceGeneration",
    "DaemonResult",
    "DaemonTicket",
    "SynthesisDaemon",
    "INPROC_TRANSPORT_SNAPSHOT",
    "UNREACHABLE_DAEMON_HEALTH",
]

#: The batch kinds the daemon can serve; each names the MappingService method.
#: ``cluster_lookup`` is the raw index-lookup kind used by the scatter-gather
#: router in :mod:`repro.cluster` to query shard replicas.
REQUEST_KINDS = ("autofill", "autojoin", "autocorrect", "cluster_lookup")

#: The ``health()["transport"]`` section of an in-process daemon: every counter
#: zero.  Its keys are the one transport-health key set — the replica server,
#: remote client and router views all report exactly these keys
#: (``repro.net.TRANSPORT_HEALTH_KEYS`` is derived from it), and the router
#: sums the integer counters and takes the worst of the float rtt percentiles.
INPROC_TRANSPORT_SNAPSHOT = MappingProxyType(
    {
        "kind": "inproc",
        "connections": 0,
        "frames_sent": 0,
        "frames_received": 0,
        "bytes_sent": 0,
        "bytes_received": 0,
        "reconnects": 0,
        "rtt_ms_p50": 0.0,
        "rtt_ms_p90": 0.0,
    }
)

#: The :meth:`SynthesisDaemon.health` key set with every value zero or ``None``:
#: what a remote replica that cannot be reached reports (with its own status,
#: reasons, last seen generation and transport counters filled in), so a
#: dashboard keyed on any field keeps working exactly when a replica dies.
UNREACHABLE_DAEMON_HEALTH = MappingProxyType(
    {
        "status": "unreachable",
        "degraded_reasons": None,
        "generation": 0,
        "source": None,
        "fingerprint": None,
        "queue_depth": 0,
        "queue_size": 0,
        "workers": 0,
        "breaker": None,
        "requests": None,
        "errors": None,
        "shed": None,
        "watcher": None,
        "transport": None,
        "deltas_applied": 0,
        "last_delta_seq": None,
        "update_lag": 0.0,
    }
)

#: Sentinel instructing a worker thread to exit its loop.
_STOP = object()


class DaemonError(RuntimeError):
    """Base class for daemon failures."""


class QueueFullError(DaemonError):
    """The bounded request queue is full (backpressure: retry or shed load)."""


class DeadlineExpiredError(DaemonError):
    """The batch's deadline passed before a worker could serve it."""


class DaemonStoppedError(DaemonError):
    """The daemon is stopped (or stopping) and will not serve this batch."""


class CircuitOpenError(DaemonError):
    """The generation's circuit breaker is open: failing fast, not serving."""


@dataclass(frozen=True)
class ServiceGeneration:
    """One immutable served generation: a service plus its provenance.

    Workers read the daemon's current generation with a single attribute load
    and serve the whole batch from that snapshot, which is what makes the
    hot-swap atomic from a request's point of view.
    """

    service: MappingService
    number: int
    source: str = "memory"
    fingerprint: str = ""
    activated_at: float = 0.0
    #: The generation's circuit breaker (``None`` when breaking is disabled).
    #: Per-generation on purpose: a hot swap replaces the thing that was
    #: erroring, so the replacement starts with a clean (closed) breaker.
    breaker: CircuitBreaker | None = None

    @property
    def stats(self) -> ServiceStats:
        """The generation's (generation-tagged) service stats."""
        return self.service.stats


@dataclass
class DaemonResult:
    """The outcome of one served batch, tagged with its serving generation."""

    kind: str
    responses: list[ServedResponse]
    generation: int
    fingerprint: str
    enqueued_at: float
    started_at: float
    finished_at: float

    @property
    def waited_seconds(self) -> float:
        """Time the batch spent queued before a worker picked it up."""
        return self.started_at - self.enqueued_at

    @property
    def served_seconds(self) -> float:
        """Time a worker spent serving the batch."""
        return self.finished_at - self.started_at

    @property
    def total_seconds(self) -> float:
        """Wall-clock latency from submission to completion."""
        return self.finished_at - self.enqueued_at

    @property
    def ok(self) -> bool:
        """True when every request in the batch served without error."""
        return all(response.ok for response in self.responses)


class DaemonTicket:
    """Handle for one submitted batch: a future resolving to :class:`DaemonResult`.

    ``ticket.result(timeout)`` blocks for the outcome;
    ``ticket.future`` is a plain :class:`concurrent.futures.Future`, so tickets
    compose with ``concurrent.futures.wait`` and, from event-loop code, with
    ``await asyncio.wrap_future(ticket.future)``.
    """

    __slots__ = ("kind", "size", "enqueued_at", "deadline", "future")

    def __init__(
        self, kind: str, size: int, enqueued_at: float, deadline: float | None
    ) -> None:
        self.kind = kind
        self.size = size
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.future: Future = Future()

    def result(self, timeout: float | None = None) -> DaemonResult:
        """Block until the batch is served and return its :class:`DaemonResult`."""
        return self.future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until done and return the batch's exception, if any."""
        return self.future.exception(timeout)

    def done(self) -> bool:
        return self.future.done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.future.done() else "pending"
        return f"DaemonTicket(kind={self.kind!r}, size={self.size}, {state})"


class SynthesisDaemon:
    """Concurrent request daemon over hot-swappable :class:`MappingService`s.

    Every batch is served on one of the daemon's own dispatcher threads,
    against one snapshot of the current :class:`ServiceGeneration`; there is
    no other serving mode.

    Parameters
    ----------
    service:
        The initial service to serve (generation 1).
    workers:
        Dispatcher-thread count; every batch is served on one of these
        threads.
    queue_size:
        Bound on the request queue, in batches.
    default_deadline:
        Default per-batch deadline in seconds (``0``/``None`` disables it);
        per-submit deadlines override it.
    source / fingerprint:
        Provenance recorded on generation 1 (the artifact path and corpus
        fingerprint when constructed via :meth:`from_artifact`).
    breaker_threshold / breaker_min_requests / breaker_cooldown:
        Per-generation circuit breaker tuning: once at least
        ``breaker_min_requests`` recent requests show an error fraction of
        ``breaker_threshold``, batches fail fast with
        :class:`CircuitOpenError` until a half-open probe (admitted after
        ``breaker_cooldown`` seconds) serves cleanly.  ``breaker_threshold=0``
        (the default) disables breaking — per-request errors are already
        isolated in response envelopes, so tripping is an operator opt-in.
    """

    def __init__(
        self,
        service: MappingService,
        *,
        workers: int = 1,
        queue_size: int = 64,
        default_deadline: float | None = None,
        source: str = "memory",
        fingerprint: str = "",
        breaker_threshold: float = 0.0,
        breaker_min_requests: int = 10,
        breaker_cooldown: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if default_deadline is not None and default_deadline < 0:
            raise ValueError(
                f"default_deadline must be >= 0 or None, got {default_deadline}"
            )
        self.workers = workers
        if breaker_threshold > 1.0:
            raise ValueError(
                "breaker_threshold is an error rate and must be <= 1 "
                f"(<= 0 disables the breaker), got {breaker_threshold}"
            )
        if breaker_min_requests < 1:
            raise ValueError(
                f"breaker_min_requests must be >= 1, got {breaker_min_requests}"
            )
        if breaker_cooldown < 0:
            raise ValueError(f"breaker_cooldown must be >= 0, got {breaker_cooldown}")
        self.queue_size = queue_size
        self.default_deadline = default_deadline or 0.0
        self.breaker_threshold = breaker_threshold
        self.breaker_min_requests = breaker_min_requests
        self.breaker_cooldown = breaker_cooldown
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._swap_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        # Streaming-update accounting (repro.updates): guarded by its own lock
        # because the in-place patch path already holds _swap_lock.
        self._delta_lock = threading.Lock()
        self._deltas_applied = 0
        self._last_delta_seq: int | None = None
        self._last_delta_at = 0.0
        self._pending: set[DaemonTicket] = set()
        self._closed = threading.Event()
        self._cancel_queued = threading.Event()
        self._watcher = None  # attached by from_artifact(watch=True)
        #: Transport counter hook: ``repro.net.ReplicaServer`` points this at
        #: its :meth:`~repro.net.TransportStats.snapshot` so :meth:`health`
        #: reports real socket traffic.  ``None`` means in-process serving.
        self.transport_stats_provider = None
        # Only the retired generations' stats are retained: keeping the full
        # ServiceGeneration would pin every superseded index in memory for the
        # daemon's whole lifetime, one per hot reload.
        self._retired_stats: list[ServiceStats] = []
        service.stats.generation = 1
        self._generation = ServiceGeneration(
            service=service,
            number=1,
            source=source,
            fingerprint=fingerprint,
            activated_at=time.monotonic(),
            breaker=self._make_breaker(),
        )
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"synthesis-daemon-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _make_breaker(self) -> CircuitBreaker | None:
        """Build one generation's circuit breaker (``None`` when disabled)."""
        if self.breaker_threshold <= 0.0:
            return None
        return CircuitBreaker(
            error_threshold=self.breaker_threshold,
            min_requests=self.breaker_min_requests,
            cooldown_seconds=self.breaker_cooldown,
            window=max(128, self.breaker_min_requests),
        )

    # -- Construction -------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        config: SynthesisConfig | None = None,
        watch: bool = True,
        workers: int = 1,
        queue_size: int = 64,
        default_deadline: float = 0.0,
        poll_seconds: float = 0.25,
        prefer_curated: bool = True,
        breaker_threshold: float = 0.0,
        retry_policy: RetryPolicy | None = None,
        service_cls: type[MappingService] = MappingService,
        **service_kwargs,
    ) -> "SynthesisDaemon":
        """Start a daemon serving a persisted artifact, optionally hot-reloading.

        ``workers``, ``queue_size``, ``default_deadline`` and
        ``breaker_threshold`` are as in the constructor; ``config`` only
        supplies the default ``retry_policy``
        (:meth:`SynthesisConfig.retry_policy`).  With ``watch=True`` an
        :class:`~repro.serving.watcher.ArtifactWatcher` is attached that
        atomically swaps in every new artifact version published at ``path``
        (polling every ``poll_seconds`` for out-of-process writers;
        in-process saves notify it immediately), retrying failed swaps under
        ``retry_policy``.
        ``service_cls`` substitutes a :class:`MappingService` subclass for both
        the initial load and every watcher hot-swap (benchmarks use it to serve
        an IO-weighted service; the cluster tier forwards it to replicas).
        """
        from repro.serving.watcher import ArtifactWatcher
        from repro.store.artifact import load_artifact

        if poll_seconds <= 0:
            raise ValueError(f"poll_seconds must be > 0, got {poll_seconds}")
        if retry_policy is None:
            retry_policy = (config or SynthesisConfig()).retry_policy()

        path = Path(path)
        # Snapshot the change signature *before* loading: a version published
        # while we load/build must look new to the watcher, not become its
        # baseline (it would otherwise be served only after the next publish).
        baseline = ArtifactWatcher.signature_of(path)
        load_started = time.monotonic()
        artifact = load_artifact(path)
        service = service_cls.from_artifact_object(
            artifact,
            prefer_curated=prefer_curated,
            source=f"artifact:{path}",
            **service_kwargs,
        )
        # Sectioned artifacts decode their served sections lazily inside the
        # service build, so "load" is everything up to here minus the index
        # build itself (profiles/edges stay encoded — the daemon never pays
        # for them, at startup or on any hot reload).
        service.stats.load_seconds = (
            time.monotonic() - load_started - service.stats.build_seconds
        )
        daemon = cls(
            service,
            workers=workers,
            queue_size=queue_size,
            default_deadline=default_deadline,
            source=f"artifact:{path}",
            fingerprint=artifact.corpus_fingerprint,
            breaker_threshold=breaker_threshold,
        )
        if watch:

            def swap(new_artifact, artifact_path: Path) -> None:
                service = service_cls.from_artifact_object(
                    new_artifact,
                    prefer_curated=prefer_curated,
                    source=f"artifact:{artifact_path}",
                    **service_kwargs,
                )
                if daemon._watcher is not None:
                    service.stats.load_seconds = daemon._watcher.last_load_seconds
                daemon.reload(
                    service,
                    source=f"artifact:{artifact_path}",
                    fingerprint=new_artifact.corpus_fingerprint,
                )

            daemon._watcher = ArtifactWatcher(
                path,
                swap,
                poll_seconds=poll_seconds,
                baseline=baseline,
                retry_policy=retry_policy,
            )
            daemon._watcher.start()
        return daemon

    # -- Introspection ------------------------------------------------------------------
    @property
    def generation(self) -> ServiceGeneration:
        """The currently served generation (an immutable snapshot)."""
        return self._generation

    @property
    def watcher(self):
        """The attached :class:`ArtifactWatcher`, when started with ``watch=True``."""
        return self._watcher

    @property
    def stats(self) -> ServiceStats:
        """Stats of the current generation's service."""
        return self._generation.service.stats

    def stats_by_generation(self) -> list[ServiceStats]:
        """Stats for every generation ever served, oldest first."""
        with self._swap_lock:
            return [*self._retired_stats, self._generation.stats]

    def queue_depth(self) -> int:
        """Number of batches currently queued (approximate, by nature)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def health(self) -> dict[str, object]:
        """One JSON-able snapshot of everything an operator needs to page on.

        ``status`` is ``"ok"`` unless some degradation is live — breaker not
        closed, watcher pinned on a poisoned artifact or mid-retry, or the
        daemon closed — in which case it is ``"degraded"`` (``"closed"`` once
        the daemon stopped) and the contributing conditions are listed in
        ``degraded_reasons``.  Every
        field reflects *this instant*; poll it, don't cache it.
        """
        generation = self._generation
        stats = generation.stats
        breaker = generation.breaker
        reasons: list[str] = []
        breaker_state = breaker.state if breaker is not None else "disabled"
        if breaker_state not in ("closed", "disabled"):
            reasons.append(f"circuit breaker {breaker_state}")
        watcher = self._watcher
        watcher_info: dict[str, object] | None = None
        if watcher is not None:
            watcher_info = watcher.health()
            if watcher_info.get("pinned"):
                reasons.append(
                    "watcher pinned the last good generation "
                    f"(artifact publish failing: {watcher_info.get('last_error')})"
                )
            elif not watcher_info.get("last_swap_ok", True):
                reasons.append(
                    f"last hot-swap failed: {watcher_info.get('last_error')}"
                )
        stats_view = stats.as_dict()
        if self.closed:
            status = "closed"
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded_reasons": reasons,
            "generation": generation.number,
            "source": generation.source,
            "fingerprint": generation.fingerprint,
            "queue_depth": self.queue_depth(),
            "queue_size": self.queue_size,
            "workers": self.workers,
            "breaker": breaker.snapshot() if breaker is not None
            else {"state": "disabled"},
            "requests": stats_view["requests"],
            "errors": stats_view["errors"],
            "shed": stats_view["shed"],
            "watcher": watcher_info,
            "transport": (
                self.transport_stats_provider()
                if self.transport_stats_provider is not None
                else dict(INPROC_TRANSPORT_SNAPSHOT)
            ),
            "deltas_applied": self._deltas_applied,
            "last_delta_seq": self._last_delta_seq,
            "update_lag": (
                time.monotonic() - self._last_delta_at
                if self._last_delta_at
                else 0.0
            ),
        }

    def await_generation(self, target: int, *, timeout: float = 30.0) -> int:
        """Block until the generation reaches ``target``, the daemon closes or
        ``timeout`` passes; return the generation reached.

        The one rollout wait of every transport (a replica server answers the
        NOTIFY frame with it).  It checks the watcher, if any, every 10 ms, so
        a new file is picked up without waiting out the poll interval.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            number = self._generation.number
            if number >= target or self.closed or time.monotonic() >= deadline:
                return number
            if self._watcher is not None:
                self._watcher.check_now()
            time.sleep(0.01)

    # -- Hot reload ---------------------------------------------------------------------
    def reload(
        self,
        service: MappingService,
        *,
        source: str = "reload",
        fingerprint: str = "",
    ) -> ServiceGeneration:
        """Atomically swap ``service`` in as the next generation.

        The swap is a single reference assignment: batches picked up after it
        see the new generation in full; batches already being served finish on
        the generation they snapshotted.  The retired generation (and its
        stats) remains available via :meth:`stats_by_generation`.
        """
        with self._swap_lock:
            number = self._generation.number + 1
            service.stats.generation = number
            generation = ServiceGeneration(
                service=service,
                number=number,
                source=source,
                fingerprint=fingerprint,
                activated_at=time.monotonic(),
                breaker=self._make_breaker(),
            )
            retired = self._generation
            self._retired_stats.append(retired.stats)
            self._generation = generation
        return generation

    # -- Live delta application (repro.updates) -----------------------------------------
    def apply_delta(
        self,
        upserts: Iterable[MappingRelationship],
        removed: Iterable[str],
        *,
        seq: int,
    ) -> ServiceGeneration:
        """Patch the served mapping pool in place from one update-stream delta.

        ``upserts`` replace-or-add mappings by id; ``removed`` ids are dropped.
        The service's index is spliced from the patched pool under the swap
        lock (unchanged mappings keep their index entries — see
        :meth:`MappingService.with_pool`) and the generation is re-issued with
        its number, stats and breaker intact: a generation is one artifact
        version, and a delta repairs it rather than replacing it.  In-flight
        batches still snapshot one consistent service, and observability
        counters keep accumulating.  An update stream's patches carry content
        changes only (mapping ids do not depend on rank), so the entries
        rebuilt count real changes.

        Daemons driven through this method should be constructed with
        ``watch=False``: an artifact watcher swaps in the *base* artifact,
        which silently discards every delta applied since the last compaction.
        """
        if self._closed.is_set():
            raise DaemonStoppedError("daemon is closed; no deltas accepted")
        upserts = list(upserts)
        removed = list(removed)
        with self._swap_lock:
            current = self._generation
            if upserts or removed:
                by_id = {m.mapping_id: m for m in current.service.mapping_pool}
                for mapping_id in removed:
                    by_id.pop(mapping_id, None)
                for mapping in upserts:
                    by_id[mapping.mapping_id] = mapping
                old_service = current.service
                # with_pool reuses per-mapping index entries for the unchanged
                # pool, so the splice costs O(changed mappings), not O(pool).
                service = old_service.with_pool(
                    list(by_id.values()), source=current.source
                )
                # Transplant the old stats object so request/error counters
                # (and the breaker window keyed off them) survive the patch.
                service.stats = old_service.stats
                service.stats.index_size = len(service.index)
                self._generation = replace(current, service=service)
            self._note_delta(seq)
            return self._generation

    def _note_delta(self, seq: int) -> None:
        with self._delta_lock:
            self._deltas_applied += 1
            self._last_delta_seq = seq
            self._last_delta_at = time.monotonic()

    # -- Submission ---------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        requests: Sequence[FillRequest | JoinRequest | CorrectRequest],
        *,
        deadline: float | None = None,
        block: bool = False,
        timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> DaemonTicket:
        """Enqueue one batch and return its :class:`DaemonTicket`.

        Raises :class:`QueueFullError` when the queue is full (immediately with
        ``block=False``, after ``timeout`` seconds otherwise),
        :class:`CircuitOpenError` while the generation's breaker is open, and
        :class:`DaemonStoppedError` once the daemon is closed.

        ``retry_policy`` turns shed load into backoff-and-retry: a rejected
        submission (full queue or open breaker) is re-attempted on the
        policy's schedule — each retry counted in ``ServiceStats.retried`` —
        before the rejection finally propagates.
        """
        if retry_policy is None:
            return self._submit_once(
                kind, requests, deadline=deadline, block=block, timeout=timeout
            )
        attempt = 0
        while True:
            try:
                return self._submit_once(
                    kind, requests, deadline=deadline, block=block, timeout=timeout
                )
            except (QueueFullError, CircuitOpenError):
                attempt += 1
                if attempt > retry_policy.attempts:
                    raise
                self._generation.stats.bump("retried")
                time.sleep(retry_policy.delay(attempt))

    def _submit_once(
        self,
        kind: str,
        requests: Sequence[FillRequest | JoinRequest | CorrectRequest],
        *,
        deadline: float | None = None,
        block: bool = False,
        timeout: float | None = None,
    ) -> DaemonTicket:
        if kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {kind!r}; expected {REQUEST_KINDS}")
        if self._closed.is_set():
            raise DaemonStoppedError("daemon is closed; no new batches accepted")
        generation = self._generation
        if generation.breaker is not None and generation.breaker.state == "open":
            # Read-only fast reject: don't even queue a batch the serve-time
            # gate would refuse.  Half-open probes are admitted here (state is
            # not "open") and consumed at serve time, where the probe's real
            # outcome is known.
            rejections = generation.stats.bump("breaker_rejections")
            raise CircuitOpenError(
                f"generation {generation.number}'s circuit breaker is open "
                f"(error rate {generation.breaker.snapshot()['error_rate']:.2f} "
                f">= {generation.breaker.error_threshold}); "
                f"{rejections} batch(es) rejected by the breaker so far"
            )
        now = time.monotonic()
        if deadline is None:
            # The *default* deadline uses 0-disables semantics (documented on
            # SynthesisConfig); an explicit per-submit 0.0 means "already out
            # of budget" and expires immediately rather than never.
            deadline = self.default_deadline or None
        elif deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        ticket = DaemonTicket(
            kind=kind,
            size=len(requests),
            enqueued_at=now,
            deadline=(now + deadline) if deadline is not None else None,
        )
        with self._pending_lock:
            self._pending.add(ticket)
        try:
            self._queue.put((ticket, tuple(requests)), block=block, timeout=timeout)
        except queue.Full:
            with self._pending_lock:
                self._pending.discard(ticket)
            rejected = self._generation.stats.bump("rejected")
            raise QueueFullError(
                f"daemon queue is full ({self.queue_size} batches queued); "
                f"retry, block, or shed load ({rejected} batch(es) rejected, "
                f"{self._generation.stats.expired} expired this generation)"
            ) from None
        if self._closed.is_set():
            # close() may have finished its leftover sweep between our closed
            # check and the put, in which case nothing would ever resolve this
            # ticket; fail it here (a no-op if a draining worker beat us to it).
            self._fail_ticket(
                ticket, DaemonStoppedError("daemon closed while submitting")
            )
            raise DaemonStoppedError("daemon is closed; no new batches accepted")
        return ticket

    def autofill(self, requests: Sequence[FillRequest], **kwargs) -> DaemonTicket:
        """Submit an auto-fill batch (see :meth:`submit` for keyword arguments)."""
        return self.submit("autofill", requests, **kwargs)

    def autojoin(self, requests: Sequence[JoinRequest], **kwargs) -> DaemonTicket:
        """Submit an auto-join batch (see :meth:`submit` for keyword arguments)."""
        return self.submit("autojoin", requests, **kwargs)

    def autocorrect(self, requests: Sequence[CorrectRequest], **kwargs) -> DaemonTicket:
        """Submit an auto-correct batch (see :meth:`submit` for keyword arguments)."""
        return self.submit("autocorrect", requests, **kwargs)

    def drain(self, timeout: float | None = None) -> list[DaemonTicket]:
        """Block until every outstanding batch completes; return those tickets.

        Raises :class:`TimeoutError` if outstanding work remains after
        ``timeout`` seconds.
        """
        with self._pending_lock:
            outstanding = list(self._pending)
        waited = wait_futures([ticket.future for ticket in outstanding], timeout=timeout)
        if waited.not_done:
            raise TimeoutError(
                f"{len(waited.not_done)} of {len(outstanding)} batches still "
                f"outstanding after {timeout}s"
            )
        return sorted(outstanding, key=lambda ticket: ticket.enqueued_at)

    # -- Shutdown -----------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the daemon: reject new work, then wind down the workers.

        With ``drain=True`` (the default) every batch already queued is served
        before the workers exit; with ``drain=False`` queued batches fail with
        :class:`DaemonStoppedError` (a batch a worker is *currently* serving
        always completes either way).  Idempotent.
        """
        first_close = not self._closed.is_set()
        self._closed.set()
        if not drain:
            self._cancel_queued.set()
        if first_close:
            # Sentinels queue behind any remaining batches (FIFO), so each
            # worker exits only after the backlog ahead of it is handled.
            for _ in self._threads:
                self._queue.put(_STOP)
        if self._watcher is not None:
            self._watcher.stop()
        for thread in self._threads:
            thread.join(timeout)
        if any(thread.is_alive() for thread in self._threads):
            # A join timeout expired with workers still busy.  Leave the queue
            # alone: the survivors keep draining (or cancelling) it and exit on
            # their sentinels; sweeping now would cancel batches close(drain=
            # True) promised to serve and strand workers without sentinels.
            return
        # All workers have exited.  A submit racing with close can still have
        # slipped a batch in behind the sentinels; fail anything left so no
        # ticket is abandoned unresolved (the racing submitter does the same
        # on its side — double resolution is a guarded no-op).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                self._fail_ticket(
                    item[0], DaemonStoppedError("daemon closed before serving")
                )
            self._queue.task_done()

    def __enter__(self) -> "SynthesisDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # -- Worker internals ---------------------------------------------------------------
    def _fail_ticket(self, ticket: DaemonTicket, error: DaemonError) -> None:
        if not ticket.future.done():
            ticket.future.set_exception(error)
        with self._pending_lock:
            self._pending.discard(ticket)

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._serve_item(*item)
            finally:
                self._queue.task_done()

    def _serve_item(
        self,
        ticket: DaemonTicket,
        requests: tuple[FillRequest | JoinRequest | CorrectRequest, ...],
    ) -> None:
        started = time.monotonic()
        if self._cancel_queued.is_set():
            self._fail_ticket(
                ticket, DaemonStoppedError("daemon stopped before serving this batch")
            )
            return
        if ticket.deadline is not None and started > ticket.deadline:
            expired = self._generation.stats.bump("expired")
            self._fail_ticket(
                ticket,
                DeadlineExpiredError(
                    f"batch missed its deadline by {started - ticket.deadline:.3f}s "
                    f"after waiting {started - ticket.enqueued_at:.3f}s in queue "
                    f"({expired} batch(es) expired this generation)"
                ),
            )
            return
        # One atomic snapshot of the served generation per batch: the whole
        # batch — and its generation/fingerprint tags — comes from exactly one
        # consistent service, no matter how many reloads happen meanwhile.
        generation = self._generation
        breaker = generation.breaker
        if breaker is not None and not breaker.allow():
            # The authoritative admission gate: it runs *after* the deadline
            # check, so an already-expired ticket can never consume the
            # half-open probe, and on the batch that will actually serve.
            rejections = generation.stats.bump("breaker_rejections")
            self._fail_ticket(
                ticket,
                CircuitOpenError(
                    f"generation {generation.number}'s circuit breaker is open; "
                    f"{rejections} batch(es) rejected by the breaker so far"
                ),
            )
            return
        try:
            responses = getattr(generation.service, ticket.kind)(list(requests))
            result = DaemonResult(
                kind=ticket.kind,
                responses=responses,
                generation=generation.number,
                fingerprint=generation.fingerprint,
                enqueued_at=ticket.enqueued_at,
                started_at=started,
                finished_at=time.monotonic(),
            )
        except BaseException as exc:  # pragma: no cover - service-level failures
            # MappingService isolates per-request errors in their envelopes, so
            # this only fires on daemon-level bugs; surface them on the ticket.
            if breaker is not None:
                # Count the whole batch as errored so a half-open probe that
                # blew up re-opens the breaker instead of wedging it.
                if breaker.record(0, len(requests)):
                    generation.stats.bump("breaker_opened")
            if not ticket.future.done():
                ticket.future.set_exception(exc)
            with self._pending_lock:
                self._pending.discard(ticket)
            return
        if breaker is not None:
            ok_count = sum(1 for response in responses if response.ok)
            if breaker.record(ok_count, len(responses) - ok_count):
                generation.stats.bump("breaker_opened")
        if not ticket.future.done():
            ticket.future.set_result(result)
        with self._pending_lock:
            self._pending.discard(ticket)
