"""Scatter-gather router over sharded :class:`SynthesisDaemon` replicas.

The single-host serving ceiling is one :class:`~repro.serving.SynthesisDaemon`
over one full mapping index.  This module scales past it **without changing a
single answer**: a :class:`ClusterRouter` consistent-hashes the mapping pool
across N daemon replicas (each serving only its shard slice, cut by
:func:`~repro.cluster.sharding.cut_shard_artifacts`) and answers
autofill / autojoin / autocorrect batches by running the *unmodified*
application classes over a :class:`ScatterIndex` — an index facade whose
``lookup`` / ``lookup_pairs`` scatter ``cluster_lookup`` batches to a healthy
replica cover and merge the shard-local top-k lists.

Why the merge is exact (the cluster's serving contract):

1. Every mapping's match score is computed from that mapping's own value sets
   alone — no term in :meth:`MappingIndex.lookup` depends on the rest of the
   pool — so a shard replica computes the *same* score the full index would.
2. The full index stable-sorts by score over the pool order (ascending
   :func:`~repro.core.mapping.mapping_rank_key`), so its result order is
   exactly ``(-score, mapping_rank_key)``.
3. Any mapping in the global top-k ranks at least as high in every sub-pool
   that contains it, so it survives each shard's local top-k truncation as
   long as the queried replicas jointly cover every shard.

Sorting the union of shard answers by ``(-score, mapping_rank_key)``,
deduplicating by ``mapping_id`` (replicas overlap when ``replication > 1``),
and truncating to ``top_k`` therefore reproduces the single-index answer
byte-for-byte — the property ``tests/test_cluster_properties.py`` locks with
hypothesis against a sync :class:`MappingService` oracle.

Failover composes the existing fault-tolerance primitives: each replica gets
a :class:`~repro.faults.CircuitBreaker` (a failed scatter opens it; the
cover-picker routes around open breakers and closed daemons, and half-open
probes re-admit recovered replicas), and scatter rounds are re-attempted on a
:class:`~repro.faults.RetryPolicy` schedule against a recomputed cover.  With
``replication >= 2`` any single replica can die mid-stream and every shard is
still covered.  Rolling rollout re-cuts one replica's slice at a time and
waits for that daemon's generation tag to advance before touching the next.

The router reaches every replica through the :class:`Replica` protocol.
Replicas need not share the router's process: ``transport="tcp"`` spawns one
``python -m repro.net.server`` process per replica and talks :mod:`repro.net`'s
framed binary protocol through :class:`~repro.net.RemoteReplica` clients, each
of which owns its server process.  Both implement :class:`Replica`, so nothing
in the scatter, merge, failover, rollout, or delta logic knows which transport
it runs on.
Each scatter attempt carries **one** deadline: the remaining budget is passed
to in-process submits and encoded into lookup frames alike, and replicas
re-enforce it at serve time, so a slow network can only shrink a batch's
budget — never let an expired ticket consume daemon work.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.applications.autocorrect import AutoCorrector
from repro.applications.autofill import AutoFiller
from repro.applications.autojoin import AutoJoiner
from repro.applications.index import MappingMatch
from repro.applications.service import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    LookupRequest,
    MappingService,
    ServedResponse,
    ServiceStats,
)
from repro.cluster.sharding import HashRing, cut_shard_artifacts, replica_shards
from repro.core.config import SynthesisConfig
from repro.core.mapping import mapping_rank_key
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.serving.daemon import (
    INPROC_TRANSPORT_SNAPSHOT,
    DaemonStoppedError,
    SynthesisDaemon,
)
from repro.text.matching import normalize_value

__all__ = [
    "Replica",
    "ClusterError",
    "NoHealthyReplicaError",
    "ScatterIndex",
    "ClusterRouter",
    "ROUTER_REQUEST_KINDS",
]


#: The application batch kinds the router serves (raw ``cluster_lookup`` is
#: the router's *internal* transport kind, not a router entry point).
ROUTER_REQUEST_KINDS = ("autofill", "autojoin", "autocorrect")

#: Failover schedule: how many times one scatter is re-attempted against a
#: recomputed healthy cover before the failure reaches the request envelope.
DEFAULT_ROUTER_RETRY = RetryPolicy(attempts=2, base_seconds=0.01, max_seconds=0.25)


class ClusterError(RuntimeError):
    """A cluster-level serving failure (distinct from per-request errors)."""


class NoHealthyReplicaError(ClusterError):
    """No healthy replica set covers every shard right now."""


@runtime_checkable
class Replica(Protocol):
    """What the router calls on a replica: an in-process
    :class:`~repro.serving.SynthesisDaemon` or a :class:`~repro.net.RemoteReplica`.

    ``submit`` returns a ticket whose ``result(timeout)`` has the batch's
    ``responses``; ``await_generation`` returns the generation reached by
    ``target``, close or ``timeout``.  A replica's current generation and
    whether it watches its shard file are ``health()["generation"]`` and
    ``health()["watcher"]``.
    """

    @property
    def closed(self) -> bool: ...

    def submit(
        self,
        kind: str,
        requests: Sequence[object],
        *,
        deadline: float | None = None,
        block: bool = False,
        timeout: float | None = None,
    ) -> Any: ...

    def apply_delta(
        self,
        upserts: Iterable[object],
        removed: Iterable[str],
        *,
        seq: int,
    ) -> object: ...

    def await_generation(self, target: int, *, timeout: float) -> int: ...

    def health(self) -> dict[str, object]: ...

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None: ...


@dataclass
class _Replica:
    """One daemon replica plus the router-side state that guards it."""

    index: int
    daemon: Replica
    shards: frozenset[int]
    breaker: CircuitBreaker
    #: Scatters this replica served / failed (router-side view, lock-free
    #: monotonic counters — read for health reporting only).
    served: int = 0
    failed: int = 0


class ScatterIndex:
    """A :class:`MappingIndex` facade that scatter-gathers across replicas.

    Implements exactly the two entry points the application classes use —
    ``lookup`` and ``lookup_pairs`` — by forwarding each call as a
    ``cluster_lookup`` batch to a covering set of healthy replicas and
    merging the shard-local answers (see the module docstring for why the
    merge is exact).  Input validation mirrors :class:`MappingIndex`
    verbatim, so malformed requests produce byte-identical error envelopes
    without ever leaving the router.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self._router = router

    def __len__(self) -> int:
        return self._router.pool_size

    def lookup(
        self,
        values: Iterable[str],
        min_containment: float = 0.5,
        top_k: int = 5,
    ) -> list[MappingMatch]:
        if not 0.0 <= min_containment <= 1.0:
            raise ValueError(f"min_containment must be in [0, 1], got {min_containment}")
        values = list(values)
        normalized = [normalize_value(value) for value in values if value.strip()]
        if not normalized:
            return []
        return self._router._scatter(
            LookupRequest(
                op="values",
                values=tuple(values),
                min_containment=min_containment,
                top_k=top_k,
            )
        )

    def lookup_pairs(
        self,
        pairs: Iterable[tuple[str, str]],
        min_containment: float = 0.5,
        top_k: int = 5,
    ) -> list[MappingMatch]:
        pair_list = [(left, right) for left, right in pairs]
        if not pair_list:
            return []
        return self._router._scatter(
            LookupRequest(
                op="pairs",
                values=tuple(pair_list),
                min_containment=min_containment,
                top_k=top_k,
            )
        )


class _RouterService(MappingService):
    """The router's serving facade: real application objects, scattered index.

    Deliberately skips ``MappingService.__init__`` — the router holds no local
    mapping pool; its "index" is a :class:`ScatterIndex`.  Everything else —
    ``_serve_batch`` envelopes, per-request error isolation, stats recording,
    the ``autofill`` / ``autojoin`` / ``autocorrect`` entry points — is
    inherited verbatim, which is what makes router envelopes byte-identical
    to a single service's (same code, same order, same error strings).
    """

    def __init__(
        self,
        router: "ClusterRouter",
        *,
        min_containment: float = 0.5,
        min_example_agreement: float = 0.99,
        correction_containment: float = 0.6,
        source: str = "cluster",
    ) -> None:
        self.index = ScatterIndex(router)
        self.filler = AutoFiller(self.index, min_example_agreement=min_example_agreement)
        self.joiner = AutoJoiner(self.index, min_containment=min_containment)
        self.corrector = AutoCorrector(
            self.index, min_containment=correction_containment
        )
        self.serving_kwargs = {
            "min_containment": min_containment,
            "min_example_agreement": min_example_agreement,
            "correction_containment": correction_containment,
        }
        self.stats = ServiceStats(source=source, index_size=len(self.index))


class ClusterRouter:
    """Routes application batches across sharded daemon replicas.

    Construct with :meth:`from_artifact` (cuts shard artifacts, starts one
    watching daemon per replica) or directly from pre-built daemons whose
    pools partition the oracle pool by ``ring`` placement.

    The router is thread-safe: any number of client threads may call
    :meth:`autofill` / :meth:`autojoin` / :meth:`autocorrect` / :meth:`serve`
    concurrently — each per-request lookup scatters independently, and
    per-replica circuit breakers plus the retry schedule handle replicas
    failing at any point in the stream.
    """

    def __init__(
        self,
        daemons: Sequence[Replica],
        ring: HashRing,
        *,
        replication: int = 1,
        shard_dir: Path | None = None,
        pool_size: int = 0,
        prefer_curated: bool = True,
        request_timeout: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        breaker_cooldown: float = 1.0,
        transport: str = "inproc",
        **service_kwargs,
    ) -> None:
        if len(daemons) != ring.num_shards:
            raise ValueError(
                f"need one replica per shard: got {len(daemons)} daemons "
                f"for {ring.num_shards} shards"
            )
        if transport not in ("inproc", "tcp"):
            raise ValueError(
                f"transport must be 'inproc' or 'tcp', got {transport!r}"
            )
        self.transport = transport
        self.ring = ring
        self.replication = min(replication, ring.num_shards)
        self.pool_size = pool_size
        self.prefer_curated = prefer_curated
        self.shard_dir = shard_dir
        self.request_timeout = request_timeout
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_ROUTER_RETRY
        )
        assignments = replica_shards(ring.num_shards, self.replication)
        self.replicas = [
            _Replica(
                index=index,
                daemon=daemon,
                shards=assignments[index],
                breaker=CircuitBreaker(
                    error_threshold=0.5,
                    min_requests=1,
                    cooldown_seconds=breaker_cooldown,
                    window=16,
                ),
            )
            for index, daemon in enumerate(daemons)
        ]
        self._service = _RouterService(self, **service_kwargs)
        self._lock = threading.Lock()
        self._reroutes = 0
        self._rollouts = 0
        self._closed = False
        # Streaming-update accounting (repro.updates).
        self._deltas_applied = 0
        self._last_delta_seq: int | None = None
        self._last_delta_at = 0.0

    # -- Construction -------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        num_shards: int = 3,
        config: SynthesisConfig | None = None,
        replication: int = 2,
        shard_dir: str | Path | None = None,
        watch: bool = True,
        workers: int = 1,
        queue_size: int = 64,
        default_deadline: float = 0.0,
        poll_seconds: float = 0.25,
        prefer_curated: bool = True,
        service_cls: type[MappingService] = MappingService,
        request_timeout: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        breaker_cooldown: float = 1.0,
        transport: str = "inproc",
        **service_kwargs,
    ) -> "ClusterRouter":
        """Cut ``path`` into shard artifacts and start one daemon per replica.

        Every serving knob a single :meth:`SynthesisDaemon.from_artifact`
        accepts is forwarded to each replica (``workers`` sizes each replica's
        dispatcher threads, ``service_cls`` swaps the served service class,
        etc.), and the same threshold ``service_kwargs`` configure the
        router's own application objects — both sides must agree for
        byte-identity to hold.

        ``replication`` is how many replicas host each shard: ``1`` is pure
        partitioning (any replica loss makes some shard unservable); ``2``
        (the default) keeps answering with any single replica down, at the
        cost of each replica decoding two shard slices.  It is capped at
        ``num_shards``.  ``request_timeout`` is the per-scatter deadline for
        each replica submission and result wait; a replica that exceeds it
        is treated as failed and its shards are re-routed.  The *remaining*
        budget travels inside every lookup frame and is enforced replica-side
        too, so one number bounds a batch across transports.

        ``transport`` picks where the replicas live: ``"inproc"`` (the
        default) starts daemons in this process, ``"tcp"`` starts one
        :mod:`repro.net.server` subprocess per replica through
        :func:`~repro.net.server.spawn_replica_process`, whose
        :class:`~repro.net.RemoteReplica` client owns (and on close reaps)
        the process.  Merge semantics, failover, rollout, and
        deltas are identical either way.
        """
        from repro.store.artifact import load_artifact

        if transport not in ("inproc", "tcp"):
            raise ValueError(
                f"transport must be 'inproc' or 'tcp', got {transport!r}"
            )
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        path = Path(path)
        ring = HashRing(num_shards)
        shard_dir = (
            Path(shard_dir)
            if shard_dir is not None
            else path.parent / f"{path.name}.shards"
        )
        artifact = load_artifact(path)
        pool = (
            artifact.curated
            if prefer_curated and artifact.curated
            else artifact.mappings
        )
        paths = cut_shard_artifacts(
            artifact,
            shard_dir,
            ring,
            replication=replication,
            prefer_curated=prefer_curated,
        )
        serve_kwargs = dict(
            config=config,
            watch=watch,
            workers=workers,
            queue_size=queue_size,
            default_deadline=default_deadline,
            poll_seconds=poll_seconds,
            prefer_curated=prefer_curated,
            **service_kwargs,
        )
        daemons: list[Replica] = []
        try:
            for shard_path in paths:
                if transport == "inproc":
                    daemons.append(
                        SynthesisDaemon.from_artifact(
                            shard_path,
                            retry_policy=retry_policy,
                            service_cls=service_cls,
                            **serve_kwargs,
                        )
                    )
                    continue
                # Deferred import: the inproc cluster stays importable even if
                # a trimmed deployment drops the net package.
                from repro.net.server import spawn_replica_process

                daemons.append(
                    spawn_replica_process(
                        shard_path,
                        request_timeout=request_timeout,
                        service_cls=(
                            None if service_cls is MappingService else service_cls
                        ),
                        **serve_kwargs,
                    )
                )
        except BaseException:
            for daemon in daemons:
                daemon.close(drain=False)
            raise
        return cls(
            daemons,
            ring,
            replication=replication,
            shard_dir=shard_dir,
            pool_size=len(pool),
            prefer_curated=prefer_curated,
            request_timeout=request_timeout,
            retry_policy=retry_policy,
            breaker_cooldown=breaker_cooldown,
            transport=transport,
            **service_kwargs,
        )

    # -- Scatter-gather core ------------------------------------------------------------
    def _pick_cover(self, excluded: set[int]) -> list[_Replica]:
        """A minimal-ish healthy replica set jointly hosting every shard.

        Greedy primary-first: walk replicas in index order, take any healthy
        one that still contributes a needed shard.  With all replicas healthy
        this picks ``ceil(num_shards / replication)`` replicas, each answering
        from its own slice.
        """
        needed = set(range(self.ring.num_shards))
        cover: list[_Replica] = []
        for replica in self.replicas:
            if not needed:
                break
            if replica.index in excluded or replica.daemon.closed:
                continue
            if not (replica.shards & needed):
                continue
            if not replica.breaker.allow():
                continue
            cover.append(replica)
            needed -= replica.shards
        if needed:
            raise NoHealthyReplicaError(
                f"no healthy replica hosts shard(s) {sorted(needed)}: "
                f"{len(excluded)} replica(s) excluded this scatter, "
                f"breakers {[r.breaker.state for r in self.replicas]}"
            )
        return cover

    def _scatter(self, request: LookupRequest) -> list[MappingMatch]:
        """Scatter one lookup to a healthy cover; merge, dedup, truncate.

        On any replica failure (submit rejection, timeout, transport error,
        or an error envelope from the shard) the failed replica's breaker
        records the error and the whole scatter is re-attempted against a
        recomputed cover on the retry schedule.  Overlapping answers from the
        wider cover are absorbed by the dedup, so failover never changes the
        merged result.

        Each attempt runs against **one** deadline — ``request_timeout`` from
        the attempt's first submit.  The remaining budget is what each submit
        and each gather wait gets (in-process as the ticket ``deadline``, over
        tcp encoded into the lookup frame and re-enforced replica-side), so
        time burned submitting, stalling on the network, or waiting on one
        replica is never re-granted to the next.
        """
        if self._closed:
            raise ClusterError("cluster router is closed")
        excluded: set[int] = set()
        attempt = 0
        while True:
            cover = self._pick_cover(excluded)
            attempt_deadline = time.monotonic() + self.request_timeout
            failed: _Replica | None = None
            failure: Exception | None = None
            gathered: list[list[MappingMatch]] = []
            pending: list[tuple[_Replica, object]] = []
            for replica in cover:
                remaining = max(attempt_deadline - time.monotonic(), 0.0)
                try:
                    pending.append(
                        (
                            replica,
                            replica.daemon.submit(
                                "cluster_lookup",
                                (request,),
                                deadline=remaining,
                                block=True,
                                timeout=max(remaining, 0.001),
                            ),
                        )
                    )
                except Exception as exc:
                    failed, failure = replica, exc
                    break
            if failed is None:
                for replica, ticket in pending:
                    remaining = max(attempt_deadline - time.monotonic(), 0.0)
                    if failed is not None:
                        # A sibling already failed this round; still collect
                        # the remaining tickets so their work is accounted.
                        try:
                            ticket.result(timeout=remaining)
                        except Exception:
                            pass
                        continue
                    try:
                        result = ticket.result(timeout=remaining)
                        response: ServedResponse = result.responses[0]
                        if response.error is not None:
                            raise ClusterError(
                                f"replica {replica.index} lookup failed: "
                                f"{response.error}"
                            )
                        gathered.append(response.result)
                        replica.breaker.record(1, 0)
                        replica.served += 1
                    except Exception as exc:
                        failed, failure = replica, exc
            if failed is None:
                return self._merge(gathered, request.top_k)
            failed.breaker.record(0, 1)
            failed.failed += 1
            excluded.add(failed.index)
            with self._lock:
                self._reroutes += 1
            attempt += 1
            if attempt > self.retry_policy.attempts:
                raise ClusterError(
                    f"scatter failed after {attempt} attempt(s); last failure "
                    f"on replica {failed.index}: {failure}"
                ) from failure
            if not isinstance(
                failure, (type(None), ClusterError)
            ) and not self.retry_policy.retries(failure):
                raise ClusterError(
                    f"scatter failed on replica {failed.index}: {failure}"
                ) from failure
            time.sleep(self.retry_policy.delay(attempt))

    @staticmethod
    def _merge(gathered: Iterable[list[MappingMatch]], top_k: int) -> list[MappingMatch]:
        best: dict[str, MappingMatch] = {}
        for matches in gathered:
            for match in matches:
                # Replicas hosting the same shard compute identical matches
                # for the same mapping, so first-seen wins is not a choice.
                best.setdefault(match.mapping.mapping_id, match)
        ordered = sorted(
            best.values(),
            key=lambda match: (-match.score, mapping_rank_key(match.mapping)),
        )
        return ordered[:top_k]

    # -- Serving entry points -----------------------------------------------------------
    def autofill(self, requests: Sequence[FillRequest]) -> list[ServedResponse]:
        """Serve an auto-fill batch; envelopes in submission order."""
        return self._service.autofill(requests)

    def autojoin(self, requests: Sequence[JoinRequest]) -> list[ServedResponse]:
        """Serve an auto-join batch; envelopes in submission order."""
        return self._service.autojoin(requests)

    def autocorrect(self, requests: Sequence[CorrectRequest]) -> list[ServedResponse]:
        """Serve an auto-correct batch; envelopes in submission order."""
        return self._service.autocorrect(requests)

    def serve(self, kind: str, requests: Sequence[object]) -> list[ServedResponse]:
        """Serve one batch by kind name (the dynamic-dispatch entry point)."""
        if kind not in ROUTER_REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {kind!r}; expected {ROUTER_REQUEST_KINDS}"
            )
        return getattr(self._service, kind)(requests)

    @property
    def stats(self) -> ServiceStats:
        """The router-level serving stats (per-request kinds and latencies)."""
        return self._service.stats

    # -- Live delta application (repro.updates) -----------------------------------------
    def apply_delta(
        self,
        upserts: Iterable[object],
        removed: Iterable[str],
        *,
        seq: int,
        pool_size: int | None = None,
    ) -> None:
        """Scatter one update-stream delta to the replicas owning its shards.

        Each mapping id is routed by the same :meth:`HashRing.shard_of`
        placement the artifact cutter uses, so every replica receives exactly
        the slice of the patch that falls in its shards (upserts **and**
        removals) and patches its daemon in place via
        :meth:`SynthesisDaemon.apply_delta`.  Replicas whose slice is empty
        are not touched; closed replicas are skipped (a restarted replica
        catches up from the compacted artifact).  ``pool_size`` updates the
        router's advertised global pool size after the patch.
        """
        if self._closed:
            raise ClusterError("cluster router is closed")
        upserts = list(upserts)
        removed = list(removed)
        for replica in self.replicas:
            if replica.daemon.closed:
                continue
            shard_upserts = [
                mapping
                for mapping in upserts
                if self.ring.shard_of(mapping.mapping_id) in replica.shards
            ]
            shard_removed = [
                mapping_id
                for mapping_id in removed
                if self.ring.shard_of(mapping_id) in replica.shards
            ]
            if not shard_upserts and not shard_removed:
                continue
            try:
                replica.daemon.apply_delta(shard_upserts, shard_removed, seq=seq)
            except DaemonStoppedError:
                # Closed between the check and the call — same as skipping.
                continue
        if pool_size is not None:
            self.pool_size = pool_size
        with self._lock:
            self._deltas_applied += 1
            self._last_delta_seq = seq
            self._last_delta_at = time.monotonic()

    # -- Rollout ------------------------------------------------------------------------
    def rollout(self, source, *, timeout: float = 30.0) -> list[int]:
        """Rolling artifact rollout: re-cut and publish one replica at a time.

        ``source`` is a new full artifact (object or path).  For each live
        replica in index order: cut its shard slice to its watched path, then
        wait (:meth:`Replica.await_generation`) for that replica's generation
        tag to advance before moving on — at any instant at most one replica
        is swapping, and every batch is still served entirely by one
        generation of one replica.  Closed replicas, and replicas whose
        ``health()`` reports no watcher (started with ``watch=False``, or
        unreachable), are not waited on; their files are still re-cut, so a
        restarted replica comes back on the new version.  Returns the
        post-rollout generation numbers.
        """
        from repro.store.artifact import SynthesisArtifact, load_artifact

        if self.shard_dir is None:
            raise ClusterError(
                "this router was not built from shard artifacts; nothing to roll"
            )
        artifact = (
            source
            if isinstance(source, SynthesisArtifact)
            else load_artifact(source)
        )
        for replica in self.replicas:
            health = None if replica.daemon.closed else replica.daemon.health()
            watching = health is not None and health["watcher"] is not None
            target = health["generation"] + 1 if watching else None
            cut_shard_artifacts(
                artifact,
                self.shard_dir,
                self.ring,
                replication=self.replication,
                prefer_curated=self.prefer_curated,
                only_replica=replica.index,
            )
            if target is None:
                continue
            reached = replica.daemon.await_generation(target, timeout=timeout)
            if reached < target:
                raise ClusterError(
                    f"replica {replica.index} did not reach generation {target} "
                    f"within {timeout}s (reached {reached}; "
                    f"watcher: {replica.daemon.health()['watcher']})"
                )
        with self._lock:
            self._rollouts += 1
        return [replica.daemon.health()["generation"] for replica in self.replicas]

    # -- Chaos / lifecycle --------------------------------------------------------------
    def kill(self, index: int) -> None:
        """Abruptly stop one replica: ``close(drain=False)``, the chaos drill.

        Idempotent and never raises: killing an already-dead replica is a
        no-op.  Over tcp the replica kills its server process, so the drill
        severs real sockets.
        """
        try:
            self.replicas[index].daemon.close(drain=False)
        except Exception:
            pass

    def health(self) -> dict[str, object]:
        """One JSON-able snapshot aggregating every replica's health."""
        replicas = []
        reasons: list[str] = []
        transports: list[dict[str, object]] = []
        for replica in self.replicas:
            daemon_health = replica.daemon.health()
            breaker = replica.breaker.snapshot()
            if replica.daemon.closed:
                reasons.append(f"replica {replica.index} is closed")
            elif breaker["state"] in ("open", "half-open"):
                reasons.append(
                    f"replica {replica.index} breaker is {breaker['state']}"
                )
            elif daemon_health["status"] != "ok":
                reasons.append(
                    f"replica {replica.index} daemon is {daemon_health['status']}"
                )
            transports.append(daemon_health["transport"])
            replicas.append(
                {
                    "index": replica.index,
                    "shards": sorted(replica.shards),
                    "closed": replica.daemon.closed,
                    "served": replica.served,
                    "failed": replica.failed,
                    "breaker": breaker,
                    "daemon": daemon_health,
                }
            )
        stats = self._service.stats.as_dict()
        with self._lock:
            reroutes = self._reroutes
            rollouts = self._rollouts
            closed = self._closed
        status = "closed" if closed else ("degraded" if reasons else "ok")
        # Fleet-wide transport aggregate over the one transport key set:
        # integer counters sum across replicas, float rtt percentiles take the
        # worst replica (the one a slow tail hides in).
        transport_aggregate: dict[str, object] = {"kind": self.transport}
        for key, zero in INPROC_TRANSPORT_SNAPSHOT.items():
            if key == "kind":
                continue
            values = [type(zero)(snapshot.get(key, zero)) for snapshot in transports]
            transport_aggregate[key] = (
                max(values, default=zero) if isinstance(zero, float) else sum(values)
            )
        return {
            "status": status,
            "degraded_reasons": reasons,
            "transport": transport_aggregate,
            "num_shards": self.ring.num_shards,
            "replication": self.replication,
            "generations": [replica["daemon"]["generation"] for replica in replicas],
            "replicas": replicas,
            "requests": stats["requests"],
            "errors": stats["errors"],
            "reroutes": reroutes,
            "rollouts": rollouts,
            "deltas_applied": self._deltas_applied,
            "last_delta_seq": self._last_delta_seq,
            "update_lag": (
                time.monotonic() - self._last_delta_at
                if self._last_delta_at
                else 0.0
            ),
        }

    def close(self, *, drain: bool = True) -> None:
        """Stop every replica (a spawned tcp replica reaps its process too).

        Idempotent and never raises: a double close (or a close racing
        :meth:`kill`, or an exit path running after a partial failure) finds
        every daemon, socket, and subprocess already released and does
        nothing.  One replica failing to stop never strands the rest.
        """
        self._closed = True
        for replica in self.replicas:
            try:
                replica.daemon.close(drain=drain)
            except Exception:
                pass

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterRouter(shards={self.ring.num_shards}, "
            f"replication={self.replication}, "
            f"replicas={len(self.replicas)})"
        )
