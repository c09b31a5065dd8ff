"""Batched mapping-serving layer over a prebuilt :class:`MappingIndex`.

The paper's end-game is interactive applications — auto-fill, auto-join,
auto-correct (Table 4) — answering many small requests.  Re-running the
pipeline (or even rebuilding the index) per request would dwarf the request
itself, so :class:`MappingService` builds the index **once** — from an
in-process :class:`~repro.core.pipeline.PipelineResult` or from a persisted
artifact (:mod:`repro.store`) — and serves batches against it.

Serving is deterministic: the mapping pool is ordered by the same total order
as :meth:`PipelineResult.top_mappings` (popularity, tables, size, then
``mapping_id``), so a service loaded from an artifact returns byte-identical
answers to one built from the fresh run that produced the artifact.

Every response is wrapped in a :class:`ServedResponse` envelope carrying
per-request latency and any per-request error, so one malformed request cannot
take down the rest of its batch, and :class:`ServiceStats` aggregates counts
and latencies across the service's lifetime.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.store.artifact import SynthesisArtifact

from repro.applications.autocorrect import AutoCorrector, CorrectionSuggestion
from repro.applications.autofill import AutoFiller, FillResult
from repro.applications.autojoin import AutoJoiner, JoinResult
from repro.applications.index import MappingIndex
from repro.core.mapping import MappingRelationship, mapping_rank_key
from repro.core.pipeline import PipelineResult

__all__ = [
    "FillRequest",
    "JoinRequest",
    "CorrectRequest",
    "LookupRequest",
    "ServedResponse",
    "ServiceStats",
    "MappingService",
]


# ---------------------------------------------------------------------------------------
# Request / response envelopes
# ---------------------------------------------------------------------------------------
@dataclass(frozen=True)
class FillRequest:
    """One auto-fill request: a key column plus optional example outputs.

    ``examples`` accepts any ``row index -> value`` mapping and is normalized
    to a sorted tuple of items, so the request is deeply immutable and hashable
    like the other request types (mutating the dict passed in cannot change the
    request afterwards).
    """

    keys: tuple[str, ...]
    examples: Mapping[int, str] | tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        items = dict(self.examples).items() if self.examples else ()
        object.__setattr__(self, "examples", tuple(sorted(items, key=lambda kv: repr(kv[0]))))


@dataclass(frozen=True)
class JoinRequest:
    """One auto-join request: two key columns to bridge through a mapping."""

    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_keys", tuple(self.left_keys))
        object.__setattr__(self, "right_keys", tuple(self.right_keys))


@dataclass(frozen=True)
class CorrectRequest:
    """One auto-correct request: a column that may mix representations."""

    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class LookupRequest:
    """One shard-local index lookup, used by the cluster scatter-gather tier.

    A :class:`~repro.cluster.ClusterRouter` decomposes every application
    request into raw :meth:`MappingIndex.lookup` / :meth:`~MappingIndex.
    lookup_pairs` calls, scatters them to shard replicas as ``cluster_lookup``
    batches, and merges the returned :class:`~repro.applications.index.
    MappingMatch` lists.  ``op`` selects the index entry point: ``"values"``
    carries a tuple of cell values, ``"pairs"`` a tuple of ``(left, right)``
    example pairs.
    """

    op: str
    values: tuple = ()
    min_containment: float = 0.5
    top_k: int = 5

    def __post_init__(self) -> None:
        if self.op not in ("values", "pairs"):
            raise ValueError(f"unknown lookup op {self.op!r}")
        object.__setattr__(
            self,
            "values",
            tuple(
                tuple(value) if isinstance(value, (list, tuple)) else value
                for value in self.values
            ),
        )


@dataclass
class ServedResponse:
    """Envelope around one request's outcome within a batch.

    ``result`` is the underlying application result (:class:`FillResult`,
    :class:`JoinResult`, or a list of :class:`CorrectionSuggestion`); ``error``
    carries the message of a per-request failure instead of aborting the batch.
    """

    kind: str
    request_index: int
    elapsed_seconds: float
    result: FillResult | JoinResult | list[CorrectionSuggestion] | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the request was served without error."""
        return self.error is None


#: How many recent per-request latencies each ServiceStats retains per kind for
#: percentile reporting (a bounded window, so a long-lived daemon cannot grow
#: its stats without bound).
STATS_LATENCY_WINDOW = 1024


@dataclass
class ServiceStats:
    """Lifetime counters for one :class:`MappingService`.

    All mutation goes through :meth:`record` / :meth:`record_batch`, which hold
    an internal lock — a service shared by a pool of daemon worker threads
    (:class:`repro.serving.SynthesisDaemon`) must not lose counts to check-
    then-set races on the shared dicts.  ``generation`` tags the stats with the
    served artifact generation, so a daemon that hot-swaps services keeps one
    cleanly separated :class:`ServiceStats` per generation.
    """

    source: str = "memory"
    generation: int = 0
    index_size: int = 0
    build_seconds: float = 0.0
    load_seconds: float = 0.0
    batches: int = 0
    requests: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    serve_seconds: dict[str, float] = field(default_factory=dict)
    recent_seconds: dict[str, deque[float]] = field(default_factory=dict)
    # -- Shed-load counters: work the service *refused* rather than served, so
    #    operators see degradation directly instead of inferring it from a
    #    throughput dip.  Bumped via :meth:`bump` by the daemon front-end.
    #: Batches rejected at submit time because the queue was full.
    rejected: int = 0
    #: Batches failed because their deadline expired while still queued.
    expired: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, counter: str, amount: int = 1) -> int:
        """Increment one shed-load counter by name (thread-safe); returns it.

        Only the shed-load counters are reachable — the served-path counters
        must go through :meth:`record` so their dicts stay consistent.
        """
        if counter not in {"rejected", "expired"}:
            raise ValueError(f"unknown shed-load counter {counter!r}")
        with self._lock:
            value = getattr(self, counter) + amount
            setattr(self, counter, value)
            return value

    @property
    def total_requests(self) -> int:
        """Requests served across all kinds (including errored ones)."""
        with self._lock:
            return sum(self.requests.values())

    def record(self, kind: str, elapsed: float, ok: bool) -> None:
        """Fold one served request into the counters (thread-safe)."""
        with self._lock:
            self.requests[kind] = self.requests.get(kind, 0) + 1
            self.serve_seconds[kind] = self.serve_seconds.get(kind, 0.0) + elapsed
            try:
                self.recent_seconds[kind].append(elapsed)
            except KeyError:
                self.recent_seconds[kind] = deque(
                    [elapsed], maxlen=STATS_LATENCY_WINDOW
                )
            if not ok:
                self.errors[kind] = self.errors.get(kind, 0) + 1

    def record_batch(self) -> None:
        """Count one served batch (thread-safe)."""
        with self._lock:
            self.batches += 1

    def latency_percentile(self, kind: str, quantile: float) -> float:
        """Latency percentile (e.g. ``0.95``) over the recent window for ``kind``.

        Returns 0.0 when no request of that kind has been recorded yet.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            window = sorted(self.recent_seconds.get(kind, ()))
        if not window:
            return 0.0
        position = min(len(window) - 1, int(quantile * len(window)))
        return window[position]

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for reporting artifacts (a consistent snapshot)."""
        with self._lock:
            return {
                "source": self.source,
                "generation": self.generation,
                "index_size": self.index_size,
                "build_seconds": self.build_seconds,
                "load_seconds": self.load_seconds,
                "batches": self.batches,
                "total_requests": sum(self.requests.values()),
                "requests": dict(self.requests),
                "errors": dict(self.errors),
                "serve_seconds": dict(self.serve_seconds),
                "shed": {"rejected": self.rejected, "expired": self.expired},
            }


def _serving_order(mappings: Iterable[MappingRelationship]) -> list[MappingRelationship]:
    """The deterministic pool order shared with :meth:`PipelineResult.top_mappings`."""
    return sorted(mappings, key=mapping_rank_key)


# ---------------------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------------------
class MappingService:
    """Answers batched autofill/autojoin/autocorrect requests.

    One :class:`MappingIndex` build is amortized over every request the service
    ever answers.  Construct it from mappings directly, from a pipeline result
    (:meth:`from_result`), or — the intended production path — from a persisted
    artifact (:meth:`from_artifact`).
    """

    def __init__(
        self,
        mappings: Iterable[MappingRelationship],
        *,
        min_containment: float = 0.5,
        min_example_agreement: float = 0.99,
        correction_containment: float = 0.6,
        source: str = "memory",
    ) -> None:
        start = time.perf_counter()
        pool = _serving_order(mappings)
        self.index = MappingIndex(pool)
        self.filler = AutoFiller(self.index, min_example_agreement=min_example_agreement)
        self.joiner = AutoJoiner(self.index, min_containment=min_containment)
        self.corrector = AutoCorrector(self.index, min_containment=correction_containment)
        #: The thresholds this service was built with, as kwargs —
        #: :meth:`with_pool` builds the next service of a streamed delta
        #: with them.
        self.serving_kwargs: dict[str, float] = {
            "min_containment": min_containment,
            "min_example_agreement": min_example_agreement,
            "correction_containment": correction_containment,
        }
        self.stats = ServiceStats(
            source=source,
            index_size=len(self.index),
            build_seconds=time.perf_counter() - start,
        )

    @property
    def mapping_pool(self) -> list[MappingRelationship]:
        """The served mappings in their deterministic serving order.

        Rebuilding a service from this list (with :attr:`serving_kwargs`)
        reproduces this service's answers exactly — ``_serving_order`` is a
        total order, so re-sorting an already-sorted pool is the identity.
        """
        return list(self.index.mappings)

    def __len__(self) -> int:
        return len(self.index)

    # -- Constructors -------------------------------------------------------------------
    @classmethod
    def from_result(
        cls, result: PipelineResult, *, prefer_curated: bool = True, **kwargs
    ) -> "MappingService":
        """Build a service from an in-process pipeline run.

        Serves the curated mappings when curation kept any (the paper's intended
        deployment), otherwise all synthesized mappings — the same fallback as
        :meth:`PipelineResult.top_mappings`.
        """
        pool = result.curated if prefer_curated and result.curated else result.mappings
        kwargs.setdefault("source", "result")
        return cls(pool, **kwargs)

    @classmethod
    def from_artifact(
        cls, path: str | Path, *, prefer_curated: bool = True, **kwargs
    ) -> "MappingService":
        """Load a persisted artifact and build the service from it.

        This is the cold-start path for serving processes: no extraction,
        scoring, or synthesis — just artifact deserialization plus one index
        build.  Sectioned (v2) artifacts load lazily, so this decodes **only**
        the mappings + curation sections; candidates, profiles, and edges stay
        encoded on disk.  The load-and-decode time (everything but the index
        build) is recorded in :attr:`ServiceStats.load_seconds`.
        """
        from repro.store.artifact import load_artifact

        start = time.perf_counter()
        artifact = load_artifact(path)
        kwargs.setdefault("source", f"artifact:{path}")
        service = cls.from_artifact_object(
            artifact, prefer_curated=prefer_curated, **kwargs
        )
        # Lazy artifacts decode their served sections inside from_artifact_object,
        # so "load" is everything up to here minus the index build itself.
        service.stats.load_seconds = (
            time.perf_counter() - start - service.stats.build_seconds
        )
        return service

    @classmethod
    def from_artifact_object(
        cls, artifact: "SynthesisArtifact", *, prefer_curated: bool = True, **kwargs
    ) -> "MappingService":
        """Build a service from an already-loaded artifact.

        Used by callers that need the artifact itself as well as the service —
        the serving daemon's hot-reload path loads the artifact once, tags the
        new generation with its corpus fingerprint, and builds the service from
        the same object.  Touches only :attr:`SynthesisArtifact.curated` /
        :attr:`~SynthesisArtifact.mappings`, so a lazy artifact's cold
        sections (profiles, edges, candidates) are never decoded — a hot
        reload pays for exactly what it serves.
        """
        curated = artifact.curated
        pool = curated if prefer_curated and curated else artifact.mappings
        kwargs.setdefault("source", "artifact")
        return cls(pool, **kwargs)

    def with_pool(
        self, mappings: Iterable[MappingRelationship], *, source: str | None = None
    ) -> "MappingService":
        """A new service over ``mappings``, sharing this one's thresholds.

        The streaming-update path: per-mapping index entries are reused
        (:meth:`MappingIndex.patched`) for every mapping this service already
        indexes, so the cost is O(changed mappings), not O(pool).
        Answers are identical to ``type(self)(mappings, **serving_kwargs)`` —
        ``_serving_order`` is a total order and index entries are pure
        per-mapping.  Subclasses that add construction-time state must
        override this method (the base implementation only wires the fields
        ``MappingService.__init__`` sets).
        """
        start = time.perf_counter()
        service = type(self).__new__(type(self))
        pool = _serving_order(mappings)
        service.index = MappingIndex.patched(self.index, pool)
        service.filler = AutoFiller(
            service.index,
            min_example_agreement=self.serving_kwargs["min_example_agreement"],
        )
        service.joiner = AutoJoiner(
            service.index, min_containment=self.serving_kwargs["min_containment"]
        )
        service.corrector = AutoCorrector(
            service.index,
            min_containment=self.serving_kwargs["correction_containment"],
        )
        service.serving_kwargs = dict(self.serving_kwargs)
        service.stats = ServiceStats(
            source=source or self.stats.source,
            index_size=len(service.index),
            build_seconds=time.perf_counter() - start,
        )
        return service

    # -- Batched serving ----------------------------------------------------------------
    def _serve_batch(
        self, kind: str, requests: Sequence[object], handler: Callable[[object], object]
    ) -> list[ServedResponse]:
        responses: list[ServedResponse] = []
        self.stats.record_batch()
        for position, request in enumerate(requests):
            start = time.perf_counter()
            try:
                outcome = handler(request)
                error = None
            except Exception as exc:
                # Any per-request failure — bad indices, malformed values — is
                # isolated in its envelope; the rest of the batch still serves.
                outcome = None
                error = str(exc) or type(exc).__name__
            elapsed = time.perf_counter() - start
            self.stats.record(kind, elapsed, ok=error is None)
            responses.append(
                ServedResponse(
                    kind=kind,
                    request_index=position,
                    elapsed_seconds=elapsed,
                    result=outcome,
                    error=error,
                )
            )
        return responses

    def autofill(self, requests: Sequence[FillRequest]) -> list[ServedResponse]:
        """Serve a batch of auto-fill requests (empty batch → empty list)."""
        return self._serve_batch(
            "autofill",
            requests,
            lambda request: self.filler.fill(
                list(request.keys), dict(request.examples or {})
            ),
        )

    def autojoin(self, requests: Sequence[JoinRequest]) -> list[ServedResponse]:
        """Serve a batch of auto-join requests (empty batch → empty list)."""
        return self._serve_batch(
            "autojoin",
            requests,
            lambda request: self.joiner.join(
                list(request.left_keys), list(request.right_keys)
            ),
        )

    def autocorrect(self, requests: Sequence[CorrectRequest]) -> list[ServedResponse]:
        """Serve a batch of auto-correct requests (empty batch → empty list)."""
        return self._serve_batch(
            "autocorrect",
            requests,
            lambda request: self.corrector.suggest(list(request.values)),
        )

    def _lookup_one(self, request: LookupRequest) -> list:
        if request.op == "pairs":
            return self.index.lookup_pairs(
                list(request.values),
                min_containment=request.min_containment,
                top_k=request.top_k,
            )
        return self.index.lookup(
            list(request.values),
            min_containment=request.min_containment,
            top_k=request.top_k,
        )

    def cluster_lookup(self, requests: Sequence[LookupRequest]) -> list[ServedResponse]:
        """Serve a batch of raw index lookups for the cluster scatter-gather tier.

        Each response's ``result`` is the shard-local ``list[MappingMatch]``
        (full mapping objects).  Because every mapping's score is computed
        independently of the rest of the pool, a router that merges
        shard-local top-k lists by ``(-score, mapping_rank_key)`` and
        truncates reproduces the single-index answer exactly (see
        :mod:`repro.cluster`).
        """
        return self._serve_batch("cluster_lookup", requests, self._lookup_one)
